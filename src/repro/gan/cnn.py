"""CNN (DCGAN-style) generator and discriminator for matrix-form samples.

Follows the paper's Appendix A.1.1 (Figure 10) / tableGAN: the generator
de-convolves the noise up to a ``side x side`` single-channel matrix with
a tanh output; the discriminator convolves the matrix down to one logit.
Records are padded into the matrix by
:class:`repro.transform.MatrixTransformer` (ordinal + simple
normalization only — the matrix form carries one value per attribute).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import (
    BatchNorm2d, Conv2d, ConvTranspose2d, Linear, Module, Tensor,
)
from ..errors import ConfigError

#: Matrix side used by the CNN pipeline (8x8 = up to 64 attributes).
DEFAULT_SIDE = 8


class CNNGenerator(Module):
    """z -> (1, side, side) matrix sample via fractionally strided convs."""

    def __init__(self, z_dim: int, side: int = DEFAULT_SIDE,
                 base_channels: int = 32,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if side % 4 != 0:
            raise ConfigError("CNN generator needs side divisible by 4")
        self.z_dim = z_dim
        self.side = side
        self.start = side // 4
        self.channels = base_channels * 2
        self.project = Linear(z_dim, self.channels * self.start ** 2, rng=rng)
        self.deconv1 = ConvTranspose2d(self.channels, base_channels,
                                       kernel_size=4, stride=2, padding=1,
                                       rng=rng)
        self.bn1 = BatchNorm2d(base_channels)
        self.deconv2 = ConvTranspose2d(base_channels, 1, kernel_size=4,
                                       stride=2, padding=1, rng=rng)

    def forward(self, z: Tensor, cond: Optional[Tensor] = None) -> Tensor:
        if cond is not None:
            raise ConfigError("the CNN pipeline is unconditional")
        batch = z.shape[0]
        h = self.project(z, activation="relu")
        h = h.reshape(batch, self.channels, self.start, self.start)
        # The activation/bn hooks fuse deconv + BN + nonlinearity into
        # one tape node (the per-tap GEMM fold) in either engine dtype.
        h = self.deconv1(h, activation="relu", bn=self.bn1)
        return self.deconv2(h, activation="tanh")


class CNNDiscriminator(Module):
    """(1, side, side) matrix -> realness logit via strided convolutions."""

    def __init__(self, side: int = DEFAULT_SIDE, base_channels: int = 32,
                 simplified: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if side % 4 != 0:
            raise ConfigError("CNN discriminator needs side divisible by 4")
        if simplified:
            base_channels = max(8, base_channels // 4)
        self.side = side
        self.simplified = simplified
        self.conv1 = Conv2d(1, base_channels, kernel_size=4, stride=2,
                            padding=1, rng=rng)
        self.conv2 = Conv2d(base_channels, base_channels * 2, kernel_size=4,
                            stride=2, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(base_channels * 2)
        flat = base_channels * 2 * (side // 4) ** 2
        self.out = Linear(flat, 1, rng=rng)

    def forward(self, t: Tensor, cond: Optional[Tensor] = None) -> Tensor:
        if cond is not None:
            raise ConfigError("the CNN pipeline is unconditional")
        batch = t.shape[0]
        h = self.conv1(t, activation="leaky_relu", slope=0.2)
        h = self.conv2(h, activation="leaky_relu", slope=0.2, bn=self.bn2)
        h = h.reshape(batch, -1)
        return self.out(h)
