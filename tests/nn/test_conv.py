"""Convolutions: shapes, values, adjointness, and gradients."""

import numpy as np
import pytest

from repro.nn import Conv2d, ConvTranspose2d, BatchNorm2d, Tensor
from repro.nn.conv import _col2im_gemm, _im2col_gemm

from tests.conftest import numeric_gradient


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols, oh, ow = _im2col_gemm(x, 3, 3, stride=2, pad=1)
        assert (oh, ow) == (4, 4)
        assert cols.shape == (2 * 16, 3 * 9)

    def test_adjoint_identity(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint pair."""
        x = rng.normal(size=(1, 2, 6, 6))
        cols, oh, ow = _im2col_gemm(x, 3, 3, stride=1, pad=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = _col2im_gemm(y, x.shape, 3, 3, stride=1, pad=1, oh=oh, ow=ow)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs)


class TestConv2d:
    def test_output_shape(self, rng):
        conv = Conv2d(1, 4, kernel_size=4, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(3, 1, 8, 8))))
        assert out.shape == (3, 4, 4, 4)

    def test_known_value(self):
        conv = Conv2d(1, 1, kernel_size=2, stride=1, padding=0)
        conv.weight.data = np.ones((1, 1, 2, 2))
        conv.bias.data = np.zeros(1)
        x = np.arange(9.0).reshape(1, 1, 3, 3)
        out = conv(Tensor(x)).data
        # Each output cell sums its 2x2 window.
        np.testing.assert_allclose(out[0, 0], [[8.0, 12.0], [20.0, 24.0]])

    def test_gradients(self, rng):
        conv = Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 6, 6))
        t = Tensor(x, requires_grad=True)
        (conv(t) ** 2).sum().backward()
        numeric = numeric_gradient(
            lambda: float((conv(Tensor(x)) ** 2).sum().data), x)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-6)
        numeric_w = numeric_gradient(
            lambda: float((conv(Tensor(x)) ** 2).sum().data),
            conv.weight.data)
        np.testing.assert_allclose(conv.weight.grad, numeric_w, atol=1e-6)


class TestConvTranspose2d:
    def test_inverts_conv_shape(self, rng):
        deconv = ConvTranspose2d(3, 1, kernel_size=4, stride=2, padding=1,
                                 rng=rng)
        out = deconv(Tensor(rng.normal(size=(2, 3, 4, 4))))
        assert out.shape == (2, 1, 8, 8)

    def test_output_size_formula(self, rng):
        deconv = ConvTranspose2d(1, 1, kernel_size=4, stride=2, padding=1)
        assert deconv.output_size(4) == 8
        assert deconv.output_size(2) == 4

    def test_gradients(self, rng):
        deconv = ConvTranspose2d(2, 2, kernel_size=4, stride=2, padding=1,
                                 rng=rng)
        x = rng.normal(size=(1, 2, 3, 3))
        t = Tensor(x, requires_grad=True)
        (deconv(t) ** 2).sum().backward()
        numeric = numeric_gradient(
            lambda: float((deconv(Tensor(x)) ** 2).sum().data), x)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-6)

    def test_adjoint_of_conv(self, rng):
        """conv and conv_transpose with tied weights are adjoint maps.

        Sizes must round-trip exactly: 8 --conv(k4,s2,p1)--> 4
        --deconv(k4,s2,p1)--> 8.
        """
        conv = Conv2d(2, 3, kernel_size=4, stride=2, padding=1, rng=rng,
                      bias=False)
        deconv = ConvTranspose2d(3, 2, kernel_size=4, stride=2, padding=1,
                                 bias=False)
        # conv weight (OC, C, k, k) doubles as deconv weight (in=OC, out=C).
        deconv.weight.data = conv.weight.data
        x = rng.normal(size=(1, 2, 8, 8))
        y = rng.normal(size=(1, 3, 4, 4))
        lhs = float((conv(Tensor(x)).data * y).sum())
        rhs = float((x * deconv(Tensor(y)).data).sum())
        assert lhs == pytest.approx(rhs)


class TestBatchNorm2d:
    def test_per_channel_normalization(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(2.0, 3.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-8)

    def test_eval_mode(self, rng):
        bn = BatchNorm2d(2)
        for _ in range(5):
            bn(Tensor(rng.normal(size=(8, 2, 3, 3))))
        bn.eval()
        out = bn(Tensor(rng.normal(size=(1, 2, 3, 3))))
        assert np.isfinite(out.data).all()
