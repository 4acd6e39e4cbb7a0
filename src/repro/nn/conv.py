"""Convolution and transposed convolution for matrix-form samples.

The paper's CNN design (Appendix A.1.1, Figure 10) follows DCGAN: the
generator is a stack of fractionally strided (de-)convolutions and the
discriminator a stack of strided convolutions.  Layout convention is
``(batch, channels, height, width)``.

One kernel set
--------------
Both engine dtypes run the same fused tape nodes,
:func:`conv2d_bn_act` and :func:`conv_transpose2d_bn_act` (conv +
analytic BatchNorm2d + activation in a single node, the conv analogue of
:func:`repro.nn.layers.fused_linear`); the dtype is a parameter, not a
fork.  Every contraction is a BLAS matrix product:

* **convolution** — the input is unfolded (im2col) into the GEMM-batched
  ``(N*oh*ow, C*kh*kw)`` layout by one ``copyto`` from a
  ``np.lib.stride_tricks.sliding_window_view`` strided view, and the
  forward and both gradients are one matmul each;
* **transposed convolution** — the forward is a per-tap GEMM fold over
  the batch-innermost ``(C, h, w, N)`` input (:func:`_fold_taps`): one
  ``(OC, C) @ (C, h*w*N)`` product per kernel tap, accumulated into the
  cropped output without materialising the ``(N*h*w, OC*kh*kw)``
  column matrix; the backward unfolds the output gradient once and
  takes each gradient as one matmul.  Its output is an ``(N, C, H, W)``
  view of batch-innermost memory, so a DCGAN generator re-lays its
  input out once, at the first transposed conv.

float64 stays the higher-precision deterministic mode, but its conv
outputs are no longer bit-identical to the historical einsum
implementation: the GEMMs sum in a different order.

Column, padding, re-layout and tap scratch buffers are recycled via a
per-layer :class:`repro.nn.tensor.ArrayPool` (the tape-allocation-churn
item): forward takes a buffer, the backward closure returns it once the
gradients no longer alias it; scratch no backward reads (the fold's tap
buffer) goes back before the forward returns, and on the no-grad path
everything does.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import init
from .layers import _act_backward, _act_forward, _bn_input_grad
from .module import Module, Parameter
from .tensor import ArrayPool, Tensor, _donate_mask, _donate_scratch


def _conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _check_output_size(oh: int, ow: int, x_shape: Tuple[int, ...],
                       kernel: int, stride: int, pad: int,
                       transposed: bool = False) -> None:
    """Reject degenerate spatial outputs with a shape-naming error.

    Without this, a kernel larger than the padded input (or a
    transposed convolution whose padding crops away the whole output)
    silently yields a non-positive output size and crashes much later
    in ``reshape`` with an unrelated message.
    """
    if oh <= 0 or ow <= 0:
        if transposed:
            cause = ("padding crops the whole output (needs "
                     "2*padding < (size-1)*stride + kernel_size)")
        else:
            cause = "the (padded) input is smaller than the kernel"
        kind = "transposed convolution" if transposed else "convolution"
        raise ValueError(
            f"{kind} produces empty output {oh}x{ow} for input "
            f"{tuple(x_shape)} with kernel_size={kernel}, stride={stride}, "
            f"padding={pad}; {cause}")


def _pad_input(x: np.ndarray, pad: int,
               pool: Optional[ArrayPool] = None) -> np.ndarray:
    """Zero-pad the two spatial axes (manual fill; ``np.pad`` is slow)."""
    if pad == 0:
        return x
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * pad, w + 2 * pad)
    xp = pool.take(shape, x.dtype) if pool is not None else np.empty(
        shape, dtype=x.dtype)
    xp.fill(0.0)
    xp[:, :, pad:-pad, pad:-pad] = x
    return xp


def _window_view(xp: np.ndarray, kh: int, kw: int,
                 stride: int) -> np.ndarray:
    """Strided ``(N, C, oh, ow, kh, kw)`` view of every receptive field."""
    view = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    if stride != 1:
        view = view[:, :, ::stride, ::stride]
    return view


def _im2col_gemm(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
                 pool: Optional[ArrayPool] = None
                 ) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` into the GEMM-batched ``(N*oh*ow, C*kh*kw)`` layout.

    The convolution forward becomes one ``(N*oh*ow, C*kh*kw) @
    (C*kh*kw, OC)`` BLAS call and the weight/input gradients two more.
    """
    n, c, h, w = x.shape
    oh = _conv_output_size(h, kh, stride, pad)
    ow = _conv_output_size(w, kw, stride, pad)
    _check_output_size(oh, ow, x.shape, kh, stride, pad)
    xp = _pad_input(x, pad, pool)
    view = _window_view(xp, kh, kw, stride)
    cols = pool.take((n * oh * ow, c * kh * kw), x.dtype) \
        if pool is not None else np.empty((n * oh * ow, c * kh * kw),
                                          dtype=x.dtype)
    np.copyto(cols.reshape(n, oh, ow, c, kh, kw),
              view.transpose(0, 2, 3, 1, 4, 5))
    if pool is not None and xp is not x:
        pool.put(xp)
    return cols, oh, ow


def _col2im_gemm(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
                 kh: int, kw: int, stride: int, pad: int, oh: int,
                 ow: int) -> np.ndarray:
    """Adjoint of :func:`_im2col_gemm`: fold columns back, summing overlaps."""
    n, c, h, w = x_shape
    cols = np.ascontiguousarray(
        cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2))
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            xp[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j]
    if pad:
        return xp[:, :, pad:-pad, pad:-pad]
    return xp


def _to_channel_cols(x4d: np.ndarray) -> np.ndarray:
    """Reorder ``(N, C, H, W)`` into the ``(N*H*W, C)`` GEMM layout."""
    n, c, h, w = x4d.shape
    return np.ascontiguousarray(x4d.transpose(0, 2, 3, 1)).reshape(
        n * h * w, c)


def _from_channel_cols(x2d: np.ndarray, n: int, h: int, w: int
                       ) -> np.ndarray:
    """Inverse of :func:`_to_channel_cols`."""
    c = x2d.shape[1]
    return np.ascontiguousarray(
        x2d.reshape(n, h, w, c).transpose(0, 3, 1, 2))


def _bn_forward_2d(bn: "BatchNorm2d", pre: np.ndarray, batch: int):
    """Analytic BatchNorm2d forward on the ``(N*oh*ow, C)`` layout.

    Rows of ``pre`` enumerate ``(n, y, x)`` positions, so an axis-0
    reduction is exactly the ``(0, 2, 3)`` channel reduction of the 4-D
    layout.  Returns ``(out, normed, inv_std, inv_m, training)`` where
    ``training`` records whether batch statistics were used.
    """
    gamma = bn.gamma.data.ravel()
    beta = bn.beta.data.ravel()
    if bn.training and batch > 1:
        inv_m = 1.0 / pre.shape[0]
        mean = pre.sum(axis=0) * inv_m
        centered = pre - mean
        var = (centered * centered).sum(axis=0) * inv_m
        bn.running_mean = ((1 - bn.momentum) * bn.running_mean
                           + bn.momentum * mean.reshape(1, -1, 1, 1))
        bn.running_var = ((1 - bn.momentum) * bn.running_var
                          + bn.momentum * var.reshape(1, -1, 1, 1))
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        normed = centered * inv_std
        return normed * gamma + beta, normed, inv_std, inv_m, True
    # Running-stat buffers are float64; cast to the stream dtype so the
    # float32 fast path is not silently upcast from here on.
    dtype = pre.dtype
    inv_std = np.asarray(1.0 / np.sqrt(bn.running_var.ravel() + bn.eps),
                         dtype=dtype)
    mean = np.asarray(bn.running_mean.ravel(), dtype=dtype)
    normed = (pre - mean) * inv_std
    return normed * gamma + beta, normed, inv_std, 0.0, False


def _bn_forward_4d(bn: "BatchNorm2d", pre: np.ndarray):
    """Analytic BatchNorm2d forward on the ``(N, C, H, W)`` layout.

    The 4-D counterpart of :func:`_bn_forward_2d`, shared by the fused
    conv-transpose node and the standalone :class:`BatchNorm2d` fast
    paths so the statistics / running-stat-update / eval-cast numerics
    live in exactly one place.  Returns ``(out, normed, inv_std, inv_m,
    training)``; the eval branch casts the float64 running-stat buffers
    to the stream dtype and evaluates the exact elementwise expressions
    of the composed op chain (bit-identical forward).  The expressions
    run in place where a temporary would die at once, and every output
    keeps the memory order of ``pre`` (batch-innermost after a
    transposed conv), so each pass runs over contiguous spans.
    """
    gamma = bn.gamma.data
    if bn.training and pre.shape[0] > 1:
        axes = (0, 2, 3)
        inv_m = 1.0 / (pre.shape[0] * pre.shape[2] * pre.shape[3])
        mean = pre.sum(axis=axes, keepdims=True) * inv_m
        centered = pre - mean
        var = (centered * centered).sum(axis=axes, keepdims=True) * inv_m
        bn.running_mean = ((1 - bn.momentum) * bn.running_mean
                           + bn.momentum * mean)
        bn.running_var = ((1 - bn.momentum) * bn.running_var
                          + bn.momentum * var)
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        normed = centered
        normed *= inv_std
        out = normed * gamma
        out += bn.beta.data
        return out, normed, inv_std, inv_m, True
    dtype = pre.dtype
    inv_std = np.asarray(1.0 / np.sqrt(bn.running_var + bn.eps),
                         dtype=dtype)
    normed = pre - np.asarray(bn.running_mean, dtype=dtype)
    normed *= inv_std
    out = normed * gamma
    out += bn.beta.data
    return out, normed, inv_std, 0.0, False


def conv2d_bn_act(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                  bn: Optional["BatchNorm2d"] = None,
                  activation: Optional[str] = None, slope: float = 0.2,
                  stride: int = 1, padding: int = 0,
                  pool: Optional[ArrayPool] = None) -> Tensor:
    """Fused ``act(BN(conv2d(x)))`` as a single autograd node.

    Fast-math kernel: the convolution runs in the GEMM-batched
    ``(N*oh*ow, C*kh*kw)`` layout, batch norm reduces over axis 0 of
    that same matrix (equivalent to the ``(0, 2, 3)`` reduction of the
    4-D layout), and the activation mask is fused into the node, so one
    tape node replaces the conv / BN / activation chain (~15 nodes).
    ``bn`` and ``activation`` are optional — ``conv2d_bn_act(x, w, b)``
    is a plain convolution.
    """
    oc, c, kh, kw = weight.data.shape
    n = x.data.shape[0]
    cols, oh, ow = _im2col_gemm(x.data, kh, kw, stride, padding, pool)
    wmat = weight.data.reshape(oc, c * kh * kw)
    pre = cols @ wmat.T
    if bias is not None:
        pre += bias.data

    normed = inv_std = None
    inv_m = 0.0
    bn_training = False
    if bn is not None:
        pre, normed, inv_std, inv_m, bn_training = _bn_forward_2d(bn, pre, n)
    out2d, mask = _act_forward(pre, activation, slope)
    out = _from_channel_cols(out2d, n, oh, ow)

    parents = [x, weight]
    if bias is not None:
        parents.append(bias)
    if bn is not None:
        parents.extend((bn.gamma, bn.beta))
    cols_state = [cols]

    def backward(grad: np.ndarray):
        g2d = _to_channel_cols(grad)
        d_out = _act_backward(g2d, activation, out2d, mask, slope)
        dgamma = dbeta = None
        if bn is not None:
            dgamma = (d_out * normed).sum(axis=0)
            dbeta = d_out.sum(axis=0)
            d_normed = d_out * bn.gamma.data.ravel()
            if bn_training:
                d_pre = _bn_input_grad(d_normed, normed, inv_std, inv_m)
            else:
                d_pre = d_normed * inv_std
        else:
            d_pre = d_out
        gx = None
        if x.requires_grad:
            grad_cols = d_pre @ wmat
            gx = _col2im_gemm(grad_cols, x.data.shape, kh, kw, stride,
                              padding, oh, ow)
        gw = None
        if weight.requires_grad:
            cols_local = cols_state[0]
            if cols_local is None:
                # Repeated backward: the pool reclaimed the columns after
                # the first pass; recompute privately.
                cols_local, _, _ = _im2col_gemm(x.data, kh, kw, stride,
                                                padding, None)
            gw = (d_pre.T @ cols_local).reshape(weight.data.shape)
        grads = [gx, gw]
        if bias is not None:
            grads.append(d_pre.sum(axis=0) if bias.requires_grad else None)
        if bn is not None:
            grads.extend((dgamma.reshape(bn.gamma.data.shape),
                          dbeta.reshape(bn.beta.data.shape)))
        _donate_scratch(cols_state, pool)
        return tuple(grads)

    node = Tensor._make(out, tuple(parents), backward)
    if node._backward is None:
        # No backward closure will run; scratch and mask are dead.
        _donate_scratch(cols_state, pool)
        if mask is not None:
            _donate_mask(mask)
    return node


def _tap_span(tap: int, in_size: int, out_size: int, stride: int,
              pad: int) -> Tuple[int, int, int]:
    """Input span of one kernel tap inside a cropped transposed conv.

    Input position ``y`` of tap ``tap`` lands on output row
    ``y*stride + tap - pad``.  Returns ``(lo, hi, first)``: the input
    range ``[lo, hi)`` whose rows land inside ``[0, out_size)`` and the
    output row of ``lo`` (``lo >= hi`` when the padding crops the whole
    tap away).
    """
    lo = max(0, -((tap - pad) // stride))  # ceil((pad - tap) / stride)
    hi = min(in_size, (out_size - 1 + pad - tap) // stride + 1)
    return lo, hi, lo * stride + tap - pad


#: Batch columns per block of the re-layout in :func:`_to_batch_inner`.
_RELAYOUT_BLOCK = 64


def _to_batch_inner(x4d: np.ndarray, pool: Optional[ArrayPool] = None
                    ) -> Tuple[np.ndarray, bool]:
    """Batch-innermost ``(C, H, W, N)`` layout of an ``(N, C, H, W)`` array.

    Returns ``(array, copied)``.  An input that already is
    batch-innermost in memory (the output of
    :func:`conv_transpose2d_bn_act`) comes back as a free view
    (``copied`` false); any other is copied into a buffer from ``pool``.
    The copy is a transpose, done in blocks of 64 batch columns: one
    whole-array ``copyto`` walks the source with a stride of a full row,
    which thrashes the cache at large power-of-two batch sizes; blocks
    run 3-4x faster at 2048 rows (float64, 2-vCPU x86 host).
    """
    view = x4d.transpose(1, 2, 3, 0)
    if view.flags.c_contiguous:
        return view, False
    n, c, h, w = x4d.shape
    out = pool.take((c, h, w, n), x4d.dtype) if pool is not None \
        else np.empty((c, h, w, n), dtype=x4d.dtype)
    dst, src = out.reshape(c * h * w, n), x4d.reshape(n, c * h * w)
    for start in range(0, n, _RELAYOUT_BLOCK):
        stop = start + _RELAYOUT_BLOCK
        np.copyto(dst[:, start:stop], src[start:stop].T)
    return out, True


def _fold_taps(xr: np.ndarray, wtaps: np.ndarray, out_h: int, out_w: int,
               stride: int, pad: int,
               pool: Optional[ArrayPool] = None) -> np.ndarray:
    """Transposed-convolution forward as per-tap GEMMs.

    ``xr`` is the batch-innermost ``(C, h, w, N)`` input and ``wtaps``
    the ``(C, kh, kw, OC)`` weight.  For each tap ``(i, j)`` the product
    ``W[:, :, i, j]^T @ x`` lands in one reused ``(OC, h*w*N)`` block
    and is added into the strided tap positions of an ``(OC, out_h,
    out_w, N)`` accumulator, already cropped by ``pad``.  The batch axis
    is innermost, so each strided add moves contiguous ``N``-element
    spans.  Consecutive taps share one GEMM while their blocks together
    stay no larger than the input (``C // OC`` taps; all 16 for the
    single-channel output layer, which would otherwise re-read its input
    once per tap), so the ``(N*h*w, OC*kh*kw)`` column matrix of the
    one-GEMM formulation is never materialised.  The tap buffer is the
    only scratch (from ``pool`` when given, and returned to it).
    Returns the accumulator, a fresh array the caller keeps as the
    output's storage.
    """
    c, h, w, n = xr.shape
    _, kh, kw, oc = wtaps.shape
    x2d = xr.reshape(c, h * w * n)
    wflat = wtaps.reshape(c, kh * kw * oc)
    acc = np.zeros((oc, out_h, out_w, n), dtype=xr.dtype)
    group = max(1, min(kh * kw, c // oc))
    shape = (group * oc, h * w * n)
    buf = pool.take(shape, xr.dtype) if pool is not None \
        else np.empty(shape, dtype=xr.dtype)
    row_spans = [_tap_span(i, h, out_h, stride, pad) for i in range(kh)]
    col_spans = [_tap_span(j, w, out_w, stride, pad) for j in range(kw)]
    for first in range(0, kh * kw, group):
        last = min(kh * kw, first + group)
        block = buf[:(last - first) * oc]
        np.matmul(wflat[:, first * oc:last * oc].T, x2d, out=block)
        taps = block.reshape(last - first, oc, h, w, n)
        for t in range(first, last):
            (y0, y1, oy), (x0, x1, ox) = row_spans[t // kw], \
                col_spans[t % kw]
            if y0 < y1 and x0 < x1:
                acc[:, oy:oy + (y1 - y0) * stride:stride,
                    ox:ox + (x1 - x0) * stride:stride] += \
                    taps[t - first, :, y0:y1, x0:x1]
    if pool is not None:
        pool.put(buf)
    return acc


def _unfold_taps(d4d: np.ndarray, kh: int, kw: int, stride: int, pad: int,
                 h: int, w: int,
                 pool: Optional[ArrayPool] = None) -> np.ndarray:
    """Adjoint gather of :func:`_fold_taps` for the backward pass.

    Unfolds the ``(N, OC, out_h, out_w)`` output gradient into the
    batch-innermost ``(kh*kw*OC, h*w*N)`` columns: row ``(i, j, o)``
    holds, for every input position, the gradient at the output cell
    tap ``(i, j)`` wrote to (zero where the padding cropped it).
    """
    n, oc, out_h, out_w = d4d.shape
    full = (oc, out_h + 2 * pad, out_w + 2 * pad, n)
    dp = pool.take(full, d4d.dtype) if pool is not None \
        else np.empty(full, dtype=d4d.dtype)
    if pad:
        dp.fill(0.0)
    np.copyto(dp[:, pad:pad + out_h, pad:pad + out_w],
              d4d.transpose(1, 2, 3, 0))
    window = (stride * (h - 1) + 1, stride * (w - 1) + 1)
    # (OC, kh, kw, N, h, w) view: [o, i, j, b, y, x] = dp[o, i+y*s, j+x*s, b]
    view = sliding_window_view(dp, window, axis=(1, 2))[
        ..., ::stride, ::stride]
    shape = (kh * kw * oc, h * w * n)
    cols = pool.take(shape, d4d.dtype) if pool is not None \
        else np.empty(shape, dtype=d4d.dtype)
    np.copyto(cols.reshape(kh, kw, oc, h, w, n),
              view.transpose(1, 2, 0, 4, 5, 3))
    if pool is not None:
        pool.put(dp)
    return cols


def conv_transpose2d_bn_act(x: Tensor, weight: Tensor,
                            bias: Optional[Tensor] = None,
                            bn: Optional["BatchNorm2d"] = None,
                            activation: Optional[str] = None,
                            slope: float = 0.2, stride: int = 1,
                            padding: int = 0,
                            pool: Optional[ArrayPool] = None) -> Tensor:
    """Fused ``act(BN(conv_transpose2d(x)))`` as a single autograd node.

    The deconvolution runs as a per-tap GEMM fold (:func:`_fold_taps`)
    over the batch-innermost input.  The node keeps that layout: its
    output is an ``(N, OC, H, W)`` view of batch-innermost memory, so a
    following transposed conv folds from it without a re-layout, and
    batch norm (per-channel, so the layout is free) and the activation
    run on contiguous ``N``-element spans.  The backward unfolds the
    output gradient once (:func:`_unfold_taps`) and takes the input and
    weight gradients as one GEMM each, reusing the forward's re-laid
    input; the input gradient comes back batch-innermost as well.
    """
    c, oc, kh, kw = weight.data.shape
    n, _, h, w = x.data.shape
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (w - 1) * stride - 2 * padding + kw
    _check_output_size(out_h, out_w, x.data.shape, kh, stride, padding,
                       transposed=True)
    xr, copied = _to_batch_inner(x.data, pool)
    wtaps = np.ascontiguousarray(weight.data.transpose(0, 2, 3, 1))
    pre = _fold_taps(xr, wtaps, out_h, out_w, stride, padding, pool)
    if bias is not None:
        pre += bias.data[:, None, None, None]
    pre = pre.transpose(3, 0, 1, 2)

    normed = inv_std = None
    inv_m = 0.0
    bn_training = False
    if bn is not None:
        pre, normed, inv_std, inv_m, bn_training = _bn_forward_4d(bn, pre)
    # The activation runs on the (OC, H, W, N) memory order, so its
    # pooled sign mask shares the layout.
    act, mask = _act_forward(pre.transpose(1, 2, 3, 0), activation, slope)
    out = act.transpose(3, 0, 1, 2)

    parents = [x, weight]
    if bias is not None:
        parents.append(bias)
    if bn is not None:
        parents.extend((bn.gamma, bn.beta))
    xr_state = [xr if copied else None]

    def backward(grad: np.ndarray):
        d_out = _act_backward(grad.transpose(1, 2, 3, 0), activation, act,
                              mask, slope).transpose(3, 0, 1, 2)
        dgamma = dbeta = None
        axes = (0, 2, 3)
        if bn is not None:
            dgamma = (d_out * normed).sum(axis=axes, keepdims=True)
            dbeta = d_out.sum(axis=axes, keepdims=True)
            d_normed = d_out * bn.gamma.data
            if bn_training:
                d_pre = _bn_input_grad(d_normed, normed, inv_std, inv_m,
                                       axes=axes, keepdims=True)
            else:
                d_pre = d_normed * inv_std
        else:
            d_pre = d_out
        grad_cols = _unfold_taps(d_pre, kh, kw, stride, padding, h, w, pool)
        gx = None
        if x.requires_grad:
            gxr = wtaps.reshape(c, kh * kw * oc) @ grad_cols
            gx = gxr.reshape(c, h, w, n).transpose(3, 0, 1, 2)
        gw = None
        if weight.requires_grad:
            xr_local = xr_state[0]
            if xr_local is None:
                # A batch-innermost input is a free view; a pooled
                # re-layout was reclaimed after the first backward, so
                # a repeated one recomputes it privately.
                xr_local, _ = _to_batch_inner(x.data, None)
            gw = (xr_local.reshape(c, h * w * n) @ grad_cols.T).reshape(
                c, kh, kw, oc).transpose(0, 3, 1, 2)
            gw = np.ascontiguousarray(gw)
        grads = [gx, gw]
        if bias is not None:
            grads.append(d_pre.sum(axis=axes) if bias.requires_grad
                         else None)
        if bn is not None:
            grads.extend((dgamma, dbeta))
        if pool is not None:
            pool.put(grad_cols)
        _donate_scratch(xr_state, pool)
        return tuple(grads)

    node = Tensor._make(out, tuple(parents), backward)
    if node._backward is None:
        # No backward closure will run; scratch and mask are dead.
        _donate_scratch(xr_state, pool)
        if mask is not None:
            _donate_mask(mask)
    return node


class Conv2d(Module):
    """Strided 2D convolution.

    ``forward`` optionally fuses a following :class:`BatchNorm2d` and
    activation into the layer call: ``conv(x, activation="leaky_relu",
    bn=self.bn)``.  The whole chain runs as one :func:`conv2d_bn_act`
    tape node in either engine dtype.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: Optional[np.random.Generator] = None, bias: bool = True):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.normal(rng, shape, std=0.05))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None
        self._pool = ArrayPool()

    def forward(self, x: Tensor, activation: Optional[str] = None,
                slope: float = 0.2,
                bn: Optional["BatchNorm2d"] = None) -> Tensor:
        return conv2d_bn_act(x, self.weight, self.bias, bn=bn,
                             activation=activation, slope=slope,
                             stride=self.stride, padding=self.padding,
                             pool=self._pool)


class ConvTranspose2d(Module):
    """Fractionally strided ("de-") convolution, the DCGAN generator op.

    ``forward`` accepts the same ``activation=`` / ``bn=`` fusion hooks
    as :class:`Conv2d`; the chain runs as one
    :func:`conv_transpose2d_bn_act` node (the per-tap GEMM fold) in
    either engine dtype.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: Optional[np.random.Generator] = None, bias: bool = True):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.normal(rng, shape, std=0.05))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None
        self._pool = ArrayPool()

    def output_size(self, size: int) -> int:
        return (size - 1) * self.stride - 2 * self.padding + self.kernel_size

    def forward(self, x: Tensor, activation: Optional[str] = None,
                slope: float = 0.2,
                bn: Optional["BatchNorm2d"] = None) -> Tensor:
        return conv_transpose2d_bn_act(
            x, self.weight, self.bias, bn=bn, activation=activation,
            slope=slope, stride=self.stride, padding=self.padding,
            pool=self._pool)


class BatchNorm2d(Module):
    """Batch normalization per channel of ``(N, C, H, W)`` activations.

    Like :class:`repro.nn.layers.BatchNorm1d`'s fused path, the forward
    is a single tape node with the analytic input gradient in either
    engine dtype (``activation="relu"`` / ``"leaky_relu"`` optionally
    fold the following nonlinearity in); the statistics, running-stat
    update and eval-mode cast are those of :func:`_bn_forward_4d`.  When
    the layer follows a convolution, prefer the conv-side fusion hooks
    (``Conv2d.forward(bn=...)``), which fold the convolution into the
    same node as well.
    """

    def __init__(self, num_channels: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.num_channels = num_channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((1, num_channels, 1, 1)))
        self.beta = Parameter(init.zeros((1, num_channels, 1, 1)))
        self.register_buffer("running_mean", np.zeros((1, num_channels, 1, 1)))
        self.register_buffer("running_var", np.ones((1, num_channels, 1, 1)))

    def forward(self, x: Tensor, activation: Optional[str] = None,
                slope: float = 0.2) -> Tensor:
        pre, normed, inv_std, inv_m, training = _bn_forward_4d(self, x.data)
        gamma, beta = self.gamma, self.beta
        out, mask = _act_forward(pre, activation, slope)

        def backward(grad: np.ndarray):
            grad = _act_backward(grad, activation, out, mask, slope)
            axes = (0, 2, 3)
            dgamma = (grad * normed).sum(axis=axes, keepdims=True)
            dbeta = grad.sum(axis=axes, keepdims=True)
            d_normed = grad * gamma.data
            if training:
                dx = _bn_input_grad(d_normed, normed, inv_std, inv_m,
                                    axes=axes, keepdims=True)
            else:
                dx = d_normed * inv_std
            return (dx, dgamma, dbeta)

        node = Tensor._make(out, (x, gamma, beta), backward)
        if node._backward is None and mask is not None:
            _donate_mask(mask)  # no-grad path: backward never runs
        return node
