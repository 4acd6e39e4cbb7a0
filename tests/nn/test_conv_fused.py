"""Conv kernels: unfold/fold contracts, fused conv nodes, pooling.

Four contracts are covered, both engine dtypes where relevant:

* the strided-view ``_im2col_gemm`` is **bit-identical** to a loop-based
  unfold (:func:`_im2col_loop`, kept here as the reference) and
  ``_col2im_gemm`` is its exact adjoint;
* the per-tap transposed-conv fold (``_fold_taps``) and the module
  forwards agree with direct per-tap loops over generated geometries,
  the fold is the adjoint of the unfold, and its scratch stays below
  the column matrix it replaces;
* the fused ``conv2d_bn_act`` / ``conv_transpose2d_bn_act`` kernels
  carry correct gradients (finite differences) across stride > 1,
  padding > 0, bias on/off, batch-norm on/off and every activation;
* degenerate spatial shapes raise a ``ValueError`` naming the layer
  geometry instead of failing later in ``reshape``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import nn
from repro.nn import (
    ArrayPool, BatchNorm2d, Conv2d, ConvTranspose2d, Tensor,
    conv2d_bn_act, conv_transpose2d_bn_act,
)
from repro.nn.conv import (
    _col2im_gemm, _conv_output_size, _fold_taps, _im2col_gemm,
    _to_batch_inner,
)

from tests.conftest import numeric_gradient

TOLS = {
    "float64": dict(atol=1e-6, rtol=1e-5),
    "float32": dict(atol=5e-3, rtol=5e-2),
}


@pytest.fixture(params=["float64", "float32"])
def engine_dtype(request):
    with nn.default_dtype(request.param):
        yield request.param


GEOMETRIES = [
    # (n, c, h, w, kernel, stride, pad)
    (2, 3, 8, 8, 3, 1, 0),
    (3, 2, 8, 8, 4, 2, 1),
    (2, 4, 5, 7, 3, 2, 2),
    (1, 1, 6, 6, 5, 3, 1),
]


def _im2col_loop(x, kh, kw, stride, pad):
    """Loop-based unfold into the ``(N, C*kh*kw, oh*ow)`` layout."""
    n, c, h, w = x.shape
    oh = _conv_output_size(h, kh, stride, pad)
    ow = _conv_output_size(w, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            cols[:, :, i, j, :, :] = xp[:, :, i:i_max:stride, j:j_max:stride]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _loop_in_gemm_layout(x, k, s, p):
    """:func:`_im2col_loop` reordered to ``(N*oh*ow, C*kh*kw)``."""
    loop, oh, ow = _im2col_loop(x, k, k, s, p)
    n, ckk, _ = loop.shape
    return loop.transpose(0, 2, 1).reshape(n * oh * ow, ckk), oh, ow


class TestStridedViewParity:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_im2col_bit_identical_to_loop(self, rng, geometry):
        n, c, h, w, k, s, p = geometry
        x = rng.normal(size=(n, c, h, w))
        fast, oh, ow = _im2col_gemm(x, k, k, s, p)
        loop, oh2, ow2 = _loop_in_gemm_layout(x, k, s, p)
        assert (oh, ow) == (oh2, ow2)
        assert fast.dtype == loop.dtype
        np.testing.assert_array_equal(fast, loop)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_gemm_layout_is_reordering_of_parity_layout(self, rng, geometry):
        """Row ``(b, y, x)`` of the GEMM layout is column ``y*ow + x`` of
        sample ``b`` in the loop's ``(N, C*k*k, oh*ow)`` layout."""
        n, c, h, w, k, s, p = geometry
        x = rng.normal(size=(n, c, h, w))
        loop, oh, ow = _im2col_loop(x, k, k, s, p)
        gemm, _, _ = _im2col_gemm(x, k, k, s, p)
        for b in range(n):
            for pos in range(oh * ow):
                np.testing.assert_array_equal(gemm[b * oh * ow + pos],
                                              loop[b, :, pos])

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_col2im_gemm_adjoint(self, rng, geometry):
        """<im2col_gemm(x), y> == <x, col2im_gemm(y)>."""
        n, c, h, w, k, s, p = geometry
        x = rng.normal(size=(n, c, h, w))
        cols, oh, ow = _im2col_gemm(x, k, k, s, p)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = _col2im_gemm(y, x.shape, k, k, s, p, oh, ow)
        assert lhs == pytest.approx(float((x * back).sum()))

    def test_pooled_im2col_matches_unpooled(self, rng):
        pool = ArrayPool()
        x = rng.normal(size=(2, 3, 8, 8))
        a, _, _ = _im2col_gemm(x, 4, 4, 2, 1, pool)
        pool.put(a.copy())  # seed the pool with a same-shaped buffer
        b, _, _ = _im2col_gemm(x, 4, 4, 2, 1, pool)
        reference, _, _ = _loop_in_gemm_layout(x, 4, 2, 1)
        np.testing.assert_array_equal(b, reference)


def _conv_reference(x, weight, bias, stride, pad):
    """Direct convolution: one ``einsum`` per kernel tap."""
    n, _, h, w = x.shape
    oc, _, k, _ = weight.shape
    oh = _conv_output_size(h, k, stride, pad)
    ow = _conv_output_size(w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, oc, oh, ow))
    for i in range(k):
        for j in range(k):
            window = xp[:, :, i:i + stride * oh:stride,
                        j:j + stride * ow:stride]
            out += np.einsum("nchw,oc->nohw", window, weight[:, :, i, j])
    return out + bias[None, :, None, None]


def _deconv_reference(x, weight, bias, stride, pad, out_size=None):
    """Direct transposed convolution: scatter one tap at a time into the
    uncropped output, then crop ``pad`` (or to ``out_size``)."""
    n, _, h, w = x.shape
    _, oc, k, _ = weight.shape
    full = np.zeros((n, oc, (h - 1) * stride + k, (w - 1) * stride + k))
    for i in range(k):
        for j in range(k):
            full[:, :, i:i + stride * h:stride, j:j + stride * w:stride] += \
                np.einsum("nchw,co->nohw", x, weight[:, :, i, j])
    out_h, out_w = out_size or (full.shape[2] - 2 * pad,
                                full.shape[3] - 2 * pad)
    # Cropping may need zero rows past the uncropped edge (adjoint use).
    full = np.pad(full, ((0, 0), (0, 0), (0, max(0, pad + out_h
                                                    - full.shape[2])),
                         (0, max(0, pad + out_w - full.shape[3]))))
    return full[:, :, pad:pad + out_h, pad:pad + out_w] \
        + bias[None, :, None, None]


CONV_GEOMETRY = st.tuples(
    st.integers(1, 3),           # n
    st.integers(1, 3),           # c
    st.integers(1, 3),           # oc
    st.integers(1, 6),           # h (= w)
    st.integers(1, 4),           # kernel
    st.sampled_from([1, 2]),     # stride
    st.sampled_from([0, 1, 2]),  # padding
)
DTYPES = st.sampled_from(["float64", "float32"])
#: Relative agreement with the float64 references, per engine dtype.
REF_RTOL = {"float64": 1e-10, "float32": 1e-4}


def _agree(got, ref, dtype):
    scale = max(1.0, float(np.abs(ref).max()))
    np.testing.assert_allclose(got, ref, rtol=0,
                               atol=REF_RTOL[dtype] * scale)


class TestPerTapFold:
    @settings(max_examples=60, deadline=None)
    @given(CONV_GEOMETRY, DTYPES, st.integers(0, 2 ** 32 - 1))
    def test_conv2d_matches_per_tap_loop(self, geometry, dtype, seed):
        n, c, oc, h, k, s, p = geometry
        assume(_conv_output_size(h, k, s, p) >= 1)
        rng = np.random.default_rng(seed)
        x, weight = rng.normal(size=(n, c, h, h)), rng.normal(
            size=(oc, c, k, k))
        bias = rng.normal(size=oc)
        with nn.default_dtype(dtype):
            conv = Conv2d(c, oc, k, stride=s, padding=p)
            conv.weight.data = weight.astype(dtype)
            conv.bias.data = bias.astype(dtype)
            with nn.no_grad():
                got = conv(Tensor(x)).data
        assert got.dtype == np.dtype(dtype)
        _agree(got, _conv_reference(x, weight, bias, s, p), dtype)

    @settings(max_examples=60, deadline=None)
    @given(CONV_GEOMETRY, DTYPES, st.integers(0, 2 ** 32 - 1))
    def test_conv_transpose2d_matches_per_tap_loop(self, geometry, dtype,
                                                   seed):
        n, c, oc, h, k, s, p = geometry
        assume((h - 1) * s - 2 * p + k >= 1)
        rng = np.random.default_rng(seed)
        x, weight = rng.normal(size=(n, c, h, h)), rng.normal(
            size=(c, oc, k, k))
        bias = rng.normal(size=oc)
        with nn.default_dtype(dtype):
            deconv = ConvTranspose2d(c, oc, k, stride=s, padding=p)
            deconv.weight.data = weight.astype(dtype)
            deconv.bias.data = bias.astype(dtype)
            with nn.no_grad():
                got = deconv(Tensor(x)).data
        assert got.dtype == np.dtype(dtype)
        _agree(got, _deconv_reference(x, weight, bias, s, p), dtype)

    @settings(max_examples=60, deadline=None)
    @given(CONV_GEOMETRY, DTYPES, st.integers(0, 2 ** 32 - 1))
    def test_fold_is_adjoint_of_unfold(self, geometry, dtype, seed):
        """<y, unfold(x) @ W^T> == <fold(y; W), x> for every geometry,
        including strides that do not divide the padded input (the fold
        then crops to the conv input size, not to its own natural size)."""
        n, c, oc, h, k, s, p = geometry
        oh = _conv_output_size(h, k, s, p)
        assume(oh >= 1)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, h)).astype(dtype)
        weight = rng.normal(size=(oc, c, k, k)).astype(dtype)
        y = rng.normal(size=(n, oc, oh, oh)).astype(dtype)
        cols, _, _ = _im2col_gemm(x, k, k, s, p)
        conv = cols @ weight.reshape(oc, -1).T  # rows (n, oy, ox)
        lhs = float((conv.astype(np.float64)
                     * y.transpose(0, 2, 3, 1).reshape(-1, oc)).sum())
        wtaps = np.ascontiguousarray(weight.transpose(0, 2, 3, 1))
        folded = _fold_taps(_to_batch_inner(y)[0], wtaps, h, h, s, p)
        assert folded.dtype == np.dtype(dtype)
        rhs = float((folded.astype(np.float64)
                     * x.transpose(1, 2, 3, 0)).sum())
        scale = float(np.abs(cols).sum() * np.abs(weight).max()
                      * np.abs(y).max())
        assert abs(lhs - rhs) <= REF_RTOL[dtype] * max(1.0, scale)

    def test_fold_accepts_uncropped_output_sizes(self, rng):
        """The fold crops to any requested size: the conv-adjoint sizes
        above, and the deconv's own ``(h-1)*s - 2p + k``."""
        x = rng.normal(size=(2, 3, 3, 3))
        weight = rng.normal(size=(3, 2, 4, 4))
        wtaps = np.ascontiguousarray(weight.transpose(0, 2, 3, 1))
        for size in (4, 5, 6):
            folded = _fold_taps(_to_batch_inner(x)[0], wtaps, size, size,
                               2, 1)
            ref = _deconv_reference(x, weight, np.zeros(2), 2, 1,
                                    out_size=(size, size))
            np.testing.assert_allclose(folded.transpose(3, 0, 1, 2), ref,
                                       atol=1e-12)

    def test_no_grad_forward_peaks_below_column_matrix(self, rng):
        """The float64 generator deconv at 2048 rows must not build the
        ``(N*h*w, OC*kh*kw)`` column matrix (2048*4 x 512 doubles,
        ~33.5 MB): it holds the re-laid input, one tap and the cropped
        accumulator that becomes the output."""
        with nn.default_dtype("float64"):
            deconv = ConvTranspose2d(64, 32, 4, stride=2, padding=1,
                                     rng=rng)
            x = Tensor(rng.normal(size=(2048, 64, 2, 2)))
            column_matrix = 2048 * 4 * 32 * 4 * 4 * 8
            tracemalloc.start()
            try:
                with nn.no_grad():
                    out = deconv(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert out.shape == (2048, 32, 4, 4)
        assert peak < column_matrix, (peak, column_matrix)


class TestArrayPool:
    def test_take_put_recycles(self):
        pool = ArrayPool()
        a = pool.take((3, 4), np.float32)
        assert a.shape == (3, 4) and a.dtype == np.float32
        pool.put(a)
        assert pool.take((3, 4), np.float32) is a
        # A different shape/dtype allocates fresh.
        assert pool.take((3, 4), np.float64) is not a

    def test_capacity_bound(self):
        pool = ArrayPool(max_per_key=1)
        a, b = np.empty(3), np.empty(3)
        pool.put(a)
        pool.put(b)  # beyond capacity: dropped
        assert pool.take((3,), np.float64) is a
        assert pool.take((3,), np.float64) is not b


def _gradcheck(build, arrays, dtype):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build(tensors).backward()
    with nn.default_dtype("float64"):
        for tensor, array in zip(tensors, arrays):
            numeric = numeric_gradient(
                lambda: float(build([Tensor(a) for a in arrays]).data),
                array)
            assert tensor.grad is not None
            np.testing.assert_allclose(tensor.grad, numeric, **TOLS[dtype])


class TestFusedConvGradients:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("activation", [None, "relu", "leaky_relu",
                                            "tanh"])
    def test_conv2d_bn_act(self, rng, engine_dtype, bias, activation):
        bn = BatchNorm2d(3)
        arrays = [rng.normal(size=(4, 2, 6, 6)),
                  rng.normal(size=(3, 2, 3, 3)) * 0.4]
        if bias:
            arrays.append(rng.normal(size=3))

        def build(ts):
            b = ts[2] if bias else None
            return (conv2d_bn_act(ts[0], ts[1], b, bn=bn,
                                  activation=activation, stride=2,
                                  padding=1) ** 2).sum()

        _gradcheck(build, arrays, engine_dtype)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    def test_conv_transpose2d_bn_act(self, rng, engine_dtype, bias,
                                     activation):
        bn = BatchNorm2d(2)
        arrays = [rng.normal(size=(3, 3, 3, 3)),
                  rng.normal(size=(3, 2, 4, 4)) * 0.4]
        if bias:
            arrays.append(rng.normal(size=2))

        def build(ts):
            b = ts[2] if bias else None
            return (conv_transpose2d_bn_act(ts[0], ts[1], b, bn=bn,
                                            activation=activation, stride=2,
                                            padding=1) ** 2).sum()

        _gradcheck(build, arrays, engine_dtype)

    def test_chained_deconvs_fold_from_batch_inner_view(self, rng,
                                                        engine_dtype):
        """The generator pattern: the second transposed conv folds
        straight from the first one's batch-innermost output view, and
        the first one's backward receives a batch-innermost gradient."""
        bn = BatchNorm2d(3)
        arrays = [rng.normal(size=(3, 4, 2, 2)),
                  rng.normal(size=(4, 3, 4, 4)) * 0.4,
                  rng.normal(size=(3, 2, 4, 4)) * 0.4]

        def build(ts):
            h = conv_transpose2d_bn_act(ts[0], ts[1], None, bn=bn,
                                        activation="relu", stride=2,
                                        padding=1)
            assert h.data.transpose(1, 2, 3, 0).flags.c_contiguous
            return (conv_transpose2d_bn_act(h, ts[2], None,
                                            activation="tanh", stride=2,
                                            padding=1) ** 2).sum()

        _gradcheck(build, arrays, engine_dtype)

    def test_conv_without_bn(self, rng, engine_dtype):
        _gradcheck(
            lambda ts: (conv2d_bn_act(ts[0], ts[1], ts[2],
                                      activation="leaky_relu", stride=1,
                                      padding=2) ** 2).sum(),
            [rng.normal(size=(2, 2, 5, 5)),
             rng.normal(size=(3, 2, 3, 3)) * 0.4, rng.normal(size=3)],
            engine_dtype)

    def test_eval_mode_bn(self, rng, engine_dtype):
        bn = BatchNorm2d(3)
        bn.running_mean = rng.normal(size=(1, 3, 1, 1)) * 0.1
        bn.running_var = rng.uniform(0.5, 1.5, size=(1, 3, 1, 1))
        bn.eval()
        _gradcheck(
            lambda ts: (conv2d_bn_act(ts[0], ts[1], None, bn=bn,
                                      activation="relu", stride=2,
                                      padding=1) ** 2).sum(),
            [rng.normal(size=(2, 2, 6, 6)),
             rng.normal(size=(3, 2, 4, 4)) * 0.4],
            engine_dtype)

    def test_bn_parameter_gradients(self, rng, engine_dtype):
        bn = BatchNorm2d(3)
        x = rng.normal(size=(4, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.4

        def loss():
            return (conv2d_bn_act(Tensor(x), Tensor(w), None, bn=bn,
                                  activation="tanh", stride=2,
                                  padding=1) ** 2).sum()

        bn.gamma.zero_grad()
        bn.beta.zero_grad()
        loss().backward()
        with nn.default_dtype("float64"):
            for param in (bn.gamma, bn.beta):
                numeric = numeric_gradient(lambda: float(loss().data),
                                           param.data)
                np.testing.assert_allclose(param.grad, numeric,
                                           **TOLS[engine_dtype])


class TestFusedMatchesComposed:
    """Module-level use of the fused kernels across repeated forwards."""

    def test_buffer_reuse_across_two_forwards(self, rng):
        """The real|fake discriminator pattern: two forwards through one
        layer before backward must not corrupt the first tape's columns."""
        conv = Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
        a = rng.normal(size=(2, 2, 6, 6))
        b = rng.normal(size=(2, 2, 6, 6))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        ((conv(ta) ** 2).sum() + (conv(tb) ** 2).sum()).backward()
        for t, arr in ((ta, a), (tb, b)):
            numeric = numeric_gradient(
                lambda: float((conv(Tensor(arr)) ** 2).sum().data), arr)
            np.testing.assert_allclose(t.grad, numeric, atol=1e-6)


class TestDegenerateShapes:
    def test_conv_too_small_input_raises(self, engine_dtype, rng):
        conv = Conv2d(1, 2, kernel_size=5, rng=rng)
        with pytest.raises(ValueError, match="kernel_size=5"):
            conv(Tensor(rng.normal(size=(1, 1, 3, 3))))

    def test_conv_stride_padding_in_message(self, rng):
        conv = Conv2d(1, 2, kernel_size=7, stride=2, padding=1, rng=rng)
        with pytest.raises(ValueError, match=r"stride=2.*padding=1"):
            conv(Tensor(rng.normal(size=(2, 1, 4, 4))))

    def test_deconv_overpadded_raises(self, engine_dtype, rng):
        deconv = ConvTranspose2d(1, 1, kernel_size=2, stride=1, padding=3,
                                 rng=rng)
        with pytest.raises(ValueError):
            deconv(Tensor(rng.normal(size=(1, 1, 2, 2))))


class TestFastMathDtypeFlow:
    def test_eval_bn_keeps_float32_stream(self, rng):
        """Eval-mode BN inside the fused kernels must cast the float64
        running-stat buffers, not upcast the float32 stream."""
        with nn.default_dtype("float32"):
            for module in (Conv2d(2, 3, kernel_size=4, stride=2, padding=1),
                           ConvTranspose2d(2, 3, kernel_size=4, stride=2,
                                           padding=1)):
                bn = BatchNorm2d(3)
                bn.eval()
                module.eval()
                out = module(Tensor(rng.normal(size=(2, 2, 4, 4))),
                             activation="relu", bn=bn)
                assert out.data.dtype == np.float32


class TestBatchNormEvalFused:
    def test_bn1d_eval_single_node_bit_identical(self, rng):
        from repro.nn import BatchNorm1d

        bn = BatchNorm1d(5)
        for _ in range(3):
            bn(Tensor(rng.normal(1.5, 2.0, size=(16, 5))))
        bn.eval()
        x = rng.normal(size=(7, 5))
        out = bn(Tensor(x))
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
        expected = ((x - bn.running_mean) * inv) * bn.gamma.data \
            + bn.beta.data
        np.testing.assert_array_equal(out.data, expected)
        assert out._parents  # single fused node, parents wired

    def test_bn2d_eval_single_node_bit_identical(self, rng):
        bn = BatchNorm2d(3)
        for _ in range(3):
            bn(Tensor(rng.normal(0.5, 1.5, size=(8, 3, 4, 4))))
        bn.eval()
        x = rng.normal(size=(4, 3, 4, 4))
        out = bn(Tensor(x))
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
        expected = ((x - bn.running_mean) * inv) * bn.gamma.data \
            + bn.beta.data
        np.testing.assert_array_equal(out.data, expected)

    def test_bn1d_eval_gradients(self, rng, engine_dtype):
        from repro.nn import BatchNorm1d

        bn = BatchNorm1d(4)
        bn.running_mean = rng.normal(size=4)
        bn.running_var = rng.uniform(0.5, 2.0, size=4)
        bn.eval()
        x = rng.normal(size=(6, 4))
        t = Tensor(x, requires_grad=True)
        (bn(t, activation="relu") ** 2).sum().backward()
        with nn.default_dtype("float64"):
            numeric = numeric_gradient(
                lambda: float((bn(Tensor(x), activation="relu") ** 2)
                              .sum().data), x)
        np.testing.assert_allclose(t.grad, numeric, **TOLS[engine_dtype])
