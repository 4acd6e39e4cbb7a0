"""ArrayPool lifetime tracker: double donation, foreign buffers, leaks."""

import numpy as np
import pytest

from repro.check import (
    PoolDisciplineError, PoolLeakError, disable_sanitizers,
    pool_leak_scope, sanitized, sanitizers_enabled,
)
from repro.nn.tensor import ArrayPool, Tensor, no_grad

_PRESET = sanitizers_enabled()
skip_when_preset = pytest.mark.skipif(
    _PRESET, reason="asserts the sanitizers-off default behaviour")


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    if not _PRESET:
        disable_sanitizers()


def test_double_donation_raises():
    pool = ArrayPool()
    with sanitized():
        buf = pool.take((4,), np.float64)
        pool.put(buf)
        with pytest.raises(PoolDisciplineError) as err:
            pool.put(buf)
    assert "double donation" in str(err.value)


def test_foreign_buffer_raises():
    pool = ArrayPool()
    with sanitized():
        with pytest.raises(PoolDisciplineError) as err:
            pool.put(np.empty(4))
    assert "foreign buffer" in str(err.value)


def test_buffer_from_another_pool_is_foreign():
    a, b = ArrayPool(), ArrayPool()
    with sanitized():
        buf = a.take((3,), np.float64)
        with pytest.raises(PoolDisciplineError):
            b.put(buf)
        a.put(buf)


def test_retake_then_donate_is_balanced():
    pool = ArrayPool()
    with sanitized():
        buf = pool.take((4,), np.float64)
        pool.put(buf)
        again = pool.take((4,), np.float64)
        assert again is buf  # recycled, now outstanding again
        pool.put(again)


def test_leak_scope_reports_undonated_buffer():
    pool = ArrayPool()
    with sanitized():
        with pytest.raises(PoolLeakError) as err:
            with pool_leak_scope(pool):
                leaked = pool.take((8,), np.float64)
        assert "never donated" in str(err.value)
    del leaked


def test_leak_scope_passes_when_balanced():
    pool = ArrayPool()
    with sanitized():
        with pool_leak_scope(pool):
            buf = pool.take((8,), np.float64)
            pool.put(buf)


@skip_when_preset
def test_leak_scope_standalone_installs_temporary_tracker():
    pool = ArrayPool()
    assert ArrayPool._tracker is None
    with pytest.raises(PoolLeakError):
        with pool_leak_scope(pool):
            held = pool.take((2,), np.float64)
    assert ArrayPool._tracker is None
    del held


def test_leak_scope_ignores_other_pools():
    watched, other = ArrayPool(), ArrayPool()
    with sanitized():
        outside = None
        with pool_leak_scope(watched):
            outside = other.take((2,), np.float64)  # not watched: no leak
        other.put(outside)


def test_relu_no_grad_path_is_balanced():
    with sanitized():
        with pool_leak_scope():
            with no_grad():
                Tensor(np.array([1.0, -2.0, 3.0])).relu()


def test_relu_train_step_is_balanced():
    with sanitized():
        with pool_leak_scope():
            x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
            x.relu().sum().backward()


def test_repeated_backward_does_not_double_donate():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with sanitized():
        loss = x.relu().sum()
        loss.backward()       # donates the pooled sign mask
        x.grad = None
        loss.backward()       # recomputes the mask privately
    np.testing.assert_allclose(x.grad, [1.0, 0.0, 1.0])


def test_conv_fused_repeated_backward_is_clean():
    from repro.nn.conv import Conv2d

    conv = Conv2d(2, 3, kernel_size=3)
    x = Tensor(np.random.default_rng(1).standard_normal((2, 2, 6, 6)),
               requires_grad=True)
    with sanitized():
        loss = conv(x).sum()
        loss.backward()
        x.grad = None
        loss.backward()   # pooled unfold scratch must not be re-donated
    assert x.grad is not None


def test_cnn_sample_returns_fold_scratch():
    """A gan-cnn draw runs the transposed-conv fold under ``no_grad``:
    the re-laid input, the per-tap buffer and the accumulator it takes
    from each layer's pool must all be back when the draw returns."""
    from repro.core.design_space import DesignConfig
    from repro.gan.synthesizer import GANSynthesizer
    from tests.conftest import make_mixed_table

    config = DesignConfig(generator="cnn", categorical_encoding="ordinal",
                          numerical_normalization="simple")
    synth = GANSynthesizer(config, epochs=1, iterations_per_epoch=2,
                           seed=3).fit(make_mixed_table(120))
    deconvs = (synth.generator.deconv1, synth.generator.deconv2)
    for layer in deconvs:
        layer._pool.clear()
    with sanitized():
        with pool_leak_scope():
            table = synth.sample(300, seed=5)
    assert len(table) == 300
    for layer in deconvs:  # the fold did draw its scratch from the pool
        assert layer._pool._buffers
