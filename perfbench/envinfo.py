"""The environment record and calibration kernel stored with every run.

The calibration kernel times, in the same process as the workload, the
three primitives gan-mlp sampling is built from: float32 GEMMs at the
default generator's shapes, a float32 ``standard_normal`` draw and an
``exp``.  It is recorded only; no metric is rescaled by it.
"""

from __future__ import annotations

import os
import pathlib
import platform
import time

import numpy as np

#: gan-mlp defaults (``DesignConfig``): z_dim 32, hidden 128, two hidden
#: layers, one 4096-row sampling chunk; 104 columns is the width of the
#: adult one-hot + GMM sample.
_ROWS, _Z, _HIDDEN, _OUT = 4096, 32, 128, 104


def _openblas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"].get("version"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit(root: pathlib.Path) -> str:
    """Commit of the checkout when it is a git work tree; the benchmark
    may run from an exported tree that has none."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def environment(root: pathlib.Path) -> dict:
    from repro.nn import get_default_dtype

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "engine_dtype": np.dtype(get_default_dtype()).name,
        "git_commit": _git_commit(root),
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _median_ms(fn, repeats: int = 7) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2] * 1000.0


def calibration() -> dict:
    """Median milliseconds of each calibration primitive."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal((_ROWS, _Z), dtype=np.float32)
    h = rng.standard_normal((_ROWS, _HIDDEN), dtype=np.float32)
    w_in = rng.standard_normal((_Z, _HIDDEN), dtype=np.float32)
    w_hid = rng.standard_normal((_HIDDEN, _HIDDEN), dtype=np.float32)
    w_out = rng.standard_normal((_HIDDEN, _OUT), dtype=np.float32)
    logits = rng.standard_normal((_ROWS, _OUT), dtype=np.float32)

    def sgemm():
        z @ w_in
        h @ w_hid
        h @ w_hid
        h @ w_out

    return {
        "sgemm_mlp_ms": _median_ms(sgemm),
        "normal_f32_ms": _median_ms(
            lambda: rng.standard_normal((_ROWS, _Z), dtype=np.float32)),
        "exp_ms": _median_ms(lambda: np.exp(logits)),
    }
