"""Sampling throughput: rows/sec for ``sample`` and ``sample_iter``.

Pins the Phase III (generation) hot path across method families — the
MLP and CNN GAN design points, the VAE baseline and PrivBayes — and
compares the current engine against a **pre-PR-equivalent** loop: the
float64 engine with 256-row chunks, per-chunk eval/train mode flips and
the per-attribute (non-vectorized) inverse transform, which is exactly
what ``sample(n)`` executed before the CNN-fast-path/streaming PR.

``BENCH_sampling_throughput.json`` rows carry, per method:

* ``current`` rows/sec for ``sample(N)`` and for driving ``sample_iter``
  (engine dtype = the harness default, float32 fast-math unless
  ``REPRO_BENCH_DTYPE``/``--parity`` overrides);
* ``prepr_float64`` rows/sec for the legacy-equivalent loop;
* ``speedup_vs_prepr`` — the end-to-end acceptance number.

The legacy loop runs today's kernels: for gan-cnn these are the GEMM
conv kernels both dtypes share (the float64 einsum convs it once ran
are gone), so its ``prepr_float64`` row and ``speedup_vs_prepr`` measure
the chunking and inverse changes only, not the old conv cost.

Scale knobs: ``REPRO_BENCH_SAMPLE_ROWS`` (default 100000) and
``REPRO_BENCH_RECORDS`` (training-table rows, default 1200).
"""

import os
import time

import numpy as np
import pytest

from _harness import emit, run_once
from bench_engine_microbench import _bench_table
from repro.core.design_space import DesignConfig
from repro.datasets.schema import Table
from repro.gan.synthesizer import GANSynthesizer
from repro.nn import Tensor, default_dtype, get_default_dtype, no_grad
from repro.report import format_table
from repro.vae.synthesizer import VAESynthesizer
from repro.privbayes.synthesizer import PrivBayesSynthesizer

N_ROWS = int(os.environ.get("REPRO_BENCH_SAMPLE_ROWS", "100000"))
N_RECORDS = int(os.environ.get("REPRO_BENCH_RECORDS", "1200"))
_FIT = dict(epochs=1, iterations_per_epoch=4)

METHODS = ("gan-mlp", "gan-cnn", "vae", "privbayes")


def _make_synthesizer(method: str, seed: int = 11):
    if method == "gan-mlp":
        return GANSynthesizer(config=DesignConfig(generator="mlp"),
                              seed=seed, **_FIT)
    if method == "gan-cnn":
        config = DesignConfig(generator="cnn",
                              categorical_encoding="ordinal",
                              numerical_normalization="simple")
        return GANSynthesizer(config=config, seed=seed, **_FIT)
    if method == "vae":
        return VAESynthesizer(seed=seed, **_FIT)
    if method == "privbayes":
        return PrivBayesSynthesizer(epsilon=None, seed=seed)
    raise ValueError(method)


def _legacy_sample(synth, n: int, seed: int = 3):
    """The pre-PR generation loop, reproduced op for op.

    The family's pre-PR default chunk size (GAN 256, VAE 512), an
    eval/train module-tree walk per chunk, and the per-attribute
    reference inverse — the path ``sample(n)`` took before the
    streaming/vectorized-inverse overhaul.  Only meaningful for the
    transformer-based families (GAN, VAE).
    """
    rng = np.random.default_rng(seed)
    chunks = []
    remaining = n
    is_vae = isinstance(synth, VAESynthesizer)
    model = synth.model if is_vae else synth.generator
    z_dim = synth.latent_dim if is_vae else synth.config.z_dim
    batch = 512 if is_vae else 256
    while remaining > 0:
        m = min(batch, remaining)
        model.eval()
        try:
            z = Tensor(rng.standard_normal((m, z_dim)))
            with no_grad():
                raw = (model.decode(z) if is_vae else model(z, None)).data
        finally:
            model.train()
        chunks.append(synth.transformer.inverse(raw, vectorized=False))
        remaining -= m
    # One per-column concatenate at the end, exactly like the pre-PR
    # Synthesizer.sample (not a quadratic chunk-by-chunk merge).
    schema = chunks[0].schema
    columns = {name: np.concatenate([c.columns[name] for c in chunks])
               for name in schema.names}
    return Table(schema, columns)


def _timed_rows_per_sec(fn, n: int, repeats: int = 2) -> dict:
    """Best-of-``repeats`` wall clock (same policy as the microbench)."""
    fn(max(n // 20, 1))  # warm-up (compiles caches, touches pools)
    elapsed = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(n)
        elapsed = min(elapsed, time.perf_counter() - start)
    return {"seconds": round(elapsed, 4),
            "rows_per_sec": round(n / elapsed, 1)}


def _bench_method(method: str, table) -> list:
    rows = []
    dtype_name = np.dtype(get_default_dtype()).name

    # Current engine (harness default dtype): one-shot + streaming.
    synth = _make_synthesizer(method)
    synth.fit(table)
    one_shot = _timed_rows_per_sec(
        lambda n: synth.sample(n, seed=3), N_ROWS)
    rows.append({"method": method, "mode": "current", "api": "sample",
                 "engine_dtype": dtype_name, "n_rows": N_ROWS, **one_shot})

    def drain(n):
        for _ in synth.sample_iter(n, seed=3):
            pass

    streaming = _timed_rows_per_sec(drain, N_ROWS)
    rows.append({"method": method, "mode": "current", "api": "sample_iter",
                 "engine_dtype": dtype_name, "n_rows": N_ROWS, **streaming})

    # Pre-PR-equivalent loop needs a float64-built model (the pre-PR
    # benches ran the float64 default engine).
    if method != "privbayes":
        with default_dtype("float64"):
            legacy_synth = _make_synthesizer(method)
            legacy_synth.fit(table)
            legacy = _timed_rows_per_sec(
                lambda n: _legacy_sample(legacy_synth, n), N_ROWS)
        rows.append({"method": method, "mode": "prepr_float64",
                     "api": "sample", "engine_dtype": "float64",
                     "n_rows": N_ROWS, **legacy})
        rows[0]["speedup_vs_prepr"] = round(
            one_shot["rows_per_sec"] / legacy["rows_per_sec"], 3)
    return rows


def test_sampling_throughput(benchmark):
    def run():
        table = _bench_table(n=N_RECORDS)
        rows = []
        for method in METHODS:
            rows.extend(_bench_method(method, table))
        speedups = [r["speedup_vs_prepr"] for r in rows
                    if "speedup_vs_prepr" in r]
        geomean = round(float(np.prod(speedups)) ** (1.0 / len(speedups)), 3)
        rows.append({"method": "ALL", "mode": "summary", "api": "sample",
                     "engine_dtype": "", "n_rows": N_ROWS,
                     "speedup_geomean_vs_prepr": geomean})
        headers = ["method", "mode", "api", "dtype", "rows/sec", "speedup"]
        table_rows = [[r["method"], r["mode"], r["api"], r["engine_dtype"],
                       r.get("rows_per_sec", ""),
                       r.get("speedup_vs_prepr",
                             r.get("speedup_geomean_vs_prepr", ""))]
                      for r in rows]
        text = format_table(
            headers, table_rows,
            title=f"Sampling throughput — sample({N_ROWS}) end-to-end "
                  f"(summary row: geomean speedup vs pre-PR)")
        return emit("sampling_throughput", text, rows=rows)

    run_once(benchmark, run)


if __name__ == "__main__":  # manual runs without pytest-benchmark
    pytest.main([__file__, "-q"])
