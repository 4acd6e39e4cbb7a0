"""Engine microbenchmark: forward / backward / optimizer-step wall-clock.

Pins a small, deterministic training workload per generator architecture
(MLP, LSTM, CNN) and times the engine's three hot phases plus a full
trainer iteration, in both engine dtypes:

* ``float64`` — the higher-precision deterministic mode (bit-exact with
  the historical engine except the convolutions, which run the same
  GEMM kernels as float32);
* ``float32`` — the fast training mode (enables the fused/batched
  fast-math kernels).

``BENCH_engine_microbench.json`` rows carry per-(arch, dtype) timings in
milliseconds plus the float64/float32 train-step speedup per arch, so
engine regressions show up as a trajectory break across PRs.

Scale knob: ``REPRO_BENCH_MICRO_ITERS`` (timed iterations per phase,
default 30; CI smoke runs use a small value).
"""

import os
import time

import numpy as np
import pytest

from _harness import emit, run_once
from repro.core.design_space import DesignConfig
from repro.datasets.schema import (
    Attribute, CATEGORICAL, NUMERICAL, Schema, Table,
)
from repro.gan.synthesizer import GANSynthesizer
from repro.gan.training import make_trainer
from repro.nn import bce_with_logits, default_dtype
from repro.report import format_table

ITERS = int(os.environ.get("REPRO_BENCH_MICRO_ITERS", "30"))
BATCH = 64

ARCHS = {
    "mlp": dict(generator="mlp"),
    "lstm": dict(generator="lstm"),
    "cnn": dict(generator="cnn", categorical_encoding="ordinal",
                numerical_normalization="simple"),
}


def _bench_table(n: int = 400, seed: int = 3) -> Table:
    """Small deterministic mixed-type table (no dataset dependencies)."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.3).astype(np.int64)
    schema = Schema(
        attributes=(
            Attribute("age", NUMERICAL),
            Attribute("income", NUMERICAL),
            Attribute("job", CATEGORICAL, categories=("a", "b", "c")),
            Attribute("city", CATEGORICAL, categories=("w", "x", "y", "z")),
            Attribute("label", CATEGORICAL, categories=("neg", "pos")),
        ),
        label_name="label",
    )
    return Table(schema, {
        "age": rng.normal(40 + 10 * labels, 8, n),
        "income": rng.normal(30 + 40 * labels, 10, n),
        "job": rng.integers(0, 3, n),
        "city": rng.integers(0, 4, n),
        "label": labels,
    })


def _best_of(fn, iters: int, repeats: int = 3) -> float:
    """Minimum mean wall-clock (ms) of ``fn`` over ``repeats`` runs."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best * 1000.0


def _time_arch(arch: str, dtype: str) -> dict:
    with default_dtype(dtype):
        table = _bench_table()
        config = DesignConfig(batch_size=BATCH, **ARCHS[arch])
        synth = GANSynthesizer(config=config, epochs=1,
                               iterations_per_epoch=2, seed=11)
        synth.fit(table)
        data = synth.transformer.transform(table)
        trainer = make_trainer(config, synth.generator, synth.discriminator,
                               np.random.default_rng(0))
        trainer.prepare(data, table.label_codes, 2)
        trainer.iteration()

        generator = trainer.generator
        discriminator = trainer.discriminator
        z = trainer.sample_noise(BATCH)
        forward_ms = _best_of(lambda: generator(z), ITERS)

        def backward():
            trainer.opt_g.zero_grad()
            trainer.opt_d.zero_grad()
            loss = bce_with_logits(discriminator(generator(z)),
                                   np.ones((BATCH, 1)))
            loss.backward()

        fwd_bwd_ms = _best_of(backward, ITERS)
        opt_ms = _best_of(trainer.opt_g.step, ITERS)
        step_ms = _best_of(trainer.iteration, ITERS)
    return {
        "arch": arch,
        "dtype": dtype,
        "forward_ms": round(forward_ms, 4),
        "backward_ms": round(max(fwd_bwd_ms - forward_ms, 0.0), 4),
        "opt_step_ms": round(opt_ms, 4),
        "train_step_ms": round(step_ms, 4),
    }


def test_engine_microbench(benchmark):
    def run():
        rows = []
        for arch in ARCHS:
            for dtype in ("float64", "float32"):
                rows.append(_time_arch(arch, dtype))
        by_key = {(r["arch"], r["dtype"]): r for r in rows}
        for arch in ARCHS:
            f64 = by_key[(arch, "float64")]["train_step_ms"]
            f32 = by_key[(arch, "float32")]["train_step_ms"]
            by_key[(arch, "float32")]["train_step_speedup_vs_f64"] = round(
                f64 / f32, 3) if f32 > 0 else None
        headers = ["arch", "dtype", "forward", "backward", "opt step",
                   "train step", "speedup"]
        table_rows = [[r["arch"], r["dtype"], r["forward_ms"],
                       r["backward_ms"], r["opt_step_ms"],
                       r["train_step_ms"],
                       r.get("train_step_speedup_vs_f64", "")]
                      for r in rows]
        text = format_table(
            headers, table_rows,
            title="Engine microbenchmark — per-phase wall-clock (ms)")
        return emit("engine_microbench", text, rows=rows)

    run_once(benchmark, run)


if __name__ == "__main__":  # manual runs without pytest-benchmark
    pytest.main([__file__, "-q"])
