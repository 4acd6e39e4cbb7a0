"""Quickstart: synthesize a relational table through the unified API.

Runs the paper's full loop on the Adult stand-in dataset:

1. load a table and split it 4:1:1 (train/valid/test);
2. call ``repro.synthesize(train, method="gan", valid=valid)`` — one
   call that trains with per-epoch snapshots, picks the best snapshot on
   the validation set, and emits the synthetic table with provenance;
3. report classification utility (F1 difference) and privacy metrics;
4. save the fitted synthesizer, reload it by name, and draw a
   reproducible sample from the restored model.

Every method family works behind the same entry points — swap
``method="gan"`` for ``"vae"`` or ``"privbayes"``.  For multi-table
databases with foreign keys, see ``examples/relational_database.py``
(``repro.synthesize_database`` — referential integrity by
construction, parent-context-conditioned child generation).

Engine dtype: training runs on the library's own numpy autograd engine,
which defaults to ``float64`` (bit-for-bit reproducible trajectories).
For roughly 2x faster sweeps switch to the float32 training mode
before building any model::

    from repro import nn
    nn.set_default_dtype("float32")   # or: with nn.default_dtype(...)

CNN fast path & sampling throughput
-----------------------------------
The convolution engine (``repro.nn.conv``) runs every layer as BLAS
GEMMs in both engine dtypes: convolutions unfold receptive fields with
a strided view into one GEMM, transposed convolutions fold one GEMM per
kernel tap, and the whole conv + BatchNorm2d + activation chain
executes as a single fused tape node (``conv2d_bn_act`` /
``conv_transpose2d_bn_act``, wired through
``Conv2d.forward(activation=..., bn=...)``), with unfold/fold scratch
buffers recycled via ``repro.nn.ArrayPool``.

Generation is streaming end to end: ``sample``/``sample_iter`` run the
whole stream inside one sampling session (models flip to eval once, not
per chunk), draw noise in the engine dtype, decode chunks through the
transformers' precomputed vectorized inverse (``CompiledInverse`` —
whole-matrix ops instead of per-attribute calls, bit-identical
results), and in fast-math mode fold eval-mode batch norm into the
generator's affine layers.  ``repro.synthesize(..., sample_batch=...)``
exposes the chunk size.

``benchmarks/bench_engine_microbench.py`` times the engine's hot phases
in both dtypes and records them in ``BENCH_engine_microbench.json``
(CI fails if the CNN step regresses >20% vs the committed baseline);
``benchmarks/bench_sampling_throughput.py`` tracks generation rows/sec
against the pre-fast-path loop in ``BENCH_sampling_throughput.json``.
Run both after touching ``repro.nn`` or the transform layer.  The sweep
benchmarks default to float32 fast-math; pass ``--parity`` (or set
``REPRO_BENCH_DTYPE=float64``) for the bit-exact mode.

Observability: every layer this example exercises is instrumented via
``repro.obs`` — a dependency-free metrics registry (scraped as
Prometheus text from the serving stack's ``GET /metrics``), request
traces that stitch per-chunk worker spans across processes, and opt-in
engine profiling (``REPRO_PROFILE=1`` + ``repro.obs.profile_report()``
for per-tape-op forward/backward time and ArrayPool hit rates).  See
``examples/serving.py`` and the README's "Observability" section.

Usage::

    python examples/quickstart.py
"""

import tempfile

import numpy as np

import repro
from repro import datasets
from repro.core import DesignConfig, classification_utility, privacy_report
from repro.report import synthesis_summary


def main():
    table = datasets.load("adult", n_records=2000, seed=0)
    train, valid, test = datasets.split(table, seed=0)
    print(f"dataset: {table} -> train={len(train)} valid={len(valid)} "
          f"test={len(test)}")

    config = DesignConfig(generator="mlp", categorical_encoding="onehot",
                          numerical_normalization="gmm")
    print(f"design point: {config.describe()}")
    print(f"registered families: {repro.available_synthesizers()}")

    result = repro.synthesize(train, method="gan", config=config,
                              valid=valid, epochs=6,
                              iterations_per_epoch=30, seed=0)
    print()
    print(synthesis_summary(result))

    fake = result.table
    print("\nfirst three synthetic records:")
    for record in fake.to_records()[:3]:
        print("  ", record)

    print("\nutility (classifier trained on synthetic vs real):")
    for clf in ("DT10", "RF10", "LR"):
        utility = classification_utility(fake, train, test, clf)
        print(f"  {clf}: F1(real)={utility.f1_real:.3f} "
              f"F1(synthetic)={utility.f1_synthetic:.3f} "
              f"diff={utility.diff:.3f}")

    report = privacy_report(fake, train, hit_samples=500, dcr_samples=300)
    print(f"\nprivacy: hitting rate={100 * report.hitting_rate:.2f}%  "
          f"DCR={report.dcr:.3f}")
    print("(a hitting rate near 0 and a DCR well above 0 mean no "
          "one-to-one record leakage)")

    # Persistence: the fitted synthesizer (best snapshot active) round
    # trips through save/load and samples reproducibly with a seed.
    with tempfile.TemporaryDirectory() as model_dir:
        result.synthesizer.save(model_dir)
        restored = repro.load_synthesizer(model_dir)
        a = result.synthesizer.sample(5, seed=42)
        b = restored.sample(5, seed=42)
        match = all(np.array_equal(a.column(n), b.column(n))
                    for n in a.schema.names)
        print(f"\nsave -> load -> sample(seed=42) reproduces the original: "
              f"{match}")


if __name__ == "__main__":
    main()
