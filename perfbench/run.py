"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then with timing
wrappers around each layer, and reports the per-layer metrics plus the
tracing overhead.  Every metric is printed by name with its unit, then
the environment record, then (last line) one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any output failed verification.

The metric names and units come from ``BENCHMARK.json``: every run
reports all ``end_to_end`` metrics (``--trace 0``) or all ``per_layer``
metrics (``--trace 1``).  A per-layer metric of a layer the workload
does not go through is reported as 0 and listed in the run record under
``not_on_path``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("train_select", "sample_offline", "serve_small", "serve_bulk")

#: Set before NumPy loads, in this process and (inherited) in the server
#: and its worker: one BLAS thread each, and a fixed string hash, which
#: ``repro.datasets.real.generate`` folds into its seed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


def _pin_environment() -> None:
    """Re-execute this script once with :data:`PINNED_ENV` in effect."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def _import_program():
    """Import ``repro`` from this checkout's ``src`` only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit("perfbench: imported repro from outside "
                         f"{src}: {repro.__file__}")


def expected_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics a run must report."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[kind]}


def complete(metrics: dict, expected: dict, trace: bool) -> list:
    """Check ``metrics`` against the manifest's names and units; with
    ``trace``, add the layers the workload did not touch as 0.  Returns
    the names added."""
    wrong = [f"{name} in {metrics[name][1]}, not {unit}"
             for name, unit in expected.items()
             if name in metrics and metrics[name][1] != unit]
    extra = sorted(set(metrics) - set(expected))
    missing = [name for name in expected if name not in metrics]
    if wrong or extra or (missing and not trace):
        raise SystemExit(f"perfbench: metrics do not match BENCHMARK.json: "
                         f"wrong unit {wrong}, not listed {extra}, "
                         f"missing {missing}")
    for name in missing:
        metrics[name] = (0.0, expected[name])
    ordered = {name: metrics[name] for name in expected}
    metrics.clear()
    metrics.update(ordered)
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_environment()
    _import_program()

    from perfbench import envinfo, library, serving

    expected = expected_metrics(bool(args.trace))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = envinfo.environment(ROOT)
    calibration = envinfo.calibration()
    trace = bool(args.trace)
    try:
        if args.workload == "train_select":
            out = library.train_select(args.seed, args.seconds, trace)
        elif args.workload == "sample_offline":
            out = library.sample_offline(args.seed, args.seconds, trace,
                                         workdir)
        elif args.workload == "serve_small":
            out = serving.serve_small(ROOT, args.seed, args.seconds, trace,
                                      workdir)
        else:
            out = serving.serve_bulk(ROOT, args.seed, args.seconds, trace,
                                     workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out.info["not_on_path"] = complete(out.metrics, expected, trace)
    error_rate = out.failed / max(1, out.attempted)
    for name, (value, unit) in out.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {error_rate:.6g} share "
          f"({out.failed} failed of {out.attempted})")
    for problem in out.problems:
        print(f"FAILED: {problem}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "calibration_ms": calibration,
              "info": out.info, "error_rate": error_rate}
    print("run " + json.dumps(record, default=str))
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
