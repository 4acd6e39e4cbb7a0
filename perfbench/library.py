"""Library workloads: ``train_select`` and ``sample_offline``.

Both run in this process through the public ``repro`` API with the
program's defaults (no engine dtype is set).
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, List

from . import procstat
from .common import (
    CNN_TRAIN, MLP_TRAIN, MODEL_SEED, Result, adult_split, check_table,
    cnn_config, marginal_tv, mlp_config, overhead_pct, table_digest, timed,
    train_model,
)
from .spans import Span, Tracer, self_times
from .stats import median

#: train_select: GAN schedule of each ``repro.synthesize`` call.  Three
#: snapshots of 50 iterations keep the marginal TV of one fit within
#: ~7% (coefficient of variation over tables); four of 25 gave ~12%.
EPOCHS, ITERATIONS = 3, 50
#: sample_offline set-up repetitions (each is dominated by the first
#: gan-cnn chunk, ~1 s); ``setup_s`` is their median.
SETUP_REPEATS = 3
#: sample_offline: rows per ``sample`` call (five gan-mlp chunks, one
#: gan-cnn chunk: its float64 conv path is ~40x slower per row) and
#: gan-mlp calls per gan-cnn call, so both get a comparable sample of
#: calls for their medians.
N_MLP, N_CNN, MLP_PER_CNN = 20480, 2048, 3
#: Distinct sampling seeds per model; each is drawn repeatedly so every
#: repeat can be checked bit for bit against the first draw.
SAMPLE_SEEDS = 2


def _spans_by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


def _total(spans, name: str) -> float:
    return sum(span.duration for span in spans.get(name, ()))


# ----------------------------------------------------------------------
# train_select
# ----------------------------------------------------------------------
def _fit_once(train, valid, test, fit_seed: int):
    import repro
    from repro.core.evaluation import classification_utility

    result, fit_s = timed(
        repro.synthesize, train, "gan", config=mlp_config(), valid=valid,
        epochs=EPOCHS, iterations_per_epoch=ITERATIONS, seed=fit_seed,
        sample_seed=fit_seed + 1)
    quality = {
        "dt10_f1_diff": classification_utility(
            result.table, train, test, "DT10").diff,
        "marginal_tv": marginal_tv(test, result.table),
    }
    return result, fit_s, quality


def _fit_phase(out: Result, seed: int, budget: float, setup: List[float]
               ) -> List[dict]:
    """Fits on fresh tables until the budget would be overrun by the next
    one plus the repeat, then the first fit once more, which must
    reproduce its table and quality metrics exactly.

    Each fit draws its own table (seed ``seed * 1000 + k``): the GMM
    fitting and DT10 costs depend on the data, so one table per run
    would make the run's median depend on which table the seed drew.
    """
    fits = []
    start = time.perf_counter()
    deadline = start + budget
    k = 0
    while True:
        fit_seed = seed * 1000 + k
        split, took = timed(adult_split, fit_seed)
        setup.append(took)
        result, fit_s, quality = _fit_once(*split, fit_seed)
        out.attempted += 1
        problems = check_table(result.table, split[0].schema, len(split[0]))
        if problems:
            out.fail(f"fit {fit_seed}: {problems}")
        if k == 0:
            first_split = split
        fits.append({"seed": fit_seed, "fit_s": fit_s, **quality,
                     "rows": len(split[0]),
                     "digest": table_digest(result.table)})
        k += 1
        per_fit = (time.perf_counter() - start) / len(fits)
        if time.perf_counter() + 2 * per_fit > deadline:
            break
    first = fits[0]
    result, fit_s, quality = _fit_once(*first_split, first["seed"])
    out.attempted += 1
    for key, value in quality.items():
        if value != first[key]:
            out.fail(f"{key} did not repeat for fit seed {first['seed']}: "
                     f"{first[key]!r} then {value!r}")
    if table_digest(result.table) != first["digest"]:
        out.fail(f"synthetic table did not repeat for fit seed "
                 f"{first['seed']}")
    fits.append({"seed": first["seed"], "fit_s": fit_s, "repeat": True,
                 "rows": first["rows"], **quality})
    return fits


def train_select(seed: int, seconds: float, trace: bool) -> Result:
    out = Result()
    setup: List[float] = []
    procstat.reset_peak_rss()
    tracer = None
    if not trace:
        fits = _fit_phase(out, seed, seconds, setup)
    else:
        from .layers import install_library

        plain = _fit_phase(out, seed, seconds / 2, setup)
        tracer = Tracer()
        install_library(tracer)
        fits = _fit_phase(out, seed, seconds / 2, setup)
    distinct = [f for f in fits if not f.get("repeat")]
    fit_times = [f["fit_s"] for f in fits]
    out.info["fits"] = len(fits)
    out.info["fit_s"] = fit_times
    out.info["marginal_tv_per_fit"] = [f["marginal_tv"] for f in distinct]
    out.info["dt10_f1_diff"] = sum(f["dt10_f1_diff"] for f in distinct) \
        / len(distinct)
    out.info["marginal_tv"] = sum(f["marginal_tv"] for f in distinct) \
        / len(distinct)
    if tracer is None:
        out.metric("setup_s", median(setup), "s")
        out.metric("peak_rss_mb", procstat.peak_rss_mb(), "MB")
        out.metric("latency_ms", median(fit_times) * 1000.0, "ms")
        out.metric("rows_per_s", median([f["rows"] / f["fit_s"]
                                         for f in fits]), "rows/s")
        out.metric("marginal_tv", out.info["marginal_tv"], "TV")
        return out
    _train_layers(out, tracer.spans, len(fits))
    out.metric("obs.trace_overhead_pct", overhead_pct(
        median([f["fit_s"] for f in plain]), median(fit_times), False), "%")
    return out


def _train_layers(out: Result, spans: List[Span], n_fits: int) -> None:
    own = self_times(spans)
    by_name = _spans_by_name(spans)
    per_fit = 1.0 / n_fits
    out.metric("gan.training.iteration_s",
               _total(by_name, "gan.training.iteration") * per_fit, "s")
    out.metric("gan.training.iterations",
               len(by_name.get("gan.training.iteration", ())) * per_fit,
               "count")
    out.metric("nn.backward_s", _total(by_name, "nn.backward") * per_fit, "s")
    out.metric("nn.optim.step_s",
               _total(by_name, "nn.optim.step") * per_fit, "s")
    out.metric("nn.forward_s", sum(
        own[s.span_id] for s in by_name.get("gan.training.iteration", ()))
        * per_fit, "s")
    out.metric("transform.fit_s",
               _total(by_name, "transform.fit") * per_fit, "s")
    out.metric("transform.transform_s",
               _total(by_name, "transform.transform") * per_fit, "s")
    score = by_name.get("api.selection.score", [])
    out.metric("api.selection.score_s", _total(by_name, "api.selection.score")
               * per_fit, "s")
    score_ids = {s.span_id for s in score}
    out.metric("api.selection.snapshots", sum(
        1 for s in by_name.get("api.sample", ()) if s.parent in score_ids)
        * per_fit, "count")
    # Only classifier fits made while scoring snapshots; the quality
    # evaluation after the fit trains DT10 too.
    parents = {s.span_id: s.parent for s in spans}

    def under_score(span):
        node = span.parent
        while node is not None:
            if node in score_ids:
                return True
            node = parents.get(node)
        return False

    out.metric("ml.fit_s", sum(s.duration for s in by_name.get("ml.fit", ())
                               if under_score(s)) * per_fit, "s")


# ----------------------------------------------------------------------
# sample_offline
# ----------------------------------------------------------------------
def _load_first_chunk(path: pathlib.Path, n: int, seed: int):
    """``load_synthesizer`` plus the first chunk of a seeded draw; returns
    the model and the load time alone."""
    import repro

    model, load_s = timed(repro.load_synthesizer, path)
    next(iter(model.sample_iter(n, seed=seed)))
    return model, load_s


def sample_offline(seed: int, seconds: float, trace: bool,
                   workdir: pathlib.Path) -> Result:
    out = Result()
    train, _, test = adult_split(MODEL_SEED)
    plans = {"mlp": (mlp_config(), MLP_TRAIN, N_MLP),
             "cnn": (cnn_config(), CNN_TRAIN, N_CNN)}
    trained, paths = {}, {}
    for name, (config, schedule, _) in plans.items():
        trained[name] = train_model(config, train, MODEL_SEED, **schedule)
        paths[name] = workdir / f"gan-{name}"
        trained[name].save(paths[name])
    procstat.reset_peak_rss()
    setup, load, loaded = [], [], {}
    for _ in range(SETUP_REPEATS):
        start, load_s = time.perf_counter(), 0.0
        for name, (_, _, n) in plans.items():
            loaded[name], took = _load_first_chunk(paths[name], n, seed)
            load_s += took
        setup.append(time.perf_counter() - start)
        load.append(load_s)
    seeds = [seed * 100 + j for j in range(SAMPLE_SEEDS)]
    digests: Dict[tuple, str] = {}

    def phase(budget: float, tracer=None):
        """Seeded draws until the budget is spent; per model, the rows/s
        of every call and (traced) the spans each call recorded."""
        rates: Dict[str, List[float]] = {name: [] for name in plans}
        layer_spans: Dict[str, List[Span]] = {name: [] for name in plans}
        deadline = time.perf_counter() + budget
        k = 0
        while not rates["cnn"] or time.perf_counter() < deadline:
            name = "cnn" if k % (MLP_PER_CNN + 1) == MLP_PER_CNN else "mlp"
            n = plans[name][2]
            s = seeds[len(rates[name]) % len(seeds)]
            table, took = timed(loaded[name].sample, n, seed=s)
            out.attempted += 1
            rates[name].append(n / took)
            problems = check_table(table, train.schema, n)
            digest = table_digest(table)
            if digests.setdefault((name, s), digest) != digest:
                problems.append(f"seed {s} draw changed between calls")
            if problems:
                out.fail(f"gan-{name}: {problems}")
            if tracer is not None:
                layer_spans[name].extend(tracer.spans)
                tracer.clear()
            k += 1
        return rates, layer_spans

    if not trace:
        rates, _ = phase(seconds)
        out.info["calls"] = {name: len(r) for name, r in rates.items()}
    else:
        from .layers import install_library, wrap_generator

        plain, _ = phase(seconds / 2)
        tracer = Tracer()
        install_library(tracer)
        for model in loaded.values():
            wrap_generator(tracer, model)
        tracer.clear()
        rates, layer_spans = phase(seconds / 2, tracer)
    # Save/load round trip: the loaded model must reproduce the trained
    # one's seeded draw.
    for name in plans:
        check = seeds[0] + 7
        if table_digest(trained[name].sample(512, seed=check)) != \
                table_digest(loaded[name].sample(512, seed=check)):
            out.fail(f"gan-{name}: loaded model differs from trained model")
        out.attempted += 1
    if not trace:
        out.metric("setup_s", median(setup), "s")
        out.metric("peak_rss_mb", procstat.peak_rss_mb(), "MB")
        out.metric("latency_ms", median([N_CNN / r for r in rates["cnn"]])
                   * 1000.0, "ms")
        out.metric("rows_per_s", median(rates["mlp"]), "rows/s")
        out.metric("marginal_tv", marginal_tv(
            test, loaded["mlp"].sample(N_MLP, seed=seeds[0])), "TV")
        return out
    for name in plans:
        _sample_layers(out, layer_spans[name], len(rates[name]),
                       "" if name == "mlp" else "_cnn")
    out.metric("serve.store.load_s", median(load), "s")
    out.metric("obs.trace_overhead_pct", overhead_pct(
        median(plain["mlp"]), median(rates["mlp"]), True), "%")
    return out


def _sample_layers(out: Result, spans: List[Span], calls: int,
                   suffix: str) -> None:
    """Per ``sample()`` call: chunk, forward, inverse and the rest."""
    by_name = _spans_by_name(spans)
    per_call = 1.0 / calls
    chunk = _total(by_name, "api.sample.chunk")
    forward = _total(by_name, "gan.generator.forward")
    inverse = _total(by_name, "transform.inverse")
    out.metric(f"api.sample.chunk{suffix}_s", chunk * per_call, "s")
    out.metric(f"api.sample.chunks{suffix}",
               len(by_name.get("api.sample.chunk", ())) * per_call, "count")
    out.metric(f"gan.generator.forward{suffix}_s", forward * per_call, "s")
    out.metric(f"transform.inverse{suffix}_s", inverse * per_call, "s")
    out.metric(f"gan.chunk.other{suffix}_s",
               (chunk - forward - inverse) * per_call, "s")
    out.metric(f"api.sample.assemble{suffix}_s",
               (_total(by_name, "api.sample") - chunk) * per_call, "s")
