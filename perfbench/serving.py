"""Serving workloads: ``serve_small`` and ``serve_bulk``.

The server is the program's own CLI, ``python -m repro.serve STORE
--workers 1``; traced runs start it through ``launch_server.py``, which
adds the timing wrappers and then runs the same CLI entry point.  One
load-generating thread in this process drives at most ``nproc``
keep-alive connections.
"""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from . import httpclient, procstat
from .common import (
    MLP_TRAIN, MODEL_SEED, Result, adult_split, marginal_tv, mlp_config,
    overhead_pct, train_model,
)
from .spans import Span, covered, load_spans
from .stats import (
    latencies_from_due, lateness, median, percentile, poisson_schedule,
)
from .verify import (
    check_csv_seeded, check_json_seeded, check_json_unseeded, decode_json,
)

MODEL = "gan-mlp"
SAMPLE_PATH = f"/models/{MODEL}/sample"
SERVER_ARGS = ["--workers", "1", "--port", "0"]
#: Server starts per run; ``setup_s`` is their median.
SERVER_STARTS = 3

# serve_small --------------------------------------------------------
SMALL_ROWS = 256
#: The fixed rate and its sample size; at 200 requests p95 is the
#: highest percentile with ten samples beyond it.  Latency is bimodal: a
#: share of the requests stalls ~40 ms (the server's response body waits
#: for the client's delayed ACK of the header segment), and the share
#: varies from run to run: 5-25% at 8-12 req/s, 25-45% at 16 req/s,
#: up to 56% at 24 req/s (measured).  At this rate the median stays in
#: the fast mode and p95 inside the stalled one; p90, or a higher rate,
#: puts a reported percentile on the boundary, where it flips between
#: the modes from run to run.
BASE_RATE, BASE_REQUESTS = 12.0, 200
#: Rate ladder above the base rate: each rung offers RUNG_REQUESTS
#: requests (p90 has ten beyond it) and rungs double until one fails or
#: the run's time is up.  Rungs at x1.5 put one at ~36 req/s, the knee
#: of the latency curve, whose verdict flipped from run to run.
RUNG_REQUESTS, RUNG_STEP = 100, 2.0
#: A rung passes when its p90 latency (from due time) is within this
#: limit, no request failed, and its last quarter was not sent later
#: than LIMIT_MS on average (no backlog built up).
LIMIT_MS = 200.0
#: Distinct seeds cycled by the seeded half of serve_small.
SMALL_SEEDS = 16
#: A request sent this much after a connection was free for it was
#: held up by the generator, not the server.
GENERATOR_SLACK_MS = 5.0

# serve_bulk ---------------------------------------------------------
CSV_ROWS, JSON_ROWS = 100_000, 20_000


def child_env(root: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One server process (plus its pool worker), started and stopped
    by this run."""

    def __init__(self, root: pathlib.Path, store: pathlib.Path,
                 workdir: pathlib.Path, tag: str, traced: bool):
        self.spans_path = workdir / f"spans-{tag}.json" if traced else None
        self.log_path = workdir / f"server-{tag}.log"
        if traced:
            cmd = [sys.executable, str(root / "perfbench" / "launch_server.py"),
                   str(self.spans_path), "--", str(store), *SERVER_ARGS]
        else:
            cmd = [sys.executable, "-m", "repro.serve", str(store),
                   *SERVER_ARGS]
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         env=child_env(root), cwd=root)
        try:
            self.port = self._wait_port()
        except BaseException:
            self.stop()
            raise

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            match = re.search(r"at http://127\.0\.0\.1:(\d+) ",
                              self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("server did not start:\n"
                           + self.log_path.read_text()[-2000:])

    def first_sample(self, seed: int) -> float:
        """Seconds from process start to the first successful sample
        response (this boots the model's worker pool)."""
        sock = httpclient.connect(self.port)
        try:
            ex = httpclient.exchange(sock, httpclient.request_bytes(
                "POST", SAMPLE_PATH, {"n": SMALL_ROWS, "seed": seed},
                "setup"), httpclient.Exchange(None, "setup"))
        finally:
            sock.close()
        if not ex.ok:
            raise RuntimeError(f"first sample failed: {ex.error} "
                               f"status={ex.parser.status}")
        return ex.done - self.started

    def pids(self) -> Tuple[int, List[int]]:
        return self.proc.pid, procstat.children(self.proc.pid)

    def cpu(self) -> Tuple[float, float]:
        server, workers = self.pids()
        return (procstat.cpu_seconds(server),
                sum(procstat.cpu_seconds(pid) for pid in workers))

    def peak_rss_mb(self) -> float:
        server, workers = self.pids()
        return sum(procstat.peak_rss_mb(pid) for pid in [server, *workers])

    def scrape(self) -> Dict[str, float]:
        return parse_prometheus(
            httpclient.get(self.port, "/metrics").body.decode("utf-8"))

    def stop(self) -> None:
        """SIGINT (the CLI's shutdown path), then kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{series (name plus label set): value}`` from the text format."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        series[key] = float(value)
    return series


def series_total(snapshot: Dict[str, float], name: str, **labels) -> float:
    """Sum of ``name`` over every label set containing ``labels``."""
    total = 0.0
    for key, value in snapshot.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        if all(f'{k}="{v}"' in rest for k, v in labels.items()):
            total += value
    return total


def delta(after, before, name: str, **labels) -> float:
    return (series_total(after, name, **labels)
            - series_total(before, name, **labels))


def _prepare(workdir):
    """Train and save the served model; return it loaded back, as the
    reference for seeded responses, with the table schema it serves and
    the test split that fidelity is measured against."""
    import repro

    train, _, test = adult_split(MODEL_SEED)
    store = workdir / "store"
    train_model(mlp_config(), train, MODEL_SEED, **MLP_TRAIN).save(
        store / MODEL)
    reference = repro.load_synthesizer(store / MODEL)
    reference.served_schema = train.schema
    reference.test_table = test
    return store, reference


def _served_tv(reference, tables) -> float:
    """Marginal TV of served rows against the test split; ``tables`` are
    the offline draws the seeded responses were verified equal to."""
    tables = list(tables)
    rows = tables[0]
    for table in tables[1:]:
        rows = rows.concat_rows(table)
    return marginal_tv(reference.test_table, rows)


def _start_servers(root, store, workdir, seed, traced_last: bool,
                   starts: int) -> Tuple[Server, List[float]]:
    """Start the server ``starts`` times (each to its first successful
    response); every start but the last is stopped again."""
    setup = []
    for i in range(starts):
        server = Server(root, store, workdir, f"{i}", traced_last
                        and i == starts - 1)
        try:
            setup.append(server.first_sample(seed))
        except BaseException:
            server.stop()
            raise
        if i < starts - 1:
            server.stop()
    return server, setup


class Phase:
    """Requests sent to one server between two ``/metrics`` scrapes."""

    def __init__(self, server: Server):
        self.server = server
        self.exchanges: List[httpclient.Exchange] = []
        self.bodies: List[dict] = []
        self.before = server.scrape()
        self.cpu_before = server.cpu()
        self.after: Dict[str, float] = {}
        self.cpu_after = (0.0, 0.0)

    def close(self, out: Result) -> None:
        self.cpu_after = self.server.cpu()
        self.after = self.server.scrape()
        sent = sum(1 for ex in self.exchanges if ex.sent is not None)
        counted = delta(self.after, self.before, "repro_serve_requests_total")
        if counted != sent:
            out.fail(f"server counted {counted:g} requests, the generator "
                     f"sent {sent}")

    def counter(self, name: str, **labels) -> float:
        return delta(self.after, self.before, name, **labels)


# ----------------------------------------------------------------------
# serve_small
# ----------------------------------------------------------------------
def _small_bodies(seed: int, count: int, offset: int, traced: bool):
    bodies = []
    for i in range(offset, offset + count):
        body = {"n": SMALL_ROWS}
        if i % 2 == 0:
            body["seed"] = seed * 1000 + (i // 2) % SMALL_SEEDS
        if traced:
            body["trace"] = True
        bodies.append(body)
    return bodies


class Rung:
    """One fixed-rate stretch of the open loop and its verdict."""

    def __init__(self, rate: float, exchanges):
        self.rate = rate
        self.exchanges = exchanges
        due = [ex.due for ex in exchanges]
        done = [ex.done for ex in exchanges]
        self.failures = sum(1 for ex in exchanges if not ex.ok)
        # A failed request misses the limit whatever its latency.
        self.latencies_ms = [
            (lat * 1000.0 if ex.ok else math.inf)
            for lat, ex in zip(latencies_from_due(due, done), exchanges)]
        self.late_ms = [x * 1000.0 for x in
                        lateness(due, [ex.sent for ex in exchanges])]
        self.generator_ms = [max(0.0, ex.sent - ex.free_at) * 1000.0
                             for ex in exchanges]
        self.p50_ms = percentile(self.latencies_ms, 50.0)
        self.p90_ms = percentile(self.latencies_ms, 90.0)
        quarter = self.late_ms[-max(1, len(self.late_ms) // 4):]
        self.backlog = sum(quarter) / len(quarter) > LIMIT_MS
        self.achieved_rps = (len(exchanges) - self.failures) / (
            max(done) - min(due))

    @property
    def passed(self) -> bool:
        return (self.failures == 0 and self.p90_ms <= LIMIT_MS
                and not self.backlog)

    def summary(self) -> dict:
        return {"rate": self.rate, "requests": len(self.exchanges),
                "achieved_rps": self.achieved_rps, "p50_ms": self.p50_ms,
                "p90_ms": self.p90_ms,
                "failures": self.failures, "backlog": self.backlog,
                "passed": self.passed}


def _run_rung(phase: Phase, rate: float, count: int, seed: int,
              offset: int, traced: bool) -> Rung:
    start = time.perf_counter() + 0.02
    due = poisson_schedule(rate, count, seed * 7919 + offset, start)
    bodies = _small_bodies(seed, count, offset, traced)
    rids = [f"r{offset + i}" for i in range(count)]
    exchanges = httpclient.open_loop(
        phase.server.port, SAMPLE_PATH, due, bodies, rids,
        connections=min(2, len(os.sched_getaffinity(0))))
    phase.exchanges.extend(exchanges)
    phase.bodies.extend(bodies)
    return Rung(rate, exchanges)


def _verify_small(out: Result, phase: Phase, reference) -> dict:
    """Check every response; returns the offline draws, by seed, that
    the seeded ones were compared with."""
    expected = {}
    for ex, body in zip(phase.exchanges, phase.bodies):
        out.attempted += 1
        if not ex.ok:
            out.fail(f"{ex.rid}: {ex.error or ex.parser.status}")
            continue
        payload = decode_json(ex.parser.body)
        if payload is None:
            out.fail(f"{ex.rid}: response is not a JSON object")
            continue
        if "seed" in body:
            seed = body["seed"]
            if seed not in expected:
                expected[seed] = reference.sample(SMALL_ROWS, seed=seed)
            problems = check_json_seeded(payload, expected[seed],
                                         SMALL_ROWS, seed)
        else:
            problems = check_json_unseeded(payload, reference.served_schema,
                                           SMALL_ROWS)
        if problems:
            out.fail(f"{ex.rid}: {problems}")
    return expected


def _generator_check(out: Result, rungs: List[Rung]) -> None:
    held = [ms for rung in rungs for ms in rung.generator_ms]
    worst = percentile(held, 99.0)
    out.info["generator_hold_p99_ms"] = worst
    if worst > GENERATOR_SLACK_MS:
        out.info["generator_bound"] = True
        print(f"WARNING: the load generator held requests back "
              f"(p99 {worst:.2f} ms after a connection was free); "
              "this run measured the generator, not the server",
              file=sys.stderr)


def serve_small(root, seed: int, seconds: float, trace: bool,
                workdir: pathlib.Path) -> Result:
    out = Result()
    store, reference = _prepare(workdir)
    if trace:
        return _serve_small_traced(out, root, store, reference, seed,
                                   workdir)
    server, setup = _start_servers(root, store, workdir, seed, False,
                                   SERVER_STARTS)
    try:
        phase = Phase(server)
        deadline = time.perf_counter() + seconds
        base = _run_rung(phase, BASE_RATE, BASE_REQUESTS, seed, 0, False)
        rungs = [base]
        best = base if base.passed else None
        rate, failed = BASE_RATE * RUNG_STEP, False
        while (best is not None and not failed
               and time.perf_counter() + RUNG_REQUESTS / rate < deadline):
            rung = _run_rung(phase, rate, RUNG_REQUESTS, seed,
                             BASE_REQUESTS + RUNG_REQUESTS * (len(rungs) - 1),
                             False)
            rungs.append(rung)
            if rung.passed:
                best = rung
                rate *= RUNG_STEP
            else:
                failed = True
        phase.close(out)
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    out.info["ladder"] = [r.summary() for r in rungs]
    # Capped: the run ended before any rung above the base failed.
    out.info["ladder_capped"] = not failed
    out.info["base_samples"] = len(base.exchanges)
    out.info["loadgen_late_p99_ms"] = percentile(base.late_ms, 99.0)
    out.info["p95_ms"] = percentile(base.latencies_ms, 95.0)
    _generator_check(out, rungs)
    expected = _verify_small(out, phase, reference)
    out.metric("setup_s", median(setup), "s")
    out.metric("peak_rss_mb", peak, "MB")
    out.metric("latency_ms", base.p50_ms, "ms")
    out.metric("rows_per_s", (best or base).achieved_rps * SMALL_ROWS,
               "rows/s")
    seeds = sorted({body["seed"] for body in phase.bodies if "seed" in body})
    for s in seeds:
        if s not in expected:  # every request with this seed failed
            expected[s] = reference.sample(SMALL_ROWS, seed=s)
    out.metric("marginal_tv", _served_tv(
        reference, [expected[s] for s in seeds]), "TV")
    if best is None:
        out.info["no_rung_met_limit"] = True
    return out


def _serve_small_traced(out, root, store, reference, seed, workdir):
    """The base rate once on the CLI server and once on the traced one."""
    results = {}
    for traced in (False, True):
        server, _ = _start_servers(root, store, workdir, seed, traced, 1)
        try:
            phase = Phase(server)
            rung = _run_rung(phase, BASE_RATE, BASE_REQUESTS, seed,
                             10_000 * traced, traced)
            phase.close(out)
        finally:
            server.stop()
        _verify_small(out, phase, reference)
        results[traced] = (server, phase, rung)
    _, plain_phase, plain = results[False]
    server, phase, rung = results[True]
    _generator_check(out, [plain, rung])
    payloads = {ex.rid: decode_json(ex.parser.body)
                for ex in phase.exchanges if ex.ok}
    _server_layers(out, server, phase, plain_phase, payloads)
    out.metric("loadgen.late_p99_ms", percentile(rung.late_ms, 99.0), "ms")
    out.metric("obs.trace_overhead_pct",
               overhead_pct(plain.p50_ms, rung.p50_ms, False), "%")
    return out


# ----------------------------------------------------------------------
# serve_bulk
# ----------------------------------------------------------------------
def _bulk_loop(out: Result, phase: Phase, seed: int, budget: float,
               traced: bool, seen: dict) -> dict:
    """Closed loop on one connection: streamed CSV then JSON, repeated
    with the same seeds until the budget is spent."""
    csv_body = {"n": CSV_ROWS, "seed": seed * 1000 + 1, "format": "csv",
                "stream": True}
    json_body = {"n": JSON_ROWS, "seed": seed * 1000 + 2}
    if traced:
        json_body["trace"] = True
    sock = httpclient.connect(phase.server.port)
    rows, ttfb, json_bodies, i, first_csv = 0, [], [], 0, None
    start = time.perf_counter()
    try:
        while i < 2 or time.perf_counter() < start + budget:
            body = csv_body if i % 2 == 0 else json_body
            ex = httpclient.exchange(
                sock, httpclient.request_bytes("POST", SAMPLE_PATH, body,
                                               f"b{traced:d}-{i}"),
                httpclient.Exchange(None, f"b{traced:d}-{i}"))
            phase.exchanges.append(ex)
            phase.bodies.append(body)
            i += 1
            out.attempted += 1
            if not ex.ok:
                out.fail(f"{ex.rid}: {ex.error or ex.parser.status}")
                sock.close()
                sock = httpclient.connect(phase.server.port)
                continue
            if body is csv_body:
                if not ex.parser.terminal_chunk:
                    out.fail(f"{ex.rid}: stream lacks its terminal chunk")
                    continue
                data = ex.parser.take_body()
                digest = hashlib.sha256(data).hexdigest()
                if "csv" not in seen:
                    # The first CSV of the run is checked in full after
                    # the loop; later ones must repeat it byte for byte.
                    seen["csv"] = digest
                    first_csv = data
                elif seen["csv"] != digest:
                    out.fail(f"{ex.rid}: CSV differs from the first "
                             "response to the same seeded request")
                    continue
                ttfb.append((ex.parser.first_body_at - ex.sent) * 1000.0)
                rows += CSV_ROWS
            else:
                json_bodies.append((ex.rid, ex.parser.take_body()))
                rows += JSON_ROWS
    finally:
        sock.close()
    wall = time.perf_counter() - start
    return {"rows": rows, "wall": wall, "ttfb": ttfb, "json": json_bodies,
            "first_csv": first_csv, "csv_body": csv_body,
            "json_body": json_body}


def _verify_bulk(out: Result, loop: dict, reference):
    """Check the JSON bodies and the run's first CSV body against offline
    draws; returns the rows that failed verification and the offline
    draw of the JSON request."""
    bad_rows = 0
    json_seed = loop["json_body"]["seed"]
    expected = reference.sample(JSON_ROWS, seed=json_seed)
    schema = None
    for rid, data in loop["json"]:
        payload = decode_json(data)
        problems = (["not a JSON object"] if payload is None else
                    check_json_seeded(payload, expected, JSON_ROWS,
                                      json_seed))
        if payload is not None:
            schema = payload.get("schema")
        if problems:
            out.fail(f"{rid}: {problems}")
            bad_rows += JSON_ROWS
    if loop["first_csv"] is not None:
        csv_seed = loop["csv_body"]["seed"]
        problems = (["no JSON response carried the schema"]
                    if schema is None else check_csv_seeded(
                        loop["first_csv"], reference.sample(CSV_ROWS,
                                                            seed=csv_seed),
                        schema, CSV_ROWS))
        if problems:
            out.fail(f"CSV seed {csv_seed}: {problems}")
            # Every later CSV repeated the first byte for byte.
            bad_rows += CSV_ROWS * len(loop["ttfb"])
    return bad_rows, expected


def serve_bulk(root, seed: int, seconds: float, trace: bool,
               workdir: pathlib.Path) -> Result:
    out = Result()
    store, reference = _prepare(workdir)
    seen: dict = {}
    if trace:
        return _serve_bulk_traced(out, root, store, reference, seed,
                                  seconds, workdir, seen)
    server, setup = _start_servers(root, store, workdir, seed, False,
                                   SERVER_STARTS)
    try:
        phase = Phase(server)
        loop = _bulk_loop(out, phase, seed, seconds, False, seen)
        phase.close(out)
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    bad, expected = _verify_bulk(out, loop, reference)
    out.info["bulk_requests"] = len(phase.exchanges)
    out.info["bulk_csv_samples"] = len(loop["ttfb"])
    out.metric("setup_s", median(setup), "s")
    out.metric("peak_rss_mb", peak, "MB")
    out.metric("latency_ms", median(loop["ttfb"]), "ms")
    out.metric("rows_per_s", (loop["rows"] - bad) / loop["wall"], "rows/s")
    out.metric("marginal_tv", _served_tv(reference, [expected]), "TV")
    return out


def _serve_bulk_traced(out, root, store, reference, seed, seconds, workdir,
                       seen):
    """Half the time on the CLI server, half on the traced one."""
    results = {}
    for traced in (False, True):
        server, _ = _start_servers(root, store, workdir, seed, traced, 1)
        try:
            phase = Phase(server)
            loop = _bulk_loop(out, phase, seed, seconds / 2, traced, seen)
            phase.close(out)
        finally:
            server.stop()
        bad, _ = _verify_bulk(out, loop, reference)
        results[traced] = (server, phase, loop,
                           (loop["rows"] - bad) / loop["wall"])
    _, plain_phase, _, plain_rate = results[False]
    server, phase, loop, rate = results[True]
    payloads = {rid: decode_json(data) for rid, data in loop["json"]}
    _server_layers(out, server, phase, plain_phase, payloads)
    out.metric("obs.trace_overhead_pct",
               overhead_pct(plain_rate, rate, True), "%")
    return out


# ----------------------------------------------------------------------
# Per-layer metrics of a traced server phase
# ----------------------------------------------------------------------
def _server_layers(out: Result, server: Server, phase: Phase,
                   plain_phase: Phase, payloads: Dict[str, dict]) -> None:
    """Mean seconds per request in each server layer, from the launcher's
    spans, the worker chunk spans that the traced phase's JSON responses
    (``payloads`` by request id) carry, and the ``/metrics`` deltas of
    the traced phase."""
    spans = load_spans(server.spans_path)
    exchanges = {ex.rid: ex for ex in phase.exchanges}
    chunk_traces = {rid: payload["trace"] for rid, payload in payloads.items()
                    if payload is not None and "trace" in payload}
    n_req = len(exchanges)
    json_rids = set(chunk_traces)
    by_rid: Dict[str, List[Span]] = {}
    for span in spans:
        by_rid.setdefault(span.rid, []).append(span)

    def total(name, rids=None):
        return sum(s.duration for s in spans if s.name == name
                   and (rids is None or s.rid in rids))

    # Service and encoding time per request, for the client-side rest.
    other = []
    for rid, ex in exchanges.items():
        mine = by_rid.get(rid, [])
        service = sum(s.duration for s in mine
                      if s.name == "serve.service.sample")
        encode = sum(s.duration for s in mine
                     if s.name.startswith("serve.encoding."))
        other.append((ex.done - ex.sent) - service - encode)
    # Batcher wait: submit minus the sampler call of the pass that
    # served it.
    sampler_of = {}
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span.name == "serve.batching.sampler":
            parent = by_id.get(span.parent)
            for rid in (parent.tags.get("rids", ()) if parent else ()):
                sampler_of[rid] = span.duration
    wait = sum(s.duration - sampler_of.get(s.rid, 0.0) for s in spans
               if s.name == "serve.batching.submit" and s.rid in exchanges)
    # Pool calls behind JSON requests (seeded ones carry the rid,
    # coalesced passes run on a batcher thread with none) against the
    # worker chunk time those requests' traces report.
    pool_json = sum(s.duration for s in spans if s.name == "serve.pool.sample"
                    and (s.rid in json_rids or s.rid is None))
    chunk_sum, chunk_cover = 0.0, 0.0
    for trace in chunk_traces.values():
        chunks = [(c["start"], c["end"]) for c in trace["spans"]
                  if c["name"] == "chunk"]
        chunk_sum += sum(end - start for start, end in chunks)
        chunk_cover += covered(chunks)
    n_json = max(1, len(json_rids))
    csv_spans = [s for s in spans if s.name == "serve.encoding.csv"
                 and s.rid in exchanges]
    n_csv = len({s.rid for s in csv_spans})
    per = 1.0 / n_req
    out.metric("serve.service.sample_s",
               total("serve.service.sample", exchanges) * per, "s")
    out.metric("serve.batching.wait_s", wait * per, "s")
    passes = phase.counter("repro_batcher_coalesce_size_count")
    out.metric("serve.batching.passes", passes, "count")
    out.metric("serve.batching.coalesce_mean",
               phase.counter("repro_batcher_coalesce_size_sum") / passes
               if passes else 0.0, "count")
    out.metric("serve.batching.rejected", phase.counter(
        "repro_batcher_requests_total", outcome="rejected"), "count")
    # Coalesced passes call the pool from a batcher thread (no rid).
    out.metric("serve.pool.sample_s", total(
        "serve.pool.sample", set(exchanges) | {None}) * per, "s")
    out.metric("serve.pool.chunk_s", chunk_sum / n_json, "s")
    out.metric("serve.pool.transport_s", (pool_json - chunk_cover) / n_json,
               "s")
    out.metric("serve.pool.chunks",
               phase.counter("repro_pool_chunks_total"), "count")
    out.metric("serve.pool.retries",
               phase.counter("repro_pool_chunk_retries_total"), "count")
    out.metric("serve.pool.deaths",
               phase.counter("repro_pool_worker_deaths_total"), "count")
    out.metric("serve.pool.inline",
               phase.counter("repro_pool_inline_recoveries_total"), "count")
    out.metric("serve.encoding.json_s",
               total("serve.encoding.json", exchanges) * per, "s")
    out.metric("serve.encoding.csv_s",
               sum(s.duration for s in csv_spans) * per, "s")
    out.metric("serve.encoding.bytes",
               sum(s.tags.get("bytes", 0) for s in csv_spans) / n_csv
               if n_csv else 0.0, "B")
    out.metric("serve.http.other_s", sum(other) * per, "s")
    boots = [s.duration for s in spans if s.name == "serve.store.load"]
    out.metric("serve.store.load_s", boots[0] if boots else 0.0, "s")
    plain_requests = max(1, len(plain_phase.exchanges))
    out.metric("proc.server_cpu_s", (plain_phase.cpu_after[0]
                                     - plain_phase.cpu_before[0])
               / plain_requests, "s")
    out.metric("proc.worker_cpu_s", (plain_phase.cpu_after[1]
                                     - plain_phase.cpu_before[1])
               / plain_requests, "s")
    out.metric("loadgen.requests", n_req, "count")
