"""Worker pool: concurrent sampling determinism + failure modes.

The acceptance contract (satellite): the same ``(model, n, seed)``
through 1 worker, 4 workers, and plain single-process ``sample()``
produces identical tables — for every method family and for a
relational database.
"""

import contextlib
import json
import threading

import numpy as np
import pytest

from repro.obs.clock import ManualClock, use_clock
from repro.obs.trace import Trace
from repro.serve import (
    CircuitBreaker, PoolClosed, RequestTimeout, ServingError,
    SynthesisService, WorkerError, WorkerPool, load_model,
)

TABLE_MODELS = ("adult-gan", "adult-vae", "adult-pb")
#: Kill worker 0's first incarnation once it has produced two chunks.
KILL_AFTER_2 = {"on": "chunk", "worker": 0, "after": 2, "action": "kill",
                "incarnations": [0], "times": 1}
#: Kill worker 0's first incarnation right after a whole database draw.
KILL_DATABASE = {"on": "chunk", "chunk_index": -1, "action": "kill",
                 "incarnations": [0], "times": 1}


def assert_tables_equal(a, b):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def assert_databases_equal(a, b):
    assert set(a.table_names) == set(b.table_names)
    for name in a.table_names:
        assert_tables_equal(a[name], b[name])


@pytest.mark.parametrize("model", TABLE_MODELS)
def test_worker_counts_bit_identical(model_root, model):
    """1 worker == 4 workers == plain sample(), bit for bit."""
    path = model_root / model
    plain = load_model(path).sample(90, batch=16, seed=5)
    for workers in (1, 4):
        with WorkerPool(path, workers=workers) as pool:
            assert_tables_equal(pool.sample(90, batch=16, seed=5), plain)


def set_faults(monkeypatch, *rules):
    monkeypatch.setenv("REPRO_FAULTS", json.dumps({"rules": list(rules)}))


@contextlib.contextmanager
def in_process_pool(route, model_root, name, monkeypatch):
    """A pool whose requests run in-process by ``route``.

    ``workers0``: a pool without worker processes.  ``takeover``: the
    only worker dies mid-request and is never respawned, so the crashed
    pool drains in-process.  ``degraded``: the pool a service with an
    open circuit serves through ``degraded="inline"``.
    """
    path = model_root / name
    if route == "workers0":
        with WorkerPool(path, workers=0) as pool:
            yield pool
    elif route == "takeover":
        set_faults(monkeypatch,
                   KILL_DATABASE if name == "shop-db" else KILL_AFTER_2)
        with WorkerPool(path, workers=1, request_timeout=60.0,
                        respawn=False) as pool:
            yield pool
    else:
        def open_circuit():
            breaker = CircuitBreaker(failure_threshold=1,
                                     clock=lambda: 0.0)
            breaker.record_failure()
            return breaker

        with SynthesisService(model_root, workers=1, degraded="inline",
                              circuit_factory=open_circuit) as service:
            pool = service._retained_pool(name)
            try:
                yield pool
            finally:
                pool.release()
            assert service.healthz()["degraded"] == [name]


@pytest.mark.parametrize("call", ("sample", "sample_iter",
                                  "sample_database"))
@pytest.mark.parametrize("route", ("workers0", "takeover", "degraded"))
def test_inline_pool_bit_identical(model_root, monkeypatch, route, call):
    """Every in-process route serves every call bit-identically, and a
    traced table request covers every chunk."""
    name = "shop-db" if call == "sample_database" else "adult-pb"
    plain = load_model(model_root / name)
    trace = Trace(route)
    with in_process_pool(route, model_root, name, monkeypatch) as pool:
        if call == "sample_database":
            assert_databases_equal(pool.sample_database(1.0, seed=7),
                                   plain.sample(1.0, seed=7))
        else:
            if call == "sample":
                out = pool.sample(96, batch=8, seed=5, trace=trace)
            else:
                chunks = list(pool.sample_iter(96, batch=8, seed=5,
                                               trace=trace))
                out = chunks[0]
                for chunk in chunks[1:]:
                    out = out.concat_rows(chunk)
            assert_tables_equal(out, plain.sample(96, batch=8, seed=5))
            assert set(trace.chunk_coverage()) == set(range(12))
            assert any(span.tags.get("worker") == "inline"
                       for span in trace.spans())
        status = pool.status()
        # Only a crashed process pool's takeover counts as a recovery.
        assert pool.crashed == (route == "takeover")
        if route == "takeover":
            assert status["inline_recoveries"] >= 1
        else:
            assert status["inline_recoveries"] == 0


def test_default_batch_matches_local_default(model_root):
    """No explicit batch: the pool uses the model's own default chunk
    size, so the unbatched call is covered by the contract too."""
    path = model_root / "adult-pb"
    plain = load_model(path).sample(50, seed=3)
    with WorkerPool(path, workers=2) as pool:
        assert pool.default_batch == load_model(path).default_sample_batch
        assert_tables_equal(pool.sample(50, seed=3), plain)


def test_database_pool_bit_identical(model_root):
    """Database serving: a pooled draw equals the local draw."""
    path = model_root / "shop-db"
    plain = load_model(path).sample(1.0, seed=7)
    for workers in (0, 2):
        with WorkerPool(path, workers=workers) as pool:
            served = pool.sample_database(1.0, seed=7)
            assert_databases_equal(served, plain)
            assert all(v == 0 for v in served.check_integrity().values())


def test_sample_iter_streams_in_order(model_root):
    path = model_root / "adult-pb"
    plain = load_model(path).sample(64, batch=16, seed=2)
    with WorkerPool(path, workers=2) as pool:
        chunks = list(pool.sample_iter(64, batch=16, seed=2))
        assert [len(c) for c in chunks] == [16, 16, 16, 16]
        out = chunks[0]
        for chunk in chunks[1:]:
            out = out.concat_rows(chunk)
        assert_tables_equal(out, plain)


def test_streaming_flow_control_bounds_buffering(model_root):
    """A slow sample_iter consumer must not let workers race ahead and
    buffer the whole table in the parent: dispatch is windowed."""
    import time as _time

    path = model_root / "adult-pb"
    with WorkerPool(path, workers=1) as pool:
        stream = pool.sample_iter(160, batch=8, seed=2)  # 20 chunks
        chunks = [next(stream)]
        _time.sleep(0.5)  # plenty of time to race ahead, were it allowed
        with pool._lock:
            pending = list(pool._pending.values())
        assert len(pending) == 1
        # window = max(2*workers, 4) = 4 outstanding chunks, not 19.
        assert len(pending[0].results) <= 6
        chunks.extend(stream)
        assert sum(len(c) for c in chunks) == 160
        plain = load_model(path).sample(160, batch=8, seed=2)
        out = chunks[0]
        for chunk in chunks[1:]:
            out = out.concat_rows(chunk)
        assert_tables_equal(out, plain)


def test_inline_stream_stays_one_chunk_ahead(model_root):
    """Without worker processes a stream generates at most one chunk
    ahead of its consumer (the clock counts generated chunks)."""
    path = model_root / "adult-pb"
    with use_clock(ManualClock()) as clock:
        model = ClockedModel(load_model(path), clock, seconds=1.0)
        with WorkerPool(path, workers=0, inline_model=model,
                        request_timeout=None) as pool:
            stream = pool.sample_iter(160, batch=8, seed=2)  # 20 chunks
            for consumed in range(1, 21):
                next(stream)
                assert clock.monotonic() <= consumed + 1
            assert clock.monotonic() == 20


def test_concurrent_requests_one_pool(model_root):
    """Several threads hammering one pool each get their exact table."""
    import threading

    path = model_root / "adult-pb"
    expected = {seed: load_model(path).sample(40, batch=8, seed=seed)
                for seed in (1, 2, 3, 4)}
    results = {}
    with WorkerPool(path, workers=2) as pool:
        def run(seed):
            results[seed] = pool.sample(40, batch=8, seed=seed)

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for seed, table in expected.items():
        assert_tables_equal(results[seed], table)


def test_concurrent_in_process_requests(model_root):
    """Eight threads (more than cores) share one workers=0 pool under a
    short switch interval: every table and stream is exact, and the
    pool's request bookkeeping and chunk counter lose no update."""
    import sys

    from repro.obs.metrics import MetricsRegistry

    path = model_root / "adult-pb"
    seeds = range(8)
    expected = {seed: load_model(path).sample(40, batch=8, seed=seed)
                for seed in seeds}
    results = {}
    registry = MetricsRegistry()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkerPool(path, workers=0, metrics=registry) as pool:
            def run(seed):
                if seed % 2:
                    results[seed] = pool.sample(40, batch=8, seed=seed)
                else:
                    chunks = list(pool.sample_iter(40, batch=8, seed=seed))
                    out = chunks[0]
                    for chunk in chunks[1:]:
                        out = out.concat_rows(chunk)
                    results[seed] = out

            threads = [threading.Thread(target=run, args=(seed,))
                       for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert pool.inflight == 0 and not pool._pending
    finally:
        sys.setswitchinterval(interval)
    for seed, table in expected.items():
        assert_tables_equal(results[seed], table)
    chunks = registry.counter("repro_pool_chunks_total", "",
                              labelnames=("model", "source"))
    assert chunks.value(model="adult-pb", source="inline") == 8 * 5


class TestValidationAndErrors:
    def test_bad_counts_name_the_argument(self, model_root):
        with WorkerPool(model_root / "adult-pb", workers=0) as pool:
            with pytest.raises(ValueError, match="n must"):
                pool.sample(0)
            with pytest.raises(ValueError, match="batch"):
                pool.sample(10, batch=0)
            with pytest.raises(ValueError, match="batch"):
                pool.sample(10, batch=2.5)

    def test_kind_mismatch(self, model_root):
        with WorkerPool(model_root / "adult-pb", workers=0) as pool:
            with pytest.raises(ServingError, match="single table"):
                pool.sample_database(1.0)
        with WorkerPool(model_root / "shop-db", workers=0) as pool:
            with pytest.raises(ServingError, match="database"):
                pool.sample(10)

    def test_missing_model_dir(self, tmp_path):
        with pytest.raises(ServingError, match="no saved synthesizer"):
            WorkerPool(tmp_path / "missing", workers=0)

    def test_boot_failure_surfaces(self, tmp_path, model_root):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(model_root / "adult-pb", broken)
        (broken / "arrays.npz").unlink()
        with pytest.raises(WorkerError, match="failed to start"):
            WorkerPool(broken, workers=1, start_timeout=30.0)

    def test_pending_releases_chunks_on_handover(self):
        """Streamed chunks leave the pending buffer as they are
        yielded, so a long stream never re-materializes in the parent."""
        from repro.serve.pool import _Pending

        pending = _Pending(expected=2, kind="chunks", spec=(16, 8, 0))
        pending.deliver(0, "chunk-0")
        assert pending.wait_index(0, None) == "chunk-0"
        assert 0 not in pending.results

    def test_worker_death_recovers_bit_identically(self, model_root):
        """A worker killed while idle is respawned and the queued
        request is recovered bit-identically (self-healing default)."""
        reference = load_model(model_root / "adult-pb").sample(
            50, batch=8, seed=1)
        pool = WorkerPool(model_root / "adult-pb", workers=1,
                          request_timeout=60.0)
        try:
            for process in pool._processes:
                process.terminate()
            out = pool.sample(50, batch=8, seed=1)
            for name in reference.schema.names:
                np.testing.assert_array_equal(out.columns[name],
                                              reference.columns[name])
            status = pool.status()
            assert status["restarts"] >= 1
            assert not pool.crashed and not pool.closed
        finally:
            pool.close()

    def test_worker_death_without_respawn_crashes_fast(self, model_root,
                                                       monkeypatch):
        """With respawn disabled, a worker killed mid-request retires
        its slot: the crashed pool finishes the in-flight request
        in-process, promptly (not at the request timeout) and
        bit-identically, then rejects new requests."""
        import time as _time

        path = model_root / "adult-pb"
        reference = load_model(path).sample(96, batch=8, seed=5)
        set_faults(monkeypatch, KILL_AFTER_2)
        pool = WorkerPool(path, workers=1, request_timeout=60.0,
                          respawn=False)
        try:
            start = _time.monotonic()
            assert_tables_equal(pool.sample(96, batch=8, seed=5),
                                reference)
            assert _time.monotonic() - start < 10.0
            assert pool.crashed
            with pytest.raises(PoolClosed):
                pool.sample(10, seed=1)
        finally:
            pool.close()

    def test_closed_pool_rejects(self, model_root):
        pool = WorkerPool(model_root / "adult-pb", workers=1)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.sample(10, seed=1)


class ClockedModel:
    """A loaded model whose every generated chunk advances a ManualClock;
    ``finished`` is set whenever one of its chunk streams ends."""

    def __init__(self, model, clock, seconds):
        self.model, self.clock, self.seconds = model, clock, seconds
        self.method = model.method
        self.default_sample_batch = model.default_sample_batch
        self.finished = threading.Event()

    def spawn_sampler(self, worker_id):
        self.model.spawn_sampler(worker_id)
        return self

    def sample_chunks(self, *args, **kwargs):
        try:
            for item in self.model.sample_chunks(*args, **kwargs):
                self.clock.advance(self.seconds)
                yield item
        finally:
            self.finished.set()


class TestInProcessDeadline:
    """In-process execution fails a request past its deadline at a
    chunk boundary, on a workers=0 pool and in a takeover drain."""

    def test_workers0_request_times_out_between_chunks(self, model_root):
        path = model_root / "adult-pb"
        with use_clock(ManualClock()) as clock:
            model = ClockedModel(load_model(path), clock, seconds=1.0)
            with WorkerPool(path, workers=0, inline_model=model,
                            request_timeout=2.5) as pool:
                # 1 s per chunk: the third chunk lands past 2.5 s.
                with pytest.raises(RequestTimeout):
                    pool.sample(96, batch=8, seed=5)
                with pytest.raises(RequestTimeout):
                    list(pool.sample_iter(96, batch=8, seed=5))
                assert_tables_equal(
                    pool.sample(16, batch=8, seed=5),
                    load_model(path).sample(16, batch=8, seed=5))
                assert pool.status()["inline_recoveries"] == 0

    def test_takeover_drain_times_out_between_chunks(self, model_root,
                                                     monkeypatch):
        """The only worker dies after one chunk of a 4-chunk stream and
        the supervisor drains the rest in-process while the consumer
        holds the stream.  The drain's first chunk passes the deadline,
        so the consumer's next read fails instead of returning chunks
        the drain delivered late."""
        path = model_root / "adult-pb"
        set_faults(monkeypatch, {"on": "chunk", "worker": 0, "after": 1,
                                 "action": "kill", "incarnations": [0],
                                 "times": 1})
        with use_clock(ManualClock()) as clock:
            model = ClockedModel(load_model(path), clock, seconds=60.0)
            with WorkerPool(path, workers=1, inline_model=model,
                            request_timeout=30.0, respawn=False) as pool:
                stream = pool.sample_iter(32, batch=8, seed=5)
                with pytest.raises(RequestTimeout):
                    next(stream)
                    assert model.finished.wait(timeout=60.0)
                    list(stream)
                assert pool.crashed
                assert pool.status()["inline_recoveries"] == 1


class TestEventRing:
    """Supervision event ring: configurable size, obs.clock stamps."""

    def test_ring_capacity_is_configurable(self, model_root):
        pool = WorkerPool(model_root / "adult-pb", workers=0, event_ring=4)
        try:
            for i in range(10):
                pool._record_event("probe", index=i)
            events = pool.status()["events"]
            assert len(events) == 4
            assert [e["index"] for e in events] == [6, 7, 8, 9]
        finally:
            pool.close()

    def test_ring_size_validated(self, model_root):
        with pytest.raises(ValueError, match="event_ring"):
            WorkerPool(model_root / "adult-pb", workers=0, event_ring=0)

    def test_events_are_stamped_via_obs_clock(self, model_root):
        pool = WorkerPool(model_root / "adult-pb", workers=0)
        try:
            with use_clock(ManualClock(start=12.0, epoch=2_000.0)):
                pool._record_event("probe")
            (event,) = [e for e in pool.status()["events"]
                        if e["event"] == "probe"]
            assert event["at"] == 12.0
            assert event["wall"] == 2_000.0
        finally:
            pool.close()
