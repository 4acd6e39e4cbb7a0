"""The synthesis service: store + worker pools + micro-batcher.

:class:`SynthesisService` is the process-level object a deployment
holds: it resolves model names through a :class:`ModelStore`, keeps one
:class:`WorkerPool` per actively-served model (LRU-capped, idle pools
are shut down), routes small unseeded requests through the
:class:`MicroBatcher`, and exposes the sampling entry points the HTTP
front end (or an embedding application) calls.

Request routing:

* ``seed`` given        -> straight to the pool (deterministic path;
  coalescing would change the stream);
* unseeded, small ``n`` -> micro-batcher (coalesced with concurrent
  requests for the same model);
* unseeded, large ``n`` -> pool with a fresh request seed (sharded
  across workers; the assigned seed is reported so the draw can be
  replayed).

Failure containment: each model gets a :class:`CircuitBreaker`.
Repeated pool boot failures or pool crashes open the circuit, after
which requests fail fast with :class:`CircuitOpen` (HTTP 503 +
``Retry-After``) instead of each paying the boot timeout — or, with
``degraded="inline"``, are served by a slower in-process pool while
the worker pool heals.  A half-open probe after the reset timeout
boots a fresh pool; success closes the circuit and retires the
degraded fallback.

In-process serving: a ``workers=0`` service and the degraded fallback
build the same pool (:meth:`SynthesisService._inline_pool`): a
``workers=0`` :class:`WorkerPool` over the store's cached model, whose
requests run on the pool's one in-process executor — the routine a
process pool also uses to drain its work after every worker retired.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

from ..api.base import PathLike, _count
from ..api.seeding import fresh_seed
from ..check.lockorder import make_lock
from ..datasets.schema import Table
from ..obs import clock as _obs_clock
from ..obs.metrics import get_registry
from .batching import MicroBatcher
from .circuit import CircuitBreaker
from .errors import CircuitOpen, ModelNotFound, PoolClosed, ServingError
from .pool import WorkerPool
from .store import ModelStore

#: Unseeded requests at or below this many rows go through the
#: micro-batcher; larger ones shard across the pool directly.
DEFAULT_COALESCE_MAX_ROWS = 4096


class _PoolEntry:
    """Registry slot for one model's pool; ``ready`` gates waiters
    while the creating thread boots the pool outside the lock.

    ``path`` records the saved-model directory the pool was booted on.
    A publish swaps the store's ``ACTIVE`` pointer, so a path mismatch
    is how the service detects that a registered pool serves a stale
    version and must be retired."""

    __slots__ = ("pool", "ready", "error", "path")

    def __init__(self, path=None):
        self.pool: Optional[WorkerPool] = None
        self.ready = threading.Event()
        self.error: Optional[BaseException] = None
        self.path = path


class SynthesisService:
    """Serve ``sample`` requests over a directory of saved models.

    Parameters
    ----------
    root:
        Model-store root (one saved model per subdirectory).
    workers:
        Worker processes per model pool (``0`` = no worker processes:
        requests run on each pool's in-process executor).
    pool_capacity:
        How many models may have live worker pools at once; the LRU
        idle pool is shut down when a new model needs one.
    request_timeout:
        Default per-request deadline (seconds).
    coalesce_max_rows:
        Routing threshold for the micro-batcher (``0`` disables
        coalescing entirely).
    degraded:
        What happens while a model's circuit is open: ``"reject"``
        (default) fails fast with :class:`CircuitOpen`;
        ``"inline"`` serves requests from a slower in-process pool
        (bit-identical output — the sharded-seed contract holds at
        ``workers=0``) until the worker pool heals.
    circuit_factory:
        Callable returning a fresh :class:`CircuitBreaker` per model;
        injectable so tests can use thresholds and a fake clock.
    metrics:
        :class:`repro.obs.MetricsRegistry` the service records into
        (request latency histograms, row/error counters, circuit-state
        gauges, plus the pool and batcher series).  ``None`` (the
        default) uses the process registry from
        :func:`repro.obs.get_registry`, which ``GET /metrics`` renders;
        set ``REPRO_METRICS=0`` to start that registry disabled.
    """

    def __getstate__(self):
        raise TypeError(
            "SynthesisService is not picklable: it holds pool/stats "
            "locks and live worker pools; each process must build its "
            "own service over the shared store root")

    def __init__(self, root: PathLike, *, workers: int = 2,
                 store_capacity: int = 4, pool_capacity: int = 4,
                 request_timeout: float = 60.0,
                 coalesce_max_rows: int = DEFAULT_COALESCE_MAX_ROWS,
                 batch_window: float = 0.005,
                 degraded: str = "reject",
                 circuit_factory=None, metrics=None):
        if degraded not in ("reject", "inline"):
            raise ValueError(
                f"degraded must be 'reject' or 'inline', got {degraded!r}")
        # The store's LRU cache backs in-process (workers=0) pools,
        # which borrow their loaded model through a refcounted checkout;
        # worker-process pools load their own copies and only use the
        # store for name resolution and metadata.
        self.store = ModelStore(root, capacity=store_capacity)
        self.workers = _count("workers", workers, minimum=0)
        self.pool_capacity = _count("pool_capacity", pool_capacity,
                                    minimum=1)
        self.request_timeout = request_timeout
        self.coalesce_max_rows = _count("coalesce_max_rows",
                                        coalesce_max_rows, minimum=0)
        self.degraded = degraded
        self._circuit_factory = (CircuitBreaker if circuit_factory is None
                                 else circuit_factory)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = make_lock("service.breakers")
        self._pools: "OrderedDict[str, _PoolEntry]" = OrderedDict()
        # Inline fallback pools serving models whose circuit is open
        # (degraded="inline" only); retired when the circuit closes.
        self._degraded_pools: Dict[str, _PoolEntry] = {}
        # Pools retired by a publish but still serving in-flight
        # requests on the old version; reaped once they drain.
        self._draining: list = []
        self._pools_lock = make_lock("service.pools")
        self._closed = False
        self._stats_lock = make_lock("service.stats")
        self._requests = 0
        self._rows = 0
        self.metrics = get_registry() if metrics is None else metrics
        self._m_requests = self.metrics.counter(
            "repro_serve_requests_total",
            "Requests accepted by the service.",
            labelnames=("model", "endpoint"))
        self._m_latency = self.metrics.histogram(
            "repro_serve_request_seconds",
            "End-to-end request latency, seconds.",
            labelnames=("model", "endpoint"))
        self._m_rows = self.metrics.counter(
            "repro_serve_rows_total",
            "Synthetic rows served.", labelnames=("model",))
        self._m_errors = self.metrics.counter(
            "repro_serve_errors_total",
            "Failed requests by exception type.",
            labelnames=("model", "endpoint", "error"))
        self._m_circuit = self.metrics.gauge(
            "repro_serve_circuit_state",
            "Circuit state per model: 0=closed 1=half_open 2=open.",
            labelnames=("model",))
        self.batcher = MicroBatcher(
            self._batched_sample, timeout=request_timeout,
            max_delay=batch_window, metrics=self.metrics)

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _make_pool(self, name: str, path) -> WorkerPool:
        if self.workers == 0:
            return self._inline_pool(name, path)
        return WorkerPool(path, workers=self.workers,
                          request_timeout=self.request_timeout,
                          metrics=self.metrics)

    def _inline_pool(self, name: str, path) -> WorkerPool:
        """An in-process (``workers=0``) pool over the store's model.

        The pool borrows the model through the store's refcounted
        checkout and releases it on close.  Serves both ``workers=0``
        services and the degraded fallback of an open circuit.
        """
        handle = self.store.checkout(name)
        try:
            return WorkerPool(path, workers=0,
                              request_timeout=self.request_timeout,
                              inline_model=handle.model,
                              on_close=handle.release,
                              metrics=self.metrics)
        except BaseException:
            handle.release()
            raise

    def _pool(self, name: str) -> WorkerPool:
        """The (possibly new) pool for ``name``; LRU-evicts idle pools.

        Booting a pool (forking workers, loading arrays) can take
        seconds, so it happens *outside* the registry lock: one cold
        model must never stall requests for warm models or the health
        probes.  Concurrent requests for the same cold model share one
        boot via the entry's ready event.
        """
        path = self.store.path(name)  # raises ModelNotFound early
        with self._pools_lock:
            if self._closed:
                raise ServingError("service is closed")
            entry = self._pools.get(name)
            crashed = (entry is not None and entry.ready.is_set()
                       and entry.error is None
                       and not entry.pool.closed and entry.pool.crashed)
            usable = entry is not None and not crashed and (
                not entry.ready.is_set()
                or (entry.error is None and not entry.pool.closed))
            if crashed:
                # Every worker slot retired (crash loop, repeated
                # OOM...): drain any in-process takeover stragglers and
                # boot a replacement; the breaker counts the crash so
                # a crash-looping model opens its circuit.
                self._draining.append(entry)
                del self._pools[name]
            if usable and entry.path != path:
                # A publish swapped ACTIVE since this pool booted:
                # retire it to the draining list (in-flight requests
                # finish on the old version) and boot a fresh pool on
                # the new one.
                self._draining.append(entry)
                del self._pools[name]
                usable = False
            if usable:
                self._pools.move_to_end(name)
                is_loader = False
            else:
                entry = _PoolEntry(path)
                self._pools[name] = entry
                is_loader = True
            drained = self._reap_drained_locked()
        for old in drained:
            old.close()
        if crashed:
            breaker = self._breaker(name)
            breaker.record_failure()
            self._note_circuit(name, breaker)
        pool = self._boot_entry(self._pools, name, entry, is_loader,
                                lambda: self._make_pool(name, path))
        if is_loader:
            with self._pools_lock:
                surplus = self._pop_surplus_locked(keep=name)
            # Closing a pool joins worker processes (seconds): do it
            # after the registry lock is released, for the same reason
            # pool *boot* happens outside it.
            for other in surplus:
                other.close()
        return pool

    def _boot_entry(self, registry, name: str, entry: _PoolEntry,
                    is_loader: bool, make) -> WorkerPool:
        """Boot ``entry``'s pool with ``make()``, or wait for the
        thread that does.

        Runs outside the registry lock.  A failed boot records its
        error and leaves ``registry``; a pool that finished booting
        after the service closed was never registered and is closed
        here.
        """
        if not is_loader:
            entry.ready.wait()
            if entry.error is not None:
                raise ServingError(
                    f"starting the pool for {name!r} failed: "
                    f"{entry.error}") from entry.error
            return entry.pool
        try:
            pool = make()
        except BaseException as exc:
            with self._pools_lock:
                entry.error = exc
                if registry.get(name) is entry:
                    del registry[name]
            entry.ready.set()
            raise
        with self._pools_lock:
            if self._closed:
                entry.error = ServingError("service is closed")
                registry.pop(name, None)
            else:
                entry.pool = pool
        if entry.error is not None:
            pool.close()
            entry.ready.set()
            raise entry.error
        entry.ready.set()
        return pool

    #: Circuit states as gauge values (alert on > 0).
    _CIRCUIT_LEVELS = {"closed": 0.0, "half_open": 1.0, "open": 2.0}

    def _breaker(self, name: str) -> CircuitBreaker:
        with self._breakers_lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = self._circuit_factory()
                self._m_circuit.set(0.0, model=name)
            return breaker

    def _note_circuit(self, name: str, breaker: CircuitBreaker) -> None:
        self._m_circuit.set(
            self._CIRCUIT_LEVELS.get(breaker.state, -1.0), model=name)

    def _retained_pool(self, name: str) -> WorkerPool:
        """A pool pinned against eviction; callers must ``release()``.

        The single funnel every sampling entry point goes through, so
        the circuit breaker observes every pool acquisition: boot
        failures and crashes count against the model's circuit, a
        rejected acquisition fails fast (or falls back to the degraded
        inline pool), and a successful one closes the circuit again.

        Retaining can race a concurrent LRU eviction closing the pool;
        in that case the registry no longer holds it and a retry
        resolves a fresh one.
        """
        breaker = self._breaker(name)
        if not breaker.allow():
            self._note_circuit(name, breaker)
            if self.degraded == "inline":
                return self._degraded_pool(name).retain()
            raise CircuitOpen(
                f"circuit for model {name!r} is open after repeated "
                "pool failures; retry later",
                retry_after=breaker.retry_after())
        for _ in range(3):
            try:
                pool = self._pool(name)
            except (ModelNotFound, ValueError, TypeError):
                # Client-shaped errors say nothing about pool health.
                raise
            except BaseException:
                breaker.record_failure()
                self._note_circuit(name, breaker)
                raise
            try:
                retained = pool.retain()
            except PoolClosed:
                continue
            breaker.record_success()
            self._note_circuit(name, breaker)
            self._retire_degraded(name)
            return retained
        raise ServingError(
            f"could not retain a pool for {name!r} (evicted repeatedly); "
            "raise pool_capacity or reduce the number of hot models")

    def _degraded_pool(self, name: str) -> WorkerPool:
        """The in-process fallback pool for an open circuit.

        Built by :meth:`_inline_pool`; output is bit-identical to the
        worker pool's by the sharded-seed contract, just slower.  Closed
        via the draining list once the circuit closes
        (:meth:`_retire_degraded`).
        """
        path = self.store.path(name)
        with self._pools_lock:
            if self._closed:
                raise ServingError("service is closed")
            entry = self._degraded_pools.get(name)
            usable = entry is not None and (
                not entry.ready.is_set()
                or (entry.error is None and not entry.pool.closed))
            if usable and entry.path != path:
                self._draining.append(entry)
                del self._degraded_pools[name]
                usable = False
            if usable:
                is_loader = False
            else:
                entry = _PoolEntry(path)
                self._degraded_pools[name] = entry
                is_loader = True
        return self._boot_entry(self._degraded_pools, name, entry,
                                is_loader,
                                lambda: self._inline_pool(name, path))

    def _retire_degraded(self, name: str) -> None:
        """Drop the degraded fallback once the worker pool is healthy."""
        with self._pools_lock:
            entry = self._degraded_pools.pop(name, None)
            if entry is None:
                return
            self._draining.append(entry)
            drained = self._reap_drained_locked()
        for old in drained:
            old.close()

    def _count_request(self, rows: int) -> None:
        with self._stats_lock:
            self._requests += 1
            self._rows += rows

    def _pop_surplus_locked(self, keep: str) -> list:
        """Deregister surplus pools, oldest first, but never one with
        requests in flight or still booting — they fall out later.
        Returns the pools for the caller to close outside the lock."""
        surplus = len(self._pools) - self.pool_capacity
        popped = []
        if surplus <= 0:
            return popped
        for candidate in list(self._pools):
            if surplus <= 0:
                break
            entry = self._pools[candidate]
            if candidate != keep and entry.ready.is_set() \
                    and entry.error is None and entry.pool.inflight == 0:
                del self._pools[candidate]
                popped.append(entry.pool)
                surplus -= 1
        return popped

    def _reap_drained_locked(self) -> list:
        """Pop retired pools that have finished draining.

        Returns the pools for the caller to close outside the lock
        (closing joins worker processes).  Pools still booting or with
        requests in flight stay on the draining list; they are checked
        again on the next registry operation.
        """
        ready, keep = [], []
        for entry in self._draining:
            if not entry.ready.is_set():
                keep.append(entry)
            elif entry.error is not None or entry.pool is None:
                continue
            elif entry.pool.closed:
                continue
            elif entry.pool.inflight == 0:
                ready.append(entry.pool)
            else:
                keep.append(entry)
        self._draining = keep
        return ready

    def publish(self, name: str, source) -> str:
        """Release a new version of ``name`` and hot-swap its pool.

        ``source`` is a fitted synthesizer (anything with ``save``) or
        a directory containing a saved model.  Returns the new version
        string.  The swap is seamless: requests in flight when the
        publish lands finish on the old version's pool — a seeded
        streaming response stays bit-identical end to end — while every
        request arriving afterwards is served from a pool booted on the
        new version.  The old pool is closed once it drains.
        """
        version = self.store.publish(name, source)
        # Boot the new pool eagerly (this also retires the stale one)
        # so the first request after a refresh skips the fork latency.
        self._pool(name)
        return version

    def active_pools(self) -> Dict[str, int]:
        """``{model name: in-flight requests}`` for live pools."""
        with self._pools_lock:
            return {name: entry.pool.inflight
                    for name, entry in self._pools.items()
                    if entry.ready.is_set() and entry.error is None}

    # ------------------------------------------------------------------
    # Sampling entry points
    # ------------------------------------------------------------------
    def _batched_sample(self, name: str, n: int, seed: Optional[int],
                        trace=None) -> Table:
        """Backend the micro-batcher executes coalesced passes on."""
        pool = self._retained_pool(name)
        try:
            return pool.sample(n, seed=seed, trace=trace)
        finally:
            pool.release()

    def sample(self, name: str, n: int, batch: Optional[int] = None,
               seed: Optional[int] = None,
               timeout: Optional[float] = None,
               coalesce: Optional[bool] = None, trace=None
               ) -> Tuple[Table, Optional[int]]:
        """Serve one table request; returns ``(table, seed_used)``.

        ``seed_used`` is the request's reproducibility token: echo of
        the client seed, the fresh seed assigned to an uncoalesced
        unseeded request, or ``None`` for a coalesced request (its rows
        came out of a shared pass and have no standalone stream).

        ``trace`` (a :class:`repro.obs.Trace`) rides the request
        through the batcher and pool; on return it holds the stitched
        per-chunk span breakdown and is finished.
        """
        n = _count("n", n, minimum=1)
        if batch is not None:
            _count("batch", batch, minimum=1)
        self._count_request(n)
        self._m_requests.inc(model=name, endpoint="sample")
        started = _obs_clock.perf()
        try:
            if coalesce is None:
                coalesce = (seed is None and batch is None
                            and 0 < n <= self.coalesce_max_rows)
            if coalesce and seed is None and batch is None:
                result = (self.batcher.submit(name, n, timeout=timeout,
                                              trace=trace), None)
            else:
                if seed is None:
                    seed = fresh_seed()
                pool = self._retained_pool(name)
                try:
                    table = pool.sample(n, batch=batch, seed=seed,
                                        timeout=timeout, trace=trace)
                finally:
                    pool.release()
                result = (table, seed)
        except BaseException as exc:
            self._m_errors.inc(model=name, endpoint="sample",
                               error=type(exc).__name__)
            raise
        self._m_latency.observe(_obs_clock.perf() - started,
                                model=name, endpoint="sample")
        self._m_rows.inc(n, model=name)
        if trace is not None:
            trace.finish()
        return result

    def sample_iter(self, name: str, n: int,
                    batch: Optional[int] = None,
                    seed: Optional[int] = None,
                    timeout: Optional[float] = None
                    ) -> Tuple[Iterator[Table], int]:
        """Streaming variant: ``(chunk iterator, seed_used)``.

        Chunks arrive in order while later ones are still generating —
        the HTTP layer forwards them as a chunked response.  The pool
        stays retained until the iterator is exhausted or closed.
        """
        n = _count("n", n, minimum=1)
        self._count_request(n)
        self._m_requests.inc(model=name, endpoint="sample_iter")
        started = _obs_clock.perf()
        if seed is None:
            seed = fresh_seed()
        try:
            pool = self._retained_pool(name)
        except BaseException as exc:
            self._m_errors.inc(model=name, endpoint="sample_iter",
                               error=type(exc).__name__)
            raise

        def released_stream():
            try:
                yield from pool.sample_iter(n, batch=batch, seed=seed,
                                            timeout=timeout)
            except BaseException as exc:
                self._m_errors.inc(model=name, endpoint="sample_iter",
                                   error=type(exc).__name__)
                raise
            else:
                # Latency covers the full stream, not just acquisition.
                self._m_latency.observe(_obs_clock.perf() - started,
                                        model=name,
                                        endpoint="sample_iter")
                self._m_rows.inc(n, model=name)
            finally:
                pool.release()

        return released_stream(), seed

    def sample_database(self, name: str, scale: float = 1.0, *,
                        sizes: Optional[Dict[str, int]] = None,
                        seed: Optional[int] = None,
                        timeout: Optional[float] = None):
        """Serve one database request; returns ``(database, seed_used)``."""
        self._count_request(0)
        self._m_requests.inc(model=name, endpoint="database")
        started = _obs_clock.perf()
        if seed is None:
            seed = fresh_seed()
        try:
            pool = self._retained_pool(name)
            try:
                database = pool.sample_database(
                    scale, sizes=sizes, seed=seed, timeout=timeout)
            finally:
                pool.release()
        except BaseException as exc:
            self._m_errors.inc(model=name, endpoint="database",
                               error=type(exc).__name__)
            raise
        self._m_latency.observe(_obs_clock.perf() - started,
                                model=name, endpoint="database")
        return database, seed

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def models(self) -> list:
        """Catalogue of served models plus live-pool status."""
        with self._pools_lock:
            live = {name: entry.pool
                    for name, entry in self._pools.items()
                    if entry.ready.is_set() and entry.error is None
                    and not entry.pool.closed}
        entries = []
        for info in self.store.list_models():
            pool = live.get(info.name)
            entries.append({
                "name": info.name, "kind": info.kind,
                "method": info.method, "version": info.version,
                "pool": None if pool is None else {
                    "workers": pool.workers,
                    "inflight": pool.inflight,
                    "default_batch": pool.default_batch,
                },
                "circuit": self._circuit_state(info.name),
            })
        return entries

    def _circuit_state(self, name: str) -> Optional[str]:
        with self._breakers_lock:
            breaker = self._breakers.get(name)
        return None if breaker is None else breaker.state

    def model_info(self, name: str) -> Dict:
        """Detail view of one model: versions, active pool, arrays.

        ``arrays`` comes from the store's lazy manifest — shapes and
        dtypes are read from the saved ``.npy`` headers without
        faulting in any parameter data.
        """
        info = self.store.info(name)
        with self._pools_lock:
            entry = self._pools.get(name)
            pool = None
            if entry is not None and entry.ready.is_set() \
                    and entry.error is None and not entry.pool.closed:
                pool = {"workers": entry.pool.workers,
                        "inflight": entry.pool.inflight,
                        "default_batch": entry.pool.default_batch,
                        "supervision": entry.pool.status()}
            degraded = name in self._degraded_pools
            draining = len(self._draining)
        with self._breakers_lock:
            breaker = self._breakers.get(name)
        return {
            "name": info.name, "kind": info.kind, "method": info.method,
            "version": info.version,
            "versions": self.store.versions(name),
            "pool": pool, "draining": draining,
            "circuit": None if breaker is None else breaker.status(),
            "degraded": degraded,
            "arrays": self.store.metadata(name),
        }

    def healthz(self) -> Dict:
        with self._pools_lock:
            pools = {name: entry.pool.status()
                     for name, entry in self._pools.items()
                     if entry.ready.is_set() and entry.error is None
                     and not entry.pool.closed}
            degraded = sorted(self._degraded_pools)
            drained = self._reap_drained_locked()
            draining = len(self._draining)
        with self._breakers_lock:
            circuits = {name: breaker.status()
                        for name, breaker in self._breakers.items()}
        for old in drained:
            old.close()
        return {
            "status": "closed" if self._closed else "ok",
            "models": len(self.store.list_models()),
            "pools": pools,
            "circuits": circuits,
            "degraded": degraded,
            "draining": draining,
            "requests": self._requests,
            "rows": self._rows,
            "batcher": dict(self.batcher.stats),
        }

    def close(self) -> None:
        with self._pools_lock:
            if self._closed:
                return
            self._closed = True
            entries = (list(self._pools.values())
                       + list(self._degraded_pools.values())
                       + self._draining)
            self._pools.clear()
            self._degraded_pools.clear()
            self._draining = []
        self.batcher.close()
        for entry in entries:
            if entry.ready.is_set() and entry.error is None \
                    and entry.pool is not None:
                entry.pool.close()

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
