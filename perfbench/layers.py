"""Timing wrappers around each layer's public entry points.

Installed only for traced runs.  Span names follow the per-layer metric
names of ``BENCHMARK.json`` (``<module>.<what>``); derived metrics
(``nn.forward_s``, ``gan.chunk.other_s``, ...) are self times of the
enclosing span.
"""

from __future__ import annotations

import json
import types

from .spans import Tracer, wrap_iterator_method, wrap_method


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def _wrap_overrides(tracer: Tracer, base, attr: str, name: str) -> None:
    """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
    for klass in _subclasses(base):
        if attr in vars(klass):
            wrap_method(tracer, klass, attr, name)


def install_library(tracer: Tracer) -> None:
    """Training, selection and offline-sampling layers."""
    from repro.api import facade
    from repro.api.base import Synthesizer
    from repro.gan.training import BaseTrainer
    from repro.ml import (
        AdaBoostClassifier, DecisionTreeClassifier, LogisticRegression,
        RandomForestClassifier,
    )
    from repro.nn import Tensor
    from repro.nn.optim import Optimizer
    from repro.transform import MatrixTransformer, RecordTransformer

    _wrap_overrides(tracer, BaseTrainer, "iteration", "gan.training.iteration")
    wrap_method(tracer, Tensor, "backward", "nn.backward")
    _wrap_overrides(tracer, Optimizer, "step", "nn.optim.step")
    for transformer in (RecordTransformer, MatrixTransformer):
        wrap_method(tracer, transformer, "fit", "transform.fit")
        wrap_method(tracer, transformer, "transform", "transform.transform")
        wrap_method(tracer, transformer, "inverse", "transform.inverse")
    # The facade imported score_snapshots by name; wrap the name it calls.
    wrap_method(tracer, facade, "score_snapshots", "api.selection.score")
    for classifier in (DecisionTreeClassifier, RandomForestClassifier,
                       AdaBoostClassifier, LogisticRegression):
        wrap_method(tracer, classifier, "fit", "ml.fit")
    wrap_method(tracer, Synthesizer, "sample", "api.sample")
    wrap_iterator_method(tracer, Synthesizer, "sample_iter",
                         "api.sample.chunk")
    wrap_iterator_method(tracer, Synthesizer, "sample_chunks",
                         "api.sample.chunk")


def wrap_generator(tracer: Tracer, synthesizer) -> None:
    """Time the loaded model's generator forward pass (``Module.__call__``
    dispatches to the instance's ``forward``)."""
    wrap_method(tracer, synthesizer.generator, "forward",
                "gan.generator.forward")


def install_server(tracer: Tracer) -> None:
    """HTTP, service, batcher, pool, encoding and store layers of the
    server process.  Worker processes record nothing here: their chunk
    time comes back through ``{"trace": true}`` responses."""
    from repro.serve import batching, encoding, http, pool, service

    handler = http._Handler
    do_post = handler.do_POST

    def traced_post(self):
        tracer.bind(self.headers.get("X-Bench-Rid"))
        span = tracer.open("serve.http.request")
        try:
            do_post(self)
        finally:
            tracer.close(span)
            tracer.bind(None)

    handler.do_POST = traced_post

    wrap_method(tracer, service.SynthesisService, "sample",
                "serve.service.sample")
    wrap_iterator_method(tracer, service.SynthesisService, "sample_iter",
                         "serve.service.sample", result_index=0)
    wrap_method(tracer, service.SynthesisService, "_batched_sample",
                "serve.batching.sampler")
    wrap_method(tracer, batching.MicroBatcher, "submit",
                "serve.batching.submit")

    # _Request has __slots__: remember each queued request's rid by
    # identity until its pass runs (the batcher holds it alive till then).
    rid_of = {}
    request_init = batching._Request.__init__

    def remember_rid(self, *args, **kwargs):
        request_init(self, *args, **kwargs)
        rid_of[id(self)] = tracer.rid

    batching._Request.__init__ = remember_rid
    execute = batching.MicroBatcher._execute

    def traced_execute(self, group):
        span = tracer.open("serve.batching.pass",
                           rids=[rid_of.pop(id(r), None) for r in group])
        try:
            execute(self, group)
        finally:
            tracer.close(span)

    batching.MicroBatcher._execute = traced_execute

    wrap_method(tracer, pool.WorkerPool, "sample", "serve.pool.sample")
    wrap_iterator_method(tracer, pool.WorkerPool, "sample_iter",
                         "serve.pool.sample")
    wrap_method(tracer, pool.WorkerPool, "__init__", "serve.store.load")

    wrap_method(tracer, http, "columns_payload", "serve.encoding.json")
    dumps = json.dumps

    def timed_dumps(obj, *args, **kwargs):
        span = tracer.open("serve.encoding.json")
        try:
            return dumps(obj, *args, **kwargs)
        finally:
            tracer.close(span)

    http.json = types.SimpleNamespace(
        dumps=timed_dumps, loads=json.loads,
        JSONDecodeError=json.JSONDecodeError)

    csv_rows = encoding.csv_rows

    def timed_csv_rows(table):
        span = tracer.open("serve.encoding.csv")
        try:
            text = csv_rows(table)
        finally:
            tracer.close(span)
        span.tags["bytes"] = len(text)
        return text

    encoding.csv_rows = timed_csv_rows
