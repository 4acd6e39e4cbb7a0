"""Inputs, model preparation and the result record shared by workloads."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: Rows drawn from the adult stand-in; split 60/20/20 into
#: train/valid/test.
N_RECORDS = 3000
#: Saved models trained during preparation.  Their quality does not
#: matter to the sampling and serving workloads, only their shapes do,
#: so they train briefly.
MLP_TRAIN = dict(epochs=2, iterations_per_epoch=10)
CNN_TRAIN = dict(epochs=1, iterations_per_epoch=5)
#: Table and training seed of those models.  They are fixtures: every
#: run of ``sample_offline`` and ``serve_*`` samples the same models,
#: and the workload seed drives which rows are drawn and when requests
#: arrive.  With a model trained per workload seed, the marginal TV of
#: its rows spread by ~9% (IQR over median, ten seeds) and followed the
#: model, not the sampling path; with one model it spreads by 3% or
#: less.
MODEL_SEED = 0


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def adult_split(seed: int):
    """The workload's table: ``generate(SPECS["adult"])`` split into
    train/valid/test by a seeded permutation."""
    from repro.datasets.real import SPECS, generate

    table = generate(SPECS["adult"], N_RECORDS, seed=seed)
    order = np.random.default_rng(seed).permutation(len(table))
    a, b = int(0.6 * len(table)), int(0.8 * len(table))
    return (table.take(order[:a]), table.take(order[a:b]),
            table.take(order[b:]))


def mlp_config():
    from repro.core.design_space import DesignConfig

    return DesignConfig(generator="mlp")


def cnn_config():
    from repro.core.design_space import DesignConfig

    return DesignConfig(generator="cnn", categorical_encoding="ordinal",
                        numerical_normalization="simple")


def train_model(config, train, seed: int, **schedule):
    import repro

    model = repro.make_synthesizer("gan", config=config, seed=seed,
                                   **schedule)
    return model.fit(train)


def table_digest(table) -> str:
    """Hash of a table's column values, for bit-identity checks."""
    digest = hashlib.sha256()
    for name in table.schema.names:
        column = np.ascontiguousarray(table.column(name))
        digest.update(name.encode())
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def check_table(table, schema, n: int) -> List[str]:
    """Row count, column names and category domains of a sample."""
    problems = []
    if len(table) != n:
        problems.append(f"{len(table)} rows, expected {n}")
    if list(table.schema.names) != list(schema.names):
        return problems + [f"columns {table.schema.names}"]
    for attribute in schema:
        values = np.asarray(table.column(attribute.name))
        if attribute.is_categorical:
            if len(values) and (values.min() < 0 or
                                values.max() >= len(attribute.categories)):
                problems.append(f"{attribute.name} code out of domain")
        elif not np.all(np.isfinite(values.astype(float))):
            problems.append(f"{attribute.name} has non-finite values")
    return problems


def marginal_tv(real, synthetic) -> float:
    """``fidelity_summary(real, synthetic)["mean_marginal_tv"]`` without
    the correlation and association terms the summary also computes."""
    from repro.core.statistics import marginal_distances

    return float(np.mean(list(marginal_distances(real, synthetic).values())))


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def overhead_pct(untraced: float, traced: float,
                 higher_is_better: bool) -> float:
    """How much slower the traced phase ran, in percent of untraced."""
    if higher_is_better:
        return (untraced / traced - 1.0) * 100.0
    return (traced / untraced - 1.0) * 100.0
