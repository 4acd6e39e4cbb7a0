"""Summary statistics shared by the workloads: percentiles, open-loop
lateness and schedules.

Pure functions over plain sequences so they can be tested without a
server.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``).

    Matches ``numpy.percentile(values, q)`` with its default method.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def poisson_schedule(rate: float, count: int, seed: int,
                     start: float = 0.0) -> List[float]:
    """Due times of ``count`` seeded Poisson arrivals at ``rate`` per
    second, rescaled so the last one is due at exactly
    ``start + count / rate``.

    The rescaling keeps the burstiness of exponential gaps but removes
    the run-to-run drift of their sum, so a fixed-size rung offers the
    same mean load on every seed.
    """
    if rate <= 0 or count < 1:
        raise ValueError("rate must be positive and count at least 1")
    rng = random.Random(seed)
    gaps = [rng.expovariate(rate) for _ in range(count)]
    scale = (count / rate) / sum(gaps)
    due, t = [], start
    for gap in gaps:
        t += gap * scale
        due.append(t)
    return due


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """Per-request send lateness ``sent - due`` (never negative: a
    request cannot leave before it is due)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must have equal length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def latencies_from_due(due: Sequence[float],
                       done: Sequence[float]) -> List[float]:
    """Open-loop latency: completion minus the time the request was
    *due*, so a stalled generator or a full connection set charges the
    wait to every request queued behind it."""
    if len(due) != len(done):
        raise ValueError("due and done must have equal length")
    return [d_done - d_due for d_due, d_done in zip(due, done)]
