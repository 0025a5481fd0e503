"""Pure helpers shared by the harness: self time, tail percentile, spread.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of
the enclosing span in the same list, or -1 at the top level.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def self_times(spans: list[tuple]) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    children cover.  Children may overlap one another or stick out of the
    parent; only the union of their intervals clipped to the parent counts."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has ``TAIL_BEYOND`` samples beyond
    it: ``(value, percentile, samples_beyond)``.

    With N sorted samples that is the (N - 10)-th smallest, at percentile
    100 * (N - 10) / N.  Below 20 samples that rank falls under the median,
    which is no tail, so the maximum is returned instead, at percentile 100
    with no samples beyond it.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def drift(new: float, old: float) -> float:
    """How far ``new`` is from ``old`` in either direction, as a share of
    ``old``."""
    return abs(new - old) / old if old else 0.0
