"""Pure statistics of the benchmark: percentiles, span self time, coverage.

Nothing here reads clocks, files or the environment, so the unit tests
in ``perfbench/tests`` pin every number the harness reports.

A span is a dict with the keys ``id``, ``name``, ``start``, ``end``,
``parent`` (the id of the enclosing span in the same thread, or None),
``pid`` and ``attrs``.  Span ids carry a per-process nonce, so span
files written by forked workers merge by plain concatenation.
"""

from __future__ import annotations

import math
import statistics


def nearest_rank(values, percent: float) -> float:
    """The ``percent``-th percentile by the nearest-rank rule.

    The result is the sample at 1-based rank ``ceil(percent/100 * n)``
    of the sorted values, so exactly ``n - rank`` samples lie beyond
    it: the p95 of 200 samples is the 190th smallest, with 10 beyond.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    """The median of ``values`` (0.0 for no samples)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def union_length(intervals, lo: float | None = None, hi: float | None = None) -> float:
    """Total length covered by ``(start, end)`` intervals, clipped to [lo, hi]."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - union_length(
            children.get(span["id"], ()), span["start"], span["end"]
        )
        for span in spans
    }


def outermost(spans, name: str) -> list:
    """Spans called ``name`` whose parent is not itself a ``name`` span.

    Layer calls count once even when one wrapped entry point calls
    another (``cir_batch`` delegates to ``cir_multi_batch``).
    """
    names = {span["id"]: span["name"] for span in spans}
    return [
        span
        for span in spans
        if span["name"] == name and names.get(span["parent"]) != name
    ]


def coverage_share(spans, lo: float, hi: float) -> float:
    """Share of the window [lo, hi] covered by at least one span.

    Spans from every process count, so two workers busy at once cover
    the same wall time once.
    """
    if hi <= lo:
        return 0.0
    return union_length(
        ((span["start"], span["end"]) for span in spans), lo, hi
    ) / (hi - lo)
