"""Small statistics helpers shared by the runner and the tracer."""

from __future__ import annotations

import hashlib

import numpy as np

TAIL_BEYOND = 10


def op_latencies(ops, deadline):
    """Per-op latencies (reference-scaled CPU seconds, see speed.py); a
    failed op counts at the deadline."""
    return [deadline if op["status"] == "failed" else op["ref_s"] for op in ops]


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, count).  The value is the (beyond + 1)-th
    largest sample, so exactly `beyond` samples rank above it; the
    percentile is the share of samples at or below its rank.  With too few
    samples the maximum stands in and the percentile is 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def self_times(start, end, parent):
    """Self time per span: its duration minus what its child spans cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and never overlap; what they cover is the sum of
    their durations.  `parent` holds an index into the same arrays, or -1.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
