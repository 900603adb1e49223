"""Metric arithmetic shared by the benchmark runner and its tests.

Pure functions only: no timing, no I/O, no imports of the program under test.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One traced call: `parent` is the id of the span that caused it, or None.

    Spans recorded in a forked worker name the parent-process span that was open
    when the worker was forked, so the worker's root span is a child of the
    `training.evaluate_batch` span that launched it. `cpu` is the CPU seconds of
    the worker's process over the span, set on worker root spans only; `value`
    is a per-span count (epochs run, for `training.train`).
    """

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu: float = 0.0
    value: float = 0.0

    @property
    def duration(self):
        return self.end - self.start


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> self seconds: its duration minus the part its children cover.

    Children may overlap each other (parallel workers under one batch) or run
    past their parent's end; only the covered part of the parent's interval is
    subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = s.duration - covered_length(clipped)
    return out


def totals_by_name(spans):
    """Name -> (calls, self seconds, inclusive seconds) summed over spans."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += selfs[s.id]
        incl_s[s.name] += s.duration
    return {name: (calls[name], self_s[name], incl_s[name]) for name in calls}


def slot_idle_share(batches):
    """1 - sum of worker wall seconds / (pool size x batch wall), over all batches.

    `batches` holds (pool_size, batch_wall_seconds, [worker wall seconds]).
    """
    capacity = sum(pool * wall for pool, wall, _ in batches)
    if capacity <= 0:
        raise ValueError("batches have no slot time")
    busy = sum(sum(walls) for _, _, walls in batches)
    return 1.0 - busy / capacity


def distinct_per_trained(keys):
    """Distinct dedup keys over the number of programs trained (one key each)."""
    if not keys:
        raise ValueError("no programs were trained")
    return len(set(keys)) / len(keys)


def duplicate_share(seen_before, proposals):
    """Share of proposals whose program was already proposed or seeded earlier.

    `seen_before` holds the keys present before the proposals (the seeds);
    proposals are taken in order, so the second copy of a new program counts.
    """
    if not proposals:
        raise ValueError("no proposals")
    seen = set(seen_before)
    repeats = 0
    for key in proposals:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(proposals)


def median_with_count(values):
    """(median, sample count) of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return statistics.median(values), len(values)
