"""In-memory span tracer for the benchmark's own calls into the library.

A span is opened around each wrapped call and closed when it returns or
raises.  Closing a span charges its duration to the enclosing span's child
time, so a layer's self time (its duration minus the time its child spans
cover) is exact without post-processing.  Leaf spans that repeat under the
same parent (the thousands of ``expr.evaluate`` calls an integrand makes
inside one ``oracle.integrate``) are coalesced into one record carrying
their count, so the record stays small; self times and counts are exact
either way.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter

RECORD_KEYS = ("name", "start", "end", "parent", "task", "calls", "busy_s")


class Tracer:
    """Spans and per-layer totals for one traced run."""

    def __init__(self):
        self.records = []  # lists laid out as RECORD_KEYS
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.fails = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []  # [record index, child seconds, has children]
        self._task = -1

    def _open(self, name):
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][2] = True
        self.records.append([name, _clock(), 0.0, parent, self._task, 1, 0.0])
        self._stack.append([len(self.records) - 1, 0.0, False])

    def _close(self):
        end = _clock()
        index, child_s, has_children = self._stack.pop()
        rec = self.records[index]
        duration = end - rec[1]
        rec[2], rec[6] = end, duration
        self.calls[rec[0]] += 1
        self.self_s[rec[0]] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        # A sibling directly before this record has no child records, so
        # it is a closed leaf: fold this leaf into it.
        prev = self.records[index - 1] if index else None
        if (not has_children and prev is not None and prev[0] == rec[0]
                and prev[3] == rec[3] and prev[4] == rec[4]):
            prev[2], prev[5], prev[6] = end, prev[5] + 1, prev[6] + duration
            self.records.pop()

    def task(self, task_index):
        """Context manager for the root span ``bench.task`` of one task."""
        return _TaskSpan(self, task_index)

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span called ``name``.

        ``count(args, result)`` returns {suffix: number} added to the
        counters ``name.suffix``; it runs after the span has closed.
        An exception counts as a failure of the layer and is re-raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close()
                self.fails[name] += 1
                raise
            self._close()
            if count is not None:
                for suffix, value in count(args, result).items():
                    self.counters[f"{name}.{suffix}"] += value
            return result

        return traced

    def write(self, path):
        """Write the span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(dict(zip(RECORD_KEYS, rec))) + "\n")


class _TaskSpan:
    def __init__(self, tracer, task_index):
        self.tracer = tracer
        self.task_index = task_index

    def __enter__(self):
        self.tracer._task = self.task_index
        self.tracer._open("bench.task")
        return self

    def __exit__(self, *exc):
        self.tracer._close()
        self.tracer._task = -1
        return False
