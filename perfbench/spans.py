"""Span tracing from outside the package.

The tracer rebinds public functions under the names their callers look them
up by (``foliage_link.cli.parse_scenario``, ``foliage_link.budget.total_loss``
and so on) and restores them afterwards. Three kinds of wrapper:

* ``span``: a record of name, start, end, parent span and op id. Used on
  calls that take milliseconds or more, where a record per call is cheap.
* ``timed``: a count and a running total, and the time is charged to the
  enclosing span as child time. Used on ``total_loss``, which runs about
  ten microseconds and is called up to millions of times per run.
* ``count``: a call count only, for the microsecond-scale checks inside
  ``total_loss``; their time is measured by direct loops instead.

A span's self time is its duration minus the time its child spans and timed
calls cover.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

BINDINGS = [
    ("foliage_link.cli", "run", SPAN),
    ("foliage_link.cli", "build_parser", SPAN),
    ("foliage_link.cli", "parse_scenario", SPAN),
    ("foliage_link.cli", "evaluate_scenario", SPAN),
    ("foliage_link.cli", "emit_csv", SPAN),
    ("foliage_link.cli", "emit_json", SPAN),
    ("foliage_link.cli", "run_sweep", SPAN),
    ("foliage_link.cli", "max_range", SPAN),
    ("foliage_link.cli", "max_foliage_factor", SPAN),
    ("foliage_link.cli", "max_foliage_height", SPAN),
    ("foliage_link.cli", "total_loss", TIMED),
    ("foliage_link.scenario", "total_loss", TIMED),
    ("foliage_link.sweep", "total_loss", TIMED),
    ("foliage_link.budget", "total_loss", TIMED),
    ("foliage_link.cli", "LinkGeometry", COUNT),
    ("foliage_link.scenario", "LinkGeometry", COUNT),
    ("foliage_link.sweep", "LinkGeometry", COUNT),
    ("foliage_link.budget", "LinkGeometry", COUNT),
    ("foliage_link.scenario", "foliage_split", COUNT),
    ("foliage_link.propagation", "foliage_split", COUNT),
    ("foliage_link.propagation", "weissberger_loss", COUNT),
    ("foliage_link.propagation", "free_space_loss", COUNT),
]

# span field positions
NAME, START, END, PARENT, OP, CHILD, TIMED_CALLS, INDEX = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.timed_s: defaultdict = defaultdict(float)
        self.op = -1
        self._saved: list = []

    def install(self, modules: dict) -> None:
        for module_name, attr, kind in BINDINGS:
            module = modules[module_name]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module_name}.{attr}"
            setattr(module, attr, getattr(self, f"_{kind}")(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, None if parent is None else parent[INDEX], self.op,
                      0.0, 0, len(spans)]
            spans.append(record)
            stack.append(record)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += end - record[START]
        return wrapper

    def _timed(self, name, fn):
        stack, calls, timed_s = self.stack, self.calls, self.timed_s

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[name] += 1
                timed_s[name] += elapsed
                if stack:
                    stack[-1][CHILD] += elapsed
                    stack[-1][TIMED_CALLS] += 1
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; parents are line numbers."""
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP],
                    "self": s[END] - s[START] - s[CHILD], "timed_calls": s[TIMED_CALLS],
                }) + "\n")
