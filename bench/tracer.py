"""Span tracer that wraps fxlink functions from outside the library.

Each target is a module attribute named by its dotted path, e.g.
``fxlink.neuralnet.fx_linear``.  While installed, every call through that
attribute records a span ``[key, start_ns, end_ns, parent, run_id, count]``
in memory; nothing is written until ``write`` is called at the end of the
run.  A target whose attribute no longer exists is listed in ``absent``
instead of raising, so the benchmark keeps running when the library
renames or removes a function.

Wrapping happens at the binding the callers look up: ``neuralnet`` imports
``fx_linear`` by name, so ``fxlink.neuralnet.fx_linear`` is the attribute
``forward_fixed`` calls, while ``autoencoder`` calls ``ofdm.fft`` through the
module, so ``fxlink.ofdmlink.fft`` is the one to wrap there.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

KEY, START, END, PARENT, RUN, COUNT = range(6)


@dataclass
class Stat:
    """Aggregate of the spans that share one key."""

    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    count: int = 0


class Tracer:
    def __init__(self, targets):
        """targets: (dotted attribute path, span name, tag) triples.

        tag is None or a function ``tag(args, kwargs) -> (suffix, count)``
        that refines the span key with ``"." + suffix`` (e.g. the Q-format
        and shape of an ``fx_linear`` call) and attaches a work count.
        """
        self.targets = targets
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for path, name, tag in self.targets:
            mod_name, _, attr = path.rpartition(".")
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                if path not in self.absent:
                    self.absent.append(path)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, tag))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key, count = name, 0
            if tag is not None:
                suffix, count = tag(args, kwargs)
                key = f"{name}.{suffix}"
            span = [key, 0, 0, stack[-1] if stack else -1, self.run_id,
                    count]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def summarize(self, keep=lambda run_id: True) -> dict[str, Stat]:
        """Per-key calls, inclusive and self time, and summed counts.

        Self time is a span's duration minus the durations of its direct
        children.  Only spans whose run id satisfies ``keep`` are counted.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        stats: dict[str, Stat] = {}
        for i, s in enumerate(self.spans):
            if not keep(s[RUN]):
                continue
            st = stats.setdefault(s[KEY], Stat())
            dur = s[END] - s[START]
            st.calls += 1
            st.incl_ns += dur
            st.self_ns += dur - child_ns[i]
            st.count += s[COUNT]
        return stats

    def children(self, parent_key: str, child_key: str) -> int:
        """Number of child_key spans directly under parent_key spans."""
        parents = {i for i, s in enumerate(self.spans)
                   if s[KEY] == parent_key}
        return sum(1 for s in self.spans
                   if s[KEY] == child_key and s[PARENT] in parents)

    def write(self, path, extra: dict) -> None:
        """Dump every span, column-wise, plus ``extra`` as one JSON file."""
        names = sorted({s[KEY] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra, absent=self.absent, names=names, spans={
            "name": [index[s[KEY]] for s in self.spans],
            "start_ns": [s[START] for s in self.spans],
            "end_ns": [s[END] for s in self.spans],
            "parent": [s[PARENT] for s in self.spans],
            "run": [s[RUN] for s in self.spans],
            "count": [s[COUNT] for s in self.spans],
        })
        with open(path, "w") as fh:
            json.dump(doc, fh)
