"""In-memory span recorder for the traced benchmark run.

A span has a name, start, end, parent span and operation id.  Spans are kept
in flat integer arrays and written out when the run ends; per-name totals,
self times (duration minus the time covered by child spans) and counts are
accumulated as spans close, so every span counts even past the storage cap.

`Recorder.install` wraps public library functions in place, in every module
that binds them, so calls made inside the library are recorded too.  A call
directly inside a span of the same name belongs to that span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager

BENCH = "bench.op"  # root span of one operation's library call
AFTER = "bench.after"  # root span of the benchmark's work on its result
KEEP = 200_000  # spans stored for writing out; the aggregates count every span


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # stored spans, one entry per array
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        # per-name aggregates
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.max_ns: list[int] = []
        self.units: list[int] = []
        self.oks: list[int] = []
        self.spans = 0
        self.op_id = -1
        # open spans: [name id, start, child ns, stored index or -1]
        self._stack: list[list[int]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for agg in (self.calls, self.total_ns, self.self_ns, self.max_ns, self.units, self.oks):
                agg.append(0)
        return self._ids[name]

    def begin(self, nid: int) -> None:
        index = -1
        if self.spans < KEEP:
            index = len(self.name)
            self.name.append(nid)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(self._stack[-1][3] if self._stack else -1)
            self.op.append(self.op_id)
        self.spans += 1
        self._stack.append([nid, time.perf_counter_ns(), 0, index])

    def finish(self, units: int = 0, ok: bool = True) -> None:
        now = time.perf_counter_ns()
        nid, start, child, index = self._stack.pop()
        duration = now - start
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - child
        if duration > self.max_ns[nid]:
            self.max_ns[nid] = duration
        self.units[nid] += units
        self.oks[nid] += ok
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.start[index] = start
            self.end[index] = now

    @contextmanager
    def operation(self, name: str = BENCH):
        """Root span of one benchmark operation, or of other benchmark work
        that calls the library."""
        self.op_id += 1
        self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish()

    def wrap(self, fn, name: str, tally=None, top_only: bool = False):
        """`fn` recording a span per call.  `tally(result)` gives (units, ok)
        to count; with `top_only`, only calls made directly by a benchmark
        operation are recorded."""
        nid = self.name_id(name)
        bench = self.name_id(BENCH)
        stack = self._stack
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == nid or top_only and not (stack and stack[-1][0] == bench):
                return fn(*args, **kwargs)
            begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish()
                raise
            if tally is None:
                finish()
            else:
                finish(*tally(result))
            return result

        return traced

    @contextmanager
    def install(self, package: str, targets):
        """Wrap each target in every loaded module of `package` that binds it.

        `targets` lists (owner, attribute, span name, tally, top only); a
        class owner with attribute "__init__" records construction.  Restores
        the originals on exit.
        """
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        undo = []
        try:
            for owner, attr, name, tally, top_only in targets:
                original = getattr(owner, attr)
                traced = self.wrap(original, name, tally, top_only)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, traced)
            yield
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def aggregates(self) -> dict:
        """Per span name: calls, total, self and max time (ns), units, oks."""
        return {name: {"calls": self.calls[i], "total_ns": self.total_ns[i], "self_ns": self.self_ns[i],
                       "max_ns": self.max_ns[i], "units": self.units[i], "oks": self.oks[i]}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the stored spans, columnar, plus the aggregates."""
        payload = {
            "names": self.names,
            "spans_total": self.spans,
            "spans_stored": len(self.name),
            "columns": {"name": self.name.tolist(), "start_ns": self.start.tolist(),
                        "end_ns": self.end.tolist(), "parent": self.parent.tolist(),
                        "op": self.op.tolist()},
            "aggregates": self.aggregates(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
