"""Span recorder for the traced benchmark run.

The recorder wraps public layer functions of ``repro`` at the module
binding the caller actually looks up (``repro.service.server.request_key``
rather than ``repro.service.canonical.request_key``, because the server
imported the name into its own namespace), records one span per call,
and restores every original binding when the traced phase ends.  The
program under test is never edited.

A span's *self time* is its duration minus the part of that interval
covered by its child spans.  Children are the spans nested under it on
the same thread; a *waiting* span (a client blocked on the service)
additionally counts every top-level span that other threads ran during
its interval, because that is the work it waited for.

Spans are kept in memory and written out at the end as Chrome
trace-event JSON, the same ``{"traceEvents": [...]}`` layout
:mod:`repro.trace.export` writes for simulated GPU traces, so both
open in ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable

#: Span name of a client call blocked on the prediction service.
ROUNDTRIP = "service.roundtrip"

#: (module, attribute path, span name, item counter) for every layer
#: binding the traced run wraps.  The item counter, when given, maps a
#: call's positional arguments to the amount of work it was handed.
LAYER_BINDINGS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.service.server", "request_key", "service.canonical", None),
    ("repro.service.server", "collect_plan", "e2e.collect_plan", None),
    ("repro.service.server", "traverse_plan", "e2e.traverse_plan", None),
    ("repro.service.server", "predict_memory", "e2e.predict_memory", None),
    ("repro.e2e.predictor", "collect_plan", "e2e.collect_plan", None),
    ("repro.e2e.predictor", "traverse_plan", "e2e.traverse_plan", None),
    ("repro.sweep.engine", "collect_plan", "e2e.collect_plan", None),
    ("repro.sweep.engine", "traverse_plan", "e2e.traverse_plan", None),
    ("repro.sweep.engine", "plan_lower_bounds_us", "sweep.prune", None),
    ("repro.sweep.engine", "predict_multi_gpu", "multigpu.predict", None),
    ("repro.sweep.engine", "SweepEngine.run", "sweep.run", None),
    ("repro.sweep.engine", "SweepEngine.run_multi_gpu",
     "sweep.run_multi_gpu", None),
    ("repro.perfmodels.base", "PerfModelRegistry.predict_many",
     "perfmodels.predict_many", lambda args: len(args[1])),
    ("repro.perfmodels.base", "PerfModelRegistry.fingerprint",
     "perfmodels.fingerprint", None),
    ("repro.multigpu.predict", "predict_e2e", "e2e.predict_e2e", None),
    ("repro.multigpu.predict", "schedule_iteration",
     "multigpu.schedule_iteration", None),
    ("repro.capacity.planner", "build_multi_gpu_dlrm_plan",
     "multigpu.plan_build", None),
    ("repro.capacity.planner", "build_dlrm_graph", "models.build_model",
     None),
    ("repro.capacity.planner", "price_dlrm_service", "serving.price", None),
    ("repro.capacity.planner", "CapacityPlanner.plan_dlrm",
     "capacity.plan_dlrm", None),
    ("repro.capacity.planner", "CapacityPlanner.size_replicas",
     "capacity.size_replicas", None),
    ("repro.serving.service", "build_dlrm_graph", "models.build_model",
     None),
    ("repro.serving.simulate", "ServingSimulator.run", "serving.simulate",
     lambda args: args[1].num_requests),
)

#: Bindings called so often that a span per call would distort the
#: run; the recorder only counts their calls.
COUNTED_BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("repro.overheads.database", "OverheadDatabase.mean_us",
     "overheads.mean_us"),
)


class Span:
    """One timed call: name, thread, interval and the enclosing span."""

    __slots__ = ("name", "thread", "start", "end", "parent", "waits")

    def __init__(self, name: str, thread: int, parent: "Span | None",
                 waits: bool) -> None:
        self.name = name
        self.thread = thread
        self.parent = parent
        self.waits = waits
        self.start = 0.0
        self.end = 0.0


class SpanRecorder:
    """Collects spans and call counters from any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # One counter table per thread, so counting takes no lock.
        self._tables: list[dict[str, float]] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- recording -----------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``."""
        table = getattr(self._local, "counts", None)
        if table is None:
            table = self._local.counts = defaultdict(float)
            self._tables.append(table)
        table[name] += amount

    def counts(self) -> dict[str, float]:
        """Every counter, summed over threads."""
        totals: dict[str, float] = defaultdict(float)
        for table in list(self._tables):
            for name, value in list(table.items()):
                totals[name] += value
        return dict(totals)

    def wrap(self, fn: Callable, name: str, waits: bool = False,
             items: Callable | None = None) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``.

        Args:
            fn: The function to time.
            name: Span name (``layer.function``).
            waits: The caller blocks on work other threads do; their
                top-level spans count as this span's children.
            items: Maps the call's positional arguments to a work
                amount added to counter ``name + ".items"``.
        """
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, ident(), stack[-1] if stack else None, waits)
            if items is not None:
                self.count(name + ".items", items(args))
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        return traced

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so each call bumps counter ``name + ".calls"``."""
        key = name + ".calls"

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return counting

    # -- patching ------------------------------------------------------
    def _replace(self, module_name: str, path: str, make) -> None:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every binding in :data:`LAYER_BINDINGS` and
        :data:`COUNTED_BINDINGS`."""
        if self._patched:
            raise RuntimeError("recorder is already installed")
        for module_name, path, name, items in LAYER_BINDINGS:
            self._replace(
                module_name, path,
                lambda fn, name=name, items=items: self.wrap(
                    fn, name, items=items
                ),
            )
        for module_name, path, name in COUNTED_BINDINGS:
            self._replace(
                module_name, path,
                lambda fn, name=name: self.counted(fn, name),
            )

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[Span, float]:
        """Self time (s) of every span."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        roots = sorted(
            (s for s in self.spans if s.parent is None),
            key=lambda s: s.start,
        )
        root_starts = [s.start for s in roots]
        longest_root = max((s.end - s.start for s in roots), default=0.0)

        out: dict[Span, float] = {}
        for span in self.spans:
            kids = children.get(id(span), [])
            if span.waits:
                # Other threads' top-level spans inside this interval.
                hi = bisect.bisect_left(root_starts, span.end)
                lo = bisect.bisect_left(
                    root_starts, span.start - longest_root
                )
                kids = kids + [
                    s for s in roots[lo:hi]
                    if s.thread != span.thread and not s.waits
                    and s.end > span.start
                ]
            covered = _union_length(
                (max(k.start, span.start), min(k.end, span.end))
                for k in kids
            )
            out[span] = max(span.end - span.start - covered, 0.0)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and total self time in seconds."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for span, self_s in self.self_times().items():
            row = totals[span.name]
            row["calls"] += 1
            row["self_s"] += self_s
        return dict(totals)

    def write_chrome(self, path: str, process_name: str) -> None:
        """Write the spans as a chrome://tracing-loadable JSON file."""
        self_times = self.self_times()
        main = threading.main_thread().ident
        tids: dict[int, int] = {main: 1}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.thread, len(tids) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {"self_us": self_times[span] * 1e6},
                }
            )
        meta = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": process_name}},
        ] + [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": "main" if thread == main else f"thread {tid}"}}
            for thread, tid in tids.items()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": meta + events}, fh)


def _union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
