"""In-memory span tracer, and the wrappers that put it around repro's layers.

The benchmark traces from its own files: :func:`instrument` swaps the public
entry point of each layer for a wrapper that records a span, and puts the
originals back on exit.  Nothing under ``src/`` changes.

Two kinds of record keep the overhead bounded:

* **Spans** (name, start, end, parent, request id, attributes) for coarse
  boundaries: engine calls, planning, LEMP calls, the tuner, the solver,
  fit/save/load, naive calls, served micro-batches.  A span opened with no
  open parent on its thread starts a new request id; its children share it.
* **Leaf aggregates** for the hot per-(bucket, query) boundaries, candidate
  generation (each retriever's ``retrieve``) and exact verification
  (``gather_matvec``): a call count, busy seconds and an item count summed
  per (parent span, name).  One span per call there would cost more than
  the work it measures.

Spans are held in memory and written once, by :meth:`Tracer.write`, after
the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One traced interval; ``end`` is set when the span closes."""

    span_id: int
    parent_id: int | None
    name: str
    request_id: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Duration of the span."""
        return self.end - self.start


@dataclass
class Leaf:
    """Summed calls of one hot leaf boundary under one parent span."""

    calls: int = 0
    seconds: float = 0.0
    items: int = 0


class Tracer:
    """Collects spans and leaf aggregates from any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.leaves: dict[tuple[int | None, str], Leaf] = defaultdict(Leaf)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the ``with`` body, nested under the open one."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            request_id=parent.request_id if parent else next(self._requests),
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def leaf(self, name: str, function, count_items):
        """Wrap ``function`` so its calls add to a leaf aggregate.

        Calls nested inside another leaf (one retriever delegating to
        another) are not counted again; the outer call covers them.
        """
        local = self._local

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if getattr(local, "in_leaf", False):
                return function(*args, **kwargs)
            local.in_leaf = True
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                local.in_leaf = False
            stack = self._stack()
            aggregate = self.leaves[(stack[-1].span_id if stack else None, name)]
            aggregate.calls += 1
            aggregate.seconds += elapsed
            aggregate.items += count_items(args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span and leaf aggregate as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "span": span.span_id, "parent": span.parent_id, "name": span.name,
                    "request": span.request_id, "start": span.start, "end": span.end,
                    **({"attrs": span.attrs} if span.attrs else {}),
                }) + "\n")
            for (parent, name), leaf in self.leaves.items():
                out.write(json.dumps({
                    "leaf": name, "parent": parent, "calls": leaf.calls,
                    "seconds": leaf.seconds, "items": leaf.items,
                }) + "\n")


def covered_seconds(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_seconds(spans, leaves) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Child spans may overlap (threads), so their union is subtracted; leaf
    aggregates run on the parent's own thread between its child spans and
    are subtracted as summed busy time.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    leaf_seconds = defaultdict(float)
    for (parent, _), leaf in leaves.items():
        leaf_seconds[parent] += leaf.seconds
    return {
        span.span_id: max(0.0, span.seconds
                          - covered_seconds(children[span.span_id], span.start, span.end)
                          - leaf_seconds[span.span_id])
        for span in spans
    }


def unattributed(spans, leaves, roots) -> tuple[float, float]:
    """``(self seconds, total seconds)`` of the root spans named in ``roots``.

    A call root's self time is the part of the call no traced layer below it
    accounts for: executor dispatch, merging, bookkeeping.
    """
    own = self_seconds(spans, leaves)
    calls = [span for span in spans if span.parent_id is None and span.name in roots]
    return sum(own[span.span_id] for span in calls), sum(span.seconds for span in calls)


@contextmanager
def instrument(tracer: Tracer, queue_waits: list):
    """Wrap each layer's entry point with ``tracer`` for the ``with`` body.

    ``queue_waits`` receives, per served request, the seconds between its
    admission to the micro-batcher and the start of its batch's solve.
    """
    import repro.core.above_theta as above_module
    import repro.core.lemp as lemp_module
    import repro.core.retrievers as retrievers
    import repro.core.top_k as top_k_module
    import repro.engine.persistence as persistence
    from repro.baselines.naive import NaiveRetriever
    from repro.core.retrievers.base import BucketRetriever
    from repro.engine.facade import RetrievalEngine
    from repro.engine.planner import ExecutionPlanner
    from repro.serve.batcher import MicroBatcher
    from repro.serve.engine import ServingEngine

    saved = []

    def patch(owner, name, replacement):
        saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                      else getattr(owner, name)))
        setattr(owner, name, replacement)

    def spanned(layer, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(layer):
                return function(*args, **kwargs)
        return wrapper

    def facade(function):
        @functools.wraps(function)
        def wrapper(engine, *args, **kwargs):
            with tracer.span("engine.facade", spec=engine.spec):
                return function(engine, *args, **kwargs)
        return wrapper

    def solver(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span("core.solver") as span:
                output = function(*args, **kwargs)
                span.attrs["results"] = (int(output[0].size) if len(output) == 3
                                         else int((output[0] >= 0).sum()))
                return output
        return wrapper

    admitted = {}

    def submit(function):
        @functools.wraps(function)
        def wrapper(batcher, key, request):
            admitted[id(request)] = time.perf_counter()
            return function(batcher, key, request)
        return wrapper

    def solve_group(function):
        @functools.wraps(function)
        def wrapper(serving, key, requests):
            started = time.perf_counter()
            for request in requests:
                queue_waits.append(started - admitted.pop(id(request), started))
            with tracer.span("serve.solve", rows=sum(r.rows for r in requests),
                             requests=len(requests)):
                return function(serving, key, requests)
        return wrapper

    def candidates(args, result):
        return int(result.size)

    def rows(args, result):
        return int(args[1].size)

    try:
        for method in ("above_theta", "row_top_k"):
            patch(RetrievalEngine, method, facade(RetrievalEngine.__dict__[method]))
            patch(lemp_module.Lemp, method,
                  spanned("core.lemp.call", lemp_module.Lemp.__dict__[method]))
            patch(NaiveRetriever, method,
                  spanned("baselines.naive", NaiveRetriever.__dict__[method]))
        patch(lemp_module.Lemp, "fit",
              spanned("core.lemp.fit", lemp_module.Lemp.__dict__["fit"]))
        patch(ExecutionPlanner, "plan",
              spanned("engine.planner", ExecutionPlanner.__dict__["plan"]))
        for name in ("tune_mixed", "tune_phi"):
            patch(lemp_module, name, spanned("core.tuner", getattr(lemp_module, name)))
        for name in ("solve_above_theta", "solve_row_top_k"):
            patch(lemp_module, name, solver(getattr(lemp_module, name)))
        for module in (above_module, top_k_module):
            patch(module, "gather_matvec",
                  tracer.leaf("core.kernels", module.gather_matvec, rows))
        for name in retrievers.__all__:
            cls = getattr(retrievers, name)
            if (isinstance(cls, type) and issubclass(cls, BucketRetriever)
                    and "retrieve" in cls.__dict__):
                patch(cls, "retrieve",
                      tracer.leaf("core.retrievers", cls.__dict__["retrieve"], candidates))
        patch(persistence, "save_engine",
              spanned("engine.persistence.save", persistence.save_engine))
        patch(persistence, "load_engine",
              spanned("engine.persistence.load", persistence.load_engine))
        patch(MicroBatcher, "submit", submit(MicroBatcher.__dict__["submit"]))
        patch(ServingEngine, "_solve_group", solve_group(ServingEngine.__dict__["_solve_group"]))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
