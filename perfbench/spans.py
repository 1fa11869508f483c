"""Span recording for the traced run, from outside the program.

The traced run wraps public callables of each layer (class attributes
and module-level names the program looks up at call time) with
functions that record spans, and restores the originals afterwards.
Nothing inside ``src/`` is changed.

Spans are the program's own :class:`repro.obs.trace.Span` objects, kept
by a dedicated :class:`~repro.obs.trace.Tracer`. Each measured
operation (a mining iteration, a service job, a set-up) is one trace:
its root span starts the trace, and every span opened under it while
it runs, in the same thread, is its descendant (the parent is the
thread's :func:`~repro.obs.trace.current` context). Because the
operation's context is active, the spans the program itself records
(``candidate_gen``/``score``/``merge``/``prune``, ``step.*``) join the
same trace in the program's tracer; :meth:`SpanRecorder.harvest`
copies them into the export. They overlap the benchmark's spans, so
the self-time arithmetic leaves them out.

Besides spans there are **rollups**, which sum many short calls made
under one parent span (``RefinementOperator.refinements`` steps,
``mask_of``, spread objective evaluations): busy seconds, calls and
items. Their calls interleave with the parent's own work, so they have
no single interval; their busy time counts as child time of the parent.

:func:`self_times` clips every span to its parent's interval and
subtracts covered child time, so the self times of an operation's
spans and rollups sum to its duration.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable

from repro.obs.trace import TRACER, Span, Tracer, current

#: Finished spans one traced run may keep (far more than it makes).
RETENTION = 10_000_000


class SpanRecorder:
    """Spans in a dedicated tracer plus rollups, written out at the end."""

    def __init__(self) -> None:
        self.tracer = Tracer(retention=RETENTION)
        self.rollups: dict[tuple[str | None, str], dict] = {}
        self.program: list[Span] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, *, root: bool = False, **tags):
        """A span under the thread's current one; ``root`` starts a trace."""
        with self.tracer.span(name, parent=None if root else current()) as span:
            for key, value in tags.items():
                span.tag(key, value)
            yield span

    @property
    def spans(self) -> list[Span]:
        return self.tracer.finished()

    def rollup(self, name: str, parent: Span | None = None) -> dict:
        """The rollup of ``name`` under ``parent`` (default: current span)."""
        ctx = parent.context if parent is not None else current()
        key = (ctx.span_id if ctx else None, name)
        entry = self.rollups.get(key)
        if entry is None:
            entry = {"name": name, "parent": key[0], "trace": ctx.trace_id if ctx else None,
                     "busy_s": 0.0, "calls": 0, "items": 0}
            with self._lock:
                entry = self.rollups.setdefault(key, entry)
        return entry

    def add_rollup(
        self, name: str, busy_s: float, *, calls: int = 1, items: int = 0,
        parent: Span | None = None,
    ) -> None:
        entry = self.rollup(name, parent)
        entry["busy_s"] += busy_s
        entry["calls"] += calls
        entry["items"] += items

    def harvest(self, trace_id: str) -> None:
        """Copy the program's own spans of one trace into the export."""
        self.program.extend(TRACER.finished(trace_id))

    def write_jsonl(self, path) -> int:
        """Write every span and rollup as JSON lines; returns the count.

        Times are seconds since the first span started.
        """
        spans = self.spans
        t0 = min((s.started for s in spans), default=0.0)
        lines = 0
        with open(path, "w") as fh:
            for kind, group in (("span", spans), ("program", self.program)):
                for s in group:
                    doc = {"kind": kind, "name": s.name, "trace": s.trace_id,
                           "id": s.span_id, "parent": s.parent_id,
                           "start": s.started - t0, "end": (s.ended or s.started) - t0,
                           "tags": s.tags}
                    fh.write(json.dumps(doc, sort_keys=True) + "\n")
                    lines += 1
            for entry in self.rollups.values():
                fh.write(json.dumps(dict(entry, kind="rollup"), sort_keys=True) + "\n")
                lines += 1
        return lines


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #
def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _interval(span: Span) -> tuple[float, float]:
    return span.started, span.ended if span.ended is not None else span.started


def self_times(spans: Iterable[Span], rollups: Iterable[dict] = ()) -> dict:
    """Self seconds of every span and rollup.

    Each span's interval is first clipped to its (clipped) parent's; a
    span's self time is its clipped duration minus the union of its
    children's clipped intervals and minus its rollups' busy time
    (floored at zero). Returns ``{"spans": {span_id: s}, "rollups":
    [(rollup, s), ...], "clipped": {span_id: (start, end)}}``.
    """
    spans = {s.span_id: s for s in spans}
    children: dict[str | None, list[str]] = {}
    for span_id, s in spans.items():
        parent = s.parent_id if s.parent_id in spans else None
        children.setdefault(parent, []).append(span_id)
    rollups_of: dict[str | None, list[dict]] = {}
    for entry in rollups:
        rollups_of.setdefault(entry["parent"], []).append(entry)

    clipped: dict[str, tuple[float, float]] = {}
    result: dict[str, float] = {}
    rollup_self: list[tuple[dict, float]] = []
    todo = [(root, None) for root in children.get(None, [])]
    while todo:
        span_id, bounds = todo.pop()
        start, end = _interval(spans[span_id])
        if bounds is not None:
            start = min(max(start, bounds[0]), bounds[1])
            end = min(max(end, bounds[0]), bounds[1])
        clipped[span_id] = (start, end)
        kids = children.get(span_id, [])
        todo.extend((kid, (start, end)) for kid in kids)
        covered = _union_length(
            (min(max(k_start, start), end), min(max(k_end, start), end))
            for k_start, k_end in (_interval(spans[k]) for k in kids)
        )
        own = (end - start) - covered
        for entry in rollups_of.get(span_id, []):
            busy = min(entry["busy_s"], max(own, 0.0))
            rollup_self.append((entry, busy))
            own -= busy
        result[span_id] = max(own, 0.0)
    return {"spans": result, "rollups": rollup_self, "clipped": clipped}


def layer_table(spans: Iterable[Span], rollups: Iterable[dict], root: str) -> dict:
    """Mean self seconds per operation for each layer name.

    Only spans and rollups of an operation's trace (one started by a
    root span named ``root``) are counted. Returns ``{"ops": n,
    "op_mean_s": mean duration of the root spans, "layers": {name: mean
    self s}}``; the layer values sum to ``op_mean_s``.
    """
    spans = list(spans)
    computed = self_times(spans, rollups)
    roots = [s for s in spans if s.name == root and s.parent_id is None]
    ops = {s.trace_id for s in roots}
    n = len(roots)
    layers: dict[str, float] = {}
    for s in spans:
        if s.trace_id in ops and s.span_id in computed["spans"]:
            layers[s.name] = layers.get(s.name, 0.0) + computed["spans"][s.span_id]
    for entry, busy in computed["rollups"]:
        if entry["trace"] in ops:
            layers[entry["name"]] = layers.get(entry["name"], 0.0) + busy
    durations = [
        computed["clipped"][s.span_id][1] - computed["clipped"][s.span_id][0] for s in roots
    ]
    return {
        "ops": n,
        "op_mean_s": sum(durations) / n if n else 0.0,
        "layers": {name: total / n for name, total in layers.items()} if n else {},
    }


def format_layer_table(table: dict, title: str) -> str:
    """Printable layer table; the self column sums to the op mean."""
    rows = sorted(table["layers"].items(), key=lambda kv: -kv[1])
    total = table["op_mean_s"]
    width = max([len(name) for name, _ in rows] + [10])
    lines = [title, f"  {'layer':<{width}}  {'self s/op':>10}  {'share':>6}"]
    for name, value in rows:
        share = value / total if total else 0.0
        lines.append(f"  {name:<{width}}  {value:>10.4f}  {share:>6.1%}")
    lines.append(
        f"  {'sum':<{width}}  {sum(v for _, v in rows):>10.4f}  "
        f"(traced op mean {total:.4f} s over {table['ops']} ops)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Wrapping public callables
# ---------------------------------------------------------------------- #
class Probes:
    """Installs span-recording wrappers and restores the originals.

    ``patch(owner, attr, make)`` replaces ``owner.attr`` (a class or a
    module) with ``make(original)``, where ``original`` is the raw
    attribute (a function, or a ``classmethod`` object).
    """

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def span_wrapper(recorder: SpanRecorder, name: str, tag: Callable | None = None):
    """``make`` for :meth:`Probes.patch`: one span per call.

    ``tag(args, kwargs, result)`` may return extra tags for the span
    (stored as strings, as :meth:`repro.obs.trace.Span.tag` does).
    """

    def make(original):
        def wrapper(*args, **kwargs):
            with recorder.span(name) as span:
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    span.tag("error", True)
                    raise
                for key, value in (tag(args, kwargs, result) if tag else {}).items():
                    span.tag(key, value)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    return make


def rollup_wrapper(recorder: SpanRecorder, name: str):
    """``make`` for :meth:`Probes.patch`: busy time summed per parent."""

    def make(original):
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                recorder.add_rollup(name, perf_counter() - started)

        wrapper.__wrapped__ = original
        return wrapper

    return make


def generator_rollup_wrapper(recorder: SpanRecorder, name: str):
    """``make`` for a generator function: times each step it takes.

    Only the time spent inside the generator counts; the consumer's
    work between steps does not. ``calls`` counts generators created,
    ``items`` the values they yielded.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            entry = recorder.rollup(name)
            entry["calls"] += 1
            started = perf_counter()
            generator = original(*args, **kwargs)
            entry["busy_s"] += perf_counter() - started
            while True:
                started = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    entry["busy_s"] += perf_counter() - started
                    return
                entry["busy_s"] += perf_counter() - started
                entry["items"] += 1
                yield item

        wrapper.__wrapped__ = original
        return wrapper

    return make
