"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's layers from outside:
:func:`install` replaces a function or method with a wrapper that opens a
span, calls the original and closes the span, and :func:`uninstall` puts
the originals back.  Nothing inside ``src/`` is changed.

Each span has a name, a start, an end, a parent span and the id of the
benchmark operation (one query, one fleet window) it belongs to.  The
benchmark is single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = [
    "SpanRecorder",
    "Patch",
    "install",
    "uninstall",
    "self_times",
    "layer_table",
    "format_layer_table",
    "chrome_trace",
]

#: Cap on events written to the Chrome trace; layer totals always cover
#: every span, the file only drops the tail (the count is reported).
MAX_TRACE_EVENTS = 200_000


class SpanRecorder:
    """Column-wise span storage: names, starts, ends, parents, op ids."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)


class Patch:
    """One boundary to wrap: ``owner.attr`` replaced by a span wrapper.

    ``name`` is the span name, or a callable mapping the call's first
    argument (``self`` for methods) to one.  ``on_result(args, result)``
    runs after a successful call, inside the span, so a layer can count
    work from the value it returns.
    """

    def __init__(self, owner, attr: str, name, on_result=None):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.on_result = on_result
        self.original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _wrapper(recorder: SpanRecorder, patch: Patch):
    original = patch.original
    name = patch.name
    on_result = patch.on_result
    fixed = isinstance(name, str)

    def wrapped(*args, **kwargs):
        index = recorder.begin(name if fixed else name(args[0]))
        try:
            result = original(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result
        finally:
            recorder.end(index)

    return wrapped


def install(recorder: SpanRecorder, patches: list[Patch]) -> None:
    for patch in patches:
        setattr(patch.owner, patch.attr, _wrapper(recorder, patch))


def uninstall(patches: list[Patch]) -> None:
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)


def self_times(recorder: SpanRecorder) -> list[float]:
    """Per-span self time: duration minus the direct children's durations."""
    selfs = [recorder.ends[i] - recorder.starts[i] for i in range(len(recorder))]
    for index, parent in enumerate(recorder.parents):
        if parent >= 0:
            selfs[parent] -= recorder.ends[index] - recorder.starts[index]
    return selfs


def layer_table(recorder: SpanRecorder, ops: set[int] | None = None) -> dict[str, dict]:
    """``{span name: {calls, total_s, self_s}}`` over the spans of *ops*."""
    selfs = self_times(recorder)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, name in enumerate(recorder.names):
        if ops is not None and recorder.ops[index] not in ops:
            continue
        row = table[name]
        row["calls"] += 1
        row["total_s"] += recorder.ends[index] - recorder.starts[index]
        row["self_s"] += selfs[index]
    return dict(table)


def format_layer_table(table: dict[str, dict], wall: float) -> str:
    """Text table of self time per span name, largest first."""
    lines = [f"{'layer':<34} {'calls':>9} {'self_s':>10} {'total_s':>10} {'self%':>7}"]
    accounted = 0.0
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        accounted += row["self_s"]
        share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"{name:<34} {row['calls']:>9} {row['self_s']:>10.4f} "
            f"{row['total_s']:>10.4f} {share:>6.1f}%"
        )
    lines.append(f"{'sum of self times':<34} {'':>9} {accounted:>10.4f}")
    lines.append(f"{'timed wall':<34} {'':>9} {wall:>10.4f}")
    return "\n".join(lines) + "\n"


def chrome_trace(recorder: SpanRecorder, path, ops: set[int] | None = None) -> int:
    """Write the spans of *ops* as Chrome-trace complete events.

    Returns the number of spans left out beyond :data:`MAX_TRACE_EVENTS`.
    """
    origin = recorder.starts[0] if len(recorder) else 0.0
    events = []
    dropped = 0
    for index, name in enumerate(recorder.names):
        if ops is not None and recorder.ops[index] not in ops:
            continue
        if len(events) >= MAX_TRACE_EVENTS:
            dropped += 1
            continue
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((recorder.starts[index] - origin) * 1e6, 3),
                "dur": round((recorder.ends[index] - recorder.starts[index]) * 1e6, 3),
                "args": {"span": index, "parent": recorder.parents[index], "op": recorder.ops[index]},
            }
        )
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"traceEvents": events, "otherData": {"dropped_spans": dropped}}, stream)
    return dropped
