"""Pluggable compute kernels: vectorized NumPy vs row-at-a-time scalar.

The hot operator paths — expression evaluation (filter masks, projections,
join residuals), grouping, scatter reductions, and the hash-join build/
probe primitives — go through a :class:`KernelSet` so the executor can
select an implementation per query:

* :class:`NumpyKernels` (default) is the whole-chunk vectorized path the
  engine has always used.
* :class:`ScalarKernels` is a row-at-a-time reference implementation.

Both produce **bit-identical** results.  That is not an accident but a
set of carefully matched invariants:

* grouping orders groups by the byte-lexicographic order of their packed
  keys (``np.unique`` on void views compares with ``memcmp``; the scalar
  path sorts Python ``bytes``, which compares the same way), and both
  report first-occurrence representatives;
* scatter reductions accumulate in input-row order (``np.bincount`` with
  weights adds sequentially in C; the scalar loop does the same IEEE
  double additions in the same order);
* the build order is a stable sort of the key codes (``np.argsort(kind=
  "stable")`` vs Python's stable ``sorted``), probe ranges come from
  binary search (``np.searchsorted`` vs ``bisect``), and match expansion
  is probe-major with ascending build positions in both paths;
* expression evaluation relies on every expression having a
  value-independent result dtype (see :mod:`repro.engine.expressions`),
  so concatenating per-row evaluations equals the full-vector result.

The numpy set's dense-key fast paths keep these invariants exactly:

* grouping on integer codes (:func:`repro.engine.keys.group_rows`) ranks
  each column by the big-endian unsigned reading of its raw bytes, which
  is ``memcmp`` order (``-0.0``/``0.0`` and NaN payloads stay distinct),
  and combines the ranks mixed-radix so numeric order is the packed
  key's byte order; representatives are first occurrences;
* the direct-address probe (:class:`ProbeIndex`) returns, for every
  code, the ``searchsorted`` left/right edges: codes below the build
  clip to a slot answering ``(0, 0)``, codes above it to one answering
  ``(len, len)``; the table is derived from ``codes_sorted`` alone and
  never reaches a snapshot, ``nbytes`` or the virtual clock;
* when every match count is at most one, ``flatnonzero(counts)`` is
  already the probe-major expansion.

The vectorized kernels cover every input the engine produces; the numpy
set still checks each call and *falls back to the scalar kernel per
chunk* for inputs the vector path cannot take (e.g. per-group min/max
over string or object columns, where ``np.minimum.reduceat`` has no
ufunc loop).  Shared utilities that are pure data movement or already
exact in both worlds — key packing, gathers, ``align_rows``,
concatenation — are not duplicated and stay vectorized under either
kernel set.

The active set is module-level state (:func:`set_kernels` /
:func:`get_kernels`); :class:`~repro.engine.executor.QueryExecutor`
installs its configured set for the duration of ``run()`` and restores
the previous one after, so nested executors compose.  Forked parallel
workers inherit the active set from the parent.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.engine.errors import EngineError
from repro.engine.keys import (
    combine_int_keys,
    dense_domain,
    group_rows,
    normalize_key_columns,
)

__all__ = [
    "KernelSet",
    "NumpyKernels",
    "ProbeIndex",
    "ScalarKernels",
    "KERNEL_NAMES",
    "get_kernels",
    "set_kernels",
    "resolve_kernels",
]

KERNEL_NAMES = ("scalar", "numpy")


class KernelSet:
    """Interface for the per-chunk compute primitives."""

    name = "abstract"

    # -- expressions -------------------------------------------------------
    def evaluate(self, expression, chunk) -> np.ndarray:
        """Evaluate *expression* over every row of *chunk*."""
        raise NotImplementedError

    # -- grouping and reductions -------------------------------------------
    def group_rows(self, arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
        """Dense group ids, first-occurrence representatives, group count."""
        raise NotImplementedError

    def grouped_sum(
        self, group_ids: np.ndarray, values: np.ndarray, num_groups: int
    ) -> np.ndarray:
        """Per-group float64 sums, accumulated in input-row order."""
        raise NotImplementedError

    def grouped_count(self, group_ids: np.ndarray, num_groups: int) -> np.ndarray:
        """Per-group row counts as int64."""
        raise NotImplementedError

    def grouped_extreme(
        self, group_ids: np.ndarray, values: np.ndarray, num_groups: int, take_min: bool
    ) -> np.ndarray:
        """Per-group min/max in the input dtype (NaNs propagate)."""
        raise NotImplementedError

    # -- hash join ----------------------------------------------------------
    def join_codes(self, arrays: list[np.ndarray]) -> np.ndarray:
        """Injective int64 codes for 1–2 integer join-key columns."""
        return combine_int_keys(arrays)

    def build_order(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stable sort of build codes: ``(codes_sorted, order)``."""
        raise NotImplementedError

    def probe_ranges(
        self,
        codes_sorted: np.ndarray,
        probe_codes: np.ndarray,
        index: ProbeIndex | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-probe-row ``[left, right)`` match range in the sorted codes.

        *index* is the build's derived :class:`ProbeIndex`; a kernel set
        may use it to answer without searching, never to change the answer.
        """
        raise NotImplementedError

    def expand_matches(
        self, left: np.ndarray, counts: np.ndarray, order: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand match ranges into probe-major ``(probe_idx, build_idx)``."""
        raise NotImplementedError


class NumpyKernels(KernelSet):
    """Whole-chunk vectorized kernels (the engine's historical path)."""

    name = "numpy"

    def __init__(self) -> None:
        self._scalar = ScalarKernels()

    def evaluate(self, expression, chunk) -> np.ndarray:
        return expression.evaluate(chunk)

    def group_rows(self, arrays):
        try:
            return group_rows(arrays)
        except (TypeError, ValueError):
            # Per-chunk fallback: key dtypes the packed-void path cannot
            # normalize are grouped row-at-a-time instead.
            return self._scalar.group_rows(arrays)

    def grouped_sum(self, group_ids, values, num_groups):
        # bincount returns int64 (not float64) when ids and weights are
        # both empty; the cast is a no-op on every non-empty input.
        out = np.bincount(group_ids, weights=values, minlength=num_groups)
        return out.astype(np.float64, copy=False)

    def grouped_count(self, group_ids, num_groups):
        return np.bincount(group_ids, minlength=num_groups).astype(np.int64)

    def grouped_extreme(self, group_ids, values, num_groups, take_min):
        if values.dtype.kind in "OSU":
            # Per-chunk fallback: min/max ufuncs have no string loop.
            return self._scalar.grouped_extreme(group_ids, values, num_groups, take_min)
        if num_groups == 0:
            return values[:0]
        order = np.argsort(group_ids, kind="stable")
        sorted_values = values[order]
        boundaries = np.searchsorted(group_ids[order], np.arange(num_groups))
        reducer = np.minimum if take_min else np.maximum
        return reducer.reduceat(sorted_values, boundaries)

    def build_order(self, codes):
        order = np.argsort(codes, kind="stable").astype(np.int64)
        return codes[order], order

    def probe_ranges(self, codes_sorted, probe_codes, index=None):
        table = None if index is None else index.lookup(codes_sorted, len(probe_codes))
        if table is not None:
            # Codes outside the build range clip to the sentinel slots
            # either side of it, whose ranges are empty at 0 and at len.
            slots = np.clip(probe_codes, index.base, index.base + len(table) - 2)
            slots -= index.base
            return table[slots], table[slots + 1]
        left = np.searchsorted(codes_sorted, probe_codes, side="left").astype(np.int64)
        right = np.searchsorted(codes_sorted, probe_codes, side="right").astype(np.int64)
        return left, right

    def expand_matches(self, left, counts, order):
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if _at_most_one_match(counts):
            probe_idx = np.flatnonzero(counts)
            return probe_idx, order[left[probe_idx]]
        probe_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        starts = np.repeat(left.astype(np.int64), counts)
        run_starts = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - run_starts
        return probe_idx, order[starts + within]


class ScalarKernels(KernelSet):
    """Row-at-a-time reference kernels, bit-identical to the numpy set."""

    name = "scalar"

    def evaluate(self, expression, chunk) -> np.ndarray:
        num_rows = chunk.num_rows
        if num_rows == 0:
            # Result dtypes are value-independent, so the empty chunk
            # evaluates to the correctly-typed empty array directly.
            return expression.evaluate(chunk)
        parts = [
            expression.evaluate(chunk.slice(row, row + 1)) for row in range(num_rows)
        ]
        return np.concatenate(parts)

    def group_rows(self, arrays):
        keys = _row_keys(arrays)
        first: dict[bytes, int] = {}
        for row, key in enumerate(keys):
            if key not in first:
                first[key] = row
        # Python bytes order lexicographically by byte value — the same
        # memcmp order np.unique applies to packed void keys.
        ordered = sorted(first)
        group_of = {key: gid for gid, key in enumerate(ordered)}
        group_ids = np.fromiter(
            (group_of[key] for key in keys), dtype=np.int64, count=len(keys)
        )
        first_idx = np.fromiter(
            (first[key] for key in ordered), dtype=np.int64, count=len(ordered)
        )
        return group_ids, first_idx, len(ordered)

    def grouped_sum(self, group_ids, values, num_groups):
        out = np.zeros(num_groups, dtype=np.float64)
        doubles = np.asarray(values, dtype=np.float64)
        for row, gid in enumerate(group_ids.tolist()):
            out[gid] += doubles[row]
        return out

    def grouped_count(self, group_ids, num_groups):
        out = np.zeros(num_groups, dtype=np.int64)
        for gid in group_ids.tolist():
            out[gid] += 1
        return out

    def grouped_extreme(self, group_ids, values, num_groups, take_min):
        if num_groups == 0:
            return values[:0]
        out = np.empty(num_groups, dtype=values.dtype)
        seen = np.zeros(num_groups, dtype=bool)
        numeric = values.dtype.kind not in "OSU"
        if numeric:
            pick = np.minimum if take_min else np.maximum
        else:
            pick = min if take_min else max
        for row, gid in enumerate(group_ids.tolist()):
            value = values[row]
            if not seen[gid]:
                out[gid] = value
                seen[gid] = True
            else:
                out[gid] = pick(out[gid], value)
        return out

    def build_order(self, codes):
        order = np.fromiter(
            sorted(range(len(codes)), key=codes.__getitem__),
            dtype=np.int64,
            count=len(codes),
        )
        return codes[order], order

    def probe_ranges(self, codes_sorted, probe_codes, index=None):
        haystack = codes_sorted.tolist()
        count = len(probe_codes)
        left = np.fromiter(
            (bisect.bisect_left(haystack, code) for code in probe_codes.tolist()),
            dtype=np.int64,
            count=count,
        )
        right = np.fromiter(
            (bisect.bisect_right(haystack, code) for code in probe_codes.tolist()),
            dtype=np.int64,
            count=count,
        )
        return left, right

    def expand_matches(self, left, counts, order):
        probe_out: list[int] = []
        build_out: list[int] = []
        for row in range(len(counts)):
            start = int(left[row])
            for position in range(start, start + int(counts[row])):
                probe_out.append(row)
                build_out.append(int(order[position]))
        return (
            np.array(probe_out, dtype=np.int64),
            np.array(build_out, dtype=np.int64),
        )


def _row_keys(arrays: list[np.ndarray]) -> list[bytes]:
    """Per-row packed key bytes, matching :func:`repro.engine.keys.pack_rows`.

    Each row key is the concatenation of the normalized columns' raw
    bytes, so equality and lexicographic order match the packed void keys
    bit for bit.
    """
    normalized = normalize_key_columns(arrays)
    return [
        b"".join(column[row : row + 1].tobytes() for column in normalized)
        for row in range(len(normalized[0]))
    ]


def _at_most_one_match(counts: np.ndarray) -> bool:
    """Whether no probe row matches more than one build row."""
    return int(counts.max()) <= 1


class ProbeIndex:
    """Direct-address offset table over one build's sorted join codes.

    Derived state: owned by the build's global state, built from
    ``codes_sorted`` alone, never serialized and never counted in its
    ``nbytes``, so snapshots, memory accounting and the virtual clock
    cannot see it.  The table has one slot per code in ``[lo - 1,
    hi + 1]`` and answers a probe with two gathers instead of two binary
    searches.  It exists only for dense builds (see
    :func:`repro.engine.keys.dense_domain`) and is built lazily, once the
    rows probed against the build reach the table's size: a large build
    probed by a few small chunks never pays for it.
    """

    __slots__ = ("span", "probed_rows", "base", "table")

    def __init__(self) -> None:
        self.span: int | None = None
        self.probed_rows = 0
        self.base = 0
        self.table: np.ndarray | None = None

    def lookup(self, codes_sorted: np.ndarray, rows: int) -> np.ndarray | None:
        """The offset table, once built; counts *rows* toward building it.

        ``table[s]`` is the ``searchsorted`` left edge of code
        ``base + s`` and ``table[s + 1]`` its right edge.
        """
        if self.table is not None:
            return self.table
        if self.span is None:
            self.span = _dense_span(codes_sorted)
        if not self.span:
            return None
        self.probed_rows += rows
        if self.probed_rows < self.span:
            return None
        low = int(codes_sorted[0])
        counts = np.bincount(codes_sorted - low, minlength=self.span)
        self.base = low - 1
        self.table = np.concatenate(
            ([0, 0], np.cumsum(counts), [len(codes_sorted)])
        ).astype(np.int64)
        return self.table


def _dense_span(codes_sorted: np.ndarray) -> int:
    """Code span of a build if it is dense enough to direct-address, else 0."""
    if len(codes_sorted) == 0:
        return 0
    low, high = int(codes_sorted[0]), int(codes_sorted[-1])
    span = high - low + 1
    info = np.iinfo(np.int64)
    if low <= info.min or high >= info.max or not dense_domain(span, len(codes_sorted)):
        return 0
    return span


_KERNEL_SETS: dict[str, KernelSet] = {
    "numpy": NumpyKernels(),
    "scalar": ScalarKernels(),
}

_active: KernelSet = _KERNEL_SETS["numpy"]


def resolve_kernels(spec: KernelSet | str | None) -> KernelSet:
    """Map a CLI/executor spec (name, instance, or None) to a kernel set."""
    if spec is None:
        return _KERNEL_SETS["numpy"]
    if isinstance(spec, KernelSet):
        return spec
    try:
        return _KERNEL_SETS[spec]
    except KeyError:
        raise EngineError(
            f"unknown kernel set {spec!r}; expected one of {KERNEL_NAMES}"
        ) from None


def get_kernels() -> KernelSet:
    """The kernel set active for the current process."""
    return _active


def set_kernels(spec: KernelSet | str | None) -> KernelSet:
    """Install a kernel set; returns the previous one (for restore)."""
    global _active
    previous = _active
    _active = resolve_kernels(spec)
    return previous
