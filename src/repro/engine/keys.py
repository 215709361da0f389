"""Exact key encoding for grouping and joining.

Two flavours are provided:

* :func:`pack_rows` — packs any mix of column types into fixed-width void
  (byte-string) keys.  Equality of tuples is exactly equality of packed
  bytes, and the byte order gives a total order, so the result works with
  ``np.unique``/``np.argsort``.  Used by grouping (single row set).
  :func:`normalize_key_columns` fixes the bytes each column contributes;
  every exact key path (packing, grouping, the scalar reference kernels)
  goes through it.
* :func:`combine_int_keys` — injectively combines up to two non-negative
  integer key columns into one ``int64``.  Values from *different* arrays
  remain comparable (the mapping depends only on values), which is what a
  hash join needs to match probe keys against build keys.  All TPC-H join
  keys are integers, so this covers the benchmark exactly; wider needs can
  pre-factorize to integers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize_key_columns",
    "pack_rows",
    "combine_int_keys",
    "group_rows",
    "align_rows",
    "dense_domain",
]

_MAX_COMBINE = 1 << 31

#: Domains this small are direct-addressed regardless of the row count.
_SMALL_DOMAIN = 1 << 16

#: Column byte widths that read as one unsigned integer.
_CODE_WIDTHS = (1, 2, 4, 8)

#: Largest mixed-radix product kept before re-ranking (stays in int64).
_MAX_RADIX = 1 << 62

#: Below this many rows per key column, sorting the packed keys is
#: cheaper than the fixed cost of coding each column.
_MIN_ROWS_PER_COLUMN = 256


def normalize_key_columns(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Contiguous key columns whose raw bytes define the packed key.

    Objects become their common string width, floats ``float64``, ints
    ``int64`` and bools ``uint8``; anything else is only made contiguous.
    A row's packed key is the concatenation of these columns' raw
    (little-endian) bytes.
    """
    if not arrays:
        raise ValueError("need at least one key column")
    length = len(arrays[0])
    normalized = []
    for array in arrays:
        if len(array) != length:
            raise ValueError("key columns must have equal length")
        if array.dtype.kind == "O":
            array = array.astype(str)
        if array.dtype.kind == "f":
            array = np.ascontiguousarray(array, dtype=np.float64)
        elif array.dtype.kind in "iu":
            array = np.ascontiguousarray(array, dtype=np.int64)
        elif array.dtype.kind == "b":
            array = np.ascontiguousarray(array, dtype=np.uint8)
        else:
            array = np.ascontiguousarray(array)
        normalized.append(array)
    return normalized


def pack_rows(arrays: list[np.ndarray]) -> np.ndarray:
    """Pack parallel *arrays* into one void array of per-row byte keys."""
    return _pack(normalize_key_columns(arrays))


def _pack(normalized: list[np.ndarray]) -> np.ndarray:
    if len(normalized) == 1:
        array = normalized[0]
        return array.view(np.dtype((np.void, array.dtype.itemsize)))
    length = len(normalized[0])
    total_width = sum(a.dtype.itemsize for a in normalized)
    packed = np.empty(length, dtype=np.dtype((np.void, total_width)))
    raw = packed.view(np.uint8).reshape(length, total_width)
    offset = 0
    for array in normalized:
        width = array.dtype.itemsize
        raw[:, offset : offset + width] = array.view(np.uint8).reshape(length, width)
        offset += width
    return packed


def combine_int_keys(arrays: list[np.ndarray]) -> np.ndarray:
    """Injectively combine 1–2 non-negative int key columns into int64.

    The combination is value-determined (``hi << 32 | lo``), so keys from
    different row sets (build vs probe side of a join) stay comparable.
    """
    if not 1 <= len(arrays) <= 2:
        raise ValueError(f"combine_int_keys supports 1 or 2 columns, got {len(arrays)}")
    casted = []
    for array in arrays:
        if array.dtype.kind not in "iu":
            raise TypeError(f"join keys must be integers, got dtype {array.dtype}")
        casted.append(array.astype(np.int64, copy=False))
    if len(casted) == 1:
        return casted[0]
    high, low = casted
    for name, array in (("high", high), ("low", low)):
        if len(array) and (array.min() < 0 or array.max() >= _MAX_COMBINE):
            raise ValueError(
                f"{name} join key out of range [0, 2^31) for injective combination"
            )
    return (high << 32) | low


def align_rows(base_arrays: list[np.ndarray], other_arrays: list[np.ndarray]) -> np.ndarray:
    """For each row of *other_arrays*, its row index in *base_arrays*.

    Rows are compared as tuples across the parallel column lists; missing
    rows map to ``-1``.  Assumes *base_arrays* rows are unique (group keys).
    """
    if len(base_arrays) != len(other_arrays):
        raise ValueError("base and other must have the same number of key columns")
    base_len = len(base_arrays[0])
    joined = [np.concatenate([b, o]) for b, o in zip(base_arrays, other_arrays)]
    packed = pack_rows(joined)
    uniques, inverse = np.unique(packed, return_inverse=True)
    base_inverse = inverse[:base_len]
    other_inverse = inverse[base_len:]
    lookup = np.full(len(uniques), -1, dtype=np.int64)
    lookup[base_inverse] = np.arange(base_len, dtype=np.int64)
    return lookup[other_inverse]


def dense_domain(span: int, rows: int) -> bool:
    """Whether *span* distinct slots are cheap enough to address directly.

    One slot per value of the domain is allocated and scanned, so the
    domain must be small in absolute terms or next to the row count.
    """
    return span <= max(4 * rows, _SMALL_DOMAIN)


def group_rows(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """Group rows by the tuple of *arrays*.

    Returns ``(group_ids, first_occurrence, num_groups)`` where
    ``group_ids[i]`` is the dense group index of row ``i`` and
    ``first_occurrence[g]`` is the first row of group ``g`` (usable to
    gather the group-key output columns).  Groups are numbered in the
    byte-lexicographic order of the packed keys.

    Keys whose columns are all at most 8 bytes wide are grouped on exact
    integer codes (:func:`_group_codes`); wider keys (multi-character
    strings) and small inputs sort the packed void keys.
    """
    columns = normalize_key_columns(arrays)
    if _codable(columns):
        return _group_codes(columns)
    _, first_occurrence, group_ids = np.unique(
        _pack(columns), return_index=True, return_inverse=True
    )
    return group_ids.astype(np.int64), first_occurrence.astype(np.int64), len(first_occurrence)


def _codable(columns: list[np.ndarray]) -> bool:
    """Whether every column's bytes read as one unsigned integer, and the
    rows are enough to repay the per-column NumPy calls of coding them."""
    return len(columns[0]) >= _MIN_ROWS_PER_COLUMN * len(columns) and all(
        c.dtype.itemsize in _CODE_WIDTHS for c in columns
    )


def _column_codes(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of *column*'s values in the memcmp order of their bytes.

    Reading a value's raw bytes as a big-endian unsigned integer orders
    values exactly as ``memcmp`` orders the bytes, so ``-0.0``/``0.0``
    and NaN payloads stay distinct as they are in the packed key.  A
    small domain of the native reading is direct-addressed; the distinct
    values found are then ranked by their big-endian reading.
    """
    width = column.dtype.itemsize
    memcmp_order = np.dtype(f">u{width}")
    native = column.view(f"<i{width}")
    low = int(native.min())
    span = int(native.max()) - low + 1
    if not dense_domain(span, len(native)):
        uniques, codes = np.unique(
            column.view(memcmp_order).astype(np.uint64), return_inverse=True
        )
        return codes, len(uniques)
    offsets = np.subtract(native, low, dtype=np.int64)
    present = np.flatnonzero(np.bincount(offsets, minlength=span))
    values = (present + low).astype(native.dtype)
    ranked = present[np.argsort(values.view(memcmp_order).astype(np.uint64))]
    table = np.empty(span, dtype=np.int64)
    table[ranked] = np.arange(len(ranked), dtype=np.int64)
    return table[offsets], len(ranked)


def _group_codes(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`group_rows` over exact per-column codes.

    Column codes combine mixed-radix into one ``int64`` whose numeric
    order is the packed key's byte order (columns are fixed-width, so
    byte order is column-by-column lexicographic).  When the radix would
    overflow, the running code is re-ranked densely first.  Not every
    combined code occurs, so the combination is ranked once more,
    directly or by sorting.
    """
    rows = len(columns[0])
    group_ids, num_groups = _column_codes(columns[0])
    for column in columns[1:]:
        codes, count = _column_codes(column)
        if num_groups * count > _MAX_RADIX:
            uniques, group_ids = np.unique(group_ids, return_inverse=True)
            num_groups = len(uniques)
        group_ids = group_ids * count + codes
        num_groups *= count
    if len(columns) > 1:
        if dense_domain(num_groups, rows):
            ranks = np.cumsum(np.bincount(group_ids, minlength=num_groups) > 0) - 1
            group_ids = ranks[group_ids]
            num_groups = int(ranks[-1]) + 1
        else:
            uniques, group_ids = np.unique(group_ids, return_inverse=True)
            num_groups = len(uniques)
    first_occurrence = np.full(num_groups, rows, dtype=np.int64)
    np.minimum.at(first_occurrence, group_ids, np.arange(rows, dtype=np.int64))
    return group_ids.astype(np.int64, copy=False), first_occurrence, num_groups
