"""Shared fixtures: catalogs, synthetic tables, fast hardware profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.profile import HardwareProfile
from repro.engine.types import DataType
from repro.storage import Catalog, Table
from repro.tpch.dbgen import generate_catalog


@pytest.fixture(scope="session")
def tpch_tiny() -> Catalog:
    """TPC-H at a very small scale for end-to-end query tests."""
    return generate_catalog(0.002)


@pytest.fixture(scope="session")
def tpch_small() -> Catalog:
    """TPC-H at a small scale for correctness and suspension tests."""
    return generate_catalog(0.005)


@pytest.fixture()
def profile() -> HardwareProfile:
    return HardwareProfile()


@pytest.fixture()
def synthetic_catalog() -> Catalog:
    """A small deterministic two-table catalog for operator tests."""
    rng = np.random.default_rng(7)
    n = 5000
    catalog = Catalog()
    catalog.register(
        Table.from_pairs(
            "facts",
            [
                ("key", DataType.INT64, rng.integers(0, 50, n)),
                ("value", DataType.FLOAT64, rng.random(n)),
                ("label", DataType.STRING, np.array(["red", "green", "blue", "teal"], dtype="U5")[rng.integers(0, 4, n)]),
                ("when", DataType.DATE, rng.integers(8000, 11000, n).astype(np.int32)),
            ],
        )
    )
    catalog.register(
        Table.from_pairs(
            "dims",
            [
                ("key", DataType.INT64, np.arange(50, dtype=np.int64)),
                ("name", DataType.STRING, np.array([f"dim{i:02d}" for i in range(50)], dtype="U6")),
                ("weight", DataType.FLOAT64, np.linspace(0.0, 1.0, 50)),
            ],
        )
    )
    return catalog


def assert_chunks_equal(left, right, float_rtol: float = 1e-9) -> None:
    """Column-wise equality of two chunks (floats compared with tolerance)."""
    assert left.schema.names == right.schema.names, (
        f"schema mismatch: {left.schema.names} vs {right.schema.names}"
    )
    assert left.num_rows == right.num_rows
    for name in left.schema.names:
        a, b = left.column(name), right.column(name)
        if a.dtype.kind == "f":
            np.testing.assert_allclose(a, b, rtol=float_rtol, equal_nan=True)
        else:
            np.testing.assert_array_equal(a, b)


def assert_bit_identical(left, right) -> None:
    """Same schema and byte-for-byte equal columns."""
    assert left.schema.names == right.schema.names
    for a, b in zip(left.arrays(), right.arrays()):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
