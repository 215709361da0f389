"""Scalar vs NumPy kernel equivalence — bit-identical by construction.

Property-style randomized checks: every :class:`KernelSet` primitive is
run over seeded random inputs (duplicate-heavy keys, NaNs, strings,
empty inputs, selection vectors, all-pass masks) and the scalar
reference must agree with the vectorized path on dtype *and* bytes,
because the executor promises byte-identical query results under either
kernel set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import kernels, keys
from repro.engine.chunk import DataChunk
from repro.engine.errors import EngineError, QuerySuspended
from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    CaseWhen,
    Comparison,
    ExtractYear,
    Like,
    Not,
    Substring,
    col,
    lit,
)
from repro.engine.executor import QueryExecutor
from repro.engine.kernels import (
    KERNEL_NAMES,
    NumpyKernels,
    ProbeIndex,
    ScalarKernels,
    get_kernels,
    resolve_kernels,
    set_kernels,
)
from repro.engine.operators.hash_join import HashJoinBuildSink
from repro.engine.profile import HardwareProfile
from repro.engine.types import DataType, Schema
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy
from repro.tpch import QUERY_NAMES, build_query
from repro.tpch.dbgen import generate_catalog

from tests.conftest import assert_bit_identical as assert_chunk_bit_identical

NUMPY = NumpyKernels()
SCALAR = ScalarKernels()

SEEDS = [0, 1, 2, 7, 1234]


def assert_bit_identical(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype, f"dtype mismatch: {a.dtype} vs {b.dtype}"
    assert a.shape == b.shape, f"shape mismatch: {a.shape} vs {b.shape}"
    assert a.tobytes() == b.tobytes()


def random_key_columns(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """1–3 key columns with heavy duplication across mixed dtypes."""
    pool = [
        rng.integers(-5, 5, n),
        rng.integers(0, 3, n).astype(np.int32),
        np.array(["aa", "b", "ccc", "b", "aa"], dtype="U3")[rng.integers(0, 5, n)],
        np.round(rng.random(n) * 4) / 2.0,
        rng.integers(0, 2, n).astype(bool),
    ]
    count = int(rng.integers(1, 4))
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in picks]


class TestGrouping:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_group_rows_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        arrays = random_key_columns(rng, int(rng.integers(1, 200)))
        n_ids, n_first, n_groups = NUMPY.group_rows(arrays)
        s_ids, s_first, s_groups = SCALAR.group_rows(arrays)
        assert n_groups == s_groups
        assert_bit_identical(n_ids.astype(np.int64), s_ids)
        assert_bit_identical(n_first.astype(np.int64), s_first)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grouped_reductions_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        num_groups = int(rng.integers(1, 12))
        group_ids = rng.integers(0, num_groups, n)
        values = rng.random(n) * 100 - 50
        assert_bit_identical(
            NUMPY.grouped_sum(group_ids, values, num_groups),
            SCALAR.grouped_sum(group_ids, values, num_groups),
        )
        assert_bit_identical(
            NUMPY.grouped_count(group_ids, num_groups),
            SCALAR.grouped_count(group_ids, num_groups),
        )
        for take_min in (True, False):
            assert_bit_identical(
                NUMPY.grouped_extreme(group_ids, values, num_groups, take_min),
                SCALAR.grouped_extreme(group_ids, values, num_groups, take_min),
            )

    def test_grouped_extreme_strings_and_ints(self):
        group_ids = np.array([0, 1, 0, 2, 1, 0], dtype=np.int64)
        strings = np.array(["pear", "fig", "apple", "kiwi", "date", "plum"], dtype="U4")
        ints = np.array([5, -1, 3, 9, 0, -7], dtype=np.int64)
        for take_min in (True, False):
            assert_bit_identical(
                NUMPY.grouped_extreme(group_ids, strings, 3, take_min),
                SCALAR.grouped_extreme(group_ids, strings, 3, take_min),
            )
            assert_bit_identical(
                NUMPY.grouped_extreme(group_ids, ints, 3, take_min),
                SCALAR.grouped_extreme(group_ids, ints, 3, take_min),
            )

    def test_empty_and_zero_group_inputs(self):
        empty_ids = np.empty(0, dtype=np.int64)
        empty_vals = np.empty(0, dtype=np.float64)
        assert_bit_identical(
            NUMPY.grouped_sum(empty_ids, empty_vals, 0),
            SCALAR.grouped_sum(empty_ids, empty_vals, 0),
        )
        assert_bit_identical(
            NUMPY.grouped_count(empty_ids, 0), SCALAR.grouped_count(empty_ids, 0)
        )
        for take_min in (True, False):
            assert_bit_identical(
                NUMPY.grouped_extreme(empty_ids, empty_vals, 0, take_min),
                SCALAR.grouped_extreme(empty_ids, empty_vals, 0, take_min),
            )


class TestJoinPrimitives:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_build_probe_expand_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        build = rng.integers(0, 20, int(rng.integers(0, 150))).astype(np.int64)
        probe = rng.integers(0, 25, int(rng.integers(0, 150))).astype(np.int64)

        n_sorted, n_order = NUMPY.build_order(build)
        s_sorted, s_order = SCALAR.build_order(build)
        assert_bit_identical(n_sorted, s_sorted)
        assert_bit_identical(n_order, s_order)

        n_left, n_right = NUMPY.probe_ranges(n_sorted, probe)
        s_left, s_right = SCALAR.probe_ranges(s_sorted, probe)
        assert_bit_identical(n_left, s_left)
        assert_bit_identical(n_right, s_right)

        counts = (n_right - n_left).astype(np.int64)
        n_probe, n_build = NUMPY.expand_matches(n_left, counts, n_order)
        s_probe, s_build = SCALAR.expand_matches(s_left, counts, s_order)
        assert_bit_identical(n_probe, s_probe)
        assert_bit_identical(n_build, s_build)

    def test_join_codes_shared(self):
        keys = [np.array([3, 1, 3], dtype=np.int64), np.array([0, 2, 0], dtype=np.int64)]
        assert_bit_identical(NUMPY.join_codes(keys), SCALAR.join_codes(keys))


def float_bits(*patterns: int) -> np.ndarray:
    """float64 values with exactly the given IEEE bit patterns."""
    return np.array(patterns, dtype=np.uint64).view(np.float64)


INT64 = np.iinfo(np.int64)

#: Key columns whose bytes stress the exact-code grouping path.
ADVERSARIAL_COLUMNS = {
    "signed_zeros_nans_infs": np.concatenate(
        [
            float_bits(
                0x0000000000000000,  # 0.0
                0x8000000000000000,  # -0.0
                0x7FF8000000000000,  # quiet NaN
                0x7FF8000000000001,  # NaN, other payload
                0xFFF8000000000000,  # negative NaN
            ),
            [np.inf, -np.inf, 1.0, -1.0, 5e-324],
        ]
    ),
    "int64_extremes": np.array(
        [INT64.min, INT64.max, -1, 0, 1, INT64.min + 1, INT64.max - 1, -(2**40)],
        dtype=np.int64,
    ),
    "small_negative_ints": np.arange(-9, 3, dtype=np.int32),
    "wide_int_domain": np.array([0, 10**12, -(10**12), 7, 2**33], dtype=np.int64),
    "char_codepoints": np.array(["a", "é", "Ā", "中", "😀", "Z", "ÿ"], dtype="U1"),
    "two_char": np.array(["ab", "a", "中x", "xā", "", "ba"], dtype="U2"),
    "multi_char": np.array(["abc", "ab", "Āb", "中文字", "a", "zzz"], dtype="U3"),
    "objects": np.array(["x", "中", "xyz", "y"], dtype=object),
    "bools": np.array([True, False]),
}


def adversarial_keys(rng: np.random.Generator, names: tuple[str, ...], n: int) -> list:
    return [
        ADVERSARIAL_COLUMNS[name][rng.integers(0, len(ADVERSARIAL_COLUMNS[name]), n)]
        for name in names
    ]


def assert_groups_identical(arrays: list[np.ndarray]) -> None:
    n_ids, n_first, n_groups = NUMPY.group_rows(arrays)
    s_ids, s_first, s_groups = SCALAR.group_rows(arrays)
    assert n_groups == s_groups
    assert_bit_identical(n_ids, s_ids)
    assert_bit_identical(n_first, s_first)


class TestAdversarialGrouping:
    """Exact-code grouping agrees with the byte-keyed scalar reference."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_COLUMNS))
    @pytest.mark.parametrize("n", [1, 7, 300, 3000])
    def test_single_column(self, name, n):
        rng = np.random.default_rng(n)
        assert_groups_identical(adversarial_keys(rng, (name,), n))

    @pytest.mark.parametrize(
        "names",
        [
            ("char_codepoints", "char_codepoints"),
            ("signed_zeros_nans_infs", "int64_extremes"),
            ("bools", "two_char", "small_negative_ints"),
            ("wide_int_domain", "signed_zeros_nans_infs", "char_codepoints"),
            ("int64_extremes",) * 4,
        ],
    )
    def test_multi_column(self, names):
        rng = np.random.default_rng(len(names))
        assert_groups_identical(adversarial_keys(rng, names, 2000))

    def test_distinct_nan_payloads_and_signed_zeros_stay_apart(self):
        values = ADVERSARIAL_COLUMNS["signed_zeros_nans_infs"][:5]
        _, _, num_groups = NUMPY.group_rows([np.tile(values, 100)])
        assert num_groups == 5

    def test_radix_overflow_reranks(self):
        """A mixed-radix product past int64 re-ranks before combining."""
        rng = np.random.default_rng(5)
        columns = [rng.integers(-(2**40), 2**40, 2000) for _ in range(6)]
        columns = [np.concatenate([c, c[:500]]) for c in columns]
        assert_groups_identical(columns)

    @pytest.mark.parametrize(
        "names, codable",
        [
            (("multi_char",), False),
            (("int64_extremes", "multi_char", "char_codepoints"), False),
            (("objects", "bools"), False),
            (("two_char", "int64_extremes"), True),
        ],
    )
    def test_wide_keys_take_the_packed_fallback(self, names, codable):
        rng = np.random.default_rng(11)
        arrays = adversarial_keys(rng, names, 1000)
        assert keys._codable(keys.normalize_key_columns(arrays)) is codable
        assert_groups_identical(arrays)


def probe_and_compare(codes_sorted, order, probe, index=None):
    n_left, n_right = NUMPY.probe_ranges(codes_sorted, probe, index)
    s_left, s_right = SCALAR.probe_ranges(codes_sorted, probe)
    assert_bit_identical(n_left, s_left)
    assert_bit_identical(n_right, s_right)
    counts = (n_right - n_left).astype(np.int64)
    n_probe, n_build = NUMPY.expand_matches(n_left, counts, order)
    s_probe, s_build = SCALAR.expand_matches(s_left, counts, order)
    assert_bit_identical(n_probe, s_probe)
    assert_bit_identical(n_build, s_build)


BUILDS = {
    "dense_unique": np.random.default_rng(1).permutation(np.arange(100, 400)),
    "dense_duplicates": np.random.default_rng(2).integers(-50, 50, 300),
    "sparse_unique": np.random.default_rng(3).choice(10**9, 200, replace=False),
    "sparse_duplicates": np.random.default_rng(4).integers(0, 10**9, 50).repeat(3),
    "single_code": np.full(20, 7),
    "int64_edges": np.array([INT64.min, INT64.max, 0, 0]),
    "narrow_at_int64_min": np.array([INT64.min, INT64.min + 1, INT64.min + 1]),
    "narrow_at_int64_max": np.array([INT64.max - 1, INT64.max]),
    "empty": np.empty(0),
}


class TestAdversarialProbe:
    """The direct-address probe answers exactly what searchsorted does."""

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_probe_below_inside_and_above_the_build(self, name):
        build = BUILDS[name].astype(np.int64)
        codes_sorted, order = NUMPY.build_order(build)
        low = int(codes_sorted[0]) if len(build) else 0
        high = int(codes_sorted[-1]) if len(build) else 0
        edges = [low - 2, low - 1, low, low + 1, high - 1, high, high + 1, high + 2]
        probe = np.array(
            [c for c in edges if INT64.min <= c <= INT64.max] + [INT64.min, INT64.max, 0],
            dtype=np.int64,
        )
        rng = np.random.default_rng(len(build))
        probe = np.concatenate([probe, rng.choice(build, 64) if len(build) else probe])
        index = ProbeIndex()
        # Enough rows to cross every dense build's table threshold.
        for _ in range(4):
            probe_and_compare(codes_sorted, order, probe, index)
        probe_and_compare(codes_sorted, order, np.repeat(probe, 10), index)
        dense = name.startswith(("dense", "single"))
        assert (index.table is not None) is dense

    def test_one_build_across_the_search_to_table_switch(self):
        rng = np.random.default_rng(9)
        build = rng.integers(0, 5000, 3000).astype(np.int64)
        codes_sorted, order = NUMPY.build_order(build)
        index = ProbeIndex()
        probed = 0
        while index.table is None:
            probe = rng.integers(-20, 5020, 700).astype(np.int64)
            probe_and_compare(codes_sorted, order, probe, index)
            probed += len(probe)
        assert probed >= index.span > probed - 700
        for _ in range(3):
            probe = rng.integers(-20, 5020, 700).astype(np.int64)
            probe_and_compare(codes_sorted, order, probe, index)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unique_match_expansion(self, seed):
        """Every count <= 1 takes the flatnonzero expansion."""
        rng = np.random.default_rng(seed)
        build = rng.permutation(200).astype(np.int64)
        codes_sorted, order = NUMPY.build_order(build)
        probe = rng.integers(-10, 260, 150).astype(np.int64)
        left, right = NUMPY.probe_ranges(codes_sorted, probe)
        assert kernels._at_most_one_match(right - left)
        probe_and_compare(codes_sorted, order, probe)


@pytest.fixture()
def generic_paths(monkeypatch):
    """Turn every kernel fast path off by denying its eligibility."""

    def force():
        monkeypatch.setattr(keys, "_codable", lambda columns: False)
        monkeypatch.setattr(kernels, "_dense_span", lambda codes_sorted: 0)
        monkeypatch.setattr(kernels, "_at_most_one_match", lambda counts: False)

    return force


@pytest.fixture(scope="module")
def tpch_sf005():
    return generate_catalog(0.05)


def run_query(catalog, query, **kwargs):
    executor = QueryExecutor(
        catalog,
        build_query(query, catalog, optimize=True),
        query_name=query,
        select_operators=True,
        **kwargs,
    )
    return executor, executor.run()


class TestFastPathsInvisible:
    """The fast paths change no result, clock reading, memory figure or snapshot."""

    def test_tpch_sf005_identical_with_generic_paths(
        self, tpch_sf005, generic_paths, monkeypatch
    ):
        tables_built = []
        lookup = ProbeIndex.lookup

        def spy(index, codes_sorted, rows):
            table = lookup(index, codes_sorted, rows)
            tables_built.append(table is not None)
            return table

        monkeypatch.setattr(ProbeIndex, "lookup", spy)
        fast = {}
        for query in QUERY_NAMES:
            executor, result = run_query(tpch_sf005, query)
            fast[query] = (result, executor.peak_memory_bytes)
        assert any(tables_built)
        generic_paths()
        tables_built.clear()
        for query in QUERY_NAMES:
            executor, result = run_query(tpch_sf005, query)
            fast_result, fast_peak = fast[query]
            assert_chunk_bit_identical(fast_result.chunk, result.chunk)
            assert fast_result.stats.duration == result.stats.duration, query
            assert fast_peak == executor.peak_memory_bytes, query
        assert not any(tables_built)

    @pytest.mark.parametrize(
        "strategy_cls, fraction",
        [(PipelineLevelStrategy, 0.6), (ProcessLevelStrategy, 0.55)],
    )
    def test_q9_suspension_after_probe_tables_exist(
        self, tpch_tiny, tmp_path, generic_paths, monkeypatch, strategy_cls, fraction
    ):
        finalized = []
        finalize = HashJoinBuildSink.finalize

        def recording_finalize(sink, state):
            finalize(sink, state)
            finalized.append((state, state.serialize(), state.nbytes))

        monkeypatch.setattr(HashJoinBuildSink, "finalize", recording_finalize)
        profile = HardwareProfile()
        normal = QueryExecutor(tpch_tiny, build_query("Q9"), query_name="Q9").run()

        def suspend_and_persist(directory):
            strategy = strategy_cls(profile)
            executor = QueryExecutor(
                tpch_tiny,
                build_query("Q9"),
                profile=profile,
                controller=strategy.make_request_controller(
                    normal.stats.duration * fraction
                ),
                query_name="Q9",
            )
            with pytest.raises(QuerySuspended) as suspended:
                executor.run()
            directory.mkdir()
            persisted = strategy.persist(suspended.value.capture, directory)
            return strategy, executor, persisted

        strategy, executor, persisted = suspend_and_persist(tmp_path / "fast")
        with_tables = [s for s, _, _ in finalized if s.probe_index.table is not None]
        assert with_tables
        for state, blob, nbytes in finalized:
            assert state.serialize() == blob
            assert state.nbytes == nbytes

        resumed = strategy.prepare_resume(
            persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
        )
        final = QueryExecutor(
            tpch_tiny,
            build_query("Q9"),
            profile=profile,
            query_name="Q9",
            resume=resumed.resume_state,
        ).run()
        assert_chunk_bit_identical(normal.chunk, final.chunk)

        generic_paths()
        _, _, generic = suspend_and_persist(tmp_path / "generic")
        assert generic.intermediate_bytes == persisted.intermediate_bytes
        with open(persisted.snapshot_path, "rb") as fast_file, open(
            generic.snapshot_path, "rb"
        ) as generic_file:
            assert fast_file.read() == generic_file.read()


EXPR_SCHEMA = Schema.of(
    ("i", DataType.INT64),
    ("f", DataType.FLOAT64),
    ("s", DataType.STRING),
    ("d", DataType.DATE),
)

EXPRESSIONS = [
    Arithmetic("*", col("f"), Arithmetic("-", lit(1.0), col("f"))),
    Arithmetic("/", col("i"), lit(3)),
    Comparison(">", col("f"), lit(0.5)),
    BooleanOp("and", [Comparison(">=", col("i"), lit(2)), Not(Like(col("s"), "%a%"))]),
    CaseWhen(
        [(Comparison("<", col("i"), lit(5)), lit("low"))], default=lit("high")
    ),
    Substring(col("s"), 1, 2),
    ExtractYear(col("d")),
]


def random_chunk(rng: np.random.Generator, n: int) -> DataChunk:
    return DataChunk(
        EXPR_SCHEMA,
        [
            rng.integers(0, 10, n),
            rng.random(n),
            np.array(["alpha", "beta", "gamma", "a"], dtype="U5")[rng.integers(0, 4, n)],
            rng.integers(8000, 11000, n).astype(np.int32),
        ],
    )


class TestExpressionEvaluation:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("expression", EXPRESSIONS, ids=repr)
    def test_evaluate_equivalence(self, seed, expression):
        rng = np.random.default_rng(seed)
        chunk = random_chunk(rng, int(rng.integers(1, 60)))
        assert_bit_identical(
            NUMPY.evaluate(expression, chunk), SCALAR.evaluate(expression, chunk)
        )

    @pytest.mark.parametrize("expression", EXPRESSIONS, ids=repr)
    def test_evaluate_empty_chunk(self, expression):
        chunk = random_chunk(np.random.default_rng(0), 7).slice(0, 0)
        assert_bit_identical(
            NUMPY.evaluate(expression, chunk), SCALAR.evaluate(expression, chunk)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_evaluate_on_lazy_selection(self, seed):
        """Kernels agree on chunks carrying a selection vector."""
        rng = np.random.default_rng(seed)
        chunk = random_chunk(rng, 50)
        mask = rng.random(50) < 0.4
        lazy = chunk.filter(mask, lazy=True)
        assert lazy.is_lazy
        for expression in EXPRESSIONS:
            assert_bit_identical(
                NUMPY.evaluate(expression, lazy), SCALAR.evaluate(expression, lazy)
            )

    def test_evaluate_all_pass_filter_mask(self):
        chunk = random_chunk(np.random.default_rng(3), 40)
        predicate = Comparison(">=", col("i"), lit(0))
        n_mask = NUMPY.evaluate(predicate, chunk)
        s_mask = SCALAR.evaluate(predicate, chunk)
        assert n_mask.all() and s_mask.all()
        assert_bit_identical(n_mask, s_mask)


class TestActiveKernelState:
    def test_resolve_and_names(self):
        assert set(KERNEL_NAMES) == {"scalar", "numpy"}
        assert resolve_kernels(None).name == "numpy"
        assert resolve_kernels("scalar").name == "scalar"
        assert resolve_kernels(SCALAR) is SCALAR
        with pytest.raises(EngineError):
            resolve_kernels("simd")

    def test_set_kernels_returns_previous(self):
        before = get_kernels()
        previous = set_kernels("scalar")
        try:
            assert previous is before
            assert get_kernels().name == "scalar"
        finally:
            set_kernels(previous)
        assert get_kernels() is before
