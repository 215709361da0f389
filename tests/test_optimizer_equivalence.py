"""Optimizer equivalence: rewritten plans must change nothing but cost.

Three layers of the guarantee:

* every TPC-H query returns bit-identical results with the optimizer on
  vs. off (the redo strategy is covered by this too — its "resume" is a
  fresh run of the same plan);
* mid-query suspend→resume on an optimized plan, under both persisting
  strategies, still matches the unoptimized uninterrupted result;
* pruned plans persist *smaller* pipeline-level snapshots on join-heavy
  queries (the paper's Fig. 8 intermediate-size lever).
"""

import numpy as np
import pytest

from repro.engine import chunk as chunkmod
from repro.engine.clock import SimulatedClock
from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.optimizer import OptimizerFlags, optimize_plan
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy, RedoStrategy
from repro.tpch import QUERY_NAMES, build_query

from tests.conftest import assert_bit_identical


def run_plan(catalog, plan, name, optimized):
    return QueryExecutor(
        catalog,
        plan,
        query_name=name,
        lazy_filters=optimized,
        select_operators=optimized,
    ).run()


@pytest.mark.parametrize("query", QUERY_NAMES)
def test_results_identical_on_vs_off(tpch_tiny, query):
    baseline = run_plan(tpch_tiny, build_query(query), query, optimized=False)
    opt = optimize_plan(tpch_tiny, build_query(query))
    result = run_plan(tpch_tiny, opt.plan, query, optimized=True)
    assert_bit_identical(baseline.chunk, result.chunk)


@pytest.mark.parametrize("query", QUERY_NAMES)
@pytest.mark.parametrize(
    "flags",
    [
        OptimizerFlags(pushdown=True, pruning=False),
        OptimizerFlags(pushdown=False, pruning=True),
    ],
    ids=["pushdown-only", "pruning-only"],
)
def test_each_rule_alone_is_sound(tpch_tiny, query, flags):
    baseline = run_plan(tpch_tiny, build_query(query), query, optimized=False)
    opt = optimize_plan(tpch_tiny, build_query(query), flags=flags)
    result = run_plan(tpch_tiny, opt.plan, query, optimized=flags.selection_vectors)
    assert_bit_identical(baseline.chunk, result.chunk)


@pytest.mark.parametrize("query", QUERY_NAMES)
@pytest.mark.parametrize(
    "strategy_cls", [PipelineLevelStrategy, ProcessLevelStrategy]
)
def test_optimized_suspend_resume_equivalence(tpch_tiny, tmp_path, query, strategy_cls):
    """Optimized plans survive mid-query suspension exactly like seed plans."""
    profile = HardwareProfile()
    baseline = run_plan(tpch_tiny, build_query(query), query, optimized=False)
    plan = optimize_plan(tpch_tiny, build_query(query)).plan
    normal = run_plan(tpch_tiny, plan, query, optimized=True)
    assert_bit_identical(baseline.chunk, normal.chunk)

    strategy = strategy_cls(profile)
    controller = strategy.make_request_controller(normal.stats.duration * 0.5)
    executor = QueryExecutor(
        tpch_tiny,
        plan,
        profile=profile,
        controller=controller,
        query_name=query,
        lazy_filters=True,
        select_operators=True,
    )
    try:
        executor.run()
        pytest.skip("query finished before the suspension point")
    except QuerySuspended as suspended:
        capture = suspended.capture
    persisted = strategy.persist(capture, tmp_path)
    resumed = strategy.prepare_resume(
        persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
    )
    final = QueryExecutor(
        tpch_tiny,
        plan,
        profile=profile,
        clock=SimulatedClock(),
        query_name=query,
        resume=resumed.resume_state,
        lazy_filters=True,
        select_operators=True,
    ).run()
    assert_bit_identical(baseline.chunk, final.chunk)


@pytest.mark.parametrize("query", QUERY_NAMES)
def test_optimized_redo_resume_equivalence(tpch_tiny, query):
    """Redo never persists: resumption is re-execution of the same plan."""
    baseline = run_plan(tpch_tiny, build_query(query), query, optimized=False)
    plan = optimize_plan(tpch_tiny, build_query(query)).plan
    strategy = RedoStrategy(HardwareProfile())
    executor = QueryExecutor(
        tpch_tiny,
        plan,
        query_name=query,
        lazy_filters=True,
        select_operators=True,
    )
    resumed = strategy.prepare_resume(None, executor.pipelines, executor.plan_fingerprint)
    final = QueryExecutor(
        tpch_tiny,
        plan,
        query_name=query,
        resume=resumed.resume_state,
        lazy_filters=True,
        select_operators=True,
    ).run()
    assert_bit_identical(baseline.chunk, final.chunk)


def _pipeline_snapshot_bytes(catalog, plan, query, optimized, tmp_path):
    """Suspend pipeline-level at half the normal time; persisted bytes."""
    profile = HardwareProfile()
    normal = run_plan(catalog, plan, query, optimized)
    strategy = PipelineLevelStrategy(profile)
    controller = strategy.make_request_controller(normal.stats.duration * 0.5)
    executor = QueryExecutor(
        catalog,
        plan,
        profile=profile,
        controller=controller,
        query_name=query,
        lazy_filters=optimized,
        select_operators=optimized,
    )
    try:
        executor.run()
        return None
    except QuerySuspended as suspended:
        outcome = strategy.persist(suspended.capture, tmp_path)
    return outcome.intermediate_bytes


def test_pruned_plans_shrink_pipeline_snapshots(tpch_tiny, tmp_path):
    """Fig. 8: narrower join-build states mean smaller persisted snapshots."""
    shrunk = []
    for query in ("Q3", "Q9", "Q18"):
        seed_dir = tmp_path / f"{query}-seed"
        opt_dir = tmp_path / f"{query}-opt"
        seed_dir.mkdir()
        opt_dir.mkdir()
        seed = _pipeline_snapshot_bytes(
            tpch_tiny, build_query(query), query, False, seed_dir
        )
        plan = optimize_plan(tpch_tiny, build_query(query)).plan
        pruned = _pipeline_snapshot_bytes(tpch_tiny, plan, query, True, opt_dir)
        if seed is None or pruned is None:
            continue
        shrunk.append((query, seed, pruned))
    assert shrunk, "no join-heavy query suspended at this scale"
    assert any(pruned < seed for _, seed, pruned in shrunk), shrunk


def test_bytes_materialized_reduction_on_join_heavy_queries(tpch_tiny):
    """The optimizer's headline metric moves on representative queries."""
    improved = 0
    for query in ("Q3", "Q13", "Q21"):
        chunkmod.reset_materialization()
        run_plan(tpch_tiny, build_query(query), query, optimized=False)
        baseline = chunkmod.materialized_bytes()
        plan = optimize_plan(tpch_tiny, build_query(query)).plan
        chunkmod.reset_materialization()
        run_plan(tpch_tiny, plan, query, optimized=True)
        reduced = chunkmod.materialized_bytes()
        if baseline and reduced <= baseline * 0.7:
            improved += 1
    assert improved == 3


def test_no_optimizer_flags_preserve_seed_plan(tpch_tiny):
    opt = optimize_plan(tpch_tiny, build_query("Q3"), flags=OptimizerFlags.none())
    assert opt.applications == []
    from repro.engine.plan import plan_fingerprint

    assert plan_fingerprint(opt.plan) == plan_fingerprint(build_query("Q3"))
