"""The suspendable-execution core and the callers built on it."""

import pytest

from repro.cloud.availability import AvailabilityTrace, AvailabilityWindow, IntermittentRunner
from repro.cloud.environment import PriceTrace
from repro.cloud.pricing import PriceAwareRunner
from repro.cloud.runner import QueryRunner
from repro.cloud.scheduler import QueryRequest, SuspensionScheduler
from repro.engine.execution import SuspendableExecution
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.fleet import FleetCluster, make_policy
from repro.fleet.workload import QueryArrival
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy, SnapshotStore
from repro.suspend.controller import SuspensionRequestController
from repro.tpch import build_query

from tests.conftest import assert_bit_identical

#: Fine morsels give process-level suspension room at the tiny scale.
MORSEL = 1024
STRATEGIES = {"pipeline": PipelineLevelStrategy, "process": ProcessLevelStrategy}


@pytest.fixture(scope="module")
def q9_normal(tpch_tiny):
    return QueryExecutor(
        tpch_tiny, build_query("Q9"), query_name="Q9", morsel_size=MORSEL
    ).run()


def _execution(catalog):
    return SuspendableExecution(catalog, build_query("Q9"), "Q9", morsel_size=MORSEL)


class TestCore:
    @pytest.mark.parametrize("mode", sorted(STRATEGIES))
    def test_suspend_resume_finishes_bit_identical(self, tpch_tiny, q9_normal, tmp_path, mode):
        execution = _execution(tpch_tiny)
        request = SuspensionRequestController(q9_normal.stats.duration * 0.5, mode=mode)
        first = execution.run(request)
        assert first.status == "suspended"
        assert first.end == first.capture.clock_time
        strategy = STRATEGIES[mode](HardwareProfile())
        suspension = execution.suspend(strategy, first.capture, tmp_path)
        assert not suspension.lost and suspension.path.exists()
        execution.resume(strategy, suspension.path)
        final = execution.run(start=suspension.finished_at)
        assert final.status == "finished"
        assert final.end > suspension.finished_at
        assert_bit_identical(q9_normal.chunk, final.result.chunk)

    def test_run_without_resume_starts_from_scratch(self, tpch_tiny, q9_normal):
        execution = _execution(tpch_tiny)
        first = execution.run()
        again = execution.run()
        assert first.end == again.end == q9_normal.stats.duration
        assert_bit_identical(first.result.chunk, again.result.chunk)

    def test_persist_past_deadline_is_lost_and_never_registered(
        self, tpch_tiny, q9_normal, tmp_path
    ):
        execution = _execution(tpch_tiny)
        request = SuspensionRequestController(q9_normal.stats.duration * 0.5, mode="pipeline")
        capture = execution.run(request).capture
        store = SnapshotStore(tmp_path / "store")
        strategy = PipelineLevelStrategy(HardwareProfile())
        lost = execution.suspend(
            strategy, capture, tmp_path, store=store, deadline=capture.clock_time
        )
        assert lost.lost and lost.path is None and lost.record is None
        assert store.records() == []
        kept = execution.suspend(strategy, capture, tmp_path, store=store, deadline=1e9)
        assert not kept.lost
        assert kept.record == store.latest("Q9")
        assert kept.path == store.materialize(kept.record)


# -- one chained-suspend test over every caller that suspends repeatedly ---------


def _run_multi_suspension(catalog, strategy, tmp_path, normal_time):
    runner = QueryRunner(catalog, snapshot_dir=tmp_path, morsel_size=MORSEL)
    runner.run_multi_suspension(
        build_query("Q9"), "Q9", strategy, normal_time, [normal_time * 0.1] * 4
    )


def _run_intermittent(catalog, strategy, tmp_path, normal_time):
    # Window lengths fit Q9's pipelines, so a breaker lands before each
    # outage (pipeline level) while process level suspends mid-pipeline.
    windows, start = [], 0.0
    for fraction in (0.4, 0.3, 0.6, 0.6, 0.6):
        windows.append(AvailabilityWindow(start, start + normal_time * fraction))
        start += normal_time * fraction + 5.0
    profile = HardwareProfile()
    runner = IntermittentRunner(
        catalog, STRATEGIES[strategy](profile), profile, tmp_path, morsel_size=MORSEL
    )
    runner.run(build_query("Q9"), "Q9", AvailabilityTrace(windows))


def _run_price_aware(catalog, strategy, tmp_path, normal_time):
    prices = PriceTrace(
        base_price=1.0,
        spike_multiplier=300.0,
        spike_probability=0.5,
        segment_seconds=0.3,
        seed=21,
    )
    runner = PriceAwareRunner(
        catalog, prices, 10.0, snapshot_dir=tmp_path, morsel_size=MORSEL, strategy=strategy
    )
    runner.run_budgeted(build_query("Q9"), "Q9")


def _interactive_times():
    return [0.5 + 1.5 * k for k in range(6)]


def _run_scheduler(catalog, strategy, tmp_path, normal_time):
    scheduler = SuspensionScheduler(catalog, snapshot_dir=tmp_path, morsel_size=MORSEL)
    scheduler.strategy = STRATEGIES[strategy](scheduler.profile)
    requests = [QueryRequest("Q9", build_query("Q9"), 0.0)] + [
        QueryRequest(f"short{k}", build_query("Q6"), at, interactive=True)
        for k, at in enumerate(_interactive_times())
    ]
    scheduler.run_preemptive(requests)


def _run_fleet(catalog, strategy, tmp_path, normal_time):
    # One always-on worker: interactive arrivals preempt the batch query.
    cluster = FleetCluster(
        catalog,
        make_policy("suspend-aware"),
        workers=1,
        snapshot_dir=tmp_path,
        morsel_size=MORSEL,
        mean_on_seconds=1e6,
    )
    cluster.strategy = STRATEGIES[strategy](cluster.profile)
    arrivals = [QueryArrival("Q9", "t0", "batch", "Q9", 0.0, False, 10.0, 1.0)] + [
        QueryArrival(f"short{k}", "t1", "interactive", "Q6", at, True, 10.0, 1.0)
        for k, at in enumerate(_interactive_times())
    ]
    cluster.run(arrivals, 100.0)


CALLERS = {
    "run_multi_suspension": _run_multi_suspension,
    "intermittent": _run_intermittent,
    "price_aware": _run_price_aware,
    "scheduler": _run_scheduler,
    "fleet_engine": _run_fleet,
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_chained_suspensions_finish_bit_identical(
    tpch_tiny, q9_normal, tmp_path, monkeypatch, caller, strategy
):
    """≥3 suspend → resume generations, then the uninterrupted result."""
    generations = []
    run = SuspendableExecution.run

    def recording_run(self, controller=None, start=0.0):
        generation = run(self, controller, start)
        if self.query_name == "Q9":
            generations.append(generation)
        return generation

    monkeypatch.setattr(SuspendableExecution, "run", recording_run)
    CALLERS[caller](tpch_tiny, strategy, tmp_path, q9_normal.stats.duration)
    statuses = [g.status for g in generations]
    assert statuses.count("suspended") >= 3, statuses
    assert statuses[-1] == "finished"
    assert_bit_identical(q9_normal.chunk, generations[-1].result.chunk)
