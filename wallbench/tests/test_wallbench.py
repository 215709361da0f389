"""Tests for the benchmark's own code: spans, percentiles, seeded inputs.

Run with ``python3 -m pytest -q wallbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
        recorder = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 6, 7, 9, 10]))
        root = recorder.begin("root")
        a = recorder.begin("a")
        b = recorder.begin("b")
        recorder.end(b)
        recorder.end(a)
        c = recorder.begin("c")
        recorder.end(c)
        recorder.end(root)
        assert spans.self_times(recorder) == [10 - 5 - 2, 5 - 1, 1, 2]
        assert recorder.parents == [-1, root, a, root]

    def test_self_times_sum_to_the_root_duration(self):
        recorder = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 8, 9]))
        with recorder.span("root"):
            for _ in range(2):
                with recorder.span("layer"):
                    with recorder.span("leaf"):
                        pass
        table = spans.layer_table(recorder)
        assert sum(row["self_s"] for row in table.values()) == pytest.approx(9.0)
        assert table["layer"] == {"calls": 2, "total_s": 6.0, "self_s": 4.0}
        assert table["root"]["self_s"] == 3.0
        assert table["leaf"]["total_s"] == table["leaf"]["self_s"] == 2.0

    def test_layer_table_filters_by_op(self):
        recorder = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 4]))
        recorder.op_id = 0
        with recorder.span("x"):
            pass
        recorder.op_id = 1
        with recorder.span("x"):
            pass
        assert spans.layer_table(recorder, {1})["x"]["total_s"] == 2

    def test_out_of_order_close_is_rejected(self):
        recorder = spans.SpanRecorder()
        outer = recorder.begin("outer")
        recorder.begin("inner")
        with pytest.raises(RuntimeError):
            recorder.end(outer)

    def test_install_wraps_and_uninstall_restores(self):
        class Target:
            kind = "k"

            def work(self, value):
                return value * 2

        original = Target.__dict__["work"]
        seen = []
        recorder = spans.SpanRecorder()
        patch = spans.Patch(
            Target, "work", lambda obj: "op." + obj.kind,
            on_result=lambda args, result: seen.append(result),
        )
        spans.install(recorder, [patch])
        assert Target().work(3) == 6
        assert recorder.names == ["op.k"] and seen == [6]
        spans.uninstall([patch])
        assert Target.__dict__["work"] is original

    def test_span_closes_when_the_call_raises(self):
        def boom():
            raise ValueError("x")

        holder = types.SimpleNamespace(boom=boom)
        recorder = spans.SpanRecorder()
        patch = spans.Patch(holder, "boom", "boom")
        spans.install(recorder, [patch])
        with pytest.raises(ValueError):
            holder.boom()
        assert recorder.ends[0] >= recorder.starts[0]
        assert not recorder._stack

    def test_chrome_trace_is_valid_json(self, tmp_path):
        recorder = spans.SpanRecorder(clock=FakeClock([0.0, 0.5, 1.0, 2.0]))
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        path = tmp_path / "t.json"
        assert spans.chrome_trace(recorder, path) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert [e["name"] for e in events] == ["a", "b"]
        assert events[1]["args"]["parent"] == 0
        assert events[0]["dur"] == pytest.approx(2e6)


class TestPercentiles:
    def test_p95_needs_200_samples_for_ten_beyond(self):
        assert measure.samples_beyond(200, 0.95) == 10
        assert measure.samples_beyond(199, 0.95) == 9
        assert measure.min_samples(0.95) == 200
        assert measure.min_samples(0.5) == 20
        assert run.MIN_OPS == 200

    def test_nearest_rank(self):
        values = list(range(1, 201))
        assert measure.percentile(values, 0.95) == 190
        assert measure.percentile(values, 0.5) == 100
        assert measure.percentile([3.0], 0.95) == 3.0
        assert measure.percentile([5, 1, 3], 0.5) == 3

    def test_rejects_empty_and_bad_quantiles(self):
        with pytest.raises(ValueError):
            measure.nearest_rank(0, 0.5)
        with pytest.raises(ValueError):
            measure.nearest_rank(10, 0.0)

    def test_host_probe_factor(self):
        probe = measure.HostProbe()
        for _ in range(3):
            assert probe.measure() > 0
        assert probe.factor() == measure.HostProbe.REFERENCE_S / sorted(probe.times)[1]



class TestSeededInputs:
    NORMAL = {q: 1.0 + i / 10 for i, q in enumerate(workloads.QUERY_NAMES)}

    def test_query_order_is_a_pure_function_of_seed_and_pass(self):
        first = workloads.query_order(workloads.pass_rng(7, 3))
        assert first == workloads.query_order(workloads.pass_rng(7, 3))
        assert sorted(first) == sorted(workloads.QUERY_NAMES)
        assert first != workloads.query_order(workloads.pass_rng(8, 3))
        assert first != workloads.query_order(workloads.pass_rng(7, 4))

    def test_reclaim_inputs_are_byte_identical_for_one_seed(self):
        def dump(seed):
            return json.dumps(workloads.reclaim_inputs(seed, 0, self.NORMAL)).encode()

        assert dump(5) == dump(5)
        assert dump(5) != dump(6)

    def test_reclaim_cycle_is_stratified(self):
        cycle = workloads.RECLAIM_CYCLE
        low = workloads.LO_RANGE[0]
        width = (workloads.LO_RANGE[1] - low) / workloads.LO_STRATA
        cases = {q: set() for q in workloads.QUERY_NAMES}
        positions = {q: set() for q in workloads.QUERY_NAMES}
        kills = {q: 0 for q in workloads.QUERY_NAMES}
        for index in range(cycle, 2 * cycle):
            for query, lo, kill, codec in workloads.reclaim_inputs(9, index, self.NORMAL):
                cases[query].add((codec, int((lo - low) // width)))
                if kill is not None:
                    kills[query] += 1
                    share = (kill / self.NORMAL[query] - lo) / workloads.WINDOW_WIDTH
                    positions[query].add(int(share * cycle))
        assert all(len(seen) == cycle for seen in cases.values())
        assert set(kills.values()) == {round(workloads.TERMINATION_PROBABILITY * cycle)}
        assert all(len(seen) == kills[q] for q, seen in positions.items())

    def test_reclaim_draws_stay_in_their_ranges(self):
        items = [i for p in range(4) for i in workloads.reclaim_inputs(1, p, self.NORMAL)]
        low, high = workloads.LO_RANGE
        for query, lo, kill, codec in items:
            assert low <= lo <= high
            assert codec in workloads.CODECS
            if kill is not None:
                normal = self.NORMAL[query]
                assert lo * normal <= kill <= (lo + workloads.WINDOW_WIDTH) * normal
        assert {codec for *_, codec in items} == set(workloads.CODECS)

    def test_fleet_arrivals_are_byte_identical_for_one_seed(self):
        from repro.fleet import generate_workload, make_tenants
        from repro.fleet.workload import workload_to_jsonl
        from repro.seeding import derive_seed

        def dump(seed, window):
            tenants = make_tenants(workloads.FLEET_TENANTS, derive_seed(seed, "tenants"))
            arrivals = generate_workload(
                tenants, workloads.FLEET_WINDOW_S, derive_seed(seed, "fleet-arrivals", window)
            )
            return workload_to_jsonl(arrivals).encode()

        assert dump(3, 0) == dump(3, 0)
        assert dump(3, 0) != dump(4, 0)
        assert dump(3, 0) != dump(3, 1)


class FakeWorkload:
    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = 0

    def make_pass(self, index):
        return list(range(index * 10, index * 10 + 10))

    def run_op(self, item):
        self.calls += 1
        outcome = self.outcomes(item)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestLoop:
    def test_failures_are_counted_never_retried(self, capsys):
        workload = FakeWorkload(lambda i: RuntimeError("x") if i == 1 else i != 2)
        loop = run.Loop(workload)
        for item in range(4):
            loop.op(item)
        assert (loop.attempted, loop.failed, workload.calls) == (4, 2, 4)

    def test_loop_runs_until_it_has_enough_samples_and_a_pass_ends(self):
        probe = measure.HostProbe()
        loop = run.Loop(FakeWorkload(lambda i: True))
        wall = run.run_untraced(loop, 1e-6, probe)
        assert len(loop.latencies) == run.MIN_OPS == loop.attempted
        assert probe.times and wall > 0
        loop = run.Loop(FakeWorkload(lambda i: True))
        run.run_untraced(loop, 0.3, measure.HostProbe())
        assert len(loop.latencies) % 10 == 0 and len(loop.latencies) >= run.MIN_OPS


class TestBenchmarkFile:
    def test_benchmark_json_matches_the_metric_lists(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
            run.END_TO_END
        )
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
        assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
