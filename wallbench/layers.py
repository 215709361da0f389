"""Layer boundaries for the traced run, and the per-layer metrics.

:func:`boundary_patches` lists every public entry point the traced run
wraps, one span name each.  Functions are patched in every program
module (and the benchmark's ``workloads``) that holds a reference to
them, so ``from x import f`` copies are covered too.  :func:`layer_metrics` turns the recorded spans and the
counters the hooks collect into the ``per_layer`` metrics of
``BENCHMARK.json``.

Operator time is taken by wrapping the operator interface methods
(``execute``, ``get_morsel``, ``prepare``, ``sink_prepared``, ``sink``,
``combine``, ``finalize``, ``result_chunk``) rather than from
:class:`repro.obs.profile.QueryProfiler`: the profiler times only the
morsel compute step and discards kernel calls made at pipeline
breakers, so its totals cannot nest exactly with the other spans.
Kernels are timed by wrapping the methods of the active NumPy kernel
set; :meth:`QueryExecutor.run` installs its own set for every run, so a
separate set handed to ``set_kernels`` would not stay installed.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from collections import defaultdict

from measure import percentile
from spans import Patch, SpanRecorder, layer_table

__all__ = [
    "OPERATOR_KINDS",
    "KERNELS",
    "PER_LAYER",
    "Counters",
    "boundary_patches",
    "layer_metrics",
]

OPERATOR_KINDS = (
    "scan", "state_scan", "exchange", "filter", "project", "select",
    "join_build", "join_probe", "aggregate", "sort", "limit", "result", "union_all",
)
KERNELS = (
    "evaluate", "group_rows", "grouped_sum", "grouped_count", "grouped_extreme",
    "join_codes", "build_order", "probe_ranges", "expand_matches",
)
OPERATOR_METHODS = (
    "execute", "get_morsel", "prepare", "sink_prepared", "sink", "combine",
    "finalize", "result_chunk",
)
STRATEGIES = ("pipeline", "process")
OUTCOMES = ("pipeline", "process", "redo", "none")


def _per_layer_spec() -> list[tuple[str, str]]:
    spec = [
        ("tpch.dbgen_s", "s"),
        ("tpch.build_query_s", "s/op"),
        ("optimizer.optimize_s", "s/op"),
        ("optimizer.rewrites", "count/op"),
        ("pipeline.build_s", "s/op"),
        ("pipeline.count", "count/op"),
        ("executor.run_s", "s/op"),
        ("executor.self_s", "s/op"),
        ("executor.morsels", "count/op"),
        ("executor.rows_scanned", "count/op"),
        ("executor.bytes_materialized", "B/op"),
    ]
    spec += [(f"operators.{kind}.self_s", "s/op") for kind in OPERATOR_KINDS]
    for kernel in KERNELS:
        spec += [(f"kernels.{kernel}.s", "s/op"), (f"kernels.{kernel}.calls", "count/op")]
    spec += [
        ("costmodel.decide_s", "s/op"),
        ("costmodel.decisions", "count/op"),
        ("costmodel.estimate_s", "s/op"),
    ]
    spec += [(f"suspend.persist_s.{s}", "s/op") for s in STRATEGIES]
    spec += [(f"suspend.reload_s.{s}", "s/op") for s in STRATEGIES]
    spec += [
        ("suspend.suspensions", "count/op"),
        ("suspend.redo_reruns", "count/op"),
        ("suspend.suspend_p50_s", "s"),
        ("suspend.suspend_p95_s", "s"),
        ("suspend.resume_p50_s", "s"),
        ("suspend.resume_p95_s", "s"),
        ("suspend.snapshot_bytes", "B"),
        ("store.register_s", "s/op"),
        ("store.fsync_s", "s/op"),
        ("store.materialize_s", "s/op"),
        ("store.delta_reuse_ratio", "ratio"),
        ("store.file_bytes", "B"),
        ("codec.encode_s", "s/op"),
        ("codec.decode_s", "s/op"),
        ("codec.ratio", "ratio"),
        ("runner.run_s", "s/op"),
        ("runner.self_s", "s/op"),
    ]
    spec += [(f"runner.outcomes.{o}", "count/op") for o in OUTCOMES]
    spec += [
        ("runner.virtual_overhead", "ratio"),
        ("fleet.workload_s", "s/op"),
        ("fleet.calibrate_s", "s"),
        ("fleet.run_s", "s/op"),
        ("fleet.report_s", "s/op"),
        ("fleet.events", "count/op"),
        ("fleet.slices", "count/op"),
        ("fleet.suspensions", "count/op"),
        ("fleet.lost_segment_ratio", "ratio"),
        ("fleet.shed_ratio", "ratio"),
        ("fleet.events_per_s", "1/s"),
        ("fleet.p95_latency_s", "s"),
        ("fleet.slo_attainment", "ratio"),
        ("dist.partition_s", "s"),
        ("dist.split_s", "s/op"),
        ("dist.coordinator_self_s", "s/op"),
        ("dist.fragment_s", "s/op"),
        ("dist.rows_shuffled", "count/op"),
        ("dist.bytes_shuffled", "B/op"),
        ("dist.exchanges", "count/op"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.attributed_ratio", "ratio"),
        ("trace.ops", "count"),
    ]
    return spec


#: ``(name, unit)`` of every per-layer metric, in output order.
PER_LAYER = _per_layer_spec()


class Counters:
    """Work counts gathered by result hooks while the recorder is active.

    Hooks only count during traced operations (``recorder.op_id >= 0``);
    set-up work goes to the span table under op id :data:`SETUP_OP`.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.values: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    @property
    def active(self) -> bool:
        return self.recorder.op_id >= 0

    def add(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            self.values[name] += amount

    def sample(self, name: str, value: float) -> None:
        if self.active:
            self.samples[name].append(value)


#: Op id the recorder carries while a set-up repetition runs.
SETUP_OP = -2


def _module_patches(function, name: str, on_result=None) -> list[Patch]:
    """Patch *function* in every program or workload module referencing it."""
    attr = function.__name__
    patches = []
    for module_name, module in list(sys.modules.items()):
        if not (module_name.startswith("repro") or module_name == "workloads"):
            continue
        if getattr(module, attr, None) is function:
            patches.append(Patch(module, attr, name, on_result))
    return patches


def _method_patch(cls, attr: str, name, on_result=None) -> list[Patch]:
    return [Patch(cls, attr, name, on_result)] if attr in cls.__dict__ else []


def _subclasses(base) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def boundary_patches(counters: Counters, store_cls) -> list[Patch]:
    """Every layer boundary the traced run wraps (see the module doc)."""
    # Import every module now: one first imported while the patches are
    # installed would keep a ``from x import f`` copy of a wrapper.
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)

    from repro.cloud.runner import QueryRunner
    from repro.costmodel.optimizer_est import OptimizerSizeEstimator
    from repro.costmodel.selector import AdaptiveStrategySelector
    from repro.dist import coordinator, partition
    from repro.engine import pipeline
    from repro.engine.executor import QueryExecutor
    from repro.engine.kernels import NumpyKernels
    from repro.engine.operators import base
    from repro.fleet import macro, report, workload
    from repro.fleet.cluster import FleetCluster
    from repro.optimizer import optimize_plan
    from repro.storage import codec
    from repro.suspend.pipeline_level import PipelineLevelStrategy
    from repro.suspend.process_level import ProcessLevelStrategy
    from repro.suspend.store import SnapshotStore
    from repro.tpch import dbgen, queries

    def count_rewrites(args, result):
        counters.add("optimizer.rewrites", len(result.applications))

    def count_pipelines(args, result):
        counters.add("pipeline.count", len(result))

    def count_execution(args, result):
        for stats in result.stats.pipelines:
            counters.add("executor.morsels", stats.morsels_processed)
            counters.add(
                "executor.rows_scanned",
                sum(op.rows for op in stats.operators if op.kind == "scan"),
            )

    def count_persist(args, outcome):
        counters.add("codec.raw_bytes", outcome.raw_bytes or 0)
        counters.add("codec.encoded_bytes", outcome.intermediate_bytes)

    def count_register(args, record):
        counters.add("store.states", len(record.segments))
        counters.add(
            "store.state_refs",
            sum(1 for seg in record.segments.values() if seg.get("source") != record.file_name),
        )
        counters.sample("suspend.snapshot_bytes", record.file_bytes)

    patches: list[Patch] = []
    patches += _module_patches(dbgen.generate_catalog, "tpch.dbgen")
    patches += _module_patches(queries.build_query, "tpch.build_query")
    patches += _module_patches(optimize_plan, "optimizer.optimize", count_rewrites)
    patches += _module_patches(pipeline.build_pipelines, "pipeline.build", count_pipelines)
    patches += _module_patches(codec.maybe_encode_frame, "codec.encode")
    patches += _module_patches(codec.read_frame, "codec.decode")
    patches += _module_patches(partition.partition_catalog, "dist.partition")
    patches += _module_patches(coordinator.split_plan, "dist.split")
    patches += _module_patches(workload.generate_workload, "fleet.workload")
    patches += _module_patches(report.fleet_report, "fleet.report")
    patches += _module_patches(macro.calibrate_query, "fleet.calibrate")

    patches += _method_patch(QueryExecutor, "run", "executor.run", count_execution)
    for root in (base.StreamingOperator, base.Source, base.Sink):
        for cls in _subclasses(root):
            for attr in OPERATOR_METHODS:
                patches += _method_patch(cls, attr, lambda op: "operators." + op.kind)
    for kernel in KERNELS:
        owner = next(cls for cls in NumpyKernels.__mro__ if kernel in cls.__dict__)
        patches += _method_patch(owner, kernel, "kernels." + kernel)

    patches += _method_patch(AdaptiveStrategySelector, "decide", "costmodel.decide")
    patches += _method_patch(OptimizerSizeEstimator, "estimate_bytes", "costmodel.estimate")
    for label, cls in (("pipeline", PipelineLevelStrategy), ("process", ProcessLevelStrategy)):
        patches += _method_patch(cls, "persist", f"suspend.persist.{label}", count_persist)
        patches += _method_patch(cls, "prepare_resume", f"suspend.reload.{label}")
    patches += _method_patch(store_cls, "register", "store.register", count_register)
    patches += _method_patch(store_cls, "sync", "store.fsync")
    patches += _method_patch(SnapshotStore, "materialize", "store.materialize")
    patches += _method_patch(QueryRunner, "run_adaptive", "runner.run")
    patches += _method_patch(QueryRunner, "measure_normal", "runner.measure_normal")
    patches += _method_patch(FleetCluster, "run", "fleet.run")
    patches += _method_patch(coordinator.Coordinator, "run", "dist.coordinator")
    return patches


def _suspend_resume_samples(recorder: SpanRecorder, ops: set[int]) -> tuple[list, list]:
    """Per-suspension durable-suspend and resume wall times.

    A suspension is durable once ``persist`` and ``store.register`` (which
    includes the benchmark's fsyncs) have returned; its resume is
    ``store.materialize`` plus ``prepare_resume``.  A persist that a kill
    overtook never registers and yields no sample.
    """
    suspend: list[float] = []
    resume: list[float] = []
    persist = materialize = None
    for index, name in enumerate(recorder.names):
        if recorder.ops[index] not in ops:
            continue
        duration = recorder.ends[index] - recorder.starts[index]
        if name.startswith("suspend.persist."):
            persist = duration
        elif name == "store.register" and persist is not None:
            suspend.append(persist + duration)
            persist = None
        elif name == "store.materialize":
            materialize = duration
        elif name.startswith("suspend.reload.") and materialize is not None:
            resume.append(materialize + duration)
            materialize = None
    return suspend, resume


def _quantile(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    counters: Counters,
    traced_ops: set[int],
    traced_wall: float,
    overhead_ratio: float,
    setups: int,
) -> dict[str, float]:
    """Per-layer metrics from the traced operations (see ``PER_LAYER``)."""
    table = layer_table(recorder, traced_ops)
    setup_table = layer_table(recorder, {SETUP_OP})
    ops = max(1, len(traced_ops))
    values = counters.values

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0) / ops

    def self_time(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) / ops

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0) / ops

    def per_setup(name: str) -> float:
        return setup_table.get(name, {}).get("total_s", 0.0) / max(1, setups)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out: dict[str, float] = {
        "tpch.dbgen_s": per_setup("tpch.dbgen"),
        "tpch.build_query_s": total("tpch.build_query"),
        "optimizer.optimize_s": total("optimizer.optimize"),
        "optimizer.rewrites": values["optimizer.rewrites"] / ops,
        "pipeline.build_s": total("pipeline.build"),
        "pipeline.count": values["pipeline.count"] / ops,
        "executor.run_s": total("executor.run"),
        "executor.self_s": self_time("executor.run"),
        "executor.morsels": values["executor.morsels"] / ops,
        "executor.rows_scanned": values["executor.rows_scanned"] / ops,
        "executor.bytes_materialized": values["executor.bytes_materialized"] / ops,
    }
    for kind in OPERATOR_KINDS:
        out[f"operators.{kind}.self_s"] = self_time(f"operators.{kind}")
    for kernel in KERNELS:
        out[f"kernels.{kernel}.s"] = total(f"kernels.{kernel}")
        out[f"kernels.{kernel}.calls"] = calls(f"kernels.{kernel}")
    out["costmodel.decide_s"] = total("costmodel.decide")
    out["costmodel.decisions"] = calls("costmodel.decide")
    out["costmodel.estimate_s"] = total("costmodel.estimate")
    for strategy in STRATEGIES:
        out[f"suspend.persist_s.{strategy}"] = total(f"suspend.persist.{strategy}")
        out[f"suspend.reload_s.{strategy}"] = total(f"suspend.reload.{strategy}")
    suspend, resume = _suspend_resume_samples(recorder, traced_ops)
    sizes = counters.samples["suspend.snapshot_bytes"]
    out.update(
        {
            "suspend.suspensions": calls("store.register"),
            "suspend.redo_reruns": values["runner.redo_reruns"] / ops,
            "suspend.suspend_p50_s": _quantile(suspend, 0.5),
            "suspend.suspend_p95_s": _quantile(suspend, 0.95),
            "suspend.resume_p50_s": _quantile(resume, 0.5),
            "suspend.resume_p95_s": _quantile(resume, 0.95),
            "suspend.snapshot_bytes": ratio(sum(sizes), len(sizes)),
            "store.register_s": total("store.register"),
            "store.fsync_s": total("store.fsync"),
            "store.materialize_s": total("store.materialize"),
            "store.delta_reuse_ratio": ratio(values["store.state_refs"], values["store.states"]),
            "store.file_bytes": values["store.file_bytes"],
            "codec.encode_s": total("codec.encode"),
            "codec.decode_s": total("codec.decode"),
            "codec.ratio": ratio(values["codec.encoded_bytes"], values["codec.raw_bytes"]),
            "runner.run_s": total("runner.run"),
            "runner.self_s": self_time("runner.run"),
        }
    )
    for outcome in OUTCOMES:
        out[f"runner.outcomes.{outcome}"] = values[f"runner.outcomes.{outcome}"] / ops
    out["runner.virtual_overhead"] = ratio(
        values["runner.virtual_overhead_s"], values["runner.virtual_normal_s"]
    )
    fleet_run_total = table.get("fleet.run", {}).get("total_s", 0.0)
    root = table.get("bench.op", {})
    latencies = counters.samples["fleet.latency_s"]
    out.update(
        {
            "fleet.workload_s": total("fleet.workload"),
            "fleet.calibrate_s": per_setup("fleet.calibrate"),
            "fleet.run_s": total("fleet.run"),
            "fleet.report_s": total("fleet.report"),
            "fleet.events": values["fleet.events"] / ops,
            "fleet.slices": values["fleet.slices"] / ops,
            "fleet.suspensions": values["fleet.suspensions"] / ops,
            "fleet.lost_segment_ratio": ratio(values["fleet.lost_segments"], values["fleet.slices"]),
            "fleet.shed_ratio": ratio(values["fleet.rejected"], values["fleet.arrivals"]),
            "fleet.events_per_s": ratio(values["fleet.events"], fleet_run_total),
            "fleet.p95_latency_s": _quantile(latencies, 0.95),
            "fleet.slo_attainment": ratio(values["fleet.attained"], values["fleet.arrivals"]),
            "dist.partition_s": per_setup("dist.partition"),
            "dist.split_s": total("dist.split"),
            "dist.coordinator_self_s": self_time("dist.coordinator"),
            "dist.fragment_s": total("runner.measure_normal"),
            "dist.rows_shuffled": values["dist.rows_shuffled"] / ops,
            "dist.bytes_shuffled": values["dist.bytes_shuffled"] / ops,
            "dist.exchanges": values["dist.exchanges"] / ops,
            "trace.overhead_ratio": overhead_ratio,
            "trace.attributed_ratio": ratio(
                root.get("total_s", 0.0) - root.get("self_s", 0.0), traced_wall
            ),
            "trace.ops": float(len(traced_ops)),
        }
    )
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return out
