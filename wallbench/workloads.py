"""The benchmark's four workloads.

Every workload is one closed loop with a single client.  An operation
("op") is one query for the ``tpch-*`` workloads and one 15-minute fleet
window for ``fleet-day``.  A workload is driven in passes:
``make_pass(index)`` draws the inputs of one pass from the seed alone,
and ``run_op(item)`` runs one op and says whether its output was right.

Set-up (``setup``) covers everything before the first op: data
generation, the uninterrupted reference results, normal virtual times,
partitioning and fleet calibration.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

from repro.cloud.runner import QueryRunner
from repro.costmodel.optimizer_est import OptimizerSizeEstimator
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.costmodel.termination import TerminationProfile
from repro.dist.coordinator import Coordinator, split_plan
from repro.dist.partition import partition_catalog
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.fleet import (
    AdmissionController,
    FleetCluster,
    fleet_report,
    generate_workload,
    make_policy,
    make_tenants,
)
from repro.seeding import derive_seed
from repro.suspend.store import SnapshotStore
from repro.tpch import QUERY_NAMES, build_query, generate_catalog
from repro.tpch.reference import REFERENCES

__all__ = [
    "WORKLOADS",
    "DurableStore",
    "result_digest",
    "check_references",
    "pass_rng",
    "query_order",
    "reclaim_inputs",
]

#: TPC-H scale of the ``tpch-*`` workloads: lineitem ~300k rows, ~18 morsels.
TPCH_SCALE = 0.05
#: Reclamation scenario (paper §IV-B): window ``[lo, lo + WIDTH]`` of the
#: normal virtual time, ``lo ~ U(LO_RANGE)``, termination probability P_T.
LO_RANGE = (0.3, 0.7)
WINDOW_WIDTH = 0.3
TERMINATION_PROBABILITY = 0.9
CODECS = ("raw", "adaptive")
LO_STRATA = 5
RECLAIM_CYCLE = LO_STRATA * len(CODECS)
SHARDS = 4
FLEET_SCALE = 0.01
FLEET_WORKERS = 100
FLEET_TENANTS = 60
FLEET_WINDOW_S = 900.0
FLEET_QUEUE_DEPTH = 2 * FLEET_WORKERS
WINDOWS_PER_PASS = 8


def pass_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Generator for the draws of pass *index*; *stream* separates their kinds."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index), int(stream)]))


def query_order(rng: np.random.Generator) -> list[str]:
    return [QUERY_NAMES[i] for i in rng.permutation(len(QUERY_NAMES))]


def reclaim_inputs(seed: int, index: int, normal: dict[str, float]) -> list[tuple]:
    """``(query, window lo, kill time or None, codec)`` for one pass.

    The window is ``[lo, lo + WINDOW_WIDTH]`` of the query's normal
    virtual time and the kill falls inside it with probability
    :data:`TERMINATION_PROBABILITY`.  The draws are stratified (a Latin
    hypercube) over cycles of :data:`RECLAIM_CYCLE` passes: within a
    cycle every query runs once with each codec in each of
    :data:`LO_STRATA` equal slices of :data:`LO_RANGE`, once in each
    tenth of the window for the kill position, and is killed in exactly
    ``TERMINATION_PROBABILITY`` of the passes.  Each pass keeps the
    scenario's distributions (``lo`` uniform, codec even, kill position
    uniform, kill with probability P_T), but a run's mix of cheap and
    costly cases no longer depends on the seed.
    """
    cycle, slot = divmod(index, RECLAIM_CYCLE)
    draws = pass_rng(seed, cycle, stream=1)
    low, high = LO_RANGE
    width = (high - low) / LO_STRATA
    kills = round(TERMINATION_PROBABILITY * RECLAIM_CYCLE)
    chosen = {}
    for query in QUERY_NAMES:
        combo, position_stratum, kill_rank = (
            int(draws.permutation(RECLAIM_CYCLE)[slot]) for _ in range(3)
        )
        lo_offset, position_offset = draws.uniform(size=(2, RECLAIM_CYCLE))[:, slot]
        stratum, codec = divmod(combo, len(CODECS))
        lo = low + (stratum + float(lo_offset)) * width
        position = (position_stratum + float(position_offset)) / RECLAIM_CYCLE
        kill = (lo + position * WINDOW_WIDTH) * normal[query] if kill_rank < kills else None
        chosen[query] = (lo, kill, CODECS[codec])
    return [(query, *chosen[query]) for query in query_order(pass_rng(seed, index))]


def result_digest(chunk) -> str:
    """SHA-256 over a result's column names, dtypes and raw bytes."""
    digest = hashlib.sha256()
    for name in chunk.schema.names:
        column = np.ascontiguousarray(chunk.column(name))
        digest.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        if column.dtype.kind == "O":
            digest.update(repr(column.tolist()).encode())
        else:
            digest.update(column.tobytes())
    return digest.hexdigest()


def check_references(catalog, results: dict) -> list[str]:
    """Compare uninterrupted results against :mod:`repro.tpch.reference`.

    Exact for integers and strings; floats within a relative 1e-9, the
    tolerance the test suite uses, because the reference sums in another
    order.
    """
    failures = []
    for query, reference in REFERENCES.items():
        expected = reference(catalog)
        chunk = results[query]
        if not isinstance(expected, dict):
            expected = {chunk.schema.names[0]: np.array([expected])}
        for column, want in expected.items():
            if column not in chunk.schema.names:
                failures.append(f"{query}: result lacks column {column}")
                continue
            got = chunk.column(column)
            want = np.asarray(want)
            if got.shape != want.shape:
                failures.append(f"{query}.{column}: {got.shape} rows, reference {want.shape}")
            elif want.dtype.kind == "f" or got.dtype.kind == "f":
                if not np.allclose(got, want, rtol=1e-9, atol=0.0, equal_nan=True):
                    failures.append(f"{query}.{column}: differs from reference")
            elif not np.array_equal(got, want):
                failures.append(f"{query}.{column}: differs from reference")
    return failures


def _fsync(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DurableStore(SnapshotStore):
    """Snapshot store whose registration returns only once it is durable.

    After the store's own write, the benchmark fsyncs the snapshot file,
    every metadata file of the store (the manifest) and the directory.
    This fixes the flush policy on both sides of a comparison, whatever
    the store itself does.
    """

    def register(self, outcome, query_name):
        record = super().register(outcome, query_name)
        self.sync(record)
        return record

    def sync(self, record) -> None:
        directory = Path(self.directory)
        _fsync(directory / record.file_name)
        for entry in os.scandir(directory):
            if entry.is_file() and not entry.name.endswith((".snapshot", ".full")):
                _fsync(entry.path)
        _fsync(directory)


class _Tpch:
    """Shared set-up of the ``tpch-*`` workloads."""

    def __init__(self, seed: int, workdir: Path, counters):
        self.seed = seed
        self.workdir = workdir
        self.counters = counters
        self.catalog = None
        self.references: dict[str, str] = {}
        self.results: dict = {}

    def _plan(self, query: str):
        return build_query(query, self.catalog, optimize=True)

    def _execute(self, query: str, plan):
        return QueryExecutor(self.catalog, plan, query_name=query, select_operators=True).run()

    def setup(self) -> None:
        self.catalog = generate_catalog(TPCH_SCALE)
        self.results = {q: self._execute(q, self._plan(q)).chunk for q in QUERY_NAMES}
        self.references = {q: result_digest(chunk) for q, chunk in self.results.items()}

    def make_pass(self, index: int) -> list:
        return query_order(pass_rng(self.seed, index))

    def final_checks(self) -> list[str]:
        return check_references(self.catalog, self.results)

    def finish(self) -> None:
        pass


class TpchSteady(_Tpch):
    """All 22 queries, optimizer on, no threat: the engine does the work."""

    def run_op(self, query: str) -> bool:
        result = self._execute(query, self._plan(query))
        return result_digest(result.chunk) == self.references[query]


class TpchReclaim(_Tpch):
    """Each query under a seeded termination window, Algorithm 1 deciding."""

    def setup(self) -> None:
        self.catalog = generate_catalog(TPCH_SCALE)
        self.profile = HardwareProfile()
        spool = self.workdir / "spool"
        store_dir = self.workdir / "store"
        for directory in (spool, store_dir):
            shutil.rmtree(directory, ignore_errors=True)
        self.store = DurableStore(store_dir, incremental=True)
        self.runners = {
            codec: QueryRunner(
                self.catalog, self.profile, snapshot_dir=spool, store=self.store,
                codec=codec, select_operators=True,
            )
            for codec in CODECS
        }
        self.estimator = OptimizerSizeEstimator(self.catalog)
        self.normal: dict[str, float] = {}
        self.results = {}
        for query in QUERY_NAMES:
            result = self.runners["raw"].measure_normal(self._plan(query), query)
            self.normal[query] = result.stats.duration
            self.results[query] = result.chunk
        self.references = {q: result_digest(chunk) for q, chunk in self.results.items()}

    def make_pass(self, index: int) -> list:
        return reclaim_inputs(self.seed, index, self.normal)

    def run_op(self, item) -> bool:
        query, lo, kill, codec = item
        plan = self._plan(query)
        normal = self.normal[query]
        selector = AdaptiveStrategySelector(
            profile=self.profile,
            termination=TerminationProfile.from_fractions(
                normal, lo, lo + WINDOW_WIDTH, TERMINATION_PROBABILITY
            ),
            process_size_estimator=lambda fraction: self.estimator.estimate_bytes(plan, fraction),
            estimated_total_time=normal,
            codec=codec,
            estimator_label="optimizer",
        )
        outcome = self.runners[codec].run_adaptive(plan, query, selector, normal, kill)
        counters = self.counters
        if outcome.suspended:
            kind = outcome.strategy
        elif outcome.decision is not None:
            kind = "redo"
        else:
            kind = "none"
        counters.add(f"runner.outcomes.{kind}")
        counters.add("runner.redo_reruns", int(outcome.terminated))
        counters.add("runner.virtual_overhead_s", outcome.overhead)
        counters.add("runner.virtual_normal_s", outcome.normal_time)
        return result_digest(outcome.result.chunk) == self.references[query]

    def finish(self) -> None:
        self.counters.values["store.file_bytes"] = float(self.store.total_bytes)


class TpchSharded(_Tpch):
    """The 22 queries over 4 hash shards with near-data pushdown."""

    def setup(self) -> None:
        super().setup()
        self.sharded = partition_catalog(self.catalog, SHARDS)
        self.coordinator = Coordinator(
            self.sharded, select_operators=True, snapshot_dir=self.workdir / "spool"
        )

    def run_op(self, query: str) -> bool:
        dist = split_plan(self.sharded, self._plan(query), pushdown=True, query_name=query)
        result = self.coordinator.run(dist, query)
        self.counters.add("dist.bytes_shuffled", result.bytes_shuffled)
        self.counters.add("dist.rows_shuffled", result.rows_shuffled)
        self.counters.add("dist.exchanges", len(dist.exchanges))
        return result_digest(result.chunk) == self.references[query]


class FleetDay:
    """Consecutive 15-minute windows of a 100-worker fleet's virtual day.

    Each op generates one window's arrivals for the run's 60 tenants and
    simulates it at macro fidelity on a fresh cluster.
    """

    def __init__(self, seed: int, workdir: Path, counters):
        self.seed = seed
        self.workdir = workdir
        self.counters = counters

    def _cluster(self, window: int) -> FleetCluster:
        return FleetCluster(
            self.catalog,
            make_policy("suspend-aware"),
            workers=FLEET_WORKERS,
            seed=derive_seed(self.seed, "fleet-window", window),
            admission=AdmissionController(max_queue_depth=FLEET_QUEUE_DEPTH),
            snapshot_dir=self.workdir / "fleet",
            fidelity="macro",
            macro_profiles=self.profiles,
        )

    def setup(self) -> None:
        self.catalog = generate_catalog(FLEET_SCALE)
        self.tenants = make_tenants(FLEET_TENANTS, derive_seed(self.seed, "tenants"))
        self.profiles: dict = {}
        cluster = self._cluster(0)
        for query in sorted({q for tenant in self.tenants for q in tenant.queries}):
            cluster.measure(query)

    def make_pass(self, index: int) -> list:
        return list(range(index * WINDOWS_PER_PASS, (index + 1) * WINDOWS_PER_PASS))

    def run_op(self, window: int) -> bool:
        arrivals = generate_workload(
            self.tenants, FLEET_WINDOW_S, derive_seed(self.seed, "fleet-arrivals", window)
        )
        result = self._cluster(window).run(arrivals, FLEET_WINDOW_S)
        report = fleet_report(result)
        totals = report["totals"]
        slices = sum(
            1
            for completion in result.completions
            for segment in completion.segments
            if segment["phase"] == "run"
        )
        counters = self.counters
        counters.add("fleet.arrivals", len(arrivals))
        counters.add("fleet.rejected", totals["rejected"])
        counters.add("fleet.events", len(arrivals) + slices)
        counters.add("fleet.slices", slices)
        counters.add("fleet.suspensions", totals["suspensions"])
        counters.add("fleet.lost_segments", totals["lost_segments"])
        counters.add("fleet.attained", report["slo"]["attained"])
        for completion in result.completions:
            counters.sample("fleet.latency_s", completion.latency)
        return (
            totals["arrivals"] == len(arrivals)
            and totals["completed"] + totals["rejected"] == len(arrivals)
        )

    def final_checks(self) -> list[str]:
        return []

    def finish(self) -> None:
        pass


WORKLOADS = {
    "tpch-steady": TpchSteady,
    "tpch-reclaim": TpchReclaim,
    "fleet-day": FleetDay,
    "tpch-sharded": TpchSharded,
}
