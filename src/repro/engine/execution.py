"""One query's execution across suspensions (paper §III, Fig. 5).

Riveter's lifecycle is: run until a suspension point, persist the
snapshot, reload it, and continue in a new execution.
:class:`SuspendableExecution` owns that bookkeeping, so callers keep only
their policy — when to request a suspension and how they account time,
money, or windows.  It builds every :class:`QueryExecutor` generation from
one configuration, so a resumed generation always runs under the
configuration that took its snapshot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.engine.clock import SimulatedClock
from repro.engine.controller import ExecutionController
from repro.engine.errors import QuerySuspended, QueryTerminated
from repro.engine.executor import ExecutionCapture, QueryExecutor, QueryResult
from repro.engine.plan import PlanNode
from repro.storage.catalog import Catalog

if TYPE_CHECKING:  # the suspend layer imports the engine, not vice versa
    from repro.suspend.store import SnapshotRecord, SnapshotStore
    from repro.suspend.strategy import ResumeOutcome, SuspendOutcome, SuspensionStrategy

__all__ = ["Generation", "Suspension", "SuspendableExecution"]


@dataclass
class Generation:
    """How one executor generation ended.

    ``status`` is ``"finished"`` (``result`` set), ``"suspended"``
    (``capture`` set) or ``"terminated"`` (``killed_at`` set); ``end`` is
    the generation's clock when it stopped.
    """

    status: str
    end: float
    result: QueryResult | None = None
    capture: ExecutionCapture | None = None
    killed_at: float | None = None


@dataclass
class Suspension:
    """A persisted capture.

    ``path`` is where the snapshot reloads from (the store's materialized
    copy when a store registered it).  ``lost`` marks a persist that missed
    its deadline: it has no path and never reached the store.
    """

    outcome: SuspendOutcome
    path: Path | None
    lost: bool = False
    record: SnapshotRecord | None = None

    @property
    def finished_at(self) -> float:
        """When the snapshot is on stable storage (the generation's clock)."""
        return self.outcome.suspended_at + self.outcome.persist_latency


class SuspendableExecution:
    """Runs one query as a chain of executor generations.

    *config* holds the :class:`QueryExecutor` keyword options every
    generation shares (profile, morsel size, observers, backend, ...).
    """

    def __init__(self, catalog: Catalog, plan: PlanNode, query_name: str, **config):
        self.catalog = catalog
        self.plan = plan
        self.query_name = query_name
        self.config = config
        self._pipelines = None
        self._fingerprint = None
        self._resume = None

    def run(self, controller: ExecutionController | None = None, start: float = 0.0) -> Generation:
        """Run the next generation on a simulated clock starting at *start*,
        from the state the last :meth:`resume` loaded (else from scratch)."""
        clock = SimulatedClock(start)
        executor = QueryExecutor(
            self.catalog,
            self.plan,
            clock=clock,
            controller=controller,
            query_name=self.query_name,
            resume=self._resume,
            **self.config,
        )
        self._resume = None
        self._pipelines = executor.pipelines
        self._fingerprint = executor.plan_fingerprint
        try:
            result = executor.run()
        except QuerySuspended as suspended:
            return Generation("suspended", clock.now(), capture=suspended.capture)
        except QueryTerminated as terminated:
            return Generation("terminated", clock.now(), killed_at=terminated.at_time)
        return Generation("finished", clock.now(), result=result)

    def suspend(
        self,
        strategy: SuspensionStrategy,
        capture: ExecutionCapture,
        directory: str | os.PathLike,
        store: SnapshotStore | None = None,
        deadline: float | None = None,
    ) -> Suspension:
        """Persist *capture* under *directory*, then register it in *store*.

        A persist finishing at or after *deadline* (a kill racing the
        suspension) is lost and never registered.
        """
        outcome = strategy.persist(capture, directory)
        suspension = Suspension(outcome, outcome.snapshot_path)
        if deadline is not None and suspension.finished_at >= deadline:
            suspension.path = None
            suspension.lost = True
        elif store is not None:
            suspension.record = store.register(outcome, self.query_name)
            suspension.path = store.materialize(suspension.record)
        return suspension

    def resume(self, strategy: SuspensionStrategy, path: str | os.PathLike) -> ResumeOutcome:
        """Load the snapshot at *path*; the next :meth:`run` continues from it."""
        resumed = strategy.prepare_resume(path, self._pipelines, self._fingerprint)
        self._resume = resumed.resume_state
        return resumed
