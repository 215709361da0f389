"""Pipeline-level suspension and resumption (the paper's contribution).

Suspension only happens at pipeline breakers, once every worker-local
state has been merged into the global state (Fig. 2).  Only the *live*
global states — those that unfinished pipelines still need — are
serialized, which is why the persisted intermediate data is typically
tiny for aggregation-ending pipelines and large only when a join-build
pipeline has just completed (Fig. 8).

Resumption bypasses every completed pipeline, restores the live global
states, and continues with the next pipeline; because nothing worker-local
survives, the resumed execution may use a *different* resource
configuration — the adaptive-resources advantage noted in §III-B.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.engine.executor import ExecutionCapture, ResumeState
from repro.engine.pipeline import Pipeline
from repro.engine.profile import HardwareProfile
from repro.storage import codec as codec_mod
from repro.suspend.controller import SuspensionRequestController
from repro.suspend.snapshot import PipelineSnapshot, SnapshotError
from repro.suspend.strategy import ResumeOutcome, SuspendOutcome, SuspensionStrategy

__all__ = ["PipelineLevelStrategy"]


class PipelineLevelStrategy(SuspensionStrategy):
    """Suspend at breakers; persist live global states."""

    name = "pipeline"

    def make_request_controller(self, request_time: float) -> SuspensionRequestController:
        return SuspensionRequestController(
            request_time, mode="pipeline", tracer=self.tracer, metrics=self.metrics
        )

    def persist(self, capture: ExecutionCapture, directory: str | os.PathLike) -> SuspendOutcome:
        snapshot = PipelineSnapshot.from_capture(capture, codec_name=self.codec)
        path = Path(directory) / f"{capture.query_name}.pipeline.snapshot"
        snapshot.write(path)
        nbytes = snapshot.intermediate_bytes
        # Encoded bytes hit the disk; encoding CPU is charged on the same
        # virtual timeline as the write.
        persist_latency = self.profile.persist_latency(nbytes) + codec_mod.encode_cost_seconds(
            snapshot.codec_stats, self.profile.io_time_scale
        )
        outcome = SuspendOutcome(
            strategy=self.name,
            snapshot_path=path,
            intermediate_bytes=nbytes,
            persist_latency=persist_latency,
            suspended_at=capture.clock_time,
            raw_bytes=snapshot.raw_state_bytes,
            codec=self.codec,
        )
        self._record_persist(outcome)
        return outcome

    def prepare_resume(
        self,
        snapshot_path: str | os.PathLike,
        pipelines: list[Pipeline],
        plan_fingerprint: str,
        profile: HardwareProfile | None = None,
    ) -> ResumeOutcome:
        snapshot = PipelineSnapshot.read(snapshot_path)
        if snapshot.meta.plan_fingerprint != plan_fingerprint:
            raise SnapshotError("snapshot was taken from a different query plan")
        by_id = {p.pipeline_id: p for p in pipelines}
        completed = {}
        for pid, blob in snapshot.state_blobs.items():
            if pid not in by_id:
                raise SnapshotError(f"snapshot references unknown pipeline {pid}")
            completed[pid] = by_id[pid].sink.deserialize_global_state(blob)
        resume = ResumeState(
            completed_states=completed,
            stats=snapshot.stats,
            skipped_pipelines=set(snapshot.completed_pipelines),
        )
        target_profile = profile or self.profile
        reload_latency = target_profile.reload_latency(
            snapshot.intermediate_bytes
        ) + codec_mod.decode_cost_seconds(
            snapshot.codec_stats, target_profile.io_time_scale
        )
        outcome = ResumeOutcome(
            strategy=self.name, resume_state=resume, reload_latency=reload_latency
        )
        # On the busy timeline the reload begins once the persist that wrote
        # this snapshot has finished.
        self._record_reload(
            outcome,
            snapshot.meta.clock_time
            + self.profile.persist_latency(snapshot.intermediate_bytes),
            snapshot.intermediate_bytes,
        )
        return outcome
