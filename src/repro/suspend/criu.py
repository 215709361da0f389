"""Simulated CRIU: process-image dump and restore.

The paper implements its process-level strategy on top of CRIU
(checkpoint/restore in userspace), dumping the whole query-execution
process as image files.  This module reproduces CRIU's *contract* without
an OS dependency:

* ``dump`` writes the full execution state (every completed global state,
  the in-flight pipeline's worker-local states and cursor, stats, memory
  balance) as an image file; the *image size* is the process's allocated
  memory plus a fixed context overhead, exactly the quantity CRIU would
  write for a real process;
* ``restore`` rebuilds a :class:`~repro.engine.executor.ResumeState`, and
  — like real CRIU — **refuses to restore onto a different resource
  configuration** (worker count / memory budget must match the dump).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.engine.errors import EngineError
from repro.engine.executor import ExecutionCapture, ResumeState
from repro.engine.pipeline import Pipeline
from repro.engine.profile import HardwareProfile
from repro.obs.trace import Tracer
from repro.suspend.snapshot import ProcessImage

__all__ = ["CriuError", "SimulatedCriu"]


class CriuError(EngineError):
    """Dump or restore failed (e.g. resource configuration mismatch)."""


class SimulatedCriu:
    """Dump/restore of query-execution process images."""

    def __init__(
        self,
        profile: HardwareProfile,
        tracer: Tracer | None = None,
        codec: str = "raw",
    ):
        self.profile = profile
        self.tracer = tracer
        self.codec = codec

    def dump(self, capture: ExecutionCapture, path: str | os.PathLike) -> ProcessImage:
        """Write a process image for *capture* to *path*."""
        if capture.kind != "process":
            raise CriuError(f"CRIU dumps whole processes; got a {capture.kind!r} capture")
        image = ProcessImage.from_capture(
            capture, self.profile.process_context_bytes, codec_name=self.codec
        )
        image.write(path)
        if self.tracer is not None:
            self.tracer.instant(
                "persist",
                "criu:dump",
                capture.clock_time,
                track="suspend",
                image_bytes=image.intermediate_bytes,
                states=len(image.state_blobs),
                locals=len(image.local_state_blobs),
                mid_pipeline=image.current_pipeline,
            )
        return image

    def restore(
        self,
        image: ProcessImage,
        pipelines: list[Pipeline],
        profile: HardwareProfile,
        plan_fingerprint: str,
    ) -> ResumeState:
        """Rebuild executor resume state from *image*.

        Raises :class:`CriuError` if the target *profile* differs from the
        configuration at dump time or the plan fingerprint does not match.
        """
        if image.meta.plan_fingerprint != plan_fingerprint:
            raise CriuError("process image was dumped from a different query plan")
        if profile.num_threads != image.meta.num_threads:
            raise CriuError(
                "process-level restore requires an identical resource "
                f"configuration: image has {image.meta.num_threads} workers, "
                f"target has {profile.num_threads}"
            )
        by_id = {p.pipeline_id: p for p in pipelines}
        completed = {}
        for pid, blob in image.state_blobs.items():
            if pid not in by_id:
                raise CriuError(f"image references unknown pipeline {pid}")
            completed[pid] = by_id[pid].sink.deserialize_global_state(blob)
        local_states = None
        if image.current_pipeline is not None:
            sink = by_id[image.current_pipeline].sink
            local_states = [
                sink.deserialize_local_state(blob) for blob in image.local_state_blobs
            ]
        if self.tracer is not None:
            self.tracer.instant(
                "resume",
                "criu:restore",
                image.meta.clock_time,
                track="suspend",
                image_bytes=image.intermediate_bytes,
                mid_pipeline=image.current_pipeline,
                next_morsel=image.next_morsel,
            )
        return ResumeState(
            completed_states=completed,
            stats=image.stats,
            current_pipeline=image.current_pipeline,
            next_morsel=image.next_morsel,
            rows_in_pipeline=image.rows_in_pipeline,
            local_states=local_states,
            # The morsel cursor counts morsels, so a mid-pipeline restore
            # also pins the morsel size (enforced by the executor).
            morsel_size=image.meta.morsel_size,
        )

    @staticmethod
    def read_image(path: str | os.PathLike) -> ProcessImage:
        """Load a previously dumped image."""
        if not Path(path).exists():
            raise CriuError(f"no process image at {path}")
        return ProcessImage.read(path)
