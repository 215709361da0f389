"""Persisted suspension snapshots.

Two on-disk artifacts exist, mirroring the paper's two persisting
strategies:

* :class:`PipelineSnapshot` — written at a pipeline breaker; contains the
  *live* global states (those still needed by unfinished pipelines), the
  set of completed pipeline ids, and execution statistics.
* :class:`ProcessImage` — written by the simulated CRIU at any morsel
  boundary; contains *everything*: all completed global states, the
  in-flight pipeline's worker-local states and morsel cursor, the memory
  accountant balance, and the resource configuration that must match on
  restore.

Both embed the plan fingerprint; resuming against a different plan is
rejected (the paper assumes plans are unchanged across suspension, §VI).

Snapshots are codec-aware and content-addressed: per-pipeline global
states may be encoded through :mod:`repro.storage.codec` (the header then
records the codec, raw-vs-encoded byte accounting, and per-state SHA-256
hashes), and a third on-disk artifact — the *delta snapshot*
(``RIVDELT1``) — stores only states whose hash changed since a base
snapshot, referencing the base's segments for the rest.  Deltas are
written and resolved by :class:`repro.suspend.store.SnapshotStore`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from repro.engine.executor import ExecutionCapture
from repro.engine.stats import OperatorStats, PipelineStats, QueryStats
from repro.storage import codec as codec_mod
from repro.storage import serialize

__all__ = [
    "SnapshotError",
    "SnapshotMeta",
    "PipelineSnapshot",
    "ProcessImage",
    "DeltaSnapshot",
    "hash_blob",
    "read_snapshot_header",
    "write_delta_snapshot",
    "read_delta_snapshot",
    "extract_state_blob",
    "read_blob",
]

_MAGIC_PIPELINE = b"RIVSNAP1"
_MAGIC_PROCESS = b"RIVPROC1"
_MAGIC_DELTA = b"RIVDELT1"
_MAGIC_LEN = 8


def hash_blob(blob: bytes) -> str:
    """Content hash used to address per-pipeline state segments."""
    return hashlib.sha256(blob).hexdigest()


class SnapshotError(ValueError):
    """Raised for malformed or incompatible snapshots."""


def read_blob(stream: BinaryIO) -> bytes:
    """Read one length-prefixed blob; a short read means a torn file."""
    try:
        size = int(serialize.read_json(stream))
    except serialize.SerializationError as exc:
        raise SnapshotError(f"truncated snapshot: {exc}") from exc
    blob = stream.read(size)
    if len(blob) != size:
        raise SnapshotError(f"truncated snapshot: blob of {size} bytes has {len(blob)}")
    return blob


@dataclass
class SnapshotMeta:
    """Common snapshot header."""

    strategy: str
    query_name: str
    plan_fingerprint: str
    clock_time: float
    num_threads: int
    morsel_size: int
    memory_bytes: int

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "query_name": self.query_name,
            "plan_fingerprint": self.plan_fingerprint,
            "clock_time": self.clock_time,
            "num_threads": self.num_threads,
            "morsel_size": self.morsel_size,
            "memory_bytes": self.memory_bytes,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SnapshotMeta":
        return cls(
            strategy=payload["strategy"],
            query_name=payload["query_name"],
            plan_fingerprint=payload["plan_fingerprint"],
            clock_time=float(payload["clock_time"]),
            num_threads=int(payload["num_threads"]),
            morsel_size=int(payload["morsel_size"]),
            memory_bytes=int(payload["memory_bytes"]),
        )


def _stats_to_json(stats: QueryStats) -> dict:
    return {
        "query_name": stats.query_name,
        "started_at": stats.started_at,
        "finished_at": stats.finished_at,
        "pipelines": [
            {
                "pipeline_id": p.pipeline_id,
                "description": p.description,
                "started_at": p.started_at,
                "finished_at": p.finished_at,
                "rows_processed": p.rows_processed,
                "morsels_processed": p.morsels_processed,
                "global_state_bytes": p.global_state_bytes,
                "operators": [
                    {
                        "label": op.label,
                        "kind": op.kind,
                        "rows": op.rows,
                        "bytes": op.bytes,
                        "seconds": op.seconds,
                    }
                    for op in p.operators
                ],
            }
            for p in stats.pipelines
        ],
    }


def _stats_from_json(payload: dict) -> QueryStats:
    stats = QueryStats(
        query_name=payload["query_name"],
        started_at=float(payload["started_at"]),
        finished_at=float(payload["finished_at"]),
    )
    for entry in payload["pipelines"]:
        stats.record_pipeline(
            PipelineStats(
                pipeline_id=int(entry["pipeline_id"]),
                description=entry["description"],
                started_at=float(entry["started_at"]),
                finished_at=float(entry["finished_at"]),
                rows_processed=int(entry["rows_processed"]),
                morsels_processed=int(entry["morsels_processed"]),
                global_state_bytes=int(entry["global_state_bytes"]),
                operators=[
                    OperatorStats(
                        label=op["label"],
                        kind=op["kind"],
                        rows=int(op["rows"]),
                        bytes=int(op["bytes"]),
                        seconds=float(op["seconds"]),
                    )
                    for op in entry.get("operators", [])
                ],
            )
        )
    return stats


@dataclass
class PipelineSnapshot:
    """Serialized pipeline-level suspension state."""

    meta: SnapshotMeta
    completed_pipelines: list[int]
    state_blobs: dict[int, bytes]
    stats: QueryStats
    codec: str = "raw"
    state_hashes: dict[int, str] = field(default_factory=dict)
    raw_bytes: int = 0
    codec_stats: dict | None = None

    @property
    def intermediate_bytes(self) -> int:
        """Size of the persisted intermediate data (encoded bytes on disk)."""
        return sum(len(blob) for blob in self.state_blobs.values())

    @property
    def raw_state_bytes(self) -> int:
        """Pre-codec size of the same states (equals encoded size for raw)."""
        return self.raw_bytes if self.raw_bytes else self.intermediate_bytes

    @classmethod
    def from_capture(
        cls, capture: ExecutionCapture, codec_name: str = "raw"
    ) -> "PipelineSnapshot":
        if capture.kind != "pipeline":
            raise SnapshotError(f"expected a pipeline capture, got {capture.kind!r}")
        meta = SnapshotMeta(
            strategy="pipeline",
            query_name=capture.query_name,
            plan_fingerprint=capture.plan_fingerprint,
            clock_time=capture.clock_time,
            num_threads=capture.num_threads,
            morsel_size=capture.morsel_size,
            memory_bytes=capture.memory_bytes,
        )
        stats = codec_mod.CodecStats()
        blobs: dict[int, bytes] = {}
        for pid, state in capture.live_states().items():
            blobs[pid], state_stats = state.encoded(codec_name)
            stats.merge(state_stats)
        encoded = sum(len(blob) for blob in blobs.values())
        # What the same blobs would weigh uncompressed: the encoded stream
        # plus the payload bytes the codec saved.
        raw_bytes = encoded + stats.saved_bytes
        return cls(
            meta=meta,
            # Union with the resume-skipped set: after a chained suspend
            # the in-memory completed states only cover the *live* ones
            # restored by the last resume — the earlier generations'
            # pipelines are finished too, and forgetting them here would
            # make the next resume re-run work the query already did.
            completed_pipelines=sorted(
                set(capture.completed_states) | capture.skipped_pipelines
            ),
            state_blobs=blobs,
            stats=capture.stats,
            codec=codec_name,
            state_hashes={pid: hash_blob(blob) for pid, blob in blobs.items()},
            raw_bytes=raw_bytes,
            codec_stats=stats.to_json(),
        )

    def header_json(self) -> dict:
        return {
            "meta": self.meta.to_json(),
            "completed": self.completed_pipelines,
            "stats": _stats_to_json(self.stats),
            "state_ids": sorted(self.state_blobs),
            "codec": self.codec,
            "hashes": {str(pid): h for pid, h in self.state_hashes.items()},
            "raw_bytes": self.raw_bytes,
            "codec_stats": self.codec_stats,
        }

    def write(self, path: str | os.PathLike) -> int:
        """Persist to *path*; returns bytes written."""
        with open(path, "wb") as stream:
            stream.write(_MAGIC_PIPELINE)
            serialize.write_json(stream, self.header_json())
            for pid in sorted(self.state_blobs):
                blob = self.state_blobs[pid]
                serialize.write_json(stream, len(blob))
                stream.write(blob)
        return Path(path).stat().st_size

    @classmethod
    def from_parts(cls, header: dict, blobs: dict[int, bytes]) -> "PipelineSnapshot":
        """Rebuild from a parsed header and resolved state blobs."""
        return cls(
            meta=SnapshotMeta.from_json(header["meta"]),
            completed_pipelines=[int(p) for p in header["completed"]],
            state_blobs=blobs,
            stats=_stats_from_json(header["stats"]),
            codec=header.get("codec", "raw"),
            state_hashes={int(p): h for p, h in header.get("hashes", {}).items()},
            raw_bytes=int(header.get("raw_bytes", 0)),
            codec_stats=header.get("codec_stats"),
        )

    @classmethod
    def read(cls, path: str | os.PathLike) -> "PipelineSnapshot":
        with open(path, "rb") as stream:
            magic = stream.read(len(_MAGIC_PIPELINE))
            if magic != _MAGIC_PIPELINE:
                raise SnapshotError(f"not a pipeline snapshot: bad magic {magic!r}")
            header = serialize.read_json(stream)
            blobs: dict[int, bytes] = {}
            for pid in header["state_ids"]:
                blobs[int(pid)] = read_blob(stream)
        return cls.from_parts(header, blobs)


@dataclass
class ProcessImage:
    """Serialized process-level image (simulated CRIU dump)."""

    meta: SnapshotMeta
    state_blobs: dict[int, bytes]
    memory_charges: dict[str, int]
    stats: QueryStats
    image_bytes: int = 0
    current_pipeline: int | None = None
    next_morsel: int = 0
    rows_in_pipeline: int = 0
    local_state_blobs: list[bytes] = field(default_factory=list)
    codec: str = "raw"
    state_hashes: dict[int, str] = field(default_factory=dict)
    encoded_bytes: int = 0
    codec_stats: dict | None = None

    @property
    def intermediate_bytes(self) -> int:
        """Modelled image size: encoded when a codec shrank the payload."""
        if self.codec != "raw" and self.encoded_bytes:
            return self.encoded_bytes
        return self.image_bytes

    @property
    def raw_state_bytes(self) -> int:
        """Pre-codec modelled image size (allocated memory + context)."""
        return self.image_bytes

    @classmethod
    def from_capture(
        cls,
        capture: ExecutionCapture,
        process_context_bytes: int,
        codec_name: str = "raw",
    ) -> "ProcessImage":
        if capture.kind != "process":
            raise SnapshotError(f"expected a process capture, got {capture.kind!r}")
        meta = SnapshotMeta(
            strategy="process",
            query_name=capture.query_name,
            plan_fingerprint=capture.plan_fingerprint,
            clock_time=capture.clock_time,
            num_threads=capture.num_threads,
            morsel_size=capture.morsel_size,
            memory_bytes=capture.memory_bytes,
        )
        stats = codec_mod.CodecStats()
        blobs: dict[int, bytes] = {}
        for pid, state in capture.completed_states.items():
            blobs[pid], state_stats = state.encoded(codec_name)
            stats.merge(state_stats)
        # Worker-local states are still in flight: always encoded afresh.
        locals_blobs: list[bytes] = []
        if capture.local_states is not None:
            with codec_mod.encoding(codec_name, stats):
                locals_blobs = [state.serialize() for state in capture.local_states]
        image_bytes = capture.memory_bytes + process_context_bytes
        # The process image is memory-accounting based, not a byte stream we
        # compress directly; model the encoded size by applying the measured
        # payload compression ratio to the memory portion.  Process context
        # (page tables, file descriptors, ...) does not compress.
        ratio = stats.ratio
        encoded_bytes = process_context_bytes + int(capture.memory_bytes * ratio)
        return cls(
            meta=meta,
            state_blobs=blobs,
            memory_charges={},
            stats=capture.stats,
            image_bytes=image_bytes,
            current_pipeline=capture.current_pipeline,
            next_morsel=capture.next_morsel,
            rows_in_pipeline=capture.rows_in_pipeline,
            local_state_blobs=locals_blobs,
            codec=codec_name,
            state_hashes={pid: hash_blob(blob) for pid, blob in blobs.items()},
            encoded_bytes=encoded_bytes,
            codec_stats=stats.to_json(),
        )

    def header_json(self) -> dict:
        return {
            "meta": self.meta.to_json(),
            "stats": _stats_to_json(self.stats),
            "state_ids": sorted(self.state_blobs),
            "memory_charges": self.memory_charges,
            "image_bytes": self.image_bytes,
            "current_pipeline": self.current_pipeline,
            "next_morsel": self.next_morsel,
            "rows_in_pipeline": self.rows_in_pipeline,
            "num_locals": len(self.local_state_blobs),
            "codec": self.codec,
            "hashes": {str(pid): h for pid, h in self.state_hashes.items()},
            "encoded_bytes": self.encoded_bytes,
            "codec_stats": self.codec_stats,
        }

    def write(self, path: str | os.PathLike) -> int:
        """Persist to *path*; returns bytes written."""
        with open(path, "wb") as stream:
            stream.write(_MAGIC_PROCESS)
            serialize.write_json(stream, self.header_json())
            for pid in sorted(self.state_blobs):
                blob = self.state_blobs[pid]
                serialize.write_json(stream, len(blob))
                stream.write(blob)
            for blob in self.local_state_blobs:
                serialize.write_json(stream, len(blob))
                stream.write(blob)
        return Path(path).stat().st_size

    @classmethod
    def from_parts(
        cls, header: dict, blobs: dict[int, bytes], locals_blobs: list[bytes]
    ) -> "ProcessImage":
        """Rebuild from a parsed header and resolved state blobs."""
        current = header["current_pipeline"]
        return cls(
            meta=SnapshotMeta.from_json(header["meta"]),
            state_blobs=blobs,
            memory_charges={k: int(v) for k, v in header["memory_charges"].items()},
            stats=_stats_from_json(header["stats"]),
            image_bytes=int(header["image_bytes"]),
            current_pipeline=None if current is None else int(current),
            next_morsel=int(header["next_morsel"]),
            rows_in_pipeline=int(header.get("rows_in_pipeline", 0)),
            local_state_blobs=locals_blobs,
            codec=header.get("codec", "raw"),
            state_hashes={int(p): h for p, h in header.get("hashes", {}).items()},
            encoded_bytes=int(header.get("encoded_bytes", 0)),
            codec_stats=header.get("codec_stats"),
        )

    @classmethod
    def read(cls, path: str | os.PathLike) -> "ProcessImage":
        with open(path, "rb") as stream:
            magic = stream.read(len(_MAGIC_PROCESS))
            if magic != _MAGIC_PROCESS:
                raise SnapshotError(f"not a process image: bad magic {magic!r}")
            header = serialize.read_json(stream)
            blobs: dict[int, bytes] = {}
            for pid in header["state_ids"]:
                blobs[int(pid)] = read_blob(stream)
            locals_blobs = [read_blob(stream) for _ in range(int(header["num_locals"]))]
        return cls.from_parts(header, blobs, locals_blobs)


@dataclass
class DeltaSnapshot:
    """An incremental snapshot: inline changed states + refs into a base.

    ``kind`` records the flavour of the full snapshot it stands in for
    (``"pipeline"`` or ``"process"``); ``header`` is that snapshot's full
    header JSON, so materializing a delta only requires resolving the
    referenced state blobs.
    """

    kind: str
    header: dict
    inline_blobs: dict[int, bytes]
    refs: dict[int, dict]
    local_blobs: list[bytes] = field(default_factory=list)

    @property
    def inline_bytes(self) -> int:
        changed = sum(len(blob) for blob in self.inline_blobs.values())
        return changed + sum(len(blob) for blob in self.local_blobs)


def write_delta_snapshot(path: str | os.PathLike, delta: DeltaSnapshot) -> int:
    """Persist a delta snapshot; returns bytes written."""
    if delta.kind not in ("pipeline", "process"):
        raise SnapshotError(f"unknown delta kind {delta.kind!r}")
    with open(path, "wb") as stream:
        stream.write(_MAGIC_DELTA)
        # The wrapper is mostly hex hashes and a copy of the full header;
        # compressed, it stops dominating small all-refs deltas.
        serialize.write_compressed_json(
            stream,
            {
                "kind": delta.kind,
                "header": delta.header,
                "inline_ids": sorted(delta.inline_blobs),
                "refs": {str(pid): ref for pid, ref in delta.refs.items()},
                "num_locals": len(delta.local_blobs),
            },
        )
        for pid in sorted(delta.inline_blobs):
            blob = delta.inline_blobs[pid]
            serialize.write_json(stream, len(blob))
            stream.write(blob)
        for blob in delta.local_blobs:
            serialize.write_json(stream, len(blob))
            stream.write(blob)
    return Path(path).stat().st_size


def read_delta_snapshot(path: str | os.PathLike) -> DeltaSnapshot:
    """Inverse of :func:`write_delta_snapshot`."""
    with open(path, "rb") as stream:
        magic = stream.read(_MAGIC_LEN)
        if magic != _MAGIC_DELTA:
            raise SnapshotError(f"not a delta snapshot: bad magic {magic!r}")
        wrapper = serialize.read_compressed_json(stream)
        inline: dict[int, bytes] = {}
        for pid in wrapper["inline_ids"]:
            inline[int(pid)] = read_blob(stream)
        locals_blobs = [read_blob(stream) for _ in range(int(wrapper["num_locals"]))]
    return DeltaSnapshot(
        kind=wrapper["kind"],
        header=wrapper["header"],
        inline_blobs=inline,
        refs={int(pid): ref for pid, ref in wrapper["refs"].items()},
        local_blobs=locals_blobs,
    )


def read_snapshot_header(path: str | os.PathLike) -> tuple[str, dict]:
    """Read only the magic + header of any snapshot file.

    Returns ``(kind, header)`` where kind is ``"pipeline"``, ``"process"``
    or ``"delta"``.  For deltas the returned header is the *wrapper* JSON
    (with ``kind``/``header``/``refs`` keys).
    """
    with open(path, "rb") as stream:
        magic = stream.read(_MAGIC_LEN)
        if magic == _MAGIC_DELTA:
            return "delta", serialize.read_compressed_json(stream)
        header = serialize.read_json(stream)
    if magic == _MAGIC_PIPELINE:
        return "pipeline", header
    if magic == _MAGIC_PROCESS:
        return "process", header
    raise SnapshotError(f"unrecognized snapshot magic {magic!r}")


def extract_state_blob(path: str | os.PathLike, pid: int) -> bytes:
    """Pull one per-pipeline state blob out of any snapshot file.

    For full snapshots this walks the length-prefixed blob section; for
    deltas only inline blobs are reachable (references must be resolved by
    the store, which knows where the base segments live).
    """
    with open(path, "rb") as stream:
        magic = stream.read(_MAGIC_LEN)
        if magic in (_MAGIC_PIPELINE, _MAGIC_PROCESS):
            header = serialize.read_json(stream)
            state_ids = [int(p) for p in header["state_ids"]]
        elif magic == _MAGIC_DELTA:
            header = serialize.read_compressed_json(stream)
            state_ids = [int(p) for p in header["inline_ids"]]
        else:
            raise SnapshotError(f"unrecognized snapshot magic {magic!r}")
        for current in state_ids:
            if current == pid:
                return read_blob(stream)
            size = int(serialize.read_json(stream))
            stream.seek(size, os.SEEK_CUR)
    raise SnapshotError(f"state {pid} not stored inline in {Path(path).name}")
