"""Snapshot codec layer: frames, adaptive picking, and resume equivalence.

The satellite invariant suite lives here: for a sample of TPC-H queries ×
codecs × persisting strategies, suspended-then-resumed results must be
byte-identical to uninterrupted runs, and store-registered records must
report exact on-disk sizes.
"""

import hashlib
import io
import zlib

import numpy as np
import pytest

from repro.cloud.runner import QueryRunner
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.costmodel.termination import TerminationProfile
from repro.engine.chunk import DataChunk
from repro.engine.clock import SimulatedClock
from repro.engine.executor import QueryExecutor
from repro.engine.operators.base import GlobalSinkState
from repro.engine.operators.hash_join import HashJoinBuildSink
from repro.engine.profile import HardwareProfile
from repro.engine.types import DataType, Schema
from repro.obs.audit import DecisionJournal
from repro.storage import codec, serialize
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy, SnapshotStore
from repro.tpch import QUERY_NAMES, build_query

from tests.conftest import assert_chunks_equal
from tests.test_suspension import run_normal, suspend

SAMPLE_QUERIES = ["Q1", "Q3", "Q9", "Q13", "Q18"]
CODECS = ["raw", "zlib", "dict", "adaptive"]


def _round_trip(array, codec_name):
    blob = codec.encode_array(array, codec_name)
    return codec.decode_array(blob), blob


class TestCodecRoundTrip:
    def test_zlib_round_trip_floats(self):
        rng = np.random.default_rng(1)
        array = np.repeat(rng.random(64), 100)
        decoded, blob = _round_trip(array, "zlib")
        np.testing.assert_array_equal(decoded, array)
        assert len(blob) < array.nbytes

    def test_rle_round_trip_sorted_ints(self):
        array = np.repeat(np.arange(40, dtype=np.int64), 250)
        decoded, blob = _round_trip(array, "rle")
        np.testing.assert_array_equal(decoded, array)
        assert len(blob) < array.nbytes // 10

    def test_dict_round_trip_strings(self):
        values = np.array(["alpha", "beta", "gamma", "delta"], dtype="U8")
        array = values[np.random.default_rng(2).integers(0, 4, 5000)]
        decoded, blob = _round_trip(array, "dict")
        np.testing.assert_array_equal(decoded, array)
        assert decoded.dtype == array.dtype
        assert len(blob) < array.nbytes // 4

    def test_adaptive_round_trip(self):
        array = np.repeat(np.arange(100, dtype=np.int64), 100)
        decoded, blob = _round_trip(array, "adaptive")
        np.testing.assert_array_equal(decoded, array)
        assert len(blob) < array.nbytes

    def test_incompressible_falls_back_to_legacy_record(self):
        array = np.random.default_rng(3).random(4096)
        blob = codec.encode_array(array, "adaptive")
        # Legacy record: no sentinel, exact raw payload inside.
        assert not blob.startswith(np.uint32(codec.FRAME_SENTINEL).tobytes())
        np.testing.assert_array_equal(codec.decode_array(blob), array)

    def test_empty_and_scalar_arrays(self):
        for array in (np.empty(0, dtype=np.int64), np.array(3.5)):
            for name in ("zlib", "adaptive", "raw"):
                decoded, _ = _round_trip(array, name)
                np.testing.assert_array_equal(decoded, array)

    def test_2d_array_uses_zlib_not_rle(self):
        array = np.zeros((64, 64), dtype=np.int64)
        decoded, blob = _round_trip(array, "adaptive")
        np.testing.assert_array_equal(decoded, array)
        assert len(blob) < array.nbytes

    def test_decoded_arrays_are_writable(self):
        array = np.repeat(np.arange(10, dtype=np.int64), 200)
        for name in ("raw", "zlib", "rle", "adaptive"):
            decoded, _ = _round_trip(array, name)
            decoded[0] = 99  # must not raise

    def test_unknown_codec_rejected(self):
        with pytest.raises(codec.CodecError):
            with codec.encoding("lz77"):
                pass

    def test_frame_and_legacy_interop_in_one_stream(self):
        """Codec frames and legacy records coexist in one byte stream."""
        compressible = np.repeat(np.arange(8, dtype=np.int64), 512)
        incompressible = np.random.default_rng(4).random(1000)
        buffer = io.BytesIO()
        with codec.encoding("adaptive"):
            serialize.write_array(buffer, compressible)
        serialize.write_array(buffer, incompressible)
        buffer.seek(0)
        np.testing.assert_array_equal(serialize.read_array(buffer), compressible)
        np.testing.assert_array_equal(serialize.read_array(buffer), incompressible)


class TestAdaptiveNeverLoses:
    @pytest.mark.parametrize(
        "array",
        [
            np.random.default_rng(5).random(5000),
            np.repeat(np.arange(25, dtype=np.int64), 400),
            np.array(["x", "y"], dtype="U1")[
                np.random.default_rng(6).integers(0, 2, 10000)
            ],
            np.random.default_rng(7).integers(0, 2**62, 3000),
            np.arange(100, dtype=np.int32),
        ],
    )
    def test_adaptive_leq_raw(self, array):
        adaptive = codec.encode_array(array, "adaptive")
        raw = codec.encode_array(array, "raw")
        assert len(adaptive) <= len(raw)


class TestCodecStats:
    def test_encode_stats_recorded(self):
        stats = codec.CodecStats()
        array = np.repeat(np.arange(16, dtype=np.int64), 256)
        with codec.encoding("rle", stats):
            serialize.serialize_array(array)
        assert stats.arrays == 1
        assert stats.raw_bytes == array.nbytes
        assert stats.encoded_bytes < stats.raw_bytes
        assert "rle" in stats.per_codec

    def test_decode_stats_recorded(self):
        blob = codec.encode_array(np.repeat(np.arange(16, dtype=np.int64), 256), "zlib")
        stats = codec.CodecStats()
        with codec.recording(stats):
            codec.decode_array(blob)
        assert stats.decoded_arrays == 1
        assert stats.decoded_encoded_bytes < stats.decoded_raw_bytes

    def test_cost_model_charges_codec_time(self):
        stats = codec.CodecStats()
        with codec.encoding("zlib", stats):
            serialize.serialize_array(np.repeat(np.arange(16, dtype=np.int64), 256))
        encode_cost = codec.encode_cost_seconds(stats.to_json())
        decode_cost = codec.decode_cost_seconds(stats.to_json())
        assert encode_cost > 0.0
        assert decode_cost > 0.0
        assert codec.encode_cost_seconds(None) == 0.0

    def test_raw_costs_nothing(self):
        stats = codec.CodecStats()
        with codec.encoding("raw", stats):
            serialize.serialize_array(np.arange(1000, dtype=np.int64))
        assert codec.encode_cost_seconds(stats.to_json()) == 0.0


@pytest.mark.parametrize("query", SAMPLE_QUERIES)
@pytest.mark.parametrize("codec_name", CODECS)
@pytest.mark.parametrize("strategy_cls", [PipelineLevelStrategy, ProcessLevelStrategy])
def test_codec_suspend_resume_equivalence(
    tpch_tiny, tmp_path, query, codec_name, strategy_cls
):
    """Resumed results are byte-identical under every codec and strategy,
    and store-registered records report exact on-disk sizes."""
    profile = HardwareProfile()
    normal = run_normal(tpch_tiny, query)
    strategy = strategy_cls(profile, codec=codec_name)
    executor, capture, _ = suspend(
        tpch_tiny, query, strategy, 0.5, normal.stats.duration, profile=profile
    )
    if capture is None:
        pytest.skip("query finished before the suspension point")
    persisted = strategy.persist(capture, tmp_path)
    assert persisted.codec == codec_name
    assert persisted.intermediate_bytes > 0
    if codec_name != "raw":
        assert persisted.raw_bytes is not None
        assert persisted.intermediate_bytes <= persisted.raw_bytes

    store = SnapshotStore(tmp_path / "store")
    record = store.register(persisted, query)
    assert record.codec == codec_name
    assert record.file_bytes == store.path_of(record).stat().st_size

    resumed = strategy.prepare_resume(
        store.path_of(record), executor.pipelines, executor.plan_fingerprint
    )
    final = QueryExecutor(
        tpch_tiny,
        build_query(query),
        profile=profile,
        clock=SimulatedClock(),
        query_name=query,
        resume=resumed.resume_state,
    ).run()
    assert_chunks_equal(normal.chunk, final.chunk)


def test_pipeline_codec_shrinks_persisted_bytes(tpch_tiny, tmp_path):
    """An adaptive pipeline snapshot is never larger than raw — and for a
    join-heavy query it should be meaningfully smaller."""
    profile = HardwareProfile()
    normal = run_normal(tpch_tiny, "Q3")
    sizes = {}
    for codec_name in ("raw", "adaptive"):
        strategy = PipelineLevelStrategy(profile, codec=codec_name)
        _, capture, _ = suspend(
            tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration, profile=profile
        )
        directory = tmp_path / codec_name
        directory.mkdir()
        persisted = strategy.persist(capture, directory)
        sizes[codec_name] = persisted.intermediate_bytes
    assert sizes["adaptive"] <= sizes["raw"]


def test_codec_metrics_emitted(tpch_tiny, tmp_path):
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    profile = HardwareProfile()
    normal = run_normal(tpch_tiny, "Q1")
    strategy = PipelineLevelStrategy(profile, metrics=metrics, codec="adaptive")
    _, capture, _ = suspend(
        tpch_tiny, "Q1", strategy, 0.5, normal.stats.duration, profile=profile
    )
    if capture is None:
        pytest.skip("query finished before the suspension point")
    strategy.persist(capture, tmp_path)
    raw = metrics.counter("codec_raw_bytes_total", codec="adaptive").value
    encoded = metrics.counter("codec_encoded_bytes_total", codec="adaptive").value
    assert raw > 0
    assert 0 < encoded <= raw


# -- frames stay byte-identical to the pick-then-encode reference ------------------


def _reference_zlib(contiguous):
    view = memoryview(contiguous).cast("B") if contiguous.ndim else memoryview(contiguous)
    return zlib.compress(bytes(view), 6)


_REFERENCE_ENCODERS = {"zlib": _reference_zlib, "rle": codec._encode_rle, "dict": codec._encode_dict}


def _reference_record(array, codec_name):
    """The record written by probing a prefix, picking the best ratio, and
    then encoding the whole array again (the encoder before it reused the
    probe's payload)."""
    contiguous = np.ascontiguousarray(array)
    legacy = serialize.serialize_array(contiguous)
    if codec_name == "raw" or contiguous.nbytes < codec._MIN_ENCODE_BYTES:
        return legacy
    applicable = codec._applicable_codecs(contiguous)
    if codec_name == "adaptive":
        sample = contiguous[: codec._PROBE_ELEMENTS] if contiguous.ndim == 1 else contiguous
        chosen, best = None, codec._ADAPTIVE_THRESHOLD
        for name in applicable:
            ratio = len(_REFERENCE_ENCODERS[name](sample)) / max(1, sample.nbytes)
            if ratio < best:
                chosen, best = name, ratio
    else:
        chosen = codec_name if codec_name in applicable else None
    if chosen is None:
        return legacy
    payload = _REFERENCE_ENCODERS[chosen](contiguous)
    if len(payload) + codec._frame_overhead(chosen, contiguous) >= len(legacy):
        return legacy
    return codec._build_frame(chosen, contiguous, payload)


def _reference_arrays():
    rng = np.random.default_rng(12)
    words = np.array(["alpha", "beta", "gamma", "delta", "epsilon"], dtype="U8")
    arrays = {
        "empty-int": np.empty(0, dtype=np.int64),
        "empty-str": np.empty(0, dtype="U5"),
        "empty-2d": np.empty((0, 3), dtype=np.float64),
        "2d-zeros": np.zeros((64, 64), dtype=np.int64),
        "2d-floats": np.round(rng.random((50, 30)), 1),
        "2d-random": rng.random((40, 20)),
        "scalar-str": np.array("x" * 100),
        "bools": rng.random(3000) < 0.1,
    }
    for size in (
        codec._PROBE_ELEMENTS - 1, codec._PROBE_ELEMENTS, codec._PROBE_ELEMENTS + 1
    ):
        arrays[f"ints-{size}"] = rng.integers(0, 40, size)
        arrays[f"runs-{size}"] = np.sort(rng.integers(0, 40, size))
        arrays[f"wide-ints-{size}"] = rng.integers(0, 2**62, size)
        arrays[f"floats-{size}"] = np.repeat(rng.random(size // 8 + 1), 8)[:size]
        arrays[f"random-floats-{size}"] = rng.random(size)
        arrays[f"strings-{size}"] = words[rng.integers(0, len(words), size)]
    return arrays


REFERENCE_ARRAYS = _reference_arrays()


@pytest.mark.parametrize("codec_name", ["raw", "zlib", "rle", "dict", "adaptive"])
@pytest.mark.parametrize("label", sorted(REFERENCE_ARRAYS))
def test_frames_match_reference_encode(label, codec_name):
    array = REFERENCE_ARRAYS[label]
    assert codec.encode_array(array, codec_name) == _reference_record(array, codec_name)


def test_probe_payload_is_not_encoded_twice(monkeypatch):
    """When the probe sample is the whole array, its payload is the frame's."""
    calls = []
    encode = codec._ENCODERS["zlib"]
    monkeypatch.setitem(
        codec._ENCODERS, "zlib", lambda array: calls.append(array.shape) or encode(array)
    )
    codec.encode_array(np.zeros((64, 64), dtype=np.int64), "adaptive")
    assert calls == [(64, 64)]


# -- the encode-once memo on finalized global states --------------------------------


def _join_build(seed=11, rows=5000, finalize=True):
    rng = np.random.default_rng(seed)
    schema = Schema.of(("key", DataType.INT64), ("label", DataType.STRING))
    labels = np.array(["red", "green", "blue"], dtype="U5")
    chunk = DataChunk(schema, [rng.integers(0, 50, rows), labels[rng.integers(0, 3, rows)]])
    sink = HashJoinBuildSink(schema, ["key"])
    state, local = sink.make_global_state(), sink.make_local_state()
    sink.sink(local, chunk)
    sink.combine(state, local)
    if finalize:
        sink.finalize(state)
    return sink, state


def _fresh_encode(state, codec_name):
    stats = codec.CodecStats()
    with codec.encoding(codec_name, stats):
        return state.serialize(), stats


class TestEncodeMemo:
    def test_unfinalized_state_raises_and_stores_nothing(self):
        _, state = _join_build(finalize=False)
        with pytest.raises(ValueError, match="unfinalized"):
            state.encoded("adaptive")
        assert state._encodings is None

    def test_memoized_encode_matches_fresh_encode(self):
        _, state = _join_build()
        blob, stats = state.encoded("adaptive")
        assert state.encoded("adaptive")[0] is blob
        assert state.encoded("adaptive")[1] is stats
        fresh_blob, fresh_stats = _fresh_encode(state, "adaptive")
        assert blob == fresh_blob
        assert stats.to_json() == fresh_stats.to_json()

    def test_deserialized_state_starts_empty(self):
        sink, state = _join_build()
        blob, _ = state.encoded("adaptive")
        restored = sink.deserialize_global_state(blob)
        assert restored._encodings is None
        assert restored.encoded("adaptive")[0] == blob

    def test_raw_is_never_retained(self):
        _, state = _join_build()
        blob, stats = state.encoded("raw")
        assert blob == state.serialize()
        assert stats.arrays > 0 and stats.saved_bytes == 0
        assert state._encodings is None

    def test_codecs_memoize_independently(self):
        _, state = _join_build()
        zlib_blob, _ = state.encoded("zlib")
        adaptive_blob, _ = state.encoded("adaptive")
        assert sorted(state._encodings) == ["adaptive", "zlib"]
        assert zlib_blob == _fresh_encode(state, "zlib")[0]
        assert adaptive_blob == _fresh_encode(state, "adaptive")[0]

    def test_merged_stats_equal_one_shared_session(self):
        states = [_join_build(seed)[1] for seed in (1, 2, 3)]
        shared = codec.CodecStats()
        with codec.encoding("adaptive", shared):
            for state in states:
                state.serialize()
        merged = codec.CodecStats()
        for state in states:
            merged.merge(state.encoded("adaptive")[1])
        assert merged == shared
        assert merged.to_json() == shared.to_json()

    def test_merge_folds_decode_counts(self):
        left, right = codec.CodecStats(), codec.CodecStats()
        left.record_decode("zlib", 100, 40)
        right.record_decode("zlib", 50, 10)
        right.record_encode("rle", 80, 8)
        left.merge(right)
        assert (left.decoded_arrays, left.decoded_raw_bytes, left.decoded_encoded_bytes) == (2, 150, 50)
        assert left.per_codec["zlib"]["decoded_arrays"] == 2
        assert left.per_codec["rle"]["encoded_bytes"] == 8


class TestEncodeMemoInvisible:
    """Every query × codec × strategy, adaptively decided with a journal and
    an incremental store, writes the same bytes with and without the memo."""

    #: Process images that never fit in memory leave pipeline vs redo;
    #: free images make process-level win wherever suspending pays.
    ESTIMATORS = {"pipeline": lambda fraction: 1e18, "process": lambda fraction: 0.0}

    @pytest.fixture(scope="class")
    def normals(self, tpch_tiny):
        return {
            query: QueryExecutor(tpch_tiny, build_query(query), query_name=query)
            .run()
            .stats.duration
            for query in QUERY_NAMES
        }

    def _sweep(self, catalog, normals, directory, codec_name, strategy):
        journal = DecisionJournal()
        store = SnapshotStore(directory / "store", incremental=True)
        runner = QueryRunner(
            catalog, HardwareProfile(), snapshot_dir=directory, codec=codec_name,
            journal=journal, store=store,
        )
        outcomes = []
        for query in QUERY_NAMES:
            normal = normals[query]
            selector = AdaptiveStrategySelector(
                profile=HardwareProfile(),
                # A late window: several redo decisions, then a suspension.
                termination=TerminationProfile.from_fractions(normal, 0.6, 0.9, 1.0),
                process_size_estimator=self.ESTIMATORS[strategy],
                estimated_total_time=normal,
                codec=codec_name,
                journal=journal,
            )
            outcome = runner.run_adaptive(build_query(query), query, selector, normal, None)
            digest = hashlib.sha256()
            for column in outcome.result.chunk.arrays():
                digest.update(np.ascontiguousarray(column).tobytes())
            outcomes.append(
                (
                    query, outcome.strategy, outcome.suspended, outcome.busy_time,
                    outcome.overhead, outcome.intermediate_bytes, outcome.raw_bytes,
                    len(selector.decisions), digest.hexdigest(),
                )
            )
        files = {
            str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }
        return journal.to_jsonl(), files, outcomes

    @pytest.mark.parametrize("strategy", ["pipeline", "process"])
    @pytest.mark.parametrize("codec_name", ["raw", "zlib", "adaptive"])
    def test_memo_changes_no_byte(
        self, tpch_tiny, normals, tmp_path, monkeypatch, codec_name, strategy
    ):
        memoized = GlobalSinkState.encoded
        calls = []

        def observed(state, name):
            calls.append((state, name, bool(state._encodings and name in state._encodings)))
            return memoized(state, name)

        monkeypatch.setattr(GlobalSinkState, "encoded", observed)
        with_memo = self._sweep(tpch_tiny, normals, tmp_path / "memo", codec_name, strategy)
        monkeypatch.setattr(GlobalSinkState, "encoded", _fresh_encode)
        without = self._sweep(tpch_tiny, normals, tmp_path / "fresh", codec_name, strategy)

        journal, files, outcomes = with_memo
        assert journal == without[0]
        assert files.keys() == without[1].keys()
        for name, data in files.items():
            assert data == without[1][name], name
        assert outcomes == without[2]

        suspended = [o for o in outcomes if o[2]]
        assert len(suspended) >= 5 and {o[1] for o in suspended} == {strategy}
        assert max(o[7] for o in suspended) >= 3  # several decisions, then suspend
        hits = sum(hit for _, _, hit in calls)
        assert hits == 0 if codec_name == "raw" else hits > 0
        # Finalized states never change: each memo still equals a fresh encode.
        for state, _, _ in calls:
            for name, (blob, stats) in (state._encodings or {}).items():
                fresh_blob, fresh_stats = _fresh_encode(state, name)
                assert blob == fresh_blob
                assert stats.to_json() == fresh_stats.to_json()
