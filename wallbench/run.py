"""Wall-clock benchmark of the repro engine, end to end and per layer.

Usage, from the root of a checkout::

    python3 wallbench/run.py --workload tpch-steady --seed 1 --seconds 20 --trace 0

One run sets the workload up several times (the median is ``setup_s``),
warms up, then runs operations in a closed loop with one client for
``--seconds`` seconds, checking every output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes over the same inputs and reports the
per-layer metrics, writing a Chrome trace and a self-time table under
``.wallbench/traces/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

See ``wallbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()
# One compute thread: the host has two cores and the benchmark is one client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from measure import MIN_BEYOND, HostProbe, min_samples, percentile  # noqa: E402
from spans import (  # noqa: E402
    SpanRecorder, chrome_trace, format_layer_table, install, layer_table, uninstall,
)

WORKLOAD_NAMES = ("tpch-steady", "tpch-reclaim", "fleet-day", "tpch-sharded")

#: ``(name, unit, better)`` of every end-to-end metric; BENCHMARK.json
#: lists the same set (checked by the tests).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p95_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
)

#: Set-up repetitions per run; ``setup_s`` is import time plus their median.
SETUP_REPEATS = 3
#: Untimed warm-up after set-up, on inputs the timed loop never uses.
WARMUP_S = 1.0
WARMUP_PASS = 1_000_000
#: Samples a run needs so that its p95 has MIN_BEYOND samples beyond it;
#: a loop short of them keeps going, up to EXTEND_LIMIT_S in all.
MIN_OPS = min_samples(0.95, MIN_BEYOND)
EXTEND_LIMIT_S = 120.0
#: Interval between host-speed probes in the timed loop.
PROBE_EVERY_S = 0.5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Loop:
    """Runs ops, timing each and counting failures; never retries."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def op(self, item) -> float:
        started = time.perf_counter()
        try:
            ok = self.workload.run_op(item)
        except Exception:  # a failed op is counted and reported, the loop goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        elapsed = time.perf_counter() - started
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"op failed: {item!r}", file=sys.stderr)
        return elapsed


def hard_deadline(start: float, seconds: float) -> float:
    """Latest end of a timed loop that is short of samples (exit within 180 s)."""
    return start + max(seconds, EXTEND_LIMIT_S)


def run_untraced(loop: Loop, seconds: float, probe) -> float:
    """The timed loop; returns its wall time, probe time excluded.

    The loop ends at the first pass boundary after *seconds* once it has
    :data:`MIN_OPS` ops, so every pass it times is complete.  The host
    probe runs between ops every :data:`PROBE_EVERY_S`.
    """
    start = time.perf_counter()
    deadline = start + seconds
    latest = hard_deadline(start, seconds)
    probing = 0.0
    last_probe = -PROBE_EVERY_S
    index = 0
    while True:
        for item in loop.workload.make_pass(index):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probing += probe.measure()
                last_probe = time.perf_counter()
            loop.latencies.append(loop.op(item))
            if time.perf_counter() >= latest:
                break
        index += 1
        now = time.perf_counter()
        if (now >= deadline and len(loop.latencies) >= MIN_OPS) or now >= latest:
            return now - start - probing


def run_traced(loop: Loop, seconds: float, recorder, counters, patches):
    """Alternate untraced and traced passes over the same inputs.

    Even passes run untraced first, odd passes traced first, so neither
    side always sees a warmer store.  Returns the traced op ids, the
    traced wall time and the traced/untraced wall ratio.
    """
    from repro.engine import chunk as chunkmod

    start = time.perf_counter()
    deadline = start + seconds
    traced_ops: set[int] = set()
    walls = {False: 0.0, True: 0.0}
    next_op = 0
    index = 0
    while True:
        items = loop.workload.make_pass(index)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                install(recorder, patches)
                materialized = chunkmod.materialized_bytes()
            began = time.perf_counter()
            for item in items:
                if traced:
                    recorder.op_id = next_op
                    traced_ops.add(next_op)
                    next_op += 1
                    with recorder.span("bench.op"):
                        loop.op(item)
                    recorder.op_id = -1
                else:
                    loop.op(item)
            walls[traced] += time.perf_counter() - began
            if traced:
                uninstall(patches)
                counters.values["executor.bytes_materialized"] += (
                    chunkmod.materialized_bytes() - materialized
                )
        index += 1
        if time.perf_counter() >= deadline:
            break
    return traced_ops, walls[True], walls[True] / walls[False]


def warm_up(loop: Loop) -> None:
    """Untimed ops; their failures still count."""
    started = time.perf_counter()
    for item in loop.workload.make_pass(WARMUP_PASS):
        loop.op(item)
        if time.perf_counter() - started >= WARMUP_S:
            break


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        import workloads
        from layers import PER_LAYER, SETUP_OP, Counters, boundary_patches, layer_metrics
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START

    state_dir = ROOT / ".wallbench"
    workdir = state_dir / f"work-{os.getpid()}"
    recorder = SpanRecorder()
    counters = Counters(recorder)
    patches = boundary_patches(counters, workloads.DurableStore) if args.trace else []
    try:
        setup_times = []
        workload = None
        for _ in range(SETUP_REPEATS):
            workload = None
            gc.collect()
            if args.trace:
                recorder.op_id = SETUP_OP
                install(recorder, patches)
            started = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir, counters)
            workload.setup()
            setup_times.append(time.perf_counter() - started)
            if args.trace:
                uninstall(patches)
                recorder.op_id = -1
        loop = Loop(workload)
        warm_up(loop)
        gc.collect()
        if args.trace:
            traced_ops, traced_wall, overhead = run_traced(
                loop, args.seconds, recorder, counters, patches
            )
        else:
            probe = HostProbe()
            loop_wall = run_untraced(loop, args.seconds, probe)
        workload.finish()
        problems = workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(
            recorder, counters, traced_ops, traced_wall, overhead, SETUP_REPEATS
        )
        units = dict(PER_LAYER)
        out_dir = state_dir / "traces" / f"{args.workload}-seed{args.seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        dropped = chrome_trace(recorder, out_dir / "trace.json", traced_ops)
        table = format_layer_table(layer_table(recorder, traced_ops), traced_wall)
        (out_dir / "layers.txt").write_text(table)
        print(table, end="")
        print(f"trace: {out_dir / 'trace.json'} ({dropped} spans beyond the file cap)")
    else:
        latencies = loop.latencies
        measured = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_p50_s": percentile(latencies, 0.50),
            "op_p95_s": percentile(latencies, 0.95),
            "ops_per_s": len(latencies) / loop_wall,
        }
        factor = probe.factor()
        metrics = {
            name: value / factor if name == "ops_per_s" else value * factor
            for name, value in measured.items()
        }
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["success_ratio"] = (loop.attempted - loop.failed) / loop.attempted
        units = {name: unit for name, unit, _ in END_TO_END}
        better = {name: direction for name, _, direction in END_TO_END}
        arrays, objects = (statistics.median(part) for part in zip(*probe.parts))
        print(
            f"{args.workload} seed {args.seed}: {len(latencies)} ops; host speed factor "
            f"{factor:.4f} (median of {len(probe.times)} probes; arrays {arrays:.6f} s, "
            f"objects {objects:.6f} s)"
        )
        for name, value in metrics.items():
            raw = f"  measured {measured[name]:.6f}" if name in measured else ""
            print(
                f"  {name:<14} {value:>14.6f} {units[name]:<6} "
                f"({better[name]} is better){raw}"
            )

    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
