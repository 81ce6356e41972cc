"""Benchmark of the jetbound engine, end to end or per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table_cold|sweep_n3k5|query_warm \
        --seed N --seconds S --trace 0|1

The engine is imported from ``src/``.  Set-up runs in fresh interpreters
(``setup_child.py``), the workload in this process, one thread.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, as times at
the reference speed of the host-speed probe (``hostspeed.py``); with
``--trace 1`` it carries the per-layer metrics, and the spans are written to
``perfbench/out/``.  Every output is checked; a failed check prints the
problem on stderr and exits 1.  README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, "work")
OUT_DIR = os.path.join(HERE, "out")


def timed_setups(workload: str, repeats: int, work: str) -> tuple[float, float, str]:
    """Median seconds of ``repeats`` set-ups at the reference speed and on the wall, and the last cache.

    Each set-up's wall time, less the time its own probe ran, is scaled by the
    median kernel time that probe saw.
    """
    scaled, wall = [], []
    for i in range(repeats):
        cache_dir = os.path.join(work, f"cache{i}")
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), workload, cache_dir],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        seconds = time.perf_counter() - start
        report = json.loads(child.stdout.splitlines()[-1])
        seconds -= report["busy_s"]
        wall.append(seconds)
        scaled.append(seconds * hostspeed.REFERENCE_S / statistics.median(report["kernel_s"]))
    return statistics.median(scaled), statistics.median(wall), cache_dir


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/jetbound/cli.py", "tests/oracle_gp_port.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run from the root of a jetbound checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        repeats = 1 if args.trace else cls.setup_repeats
        setup_s, setup_wall_s, cache_dir = timed_setups(args.workload, repeats, work)
        workload = cls(args.seed, cache_dir)
        probe = hostspeed.Probe()
        recorder = spans.Recorder(probe.clock)
        if args.trace:
            spans.install(recorder)
        probe.start()
        try:
            timing = workload.run(args.seconds, probe.clock)
        finally:
            probe.stop()
        timing.scale(probe)
        timed_spans = list(recorder.spans)
        problems = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        layers = spans.per_layer(timed_spans, cls.op_roots)
        # layer times at the reference speed, by the run's median kernel time
        for name in layers:
            if spans.METRICS[name] == "ms":
                layers[name] *= probe.factor()
        layers["traced.op_p50_ms"] = timing.op_p50_ms
        layers["traced.ops_per_s"] = timing.ops_per_s
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        spans.write_trace(trace_path, {"workload": args.workload, "seed": args.seed}, timed_spans)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spans.METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": timing.peak_rss_mb, "unit": "MB"},
            "op_p50_ms": {"value": timing.op_p50_ms, "unit": "ms"},
            "ops_per_s": {"value": timing.ops_per_s, "unit": "1/s"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {timing.attempted} operations, {timing.failed} failed, "
          f"{timing.elapsed_s:.3f} s measured, {len(problems)} failed checks; on the wall: "
          f"setup {setup_wall_s:.3f} s, op p50 {timing.wall_p50_ms:.3f} ms; "
          f"probe kernel median {1000 * statistics.median(probe.durations):.3f} ms "
          f"(reference {1000 * hostspeed.REFERENCE_S:.1f} ms)")
    print(json.dumps({
        "correct": not problems,
        "attempted": timing.attempted,
        "failed": timing.failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
