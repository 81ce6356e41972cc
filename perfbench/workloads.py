"""The three workloads: inputs made from the seed, the timed loop, the checks.

Each workload runs whole rounds of the same operations, so the share of
failed operations does not depend on the seed or on the run length.  Outputs
are kept during the timed loop (a sweep round as JSON text) and checked
after it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks
import hostspeed

HIT_CELLS = [(n, k) for n in (2, 3, 4) for k in range(n, 6)]
# the order of each miss on n = 2 in one round, per format: (2, 5) computes longest
MISS_ORDERS = (2, 3, 4) + (5,) * 6
ROUND_REQUESTS = 3 * (2 * len(HIT_CELLS) + len(MISS_ORDERS))
ORACLE_CELLS = [(2, 2), (2, 3), (2, 4), (3, 3)]
SWEEP_DIM, SWEEP_ORDER, SWEEP_BUDGET, SWEEP_TWINS = 3, 5, 12, 2
SWEEP_TOTAL_DIM = SWEEP_DIM + SWEEP_ORDER * (SWEEP_DIM - 1)


def ladder(k: int) -> tuple[int, ...]:
    """The default weights (2*3^(k-2), ..., 6, 2, 1)."""
    return tuple(2 * 3 ** (k - j - 1) for j in range(1, k)) + (1,)


def oracle_polynomials(groups: list[list[tuple[int, int]]]) -> dict:
    """P(d) of logarithmic cells from the independent sympy port in tests/.

    Each group of cells runs in a child interpreter of its own, all side by
    side; every child is waited for, and killed first if anything fails.
    """
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_child.py")
    children = []
    try:
        for group in groups:
            argv = [sys.executable, script] + [f"{n},{k}" for n, k in group]
            children.append(subprocess.Popen(argv, stdout=subprocess.PIPE, text=True))
        ported = {}
        for child in children:
            out, _ = child.communicate()
            if child.returncode != 0:
                raise RuntimeError(f"the sympy port exited with {child.returncode}")
            ported.update({(n, k): coeffs for n, k, coeffs in json.loads(out)})
        return ported
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()


def read_cache(cache_dir: str) -> dict:
    """Stored payloads by (dim, order, weights), read straight from the files."""
    stored = {}
    for name in os.listdir(cache_dir):
        if name.endswith(".json"):
            with open(os.path.join(cache_dir, name), "rb") as fh:
                payload = fh.read()
            data = json.loads(payload)
            stored[(data["dim"], data["order"], tuple(data["weights"]))] = payload
    return stored


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `jetbound` request: exit code and stdout."""
    from jetbound import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def fill_cache(cache_dir: str) -> None:
    """The query_warm set-up: one `bound` request per cell with n <= 4."""
    for n, k in HIT_CELLS:
        argv = ["bound", "--dim", str(n), "--order", str(k), "--format", "json", "--cache-dir", cache_dir]
        if call_cli(argv)[0] != 0:
            raise RuntimeError(f"set-up request {argv} failed")


@dataclass
class Timing:
    """What the timed region measured: one interval per operation or round.

    Intervals are on the host-speed probe's clock; ``scale`` turns them into
    per-operation times at the probe's reference speed (hostspeed.py).  Peak
    memory is read once ``rss_after`` operations are done, since the engine's
    heap keeps growing over repeated rounds: a fixed amount of work, not the
    number of rounds that fit into the run, sets the figure.
    """

    clock: Callable[[], float]
    rss_after: int
    peak_rss_mb: Optional[float] = None
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    intervals: list[tuple[float, float, int]] = field(default_factory=list)
    samples_ms: list[float] = field(default_factory=list)
    scaled_s: float = 0.0

    def time(self, fn: Callable, operations: int = 1):
        """``fn()``, recording its interval as ``operations`` operations."""
        start = self.clock()
        result = fn()
        end = self.clock()
        self.intervals.append((start, end, operations))
        self.attempted += operations
        self.elapsed_s += end - start
        if self.peak_rss_mb is None and self.attempted >= self.rss_after:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result

    def running(self, seconds: float) -> bool:
        """Whether to start another round: until ``seconds`` are measured and peak memory is read."""
        return self.elapsed_s < seconds or self.peak_rss_mb is None

    def scale(self, probe: hostspeed.Probe) -> None:
        for start, end, operations in self.intervals:
            seconds = probe.scaled(start, end)
            self.scaled_s += seconds
            self.samples_ms.append(seconds * 1000.0 / operations)

    @property
    def op_p50_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.scaled_s

    @property
    def wall_p50_ms(self) -> float:
        return statistics.median((end - start) * 1000.0 / ops for start, end, ops in self.intervals)


class TableCold:
    """`jetbound table --format json`, default one thread, from an empty cache directory."""

    name = "table_cold"
    op_roots = ("cli.main",)
    setup_repeats = 5
    rss_after = 1

    def __init__(self, seed: int, cache_dir: str):
        # the ten cells are the workload; the seed selects nothing
        self.cache_dir = cache_dir

    def run(self, seconds: float, clock: Callable[[], float]) -> Timing:
        timing = Timing(clock, self.rss_after)
        self.code, self.out = timing.time(lambda: call_cli(["table", "--format", "json", "--cache-dir", self.cache_dir]))
        timing.failed = int(self.code != 0)
        return timing

    def check(self) -> list[str]:
        if self.code != 0:
            return [f"jetbound table exited with {self.code}"]
        cells = {(c["dim"], c["order"]): c for c in json.loads(self.out)["cells"]}
        thresholds = {cell: c["threshold"] for cell, c in cells.items()}
        problems = checks.check_table_bounds(thresholds, {cell: c["bound"] for cell, c in cells.items()})
        stored = {(n, k): json.loads(p) for (n, k, _), p in read_cache(self.cache_dir).items()}
        polys = {cell: [int(c) for c in report["polynomial"]] for cell, report in stored.items()}
        for (n, k), threshold in sorted(thresholds.items()):
            report = stored.get((n, k))
            if report is None or report["threshold"] != threshold or tuple(report["weights"]) != ladder(k):
                problems.append(f"cell {(n, k)}: no stored report with the table's threshold and default weights")
                continue
            label = f"cell {(n, k)}"
            problems += checks.check_shape(label, polys[(n, k)], n)
            problems += checks.check_threshold(label, polys[(n, k)], threshold)
        # the sympy port takes about 12 s on one core; its slowest cell, (3, 3), gets a child of its own
        expected = oracle_polynomials([[(3, 3)], [(2, 2), (2, 3), (2, 4)]])
        for cell in ORACLE_CELLS:
            problems += checks.check_equal(f"cell {cell} against the sympy port", polys.get(cell, []), expected[cell])
        return problems


class SweepN3K5:
    """Rounds of `run_sweep(logarithmic_pair(3), 5, 12)`."""

    name = "sweep_n3k5"
    op_roots = ("morse.compute_report", "sweep.run_sweep")
    setup_repeats = 5
    rss_after = 4 * SWEEP_BUDGET

    def __init__(self, seed: int, cache_dir: str):
        self.rng = random.Random(seed)
        self.rounds: list[str] = []

    @staticmethod
    def record(result) -> str:
        """A round as JSON text without timings.

        Rounds are kept as text, not as result objects, so that memory does
        not grow with the number of rounds a run fits in.
        """

        def stripped(report) -> dict:
            data = report.to_json_dict()
            del data["elapsed_ms"]
            return data

        return json.dumps({
            "reports": [stripped(r) for r in result.reports],
            "best": stripped(result.best),
            "evaluated": result.evaluated,
        })

    def run(self, seconds: float, clock: Callable[[], float]) -> Timing:
        from jetbound import logarithmic_pair, sweep

        spec = logarithmic_pair(SWEEP_DIM)
        timing = Timing(clock, self.rss_after)
        while timing.running(seconds):
            self.rounds.append(self.record(
                timing.time(lambda: sweep.run_sweep(spec, SWEEP_ORDER, SWEEP_BUDGET), SWEEP_BUDGET)
            ))
        return timing

    def check(self) -> list[str]:
        from jetbound import compute_report, logarithmic_pair

        problems = []
        first = json.loads(self.rounds[0])["reports"]
        for text in self.rounds:
            record = json.loads(text)
            problems += checks.check_sweep(record["reports"], record["best"], record["evaluated"], SWEEP_BUDGET)
            if record["reports"] != first:
                problems.append("sweep rounds over the same candidates disagree")
        for report in first:
            poly = [int(c) for c in report["polynomial"]]
            label = f"candidate {report['weights']}"
            problems += checks.check_shape(label, poly, SWEEP_DIM)
            problems += checks.check_threshold(label, poly, report["threshold"])
        for report in self.rng.sample(first, SWEEP_TWINS):
            twin = compute_report(logarithmic_pair(SWEEP_DIM), SWEEP_ORDER, [2 * a for a in report["weights"]])
            problems += checks.check_twin([int(c) for c in report["polynomial"]], twin.morse_poly.coeffs, SWEEP_TOTAL_DIM)
        return problems


class QueryWarm:
    """One closed-loop client of in-process `jetbound bound|poly` requests on a warm cache.

    A round holds 81 requests in a seeded order.  54 are hits: each of the
    nine cells n <= 4 with bound and poly in text, json and csv.  27 are
    misses, `bound` in each format on (2, k) with weights no earlier request
    used: once for k = 2, 3, 4 and six times for k = 5.  The misses are a
    third of the requests and, through the costly (2, 5) compute, about a
    third of the time, so doubling the miss path (compute and store) lowers
    ops_per_s by about its bound while op_p50_ms stays a hit latency.
    """

    name = "query_warm"
    op_roots = ("cli.main",)
    setup_repeats = 3
    rss_after = 10 * ROUND_REQUESTS

    def __init__(self, seed: int, cache_dir: str):
        self.seed = seed
        self.rng = random.Random(seed)
        self.cache_dir = cache_dir
        self.misses = {k: 0 for k in range(2, 6)}
        self.outputs: dict[tuple, set] = {}

    def _miss_weights(self, k: int) -> tuple[int, ...]:
        """The i-th fresh vector of order k: the ladder times 1..3, with a_1 raised by 1 + i // 3."""
        i = self.misses[k]
        self.misses[k] += 1
        scaled = [(1 + (self.seed + i) % 3) * a for a in ladder(k)]
        scaled[0] += 1 + i // 3
        return tuple(scaled)

    def _round(self) -> list[tuple]:
        formats = ("text", "json", "csv")
        requests = [
            (command, fmt, n, k, None)
            for n, k in HIT_CELLS for command in ("bound", "poly") for fmt in formats
        ]
        requests += [("bound", fmt, 2, k, self._miss_weights(k)) for k in MISS_ORDERS for fmt in formats]
        self.rng.shuffle(requests)
        return requests

    def run(self, seconds: float, clock: Callable[[], float]) -> Timing:
        timing = Timing(clock, self.rss_after)
        while timing.running(seconds):
            for request in self._round():
                command, fmt, n, k, weights = request
                argv = [command, "--dim", str(n), "--order", str(k), "--format", fmt, "--cache-dir", self.cache_dir]
                if weights is not None:
                    argv += ["--weights", ",".join(map(str, weights))]
                code, out = timing.time(lambda: call_cli(argv))
                timing.failed += code != 0
                self.outputs.setdefault(request, set()).add((code, out))
        return timing

    def check(self) -> list[str]:
        problems = []
        stored = read_cache(self.cache_dir)
        views: dict[tuple, list] = {}
        for (command, fmt, n, k, weights), outs in sorted(self.outputs.items(), key=repr):
            label = f"{command} --dim {n} --order {k} --format {fmt} --weights {weights}"
            if len(outs) != 1:
                problems.append(f"{label}: {len(outs)} different outputs for one request")
            code, out = min(outs)
            if code != 0:
                problems.append(f"{label}: exit code {code}")
                continue
            view = checks.parse_output(command, fmt, out)
            expected = ladder(k) if weights is None else weights
            if view.get("weights", expected) != expected:
                problems.append(f"{label}: weights {view['weights']}")
            if command == "bound" and fmt == "json":
                problems += checks.check_replay(label, out.encode(), stored.get((n, k, expected), b""))
            views.setdefault((n, k, expected), []).append(view)
        for (n, k, weights), group in views.items():
            label = f"cell {(n, k)} weights {weights}"
            problems += checks.check_agreement(label, group)
            poly = group[0]["polynomial"]
            problems += checks.check_shape(label, poly, n)
            for threshold in {v["threshold"] for v in group if "threshold" in v}:
                problems += checks.check_threshold(label, poly, threshold)
        return problems


WORKLOADS = {w.name: w for w in (TableCold, SweepN3K5, QueryWarm)}
