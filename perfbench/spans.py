"""Spans around calls into the engine, recorded by the benchmark for the traced run.

The engine is not modified: ``install`` replaces public functions of
``cli``, ``cache``, ``sweep``, ``morse``, ``tower`` and ``geometry`` (at the
names their callers look up) with wrappers that record one span per call.
A span is (id, name, start, end, parent, attrs).  Spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import types

CELLS = [f"n{n}k{k}" for n in range(2, 6) for k in range(n, 6)]
HEAVY_CELLS = ("n3k5", "n4k5", "n5k5")

# Per-layer time metric -> the spans whose durations it sums.
LAYER_SPANS = {
    "cli.parse_ms": ("cli.build_parser", "cli.parse_args"),
    "cache.key_ms": ("cache.key",),
    "cache.fetch_ms": ("cache.fetch",),
    "cli.decode_ms": ("cli.json_loads", "morse.MorseReport.from_json_dict"),
    "cli.compute_ms": ("morse.compute_report",),
    "cache.store_ms": ("cache.store",),
    "tower.relations_ms": ("tower.build_relations",),
    "morse.assembly_ms": ("morse.morse_class",),
    "tower.pushforward_ms": ("tower.pushforward_to_base",),
    "geometry.evaluate_ms": ("geometry.evaluate_in_degree",),
    "morse.threshold_ms": ("morse.degree_threshold",),
    "sweep.enumerate_ms": ("sweep.enumerate_admissible",),
}

# Every per-layer metric and its unit, in the order BENCHMARK.json lists them.
METRICS = {
    **{f"morse.class_terms.{c}": "count" for c in CELLS},
    **{f"tower.base_terms.{c}": "count" for c in CELLS},
    **{f"tower.pushforward_ms.{c}": "ms" for c in HEAVY_CELLS},
    **{f"morse.assembly_ms.{c}": "ms" for c in HEAVY_CELLS},
    **{name: "ms" for name in LAYER_SPANS},
    "morse.class_terms": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "traced.op_p50_ms": "ms",
    "traced.ops_per_s": "1/s",
}


def _cell(ctx) -> str:
    return f"n{ctx.n}k{ctx.k}"


class Recorder:
    """In-memory span store with a stack for parents; times come from ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def _open(self, name: str, start: float) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "attrs": {},
        }
        self.spans.append(span)
        return span

    def traced(self, name, fn, attrs=None):
        """``fn`` wrapped so that each call records a span; ``attrs(args, result)`` adds attributes."""

        def wrapper(*args, **kwargs):
            span = self._open(name, self.clock())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if attrs is not None:
                span["attrs"].update(attrs(args, result))
            return result

        return wrapper

    def add(self, name: str, start: float, end: float) -> None:
        """A span covering several calls, closed at once."""
        self._open(name, start)["end"] = end

    def last_start(self, name: str) -> float:
        return next(s["start"] for s in reversed(self.spans) if s["name"] == name)


def write_trace(path: str, header: dict, spans: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({**header, "spans": spans}, fh)


def install(rec: Recorder) -> None:
    """Wrap the engine's public functions at the names their callers look up."""
    from jetbound import cache, cli, morse, sweep, tower

    build_parser = cli.build_parser

    def traced_build_parser():
        parser = rec.traced("cli.build_parser", build_parser)()
        parser.parse_args = rec.traced("cli.parse_args", parser.parse_args)
        return parser

    cache_key = rec.traced("cache.cache_key", cache.cache_key)

    def traced_cache_key(*args, **kwargs):
        # the key covers the tower context and its relation text, built just before
        key = cache_key(*args, **kwargs)
        rec.add("cache.key", rec.last_start("cli.TowerContext"), rec.clock())
        return key

    compute_report = rec.traced("morse.compute_report", morse.compute_report)
    cli.main = rec.traced("cli.main", cli.main)
    cli.build_parser = traced_build_parser
    cli.TowerContext = rec.traced("cli.TowerContext", cli.TowerContext)
    cli.json = types.SimpleNamespace(loads=rec.traced("cli.json_loads", json.loads), dumps=json.dumps)
    cli.compute_report = compute_report
    cache.cache_key = traced_cache_key
    cache.fetch = rec.traced("cache.fetch", cache.fetch, lambda a, r: {"hit": r is not None})
    cache.store = rec.traced("cache.store", cache.store)
    morse.MorseReport.from_json_dict = staticmethod(
        rec.traced("morse.MorseReport.from_json_dict", morse.MorseReport.from_json_dict)
    )
    morse.morse_class = rec.traced(
        "morse.morse_class", morse.morse_class, lambda a, r: {"cell": _cell(a[0]), "terms": len(r)}
    )
    morse.pushforward_to_base = rec.traced(
        "tower.pushforward_to_base",
        morse.pushforward_to_base,
        lambda a, r: {"cell": _cell(a[1].ctx), "terms": len(r)},
    )
    morse.evaluate_in_degree = rec.traced("geometry.evaluate_in_degree", morse.evaluate_in_degree)
    morse.degree_threshold = rec.traced("morse.degree_threshold", morse.degree_threshold)
    tower.build_relations = rec.traced(
        "tower.build_relations", tower.build_relations, lambda a, r: {"cell": _cell(a[0])}
    )
    sweep.compute_report = compute_report
    sweep.enumerate_admissible = rec.traced("sweep.enumerate_admissible", sweep.enumerate_admissible)
    sweep.run_sweep = rec.traced("sweep.run_sweep", sweep.run_sweep)


def per_layer(spans: list[dict], op_roots: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics from the spans of one run.

    An operation is the nearest enclosing span named in ``op_roots``.  A time
    metric is the layer's time summed within one operation, as the median
    over the operations in which the layer ran (0 where it never ran).
    """
    op_of: dict[int, int] = {}
    for s in spans:
        op_of[s["id"]] = s["id"] if s["name"] in op_roots else op_of.get(s["parent"], -1)

    def median_per_op(select, value) -> float:
        per_op: dict[int, float] = {}
        for s in spans:
            if select(s):
                per_op[op_of[s["id"]]] = per_op.get(op_of[s["id"]], 0.0) + value(s)
        return statistics.median(per_op.values()) if per_op else 0

    def ms(s) -> float:
        return (s["end"] - s["start"]) * 1000.0

    metrics: dict[str, float] = {}
    for name, span_names in LAYER_SPANS.items():
        metrics[name] = median_per_op(lambda s: s["name"] in span_names, ms)
    for cell in HEAVY_CELLS:
        for prefix, span_name in (("tower.pushforward_ms", "tower.pushforward_to_base"),
                                  ("morse.assembly_ms", "morse.morse_class")):
            metrics[f"{prefix}.{cell}"] = median_per_op(
                lambda s: s["name"] == span_name and s["attrs"]["cell"] == cell, ms
            )
    for prefix, span_name in (("morse.class_terms", "morse.morse_class"),
                              ("tower.base_terms", "tower.pushforward_to_base")):
        for cell in CELLS:
            metrics[f"{prefix}.{cell}"] = max(
                (s["attrs"]["terms"] for s in spans if s["name"] == span_name and s["attrs"]["cell"] == cell),
                default=0,
            )
    metrics["morse.class_terms"] = median_per_op(
        lambda s: s["name"] == "morse.morse_class", lambda s: s["attrs"]["terms"]
    )
    fetches = [s["attrs"]["hit"] for s in spans if s["name"] == "cache.fetch"]
    metrics["cache.hits"] = sum(fetches)
    metrics["cache.misses"] = len(fetches) - sum(fetches)
    metrics["cache.hit_ratio"] = sum(fetches) / len(fetches) if fetches else 0
    return metrics
