"""Command-line front end: bound, poly, table, sweep, verify.

``bound``, ``poly``, ``table`` and ``sweep`` fetch or compute their reports
through ``cached_reports``, the one cache path, whose misses are one job
list for ``morse.compute_reports``, computed in this process.  A known
command is parsed by its own parser in one pass, and each command builds
only the view ``--format`` prints.

Exit codes: 0 success, 2 invalid input or weights, an oversized job or an
unusable cache directory, 3 no threshold (the degree polynomial has
non-positive leading coefficient), 4 violated internal invariant or failed
verification.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from typing import Optional, Sequence

from . import cache, sweep
from .errors import CacheDirectoryError, InadmissibleWeightsError, JetboundError, OversizedJobError
from .geometry import GeometrySpec
from .morse import MorseReport, WeightVector, class_terms, compute_reports, default_weights, order_bounds
from .tower import TowerContext
from .verify import MAX_DIM, run_all

TABLE_CELLS = [(n, k) for n in range(2, 6) for k in range(n, 6)]

#: Most Morse-class terms of one job: admits (5,6), 1,385,824 terms, and refuses (6,6), 4,587,778.
#: It counts the full class (``class_terms``), which no job forms: every job integrates products of
#: Segre classes ((6,6) in about 0.5 s).
MAX_CLASS_TERMS = 2_000_000


def _json_text(data) -> str:
    """The canonical JSON of every command and of every stored report."""
    return json.dumps(data, indent=2) + "\n"


def _unwritable(cache_dir: str, exc: OSError) -> CacheDirectoryError:
    return CacheDirectoryError(f"cannot write cache directory {cache_dir}: {exc.strerror or exc}")


def _refuse_oversized(n: int, k: int) -> None:
    """Raise ``OversizedJobError`` when the Morse class of the (n, k) tower has more than ``MAX_CLASS_TERMS`` terms."""
    terms = class_terms(n, k)
    if terms > MAX_CLASS_TERMS:
        raise OversizedJobError(f"the Morse class of the ({n}, {k}) tower has {terms} terms, "
                                f"above the limit of {MAX_CLASS_TERMS}")


def cached_reports(
    jobs: Sequence[tuple[GeometrySpec, tuple[int, ...]]],
    cache_dir: str,
) -> list[MorseReport]:
    """Fetch or compute the report of every ``(spec, weights)`` job, in job order.

    A job's tower is ``(spec.n, len(weights))``.  A stored file is a miss
    unless it decodes to a report of the job's own (n, k, geometry,
    weights).  A key hashes only that description (``cache.cache_key``),
    so forming it, and a hit, does no algebra.  Misses are computed in one
    batch, and each is stored once as its canonical JSON; ``cache.store``
    replaces a bad file atomically.  A cache directory that cannot be
    created or written raises ``CacheDirectoryError``, before any miss is
    computed where it can.  A job whose Morse class would have more than
    ``MAX_CLASS_TERMS`` terms raises ``OversizedJobError`` before any key is
    formed (``_refuse_oversized``).
    """
    for n, k in dict.fromkeys((spec.n, len(weights)) for spec, weights in jobs):
        _refuse_oversized(n, k)
    results: list[Optional[MorseReport]] = []
    misses: list[tuple[int, str]] = []
    for spec, weights in jobs:
        # the tracer's anchor, which builds no ring and no relations (both are lazy): the
        # traced benchmark (perfbench/spans.py) starts each key span at this
        # call, and it goes once the tracer times cache.cache_key (ROADMAP item 3)
        ctx, w = TowerContext(spec.n, len(weights)), tuple(weights)
        key = cache.cache_key(spec.n, ctx.k, spec.token, w)
        stored = cache.fetch(cache_dir, key)
        hit = None
        if stored is not None:
            try:
                hit = MorseReport.from_json_dict(json.loads(stored))
            except (ValueError, KeyError, TypeError):
                pass
        if hit is not None and (hit.n, hit.k, hit.geometry, hit.weights) != (spec.n, ctx.k, spec.token, w):
            hit = None  # another configuration's report under this key
        if hit is None:
            misses.append((len(results), key))
        results.append(hit)
    if not misses:
        return results
    # fail before computing anything that could not be stored
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise _unwritable(cache_dir, exc) from exc
    computed = compute_reports([jobs[index] for index, _ in misses])
    for (index, key), report in zip(misses, computed):
        try:
            cache.store(cache_dir, key, _json_text(report.to_json_dict()).encode())
        except OSError as exc:
            raise _unwritable(cache_dir, exc) from exc
        results[index] = report
    return results


#: Bound on each integer option, checked in this order before any command runs.
_LIMITS = (("dim", ">=", 2), ("order", ">=", 1), ("budget", ">=", 1), ("dim_max", ">=", 2),
           ("dim_max", "<=", MAX_DIM))


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        weights = tuple(int(chunk) for chunk in text.split(","))
    except ValueError:
        raise InadmissibleWeightsError(f"weights {text!r} are not a comma-separated integer list")
    return WeightVector(weights).a  # raises on an inadmissible chain


def _emit(fmt: str, data, rows, lines) -> None:
    """Print one command's result: ``data()`` as JSON, ``rows()`` as CSV or ``lines()`` as text.

    Each view is a zero-argument callable, so only the one ``fmt`` names is built.
    """
    if fmt == "json":
        sys.stdout.write(_json_text(data()))
    elif fmt == "csv":
        csv.writer(sys.stdout).writerows(rows())
    else:
        for line in lines():
            print(line)


_REPORT_HEADER = ["dim", "order", "geometry", "weights", "total_dim", "leading_coeff", "threshold", "polynomial"]


def _report_row(report: MorseReport) -> list:
    return [
        report.n,
        report.k,
        report.geometry,
        ";".join(str(w) for w in report.weights),
        report.total_dim,
        str(report.leading_coeff),
        "" if report.threshold is None else report.threshold,
        ";".join(str(c) for c in report.morse_poly.coeffs),
    ]


def _report_lines(report: MorseReport) -> list[str]:
    lines = [
        f"dim       : {report.n}",
        f"order     : {report.k}",
        f"geometry  : {report.geometry}",
        f"weights   : {','.join(str(w) for w in report.weights)}",
        f"total dim : {report.total_dim}",
        f"P(d)      : {report.morse_poly}",
        f"leading   : {report.leading_coeff}",
    ]
    if report.threshold is not None:
        lines.append(f"threshold : {report.threshold}")
    else:
        lines.append("threshold : none (leading coefficient is not positive)")
    if report.k == 1:
        lines.append("note      : order 1 is a degenerate tower; threshold is indicative only")
    lines.append(f"elapsed   : {report.elapsed_ms} ms")
    return lines


def _table_lines(thresholds: dict, bounds: dict) -> list[str]:
    """The n-by-k grid of bounds; a bound taken from a lower order is starred."""
    lower = {cell for cell, bound in bounds.items() if bound != thresholds[cell]}
    orders = range(2, 6)
    lines = ["geometry: log", ("  n\\k" + "".join(f"{k:>7} " for k in orders)).rstrip()]
    for n in range(2, 6):
        row = [f"{n:>5}"]
        for k in orders:
            bound = bounds.get((n, k))
            mark = "*" if (n, k) in lower else " "
            row.append(f"{'-' if bound is None else bound:>7}{mark}")
        lines.append("".join(row).rstrip())
    if lower:
        lines.append("* threshold of a lower order j < k; it bounds order k since E_{j,m} is in E_{k,m}")
    return lines


# Each command returns its exit code and its result in the three shapes
# ``_emit`` prints, as zero-argument callables: a JSON object, CSV rows and
# text lines.


def _one_report(args) -> MorseReport:
    """The cached report that ``bound`` and ``poly`` print."""
    weights = default_weights(args.order).a if args.weights is None else _parse_weights(args.weights)
    if len(weights) != args.order:
        # before any key is formed or the cache directory created
        raise InadmissibleWeightsError(f"got {len(weights)} weights for a tower of order {args.order}")
    spec = GeometrySpec(args.geometry, args.dim)
    return cached_reports([(spec, weights)], cache.resolve_cache_dir(args.cache_dir))[0]


def cmd_bound(args):
    report = _one_report(args)
    code = 0 if report.threshold is not None else 3
    return (code, report.to_json_dict, lambda: [_REPORT_HEADER, _report_row(report)],
            lambda: _report_lines(report))


def cmd_poly(args):
    report = _one_report(args)
    coeffs = lambda: [str(c) for c in report.morse_poly.coeffs]
    data = lambda: {"dim": report.n, "order": report.k, "geometry": report.geometry, "polynomial": coeffs()}
    return 0, data, lambda: [["power", "coefficient"], *enumerate(coeffs())], lambda: [str(report.morse_poly)]


def cmd_table(args):
    jobs = [(GeometrySpec("log", n), default_weights(k).a) for n, k in TABLE_CELLS]
    reports = cached_reports(jobs, cache.resolve_cache_dir(args.cache_dir))
    thresholds = {cell: report.threshold for cell, report in zip(TABLE_CELLS, reports)}
    bounds = order_bounds(thresholds)
    cells = [[n, k, thresholds[(n, k)], bounds[(n, k)]] for n, k in TABLE_CELLS]
    header = ["dim", "order", "threshold", "bound"]
    data = lambda: {"geometry": "log", "cells": [dict(zip(header, cell)) for cell in cells]}
    return 0, data, lambda: [header, *cells], lambda: _table_lines(thresholds, bounds)


def cmd_sweep(args):
    _refuse_oversized(args.dim, args.order)  # before the candidates, whose count is the budget
    spec = GeometrySpec(args.geometry, args.dim)
    jobs = [(spec, w.a) for w in sweep.enumerate_admissible(args.order, args.budget)]
    result = sweep.SweepResult.from_reports(cached_reports(jobs, cache.resolve_cache_dir(args.cache_dir)))
    best = result.best
    data = lambda: {"dim": args.dim, "order": args.order, "geometry": args.geometry,
                    "budget": args.budget, "evaluated": result.evaluated, "best": best.to_json_dict()}
    lines = lambda: [f"evaluated : {result.evaluated} candidates",
                     f"best      : {','.join(str(w) for w in best.weights)}", *_report_lines(best)]
    code = 0 if best.threshold is not None else 3
    return code, data, lambda: [_REPORT_HEADER, _report_row(best)], lines


def cmd_verify(args):
    results = run_all(max_n=args.dim_max)
    passed = sum(r.passed for r in results)
    data = lambda: {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]}
    lines = lambda: [*(f"{'PASS' if r.passed else 'FAIL'}  {r.name}" + (f"  ({r.detail})" if r.detail else "")
                       for r in results), f"{passed}/{len(results)} checks passed"]
    return 0 if passed == len(results) else 4, data, list, lines


def _add_common(parser: argparse.ArgumentParser, *, dim_order: bool = True) -> None:
    if dim_order:
        parser.add_argument("--dim", type=int, required=True, help="base dimension n")
        parser.add_argument("--order", type=int, required=True, help="jet order k")
        parser.add_argument(
            "--geometry", choices=("log", "compact"), default="log", help="base geometry"
        )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--cache-dir", default=None, help="result cache directory")


class _Parser(argparse.ArgumentParser):
    """The top parser, which hands a known command's arguments to that command's parser alone.

    Plain argparse scans the whole argv twice, once here and again in the
    command's parser; this parses the arguments after a known command in one
    pass, to the same Namespace and the same errors.  Anything else (no
    arguments, ``-h``, an unknown command) goes through the top parser.
    """

    commands: dict[str, argparse.ArgumentParser]  # set by ``build_parser``

    def parse_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        command = self.commands.get(argv[0]) if argv and namespace is None else None
        if command is None:
            return super().parse_args(argv, namespace)
        parsed, extras = command.parse_known_args(argv[1:])
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        parsed.command = argv[0]
        return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetbound",
        description="Exact degree thresholds for invariant jet differentials on jet towers",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p_bound = sub.add_parser("bound", help="compute one degree threshold")
    _add_common(p_bound)
    p_bound.add_argument("--weights", default=None, help="comma-separated level weights")
    p_bound.set_defaults(func=cmd_bound)

    p_poly = sub.add_parser("poly", help="print the degree polynomial P(d)")
    _add_common(p_poly)
    p_poly.add_argument("--weights", default=None, help="comma-separated level weights")
    p_poly.set_defaults(func=cmd_poly)

    p_table = sub.add_parser("table", help="effective bounds for all 2 <= n <= k <= 5, log geometry")
    _add_common(p_table, dim_order=False)
    p_table.set_defaults(func=cmd_table)

    p_sweep = sub.add_parser("sweep", help="search admissible weight vectors")
    _add_common(p_sweep)
    p_sweep.add_argument("--budget", type=int, default=10, help="number of candidates")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the structural verification matrix")
    p_verify.add_argument("--dim-max", type=int, default=3)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    parser.commands = {"bound": p_bound, "poly": p_poly, "table": p_table, "sweep": p_sweep, "verify": p_verify}
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built on first use."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    for name, sign, limit in _LIMITS:
        value = getattr(args, name, limit)
        if value < limit if sign == ">=" else value > limit:
            print(f"{args.command} requires --{name.replace('_', '-')} {sign} {limit}", file=sys.stderr)
            return 2
    try:
        code, data, rows, lines = args.func(args)
    except (InadmissibleWeightsError, OversizedJobError, CacheDirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JetboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    _emit(args.format, data, rows, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
