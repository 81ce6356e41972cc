"""Deterministic search over admissible weight vectors.

Candidates are enumerated by increasing total weight and, within one total,
in ascending lexicographic order; the first ``budget`` candidates form the
search space.  The minimal admissible vector for order k is the default
geometric ladder, so the default weights are always candidate number one.
Results are ranked by (threshold, total, vector), with an absent threshold
ranking last, which makes the winner independent of evaluation order and of
any parallelism.

``compute_reports`` is the package's one batch computation, serial or on a
process pool; ``run_sweep`` and the command line's cached path both use it.
A job is a ``(GeometrySpec, weights)`` pair; its tower is ``(spec.n,
len(weights))``, whose relations ``tower.pipeline_tower`` builds once per
process.  The jobs are grouped by tower and each group is split into packed
passes of even size, as many jobs each as ``morse.PACKED_BITS`` holds slots
of ``morse.slot_bits`` at the largest first weight of the group (12 of the
first 12 candidates at (3,5)).  A tower with one job, such as each cell of
the table, is one pass and computes no slot width.  A pass is one chunk, the
tower's relations, the jobs of the pass and the slot width, and
``morse.compute_batch`` computes it in one pushforward.  Serial and pool
runs map the same chunks through the same function; the pool receives each
chunk with its relations and its slot width rather than rebuilding them,
and the reports come back in job order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .geometry import GeometrySpec
from .morse import PACKED_BITS, MorseReport, WeightVector, compute_batch, default_weights, slot_bits
from .tower import RelationSet, pipeline_tower

__all__ = ["enumerate_admissible", "SweepResult", "compute_reports", "run_sweep"]


def _chains(k: int, total: int, suffix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Admissible k-tuples with the given total that end in ``suffix``.

    Positions are filled from a_k leftwards, each at least its lower bound:
    1 at a_k, 2*a_k at a_(k-1) and 3*a_(j+1) elsewhere; a_1 takes the rest.
    """
    position = k - len(suffix)
    lower = 1 if not suffix else (2 if position == k - 1 else 3) * suffix[0]
    if position == 1:
        if total >= lower:
            yield (total,) + suffix
        return
    for value in range(lower, total // 3 + 1):  # a_(position-1) needs at least 2*value left
        yield from _chains(k, total - value, (value,) + suffix)


def enumerate_admissible(k: int, count: int) -> list[WeightVector]:
    """The first ``count`` admissible weight vectors in (total, lex) order."""
    if k < 1:
        raise ValueError("jet order k must be >= 1")
    if count < 1:
        raise ValueError("candidate budget must be >= 1")
    out: list[WeightVector] = []
    total = default_weights(k).total  # the admissible minimum
    while len(out) < count:
        for a in sorted(_chains(k, total)):
            out.append(WeightVector(a))
            if len(out) == count:
                break
        total += 1
    return out


def _rank(report: MorseReport):
    threshold = report.threshold if report.threshold is not None else float("inf")
    return (threshold, sum(report.weights), report.weights)


@dataclass(frozen=True)
class SweepResult:
    best: MorseReport
    evaluated: int
    reports: tuple[MorseReport, ...]

    @staticmethod
    def from_reports(reports: Sequence[MorseReport]) -> "SweepResult":
        return SweepResult(best=min(reports, key=_rank), evaluated=len(reports), reports=tuple(reports))


def _passes(
    jobs: Sequence[tuple[GeometrySpec, tuple[int, ...]]],
) -> list[tuple[list[int], RelationSet, Optional[int]]]:
    """Job indices grouped by tower ``(spec.n, len(weights))`` and split into packed passes of even size.

    Each pass comes with its tower's relations from ``pipeline_tower`` and
    its slot width: ``slot_bits`` at the largest first weight of the tower's
    jobs, and a pass holds at most ``PACKED_BITS // slot_bits`` jobs.  A
    tower with one job is a pass of one with no width, so it computes no
    bound.
    """
    towers: dict[tuple[int, int], list[int]] = {}
    for index, (spec, weights) in enumerate(jobs):
        towers.setdefault((spec.n, len(weights)), []).append(index)
    passes = []
    for (n, k), indices in towers.items():
        rels = pipeline_tower(n, k)[0]
        bits = slot_bits(rels, max(jobs[i][1][0] for i in indices)) if len(indices) > 1 else None
        count = 1 if bits is None else -(-len(indices) // max(1, PACKED_BITS // bits))
        size = -(-len(indices) // count)
        passes += [(indices[start:start + size], rels, bits) for start in range(0, len(indices), size)]
    return passes


def _compute(
    chunk: tuple[RelationSet, list[tuple[GeometrySpec, tuple[int, ...]]], Optional[int]],
) -> list[MorseReport]:
    return compute_batch(*chunk)


def compute_reports(
    jobs: Sequence[tuple[GeometrySpec, tuple[int, ...]]],
    threads: int = 1,
) -> list[MorseReport]:
    """The report of every ``(spec, weights)`` job, in job order.

    Each pass of ``_passes`` is one chunk for ``morse.compute_batch``, with
    its tower's relations and its slot width, computed here once per tower.
    With more than one thread the chunks go to a process pool, and the
    reports come back pickled.
    """
    passes = _passes(jobs)
    chunks = [(rels, [jobs[i] for i in indices], bits) for indices, rels, bits in passes]
    if threads > 1 and chunks:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(_compute, chunks))
    else:
        batches = list(map(_compute, chunks))
    by_index = {i: report for (indices, *_), batch in zip(passes, batches) for i, report in zip(indices, batch)}
    return [by_index[i] for i in range(len(jobs))]


def run_sweep(
    spec: GeometrySpec,
    k: int,
    budget: int,
    threads: int = 1,
) -> SweepResult:
    """Evaluate the first ``budget`` admissible vectors and return the best; no report is cached."""
    candidates = enumerate_admissible(k, budget)
    return SweepResult.from_reports(compute_reports([(spec, w.a) for w in candidates], threads))
