"""Deterministic search over admissible weight vectors.

Candidates are enumerated by increasing total weight and, within one total,
in ascending lexicographic order; the first ``budget`` candidates form the
search space.  The minimal admissible vector for order k is the default
geometric ladder, so the default weights are always candidate number one.
Results are ranked by (threshold, total, vector), with an absent threshold
ranking last, which makes the winner independent of evaluation order.

``run_sweep`` computes the candidates with ``morse.compute_reports``, one
job each, as one job list.  Candidates of one total differ mostly in
``a_1`` and ``a_2``.  The jobs of one tower share the Segre recursion's
levels their weights agree on, a level's expansion reads no weight (only
spending the power of ``L`` reads ``a_j``), and ``a_1`` is applied at the
base, so no level step is a candidate's own: the first 12 candidates of
order 5, with two values of ``a_2``, have levels 5-3 expanded and spent
once, and level 2 expanded once and spent twice.  Each state entering
level 1 is read out once per geometry and key width, weight-free, and
every candidate is a sum of those readouts scaled by its weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .geometry import GeometrySpec
from .morse import MorseReport, WeightVector, compute_reports, default_weights

__all__ = ["enumerate_admissible", "SweepResult", "run_sweep"]


def _chains(ladder: tuple[int, ...], total: int, suffix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Admissible tuples of the ladder's length with the given total that end in ``suffix``.

    Positions are filled from a_k leftwards, each at least its lower bound:
    1 at a_k, 2*a_k at a_(k-1) and 3*a_(j+1) elsewhere; a_1 takes the rest.
    With ``ladder`` the default weights ``L``, a value ``v`` at position p
    leaves positions 1..p-1 at least ``v * sum_(j<p) L_j / L_p`` (the ratios
    are integers), so every value tried completes to at least one chain, and
    the work grows with the chains yielded, not with the total.
    """
    k = len(ladder)
    position = k - len(suffix)
    lower = 1 if not suffix else (2 if position == k - 1 else 3) * suffix[0]
    if position == 1:
        if total >= lower:
            yield (total,) + suffix
        return
    need = sum(ladder[:position - 1]) // ladder[position - 1]
    for value in range(lower, total // (1 + need) + 1):
        yield from _chains(ladder, total - value, (value,) + suffix)


def enumerate_admissible(k: int, count: int) -> list[WeightVector]:
    """The first ``count`` admissible weight vectors in (total, lex) order."""
    if k < 1:
        raise ValueError("jet order k must be >= 1")
    if count < 1:
        raise ValueError("candidate budget must be >= 1")
    out: list[WeightVector] = []
    ladder = default_weights(k).a
    total = sum(ladder)  # the admissible minimum
    while len(out) < count:
        for a in sorted(_chains(ladder, total)):
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


def run_sweep(spec: GeometrySpec, k: int, budget: int) -> SweepResult:
    """Evaluate the first ``budget`` admissible vectors and return the best; no report is cached.

    Each candidate goes to ``compute_reports`` as the ``WeightVector`` the
    enumeration validated, so none is checked twice.
    """
    return SweepResult.from_reports(compute_reports([(spec, w) for w in enumerate_admissible(k, budget)]))
