"""Self-verification suites restating the structural facts the engine relies on.

Each check recomputes a fact with the engine and compares against the value
forced by the theory: the closed form of the first lifted Chern class
(``first-chern-closed-form``), the class above the rank vanishing modulo its
level relation (``rank-truncation``), the unit top coefficient of the balanced
intersection at order n (``balanced-unit-n*``), and zero top coefficients
below order n, with symbolic weights, so for every weight vector: of the
self-intersection for every k < n (``low-order-leading-n*``) and against
``c1^i`` (``first-chern-vanishing-n*``).  A symbolic form is
``sum_e N!/e! a^e T(e)``, ``T(e)`` the top coefficient of the tuple ``u^e``,
so it is zero exactly when every ``T(e)`` is.  Every integration runs on the
Segre recursion every report is computed with, and reads the base through
the readouts the jobs share (``morse._top_coefficient``); the first two
checks read the relation sets of ``pipeline_tower``, the towers the
recursion's identity is stated on.  The CLI ``verify`` command prints one
line per check; the test suite asserts them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import Iterable, Sequence

from .geometry import GeometrySpec, compact_hypersurface
from .morse import WeightVector, _top_coefficient, morse_polynomial, symbolic_leading_form
from .polyring import reduce_monic
from .tower import _lifted_class, pipeline_tower

__all__ = [
    "CheckResult",
    "check_first_chern_closed_form",
    "check_truncation",
    "check_vanishing_against_first_chern",
    "check_balanced_intersection_unit",
    "check_low_order_leading_vanishes",
    "run_all",
    "interpolate_leading_form",
]


#: Largest base dimension n and jet order k of the checks over whole towers.
MAX_DIM = MAX_ORDER = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _exponent_tuples(k: int, total: int) -> Iterable[tuple[int, ...]]:
    """All k-tuples of non-negative integers with the given sum."""
    for cuts in combinations_with_replacement(range(total + 1), k - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def check_first_chern_closed_form() -> CheckResult:
    """Recursively built first classes equal c1 + (r-1)(u_1 + ... + u_j).

    One pipeline tower of order ``MAX_ORDER`` per n: a shorter tower's
    lifted classes are the same classes, level by level.
    """
    for n in range(2, MAX_DIM + 1):
        rels = pipeline_tower(n, MAX_ORDER)
        ctx, ring = rels.ctx, rels.ctx.ring
        for j in range(0, MAX_ORDER):
            expected = ring.variable(ctx.c(1))
            for s in range(1, j + 1):
                expected = expected + (n - 1) * ring.variable(ctx.u(s))
            if rels.lifted_chern(j, 1) != expected:
                return CheckResult(
                    "first-chern-closed-form", False, f"mismatch at n={n}, level {j}"
                )
    return CheckResult("first-chern-closed-form", True)


def check_truncation() -> CheckResult:
    """The recursion's class r+1 at every level reduces to zero modulo that level's relation."""
    for n in range(2, MAX_DIM + 1):
        rels = pipeline_tower(n, MAX_ORDER)
        ctx = rels.ctx
        for j in range(1, MAX_ORDER + 1):
            uj = ctx.ring.variable(ctx.u(j))
            cls = _lifted_class(rels.lifted[j - 1], [uj**e for e in range(n + 2)], n + 1)
            if reduce_monic(cls, ctx.u(j), rels.relation(j)):
                return CheckResult(
                    "rank-truncation", False, f"class {n + 1} is nonzero at n={n}, level {j}"
                )
    return CheckResult("rank-truncation", True)


def check_vanishing_against_first_chern(n: int) -> CheckResult:
    """Tuples of total (n-i-1)n + 1 against c1^i also have zero top coefficient.

    One symbolic form per i proves it for every tuple at once.
    """
    spec = compact_hypersurface(n)
    for i in range(1, n - 1):
        form = symbolic_leading_form(spec, n - i - 1, c1_power=i)
        if form:
            return CheckResult(f"first-chern-vanishing-n{n}", False, f"i={i}: {len(form)} terms")
    return CheckResult(f"first-chern-vanishing-n{n}", True)


def check_balanced_intersection_unit(n: int) -> CheckResult:
    """The evaluated u_1^n ... u_n^n intersection has top coefficient exactly 1.

    The Segre recursion integrates ``L^N``, ``N = n^2``, with each level's
    power of ``u_j`` held at n: that is the monomial times the multinomial
    ``N!/(n!)^n``.
    """
    N = n * n
    levels = [[int(m == n) for m in range(N + 1)]] * n
    value = Fraction(_top_coefficient(compact_hypersurface(n), levels, N), factorial(N) // factorial(n) ** n)
    if value != 1:
        return CheckResult(f"balanced-unit-n{n}", False, f"coefficient {value}")
    return CheckResult(f"balanced-unit-n{n}", True)


def check_low_order_leading_vanishes(n: int) -> CheckResult:
    """The symbolic top coefficient is zero for every k < n: no weight vector escapes."""
    spec = compact_hypersurface(n)
    for k in range(1, n):
        form = symbolic_leading_form(spec, k)
        if form:
            return CheckResult(f"low-order-leading-n{n}", False, f"k={k}: {len(form)} terms")
    return CheckResult(f"low-order-leading-n{n}", True)


def run_all(max_n: int = 3) -> list[CheckResult]:
    """The full verification matrix used by the CLI and the test suite."""
    results = [
        check_first_chern_closed_form(),
        check_truncation(),
    ]
    for n in range(2, max_n + 1):
        if n >= 3:
            results.append(check_vanishing_against_first_chern(n))
        results.append(check_balanced_intersection_unit(n))
        results.append(check_low_order_leading_vanishes(n))
    return results


def interpolate_leading_form(
    spec: GeometrySpec,
    k: int,
    samples: Sequence[Sequence[int]],
) -> dict[tuple[int, ...], int]:
    """Fit the top-coefficient function of the weights from integer samples.

    A sample's value is the ``d^(n+1)`` coefficient of its Morse polynomial
    (see ``symbolic_leading_form``).  The function is homogeneous of degree
    N = n + k(n-1) in the k weights (or zero), so it is determined by
    finitely many monomial coefficients.  Those are recovered exactly by
    solving the linear system over the rationals and verified against every
    sample; the solution must be integral.
    """
    n = spec.n
    N = n + k * (n - 1)
    monomials = sorted(_exponent_tuples(k, N), reverse=True)
    if len(samples) < len(monomials):
        raise ValueError(f"need at least {len(monomials)} samples, got {len(samples)}")
    rows = []
    values = []
    for a in samples:
        w = WeightVector(tuple(a))
        row = [
            Fraction(_power_product(w.a, exps))
            for exps in monomials
        ]
        rows.append(row)
        values.append(Fraction(morse_polynomial(spec, k, w).coefficient(n + 1)))
    solution = _solve_exact(rows, values)
    out = {}
    for exps, coeff in zip(monomials, solution):
        if coeff.denominator != 1:
            raise ArithmeticError(f"non-integral interpolated coefficient {coeff}")
        if coeff:
            out[exps] = int(coeff)
    return out


def _power_product(a: Sequence[int], exps: Sequence[int]) -> int:
    value = 1
    for base, e in zip(a, exps):
        value *= base ** e
    return value


def _solve_exact(rows: list[list[Fraction]], values: list[Fraction]) -> list[Fraction]:
    """Solve an overdetermined exact linear system; verify every equation."""
    m = len(rows[0])
    augmented = [row + [val] for row, val in zip(rows, values)]
    pivots = []
    row_at = 0
    for col in range(m):
        pivot = next(
            (i for i in range(row_at, len(augmented)) if augmented[i][col] != 0), None
        )
        if pivot is None:
            raise ValueError("sample set does not determine the form (rank deficiency)")
        augmented[row_at], augmented[pivot] = augmented[pivot], augmented[row_at]
        factor = augmented[row_at][col]
        augmented[row_at] = [x / factor for x in augmented[row_at]]
        for i in range(len(augmented)):
            if i != row_at and augmented[i][col]:
                scale = augmented[i][col]
                augmented[i] = [
                    x - scale * y for x, y in zip(augmented[i], augmented[row_at])
                ]
        pivots.append(col)
        row_at += 1
    for i in range(row_at, len(augmented)):
        if augmented[i][m] != 0:
            raise ValueError("inconsistent sample system (function is not the assumed form)")
    solution = [Fraction(0)] * m
    for idx, col in enumerate(pivots):
        solution[col] = augmented[idx][m]
    # verify every original equation
    for row, val in zip(rows, values):
        if sum(c * s for c, s in zip(row, solution)) != val:
            raise ValueError("interpolation failed verification")
    return solution
