"""Chern classes of the base geometry and evaluation in the degree variable.

Two base models are supported, both of rank ``r = n``, each named by the
token that the command line, the reports and the cache keys use:

* ``'compact'`` (``compact_hypersurface(n)``), a smooth degree-d
  hypersurface in (n+1)-space; its Chern classes come from the exact
  truncated series identity ``c(T) * (1 + d*h) = (1 + h)^(n+2)``, and
  ``h^n`` integrates to ``d``.
* ``'log'`` (``logarithmic_pair(n)``), projective n-space with a smooth
  irreducible degree-d divisor; the Chern classes of the logarithmic
  tangent bundle are
  ``c_j = (-1)^j h^j * sum_i (-1)^i binom(n+1, i) d^(j-i)``.

``substitute_chern`` is the one place that substitutes those classes into a
finished base class; ``evaluate_in_degree`` applies it (with ``h -> 1``) to a
weighted-degree-n base class and multiplies the result by ``d``.  Packed
passes, several jobs in one pushforward, take that path: they substitute
after the pushforward.  A pass of a single job substitutes the degree before
it instead: ``degree_term_map`` at ``D = 2^B`` sends ``c_j`` to its degree
polynomial at ``D`` and ``h`` to 1, the tower is specialized by it, and the
pushforward on Z[u] is one integer whose base-``2^B`` digits are the
coefficients of ``P(d)`` (see ``morse``).  For the
compact model that factor is the honest integral of ``h^n``; for the
logarithmic model it is kept anyway so that outputs are directly comparable
with the reference pipeline this engine reproduces.  The factor is positive
for every degree ``d >= 1``, so positivity thresholds are unaffected.

A relation set is specialized before the pushforward, not here:
``RelationSet.specialized`` is the one way to map its classes, with
``degree_term_map`` or, in ``symbolic_leading_form``, with ``c_j -> (-1)^j``,
the top d-coefficient of class j in both models.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable

from .errors import InhomogeneousClassError, ResidualVariableError
from .polyring import _EXP_MASK, NEG_INFINITY, Polynomial, Ring
from .tower import TowerContext

__all__ = [
    "COMPACT_HYPERSURFACE",
    "LOGARITHMIC_PAIR",
    "GeometrySpec",
    "compact_hypersurface",
    "logarithmic_pair",
    "base_chern",
    "substitute_chern",
    "degree_term_map",
    "evaluate_in_degree",
    "EvaluatedClass",
]

COMPACT_HYPERSURFACE = "compact"
LOGARITHMIC_PAIR = "log"


@dataclass(frozen=True)
class GeometrySpec:
    """Base model of the tower: its token, ``'compact'`` or ``'log'``, and the base dimension."""

    token: str
    n: int

    def __post_init__(self):
        if self.token not in (COMPACT_HYPERSURFACE, LOGARITHMIC_PAIR):
            raise ValueError(f"unknown geometry token {self.token!r}")
        if self.n < 1:
            raise ValueError("base dimension must be >= 1")


def compact_hypersurface(n: int) -> GeometrySpec:
    return GeometrySpec(COMPACT_HYPERSURFACE, n)


def logarithmic_pair(n: int) -> GeometrySpec:
    return GeometrySpec(LOGARITHMIC_PAIR, n)


def _chern_coefficient_in_degree(spec: GeometrySpec, j: int) -> list[int]:
    """Coefficients (ascending in d) of the degree-polynomial of class j."""
    n = spec.n
    if spec.token == COMPACT_HYPERSURFACE:
        # h^j-coefficient of (1+h)^(n+2) / (1+d*h) as a truncated series
        return [comb(n + 2, j - i) * (-1) ** i for i in range(j + 1)]
    sign = (-1) ** j
    return [sign * (-1) ** (j - i) * comb(n + 1, j - i) for i in range(j + 1)]


def substitute_chern(ctx: TowerContext, spec: GeometrySpec, cls: Polynomial) -> Polynomial:
    """``cls`` with every ``c_j`` replaced by the base class ``j``: ``h^j`` times a polynomial in d."""
    ring = ctx.ring
    d = ring.variable(ctx.d)
    h = ring.variable(ctx.h)
    for j in range(1, spec.n + 1):
        poly = ring.zero
        for i, coeff in enumerate(_chern_coefficient_in_degree(spec, j)):
            if coeff:
                poly = poly + coeff * d ** i
        cls = cls.substitute(ctx.c(j), poly * h ** j)
    return cls


def degree_term_map(ctx: TowerContext, spec: GeometrySpec, D: int) -> Callable[[Polynomial], Polynomial]:
    """The ring map ``c_j -> p_j(D)``, ``h -> 1``, ``d -> D`` that fixes ``u_1..u_k``, on raw terms.

    ``p_j`` is the degree polynomial of class ``j`` (``_chern_coefficient_in_degree``),
    so the image of a class is a polynomial in ``u_1..u_k`` alone: each key
    keeps its u fields, and terms that differ only below them add up.
    """
    if spec.n != ctx.n:
        raise ValueError(f"geometry dimension {spec.n} != tower dimension {ctx.n}")
    ring = ctx.ring
    values = [(ring.shift(ctx.d), D)]
    for j in range(1, spec.n + 1):
        coeffs = _chern_coefficient_in_degree(spec, j)
        values.append((ring.shift(ctx.c(j)), sum(c * D**i for i, c in enumerate(coeffs))))
    low = ring.shift(ctx.u(ctx.k))

    def term_map(p: Polynomial) -> Polynomial:
        out: dict[int, int] = {}
        for key, coeff in p._terms.items():
            for sh, value in values:
                e = (key >> sh) & _EXP_MASK
                if e:
                    coeff *= value**e
            key = key >> low << low
            out[key] = out.get(key, 0) + coeff
        return ring.polynomial(out)

    return term_map


def base_chern(ctx: TowerContext, spec: GeometrySpec, j: int) -> Polynomial:
    """Class ``j`` of the base bundle, as ``h^j`` times a polynomial in d."""
    if spec.n != ctx.n:
        raise ValueError(f"geometry dimension {spec.n} != tower dimension {ctx.n}")
    if not 1 <= j <= spec.n:
        raise IndexError(f"Chern index {j} outside 1..{spec.n}")
    return substitute_chern(ctx, spec, ctx.ring.variable(ctx.c(j)))


@dataclass(frozen=True)
class EvaluatedClass:
    """A base class evaluated into a univariate polynomial in the degree d.

    ``coeffs`` lists the coefficients ascending in d with no trailing zeros;
    the zero polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient")

    @staticmethod
    def from_coefficients(coeffs: Iterable[int]) -> "EvaluatedClass":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return EvaluatedClass(tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __call__(self, x: int) -> int:
        """Exact Horner evaluation at an integer."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __str__(self) -> str:
        ring = Ring(("d",))
        return str(ring.polynomial({i: c for i, c in enumerate(self.coeffs)}))


def evaluate_in_degree(ctx: TowerContext, cls: Polynomial, spec: GeometrySpec) -> EvaluatedClass:
    """Evaluate a weighted-degree-n base class into a polynomial in d.

    The input must be free of tautological and weight variables and
    homogeneous of weighted degree n; both conditions catch mis-assembled
    intersections early.  Substitutes every ``c_j`` by its degree polynomial,
    sets ``h`` to 1 and multiplies by the degree factor ``d``.
    """
    if spec.n != ctx.n:
        raise ValueError(f"geometry dimension {spec.n} != tower dimension {ctx.n}")
    allowed = {ctx.c(l) for l in range(1, ctx.n + 1)} | {ctx.h}
    stray = cls.variables_used() - allowed
    if stray:
        names = ", ".join(ctx.ring.names[v] for v in sorted(stray))
        raise ResidualVariableError(f"class still involves {names}")
    weights = ctx.cohomology_weights
    if not cls.is_homogeneous(weights):
        raise InhomogeneousClassError("class is not homogeneous in weighted degree")
    if cls and cls.weighted_degree(weights) != ctx.n:
        raise InhomogeneousClassError(
            f"class has weighted degree {cls.weighted_degree(weights)}, expected {ctx.n}"
        )
    ring = ctx.ring
    result = substitute_chern(ctx, spec, cls).substitute(ctx.h, ring.one) * ring.variable(ctx.d)
    coeffs = [0] * (ctx.n + 2)
    for exps, coeff in result.terms():
        residue = set(exps) - {ctx.d}
        if residue:
            raise ResidualVariableError("evaluation left non-degree variables behind")
        coeffs[exps.get(ctx.d, 0)] = coeff
    return EvaluatedClass.from_coefficients(coeffs)
