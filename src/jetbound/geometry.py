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

``_in_degree`` is the one way to put base classes into the degree: given
each class as its polynomial in d, it multiplies out the product of
classes in each term exactly and multiplies the sum by ``d``.  For the
compact model that factor is the honest integral of ``h^n``; for the
logarithmic model it is kept anyway so that outputs are directly comparable
with the reference pipeline this engine reproduces.  The factor is positive
for every degree ``d >= 1``, so positivity thresholds are unaffected.
``evaluate_in_degree`` passes it the degree polynomials ``p_l`` of the Chern
classes (``_chern_coefficient_in_degree``) and the exponents of each term
``c^gamma h^beta`` of a finished weighted-degree-n base class: the
pushforward of a class, the reference the Segre recursion is tested
against.  A job forms no base class: ``morse`` passes the base Segre
classes, in closed form, and the count of each Segre index of one product.
The symbolic forms of ``verify`` read the base at ``c_l = (-1)^l``, the top
d-coefficient of class l in both models, as integers of
``morse._leading_value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import InhomogeneousClassError, ResidualVariableError
from .polyring import _EXP_MASK, NEG_INFINITY, Polynomial, Ring, _add_into, _mul_into
from .tower import TowerContext

__all__ = [
    "COMPACT_HYPERSURFACE",
    "LOGARITHMIC_PAIR",
    "GeometrySpec",
    "compact_hypersurface",
    "logarithmic_pair",
    "base_chern",
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


def base_chern(ctx: TowerContext, spec: GeometrySpec, j: int) -> Polynomial:
    """Class ``j`` of the base bundle, as ``h^j`` times a polynomial in d."""
    if spec.n != ctx.n:
        raise ValueError(f"geometry dimension {spec.n} != tower dimension {ctx.n}")
    if not 1 <= j <= spec.n:
        raise IndexError(f"Chern index {j} outside 1..{spec.n}")
    coeffs = _chern_coefficient_in_degree(spec, j)
    return ctx.ring.polynomial({ctx.ring.encode({ctx.h: j, ctx.d: i}): c for i, c in enumerate(coeffs)})


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


def _in_degree(
    terms: Iterable[tuple[int, Sequence[int]]], values: Sequence[Mapping[int, int]]
) -> EvaluatedClass:
    """``d * sum g prod_l values[l-1]^(e_l)`` over the pairs ``(g, e)`` of ``terms``.

    Each value is a polynomial in d as a raw term map, its keys the powers
    of d.  ``evaluate_in_degree`` passes the degree polynomials ``p_l`` of
    the base Chern classes and the exponents of ``c_l``; ``morse`` passes
    the base Segre classes ``S_p(d)`` and the count of each Segre index.
    The products are multiplied out exactly, and the factor ``d`` is the
    integral of ``h^n``.
    """
    total: dict[int, int] = {}
    for g, exponents in terms:
        term = {0: g}
        for value, e in zip(values, exponents):
            for _ in range(e):
                factor, term = term, {}
                _mul_into(term, factor, value)
        _add_into(total, term)
    top = max(total, default=-1)
    return EvaluatedClass.from_coefficients([0] + [total.get(i, 0) for i in range(top + 1)])


def evaluate_in_degree(ctx: TowerContext, cls: Polynomial, spec: GeometrySpec) -> EvaluatedClass:
    """Evaluate a weighted-degree-n base class into a polynomial in d.

    The input must be free of tautological variables and of d, and
    homogeneous of weighted degree n; both conditions catch mis-assembled
    intersections early.  Each term ``c^gamma h^beta`` becomes ``d prod_l
    p_l(d)^(gamma_l)``, ``p_l`` the degree polynomial of class l, since
    ``h^n`` integrates to d (``_in_degree``).
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
    classes = range(1, ctx.n + 1)
    polys = [dict(enumerate(_chern_coefficient_in_degree(spec, l))) for l in classes]
    shifts = [ctx.ring.shift(ctx.c(l)) for l in classes]
    terms = ((g, [key >> sh & _EXP_MASK for sh in shifts]) for key, g in cls._terms.items())
    return _in_degree(terms, polys)
