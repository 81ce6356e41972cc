"""Chern classes of the base geometry and evaluation in the degree variable.

Two base models are supported, both of rank ``r = n``, each named by the
token that the command line, the reports and the cache keys use:

* ``'compact'`` (``compact_hypersurface(n)``), a smooth degree-d
  hypersurface in (n+1)-space, where ``h^n`` integrates to ``d``.
* ``'log'`` (``logarithmic_pair(n)``), projective n-space with a smooth
  irreducible degree-d divisor, and the logarithmic tangent bundle.

Both total Chern classes are the truncated series ``c = (1 + h)^e / (1 +
d h)``, with ``e = n + 2`` on the compact hypersurface and ``n + 1`` on the
log pair (``_exponent``), so ``c_j = h^j sum_i (-1)^i C(e, j-i) d^i``
(``_chern_coefficient_in_degree``) and the Segre classes ``S = 1 / c``
have the closed form of ``_base_segre``.

``_in_degree`` is the one way to put base classes into the degree: given
each class as its polynomial in d, it multiplies out the product of
classes in each term exactly and multiplies the sum by ``d``.  For the
compact model that factor is the honest integral of ``h^n``; for the
logarithmic model it is kept anyway so that outputs are directly comparable
with the reference pipeline this engine reproduces.  The factor is positive
for every degree ``d >= 1``, so positivity thresholds are unaffected.
``evaluate_in_degree`` passes it the degree polynomials ``p_l`` of the Chern
classes and the exponents of each term ``c^gamma h^beta`` of a finished
weighted-degree-n base class: the pushforward of a class, the reference the
Segre recursion is tested against.  No run of the recursion forms a base
class: ``morse._read_out``, which serves the jobs and the symbolic forms of
``verify`` alike, passes the base Segre classes and the count of each Segre
index of one product.
"""

from __future__ import annotations

import functools
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


def _exponent(spec: GeometrySpec) -> int:
    """The ``e`` of ``c = (1 + h)^e / (1 + d h)``: ``n + 2`` on the compact hypersurface, ``n + 1`` on the log pair."""
    return spec.n + (2 if spec.token == COMPACT_HYPERSURFACE else 1)


def _chern_coefficient_in_degree(spec: GeometrySpec, j: int) -> list[int]:
    """Coefficients (ascending in d) of the degree-polynomial of class j: ``c_j = sum_i (-1)^i C(e, j-i) d^i``."""
    e = _exponent(spec)
    return [(-1) ** i * comb(e, j - i) for i in range(j + 1)]


@functools.lru_cache(maxsize=None)
def _base_segre(spec: GeometrySpec) -> tuple[dict[int, int], ...]:
    """The base Segre classes ``S_1(d), ..., S_n(d)`` of ``spec`` as raw term maps in d, memoized per spec.

    ``S = 1 / c = (1 + d h)(1 + h)^(-e)``, so ``S_p = (-1)^p [C(e+p-1, p)
    - d C(e+p-2, p-1)]``.  Callers only read the maps.
    """
    e = _exponent(spec)
    return tuple(
        {0: (-1) ** p * comb(e + p - 1, p), 1: (-1) ** (p + 1) * comb(e + p - 2, p - 1)}
        for p in range(1, spec.n + 1)
    )


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
        return str(_DEGREE_RING.polynomial({i: c for i, c in enumerate(self.coeffs)}))


#: The ring an ``EvaluatedClass`` prints in, shared by every instance.
_DEGREE_RING = Ring(("d",))


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
