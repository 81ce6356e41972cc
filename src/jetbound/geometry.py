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

``chern_term_map`` is the one way to substitute those classes in a class:
on raw terms it sends ``c_l`` to given integers, ``h`` to 1 and ``d`` to
``D``, and keeps every other field of a key.  ``degree_term_map`` is that
map at ``c_l = p_l(D)``, ``p_l`` the degree polynomial of class l.
``evaluate_in_degree`` applies ``degree_term_map`` to a finished
weighted-degree-n base class at a ``D = 2^B`` wide enough for its
coefficients, reads the balanced base-``2^B`` digits (``balanced_digits``)
of the integer it gets and multiplies the result by ``d``.  For the
compact model that factor is the honest integral of ``h^n``; for the
logarithmic model it is kept anyway so that outputs are directly comparable
with the reference pipeline this engine reproduces.  The factor is positive
for every degree ``d >= 1``, so positivity thresholds are unaffected.  A
job forms no base class: ``morse`` multiplies its base Segre classes out of
the ``p_l`` (``_chern_coefficient_in_degree``) and then by ``d``, and
``evaluate_in_degree`` serves the pushforward of a class, the reference
that recursion is tested against.  The symbolic forms of ``verify`` read
the base at ``c_l = (-1)^l``, the top d-coefficient of class l in both
models, as integers of ``morse._leading_value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Sequence

from .errors import InhomogeneousClassError, JetboundError, ResidualVariableError
from .polyring import _EXP_MASK, NEG_INFINITY, Polynomial, Ring
from .tower import TowerContext

__all__ = [
    "COMPACT_HYPERSURFACE",
    "LOGARITHMIC_PAIR",
    "GeometrySpec",
    "compact_hypersurface",
    "logarithmic_pair",
    "base_chern",
    "chern_term_map",
    "degree_term_map",
    "balanced_digits",
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


def chern_term_map(ctx: TowerContext, chern: Sequence[int], D: int) -> Callable[[Polynomial], Polynomial]:
    """The ring map ``c_l -> chern[l-1]``, ``h -> 1``, ``d -> D`` on raw terms.

    It clears the c, h and d fields of each key and keeps the others, the u
    fields and the symbolic weight fields ``a_j``, so terms that differ only
    in the cleared fields add up.
    """
    ring = ctx.ring
    values = [(ring.shift(ctx.d), D)] + [(ring.shift(ctx.c(l)), v) for l, v in enumerate(chern, start=1)]
    keep = ~sum(_EXP_MASK << ring.shift(v) for v in (ctx.h, ctx.d, *map(ctx.c, range(1, ctx.r + 1))))

    def term_map(p: Polynomial) -> Polynomial:
        out: dict[int, int] = {}
        for key, coeff in p._terms.items():
            for sh, value in values:
                e = (key >> sh) & _EXP_MASK
                if e:
                    coeff *= value**e
            key &= keep
            out[key] = out.get(key, 0) + coeff
        return ring.polynomial(out)

    return term_map


def degree_term_map(ctx: TowerContext, spec: GeometrySpec, D: int) -> Callable[[Polynomial], Polynomial]:
    """``chern_term_map`` at ``c_l = p_l(D)``, ``p_l`` the degree polynomial of class l.

    It fixes ``u_1..u_k``, so the image of a class of the tower is a
    polynomial in ``u_1..u_k`` alone, and that of a base class an integer.
    """
    if spec.n != ctx.n:
        raise ValueError(f"geometry dimension {spec.n} != tower dimension {ctx.n}")
    polys = [_chern_coefficient_in_degree(spec, l) for l in range(1, spec.n + 1)]
    return chern_term_map(ctx, [sum(c * D**i for i, c in enumerate(p)) for p in polys], D)


def balanced_digits(value: int, bits: int, count: int, name: str) -> list[int]:
    """The ``count`` balanced base-``2^bits`` digits of ``value``, lowest first.

    Every digit lies in ``[-2^(bits-1), 2^(bits-1))``; the top digit is what
    remains, and one outside that range means ``name`` does not fit, a
    violated invariant that raises ``JetboundError``.
    """
    half = 1 << (bits - 1)
    digits = []
    for _ in range(count - 1):
        digit = ((value + half) & (2 * half - 1)) - half
        digits.append(digit)
        value = (value - digit) >> bits
    if not -half <= value < half:
        raise JetboundError(f"{name} does not fit {bits}-bit digits")
    return digits + [value]


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


def evaluate_in_degree(ctx: TowerContext, cls: Polynomial, spec: GeometrySpec) -> EvaluatedClass:
    """Evaluate a weighted-degree-n base class into a polynomial in d.

    The input must be free of tautological and weight variables and
    homogeneous of weighted degree n; both conditions catch mis-assembled
    intersections early.  Its value under ``degree_term_map`` at
    ``D = 2^B`` is ``sum_i q_i D^i``, whose n + 1 balanced digits are the
    coefficients of the result divided by the degree factor ``d``.  ``B`` is
    one bit above ``sum |coeff| * M^n``, ``M = max_l ||p_l||`` the largest
    sum of the absolute coefficients of a degree polynomial: a term
    ``c^gamma h^beta`` of weighted degree n has ``sum_l gamma_l <= n``, so
    its image is at most ``|coeff| * M^n`` in 1-norm, and every
    ``|q_i| < 2^(B-1)``.
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
    M = max(sum(map(abs, _chern_coefficient_in_degree(spec, l))) for l in range(1, ctx.n + 1))
    bits = (sum(map(abs, cls._terms.values())) * M**ctx.n).bit_length() + 1
    value = degree_term_map(ctx, spec, 1 << bits)(cls)._terms.get(0, 0)
    name = f"the degree polynomial of {spec.token} ({ctx.n}, {ctx.k})"
    return EvaluatedClass.from_coefficients([0] + balanced_digits(value, bits, ctx.n + 1, name))
