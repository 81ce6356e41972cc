"""Chern relations, canonical reduction and fiber integration on jet towers.

The tower over an n-dimensional base carries one tautological class ``u_j``
per level ``j = 1..k``.  Its cohomology is the base ring extended by the
``u_j`` subject to one monic relation of degree ``r = n`` per level, whose
coefficients are the rank-r lifted Chern classes of the previous level.  This
module builds those relations, reduces arbitrary classes to the canonical
form with ``deg(u_j) < r``, and integrates along the fibers down to the base
(extraction of the ``u_j^(r-1)`` coefficient, level by level from the top).

``_segre_expansion`` is the package's one integration engine.  It writes a
product of the Segre classes ``s^[j] = 1 / c^[j]`` of level j, packed into
one integer as ``polyring`` packs a monomial, as powers of ``u_j`` times
products of Segre classes of level j - 1, so ``morse`` integrates a
combination of powers of a linear form in the ``u_j`` level by level
without forming a u-monomial: every job's Morse class at ``h = 1``, the
symbolic-weight forms of ``verify`` and its balanced intersection.  It reads
the rank alone, not a relation set: the identity it uses holds on the towers
``build_relations`` makes.  A ``TowerContext`` names the tower's variables
only, ``u_1..u_k, c_1..c_r, h, d``: the symbolic weights of ``verify`` live
in a ring of their own.

``pushforward_to_base`` is the reference that engine is tested against.  It
computes ``integrate_fibers(reduce_tower(p))`` without materializing the
reduced polynomial: per level it runs the adjoint form of the same
Euclidean division, keeping only what can still reach the ``u_j^(r-1)``
coefficient, and it drops the terms whose degree in ``u_1..u_j`` is too low
to reach the base.  The pass and reduce-then-integrate produce identical
polynomials term by term when the relations are graded: every lifted class
``c_l`` is weighted-homogeneous of weight l, u and h weighing 1 and ``c_l``
weighing l, as ``build_relations`` makes them, so that each lifted class
raises the u-degree by at most l.  A set mapped by a ring map that fixes
``u_1..u_k`` inherits the equality through that map.  On any other set the
cut may drop terms that reach the base.  The test suite pins the equality,
and the limit.
"""

from __future__ import annotations

import functools
import hashlib
from math import comb
from typing import Optional, Sequence

from .errors import DimensionMismatchError, UnreducedClassError
from .polyring import (
    NEG_INFINITY,
    Polynomial,
    Ring,
    VariableId,
    _EXP_BITS,
    _EXP_MASK,
    _key_degree,
    _mul_into,
    reduce_monic,
)

__all__ = [
    "TowerContext",
    "RelationSet",
    "build_relations",
    "pipeline_tower",
    "reduce_tower",
    "integrate_fibers",
    "pushforward_to_base",
    "intersect",
]


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _lift_coeff(r: int, l: int, s: int) -> int:
    """Coefficient of ``u_j^(l-s) c_s^[j-1]`` in ``c_l^[j]`` at rank r (``c_0 = 1``)."""
    return _binom(r - s, l - s) - _binom(r - s, l - s - 1)


@functools.cache
def _segre_gamma(r: int, i: int, e: int) -> int:
    """``[x^e] (1 + x)^-(i + r) (1 - x)^-1``: the coefficient of ``u_j^e s_i^[j-1]`` in ``s_(i+e)^[j]`` at rank r."""
    return sum((-1) ** t * comb(i + r + t - 1, t) for t in range(e + 1))


@functools.cache
def _segre_expansion(r: int, key: int) -> tuple[tuple[int, int, int], ...]:
    """``prod_(i in key) s_i^[j]`` over level j-1 at rank r, as triples ``(e, rest, g)``.

    ``s^[j] = 1 / c^[j]`` is the Segre series of the level-j classes.  A
    product of Segre classes is a packed multiset of indices, the count of
    index ``i >= 1`` in the field ``i`` of width ``_EXP_BITS`` and field 0
    empty.  The product is ``sum g u_j^e prod_(i in rest) s_i^[j-1]``, each
    ``rest`` packed the same way (``s_0 = 1`` adds nothing), each ``g``
    nonzero.  One factor expands as ``s_i^[j] = sum_(i' <= i)
    _segre_gamma(r, i', i - i') u_j^(i-i') s_(i')^[j-1]``: the lifted
    classes of ``_lifted_class`` are the degree <= r part of ``c^[j](y) =
    (1 - u_j y)(1 + u_j y)^r c^[j-1](y / (1 + u_j y))``, whose ``y^(r+1)``
    term ``-u_j q_j`` vanishes modulo the level relation, so on level j
    ``s^[j](y) = (1 - u_j y)^-1 (1 + u_j y)^-r s^[j-1](y / (1 + u_j y))``
    exactly.  The product is that of the expansion of ``key`` less its
    largest index, the top field, with that index, memoized per ``(r,
    key)`` and so independent of any weight.
    """
    if not key:
        return ((0, 0, 1),)
    i = (key.bit_length() - 1) // _EXP_BITS
    units = [0] + [1 << low * _EXP_BITS for low in range(1, i + 1)]
    terms: dict[tuple[int, int], int] = {}
    for e, rest, g in _segre_expansion(r, key - units[i]):
        for low in range(i + 1):
            term = (e + i - low, rest + units[low])
            terms[term] = terms.get(term, 0) + g * _segre_gamma(r, low, i - low)
    return tuple((e, rest, g) for (e, rest), g in terms.items() if g)


class TowerContext:
    """Dimensions and variable table of one jet tower.

    ``n`` is the base dimension, ``r = n`` the rank of the directed bundle,
    ``k >= 1`` the jet order.  The ring orders its variables as
    ``u_1..u_k, c_1..c_r, h, d``.
    """

    __slots__ = ("n", "r", "k", "ring", "_relations")

    def __init__(self, n: int, k: int):
        if n < 1:
            raise ValueError("base dimension n must be >= 1")
        if k < 1:
            raise ValueError("jet order k must be >= 1")
        self.n = n
        self.r = n
        self.k = k
        names = [f"u{j}" for j in range(1, k + 1)]
        names += [f"c{l}" for l in range(1, self.r + 1)]
        names += ["h", "d"]
        self.ring = Ring(names)
        self._relations: Optional[RelationSet] = None

    @property
    def total_dim(self) -> int:
        """Dimension of the top tower level: n + k(r - 1)."""
        return self.n + self.k * (self.r - 1)

    def u(self, j: int) -> VariableId:
        if not 1 <= j <= self.k:
            raise IndexError(f"u index {j} outside 1..{self.k}")
        return j - 1

    def c(self, l: int) -> VariableId:
        if not 1 <= l <= self.r:
            raise IndexError(f"c index {l} outside 1..{self.r}")
        return self.k + l - 1

    @property
    def h(self) -> VariableId:
        return self.k + self.r

    @property
    def d(self) -> VariableId:
        return self.k + self.r + 1

    @property
    def cohomology_weights(self) -> tuple[int, ...]:
        """Weighted degree of each ring variable: u, h -> 1; c_l -> l; d -> 0."""
        return tuple([1] * self.k + list(range(1, self.r + 1)) + [1, 0])

    @property
    def relations(self) -> "RelationSet":
        """The relation set of this tower, built once and cached."""
        if self._relations is None:
            self._relations = build_relations(self)
        return self._relations

    def __repr__(self) -> str:
        return f"TowerContext(n={self.n}, k={self.k})"


class RelationSet:
    """Lifted Chern classes and the monic relation of every level, memoized."""

    __slots__ = ("ctx", "lifted", "relations", "_neg_lifted")

    def __init__(self, ctx: TowerContext, lifted, relations):
        self.ctx = ctx
        self.lifted = lifted          # lifted[j][l-1] = class l at level j, j = 0..k-1
        self.relations = relations    # relations[j-1] = monic relation of level j
        self._neg_lifted: dict[int, list[list[tuple[int, dict[int, int]]]]] = {}

    def lifted_chern(self, j: int, l: int) -> Polynomial:
        """Lifted class ``l`` at level ``j`` (0 = base); zero for ``l > r``."""
        if not 0 <= j <= self.ctx.k - 1:
            raise IndexError(f"level {j} outside 0..{self.ctx.k - 1}")
        if l < 1:
            raise IndexError("class index must be >= 1")
        if l > self.ctx.r:
            return self.ctx.ring.zero
        return self.lifted[j][l - 1]

    def relation(self, j: int) -> Polynomial:
        """The monic degree-r relation of level ``j`` (1-based)."""
        return self.relations[j - 1]

    def negated_lifted_buckets(self, j: int) -> list[list[tuple[int, dict[int, int]]]]:
        """Negated level-j lifted classes as raw term maps, bucketed for the pushforward.

        Entry ``l - 1`` lists ``(e, terms)``: the terms of ``-c_l^[j]`` whose
        degree in ``u_1..u_j`` is ``e``; memoized per level.
        """
        cached = self._neg_lifted.get(j)
        if cached is None:
            low = self.ctx.ring.shift(self.ctx.u(self.ctx.k))
            cached = []
            for cls in self.lifted[j]:
                buckets: dict[int, dict[int, int]] = {}
                for key, coeff in cls._terms.items():
                    buckets.setdefault(_key_degree(key >> low), {})[key] = -coeff
                cached.append(list(buckets.items()))
            self._neg_lifted[j] = cached
        return cached


def _lifted_class(prev: Sequence[Polynomial], upow: Sequence[Polynomial], l: int) -> Polynomial:
    """Class ``l`` of level j from the classes ``prev`` of level j-1; ``upow[e] = u_j^e``.

    ``c_l^[j] = sum_s _lift_coeff(r, l, s) u_j^(l-s) c_s^[j-1]`` over
    ``0 <= s <= min(l, r)``, with ``c_0 = 1``.  At ``l = r + 1`` it is
    ``-u_j q_j``, which vanishes modulo the level relation.
    """
    r = len(prev)
    cls = _lift_coeff(r, l, 0) * upow[l]
    for s in range(1, min(l, r + 1)):
        coeff = _lift_coeff(r, l, s)
        if coeff:
            cls = cls + coeff * (prev[s - 1] * upow[l - s])
    if l <= r:
        cls = cls + prev[l - 1]
    return cls


def build_relations(ctx: TowerContext) -> RelationSet:
    """Build the lifted Chern classes and the monic relation of every level.

    Level-j classes follow the rank-r recursion of ``_lifted_class``, and the
    level relation is ``q_j = u_j^r + sum_l c_l^[j-1] u_j^(r-l)``.
    """
    ring = ctx.ring
    r = ctx.r
    lifted = [tuple(ring.variable(ctx.c(l)) for l in range(1, r + 1))]
    relations = []
    for j in range(1, ctx.k + 1):
        uj = ring.variable(ctx.u(j))
        upow = [uj**e for e in range(r + 1)]
        prev = lifted[j - 1]
        rel = upow[r]
        for l in range(1, r + 1):
            rel = rel + prev[l - 1] * upow[r - l]
        relations.append(rel)
        if j < ctx.k:
            lifted.append(tuple(_lifted_class(prev, upow, l) for l in range(1, r + 1)))
    return RelationSet(ctx, tuple(lifted), tuple(relations))


@functools.lru_cache(maxsize=None)
def pipeline_tower(n: int, k: int) -> tuple[RelationSet, str]:
    """The relations of the (n, k) tower and the SHA-256 hex digest of their text, once per process.

    The text is ``str`` of each level relation, one per line; cache keys
    carry its digest.  Every pipeline stage takes its tower from here;
    towers built by hand, such as perturbed ones, do not.
    """
    rels = TowerContext(n, k).relations
    text = "\n".join(str(q) for q in rels.relations)
    return rels, hashlib.sha256(text.encode()).hexdigest()


def reduce_tower(p: Polynomial, rels: RelationSet) -> Polynomial:
    """Canonical representative with ``deg(u_j) < r`` for every level.

    Levels are processed from ``u_k`` down to ``u_1``; relations of lower
    levels never reintroduce higher tautological variables, so one pass
    suffices and the order is part of the canonical-form contract.
    """
    ctx = rels.ctx
    for j in range(ctx.k, 0, -1):
        p = reduce_monic(p, ctx.u(j), rels.relation(j))
    return p


def integrate_fibers(p: Polynomial, ctx: TowerContext) -> Polynomial:
    """Pushforward of a reduced class down to the base.

    Requires ``deg(u_j) < r`` for every j (coefficient extraction is only the
    correct pushforward below the relation degree) and extracts the
    ``u_j^(r-1)`` coefficient from ``u_k`` down to ``u_1``.
    """
    r = ctx.r
    for j in range(1, ctx.k + 1):
        deg = p.degree_in(ctx.u(j))
        if deg is not NEG_INFINITY and deg >= r:
            raise UnreducedClassError(
                f"degree {deg} in u{j} is >= rank {r}; reduce the class first"
            )
    for j in range(ctx.k, 0, -1):
        p = p.coeff_of(ctx.u(j), r - 1)
    return p


def pushforward_to_base(p: Polynomial, rels: RelationSet) -> Polynomial:
    """Integrate an arbitrary tower class to the base in one pass per level: the reference.

    Returns exactly ``integrate_fibers(reduce_tower(p, rels), ctx)`` on
    graded relations (see the module docstring) but never materializes the
    reduced class.  Level j splits the class into strata ``A_m`` by the
    power of ``u_j`` and runs the adjoint recurrence ``B_m = A_m - sum_l
    c_l^[j-1] B_(m+l)`` from the top power down; ``B_(r-1)`` is the level's
    pushforward (each B-step is one division step, restricted to what can
    still reach the ``u_j^(r-1)`` coefficient), so a power of ``u_j`` below
    ``r - 1`` is dropped when the strata are split: no B-step reads it.

    Terms are kept bucketed by their degree in ``u_1..u_j``, and a term
    ``u_j^m t`` of ``B_m`` whose degree is below ``j(r-1)`` is never formed:
    the map is Z[c,h,d]-linear and lowers the weighted degree by ``r - 1``
    per level, so such a term lands in base classes of negative degree,
    which are zero.  The buckets of ``B_(r-1)`` are those of the next level.
    """
    ctx, ring, r = rels.ctx, rels.ctx.ring, rels.ctx.r
    low = ring.shift(ctx.u(ctx.k))  # the u_1..u_k fields sit above every other field of a key
    graded: dict[int, dict[int, int]] = {}
    for key, coeff in p._terms.items():
        graded.setdefault(_key_degree(key >> low), {})[key] = coeff
    for j in range(ctx.k, 0, -1):
        cut, sh = j * (r - 1), ring.shift(ctx.u(j))
        strata: dict[int, dict[int, dict[int, int]]] = {}  # strata[m][a]: A_m's terms of degree a in u_1..u_(j-1)
        for degree, terms in graded.items():
            if degree >= cut:
                for key, coeff in terms.items():
                    m = key >> sh & _EXP_MASK
                    if m >= r - 1:
                        strata.setdefault(m, {}).setdefault(degree - m, {})[key - (m << sh)] = coeff
        factors = rels.negated_lifted_buckets(j - 1)
        window: dict[int, dict[int, dict[int, int]]] = {}
        for m in range(max(strata, default=0), r - 2, -1):
            acc = strata.pop(m, {})
            for l, factor in enumerate(factors, start=1):
                for a, terms in window.get(m + l, {}).items():
                    for e, neg in factor:
                        if m + a + e >= cut:
                            _mul_into(acc.setdefault(a + e, {}), neg, terms)
            window[m] = acc
            window.pop(m + r, None)  # no later step reads B_(m+r)
        graded = window.get(r - 1, {})
    return ring.polynomial(graded.get(0, {}))


def intersect(ctx: TowerContext, exponents: Sequence[int]) -> Polynomial:
    """Intersection class of ``u_1^(e_1) ... u_k^(e_k)`` on the base: the reference path.

    The exponents must sum to the tower dimension ``n + k(r-1)``; the result
    is the base class of weighted degree ``n`` obtained by
    ``integrate_fibers(reduce_tower(...))``.  ``pushforward_to_base``
    computes the same class in one pass per level; the tests compare the two.
    """
    if len(exponents) != ctx.k:
        raise DimensionMismatchError(
            f"expected {ctx.k} exponents, got {len(exponents)}"
        )
    if sum(exponents) != ctx.total_dim:
        raise DimensionMismatchError(
            f"total degree {sum(exponents)} != tower dimension {ctx.total_dim}"
        )
    ring = ctx.ring
    cls = ring.polynomial({ring.encode({ctx.u(j): e for j, e in enumerate(exponents, start=1)}): 1})
    return integrate_fibers(reduce_tower(cls, ctx.relations), ctx)
