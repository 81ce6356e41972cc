"""Chern relations, canonical reduction and fiber integration on jet towers.

The tower over an n-dimensional base carries one tautological class ``u_j``
per level ``j = 1..k``.  Its cohomology is the base ring extended by the
``u_j`` subject to one monic relation of degree ``r = n`` per level, whose
coefficients are the rank-r lifted Chern classes of the previous level.  This
module builds those relations, reduces arbitrary classes to the canonical
form with ``deg(u_j) < r``, and integrates along the fibers down to the base
(extraction of the ``u_j^(r-1)`` coefficient, level by level from the top).

``pushforward_to_base`` computes ``integrate_fibers(reduce_tower(p))``
without materializing the reduced polynomial: per level it runs the adjoint
form of the same Euclidean division, keeping only what can still reach the
``u_j^(r-1)`` coefficient.  It also never forms a term that would push
forward to zero: the map is Z[c,h,d]-linear and graded (u weighs 1, c_l
weighs l, and each level lowers the degree by ``r - 1``), so at level j a
term whose degree in ``u_1..u_j`` is below ``j(r-1)`` lands in base classes
of negative degree, which are zero.  Where the level-(j-1) lifted classes
follow the rank-r recursion from level j-2 and that saves products
(``RelationSet.peels``), level j multiplies through the recursion: the
windows are first combined by key shifts and small-integer multiples, then
multiplied by the smaller level-(j-2) classes.  The pushforward and
reduce-then-integrate produce identical polynomials term by term, for every
input and every relation set; the test suite pins that equality.
"""

from __future__ import annotations

import functools
import hashlib
from math import comb
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatchError, UnreducedClassError
from .polyring import (
    NEG_INFINITY,
    Polynomial,
    Ring,
    VariableId,
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


class TowerContext:
    """Dimensions and variable table of one jet tower.

    ``n`` is the base dimension, ``r = n`` the rank of the directed bundle,
    ``k >= 1`` the jet order.  The ring orders its variables as
    ``u_1..u_k, c_1..c_r, h, d`` and, when ``symbolic_weights`` is set,
    ``a_1..a_k`` (weight-0 coefficient symbols used by the symbolic mode).
    """

    __slots__ = ("n", "r", "k", "symbolic_weights", "ring", "_relations")

    def __init__(self, n: int, k: int, symbolic_weights: bool = False):
        if n < 1:
            raise ValueError("base dimension n must be >= 1")
        if k < 1:
            raise ValueError("jet order k must be >= 1")
        self.n = n
        self.r = n
        self.k = k
        self.symbolic_weights = symbolic_weights
        names = [f"u{j}" for j in range(1, k + 1)]
        names += [f"c{l}" for l in range(1, self.r + 1)]
        names += ["h", "d"]
        if symbolic_weights:
            names += [f"a{j}" for j in range(1, k + 1)]
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

    def a(self, j: int) -> VariableId:
        if not self.symbolic_weights:
            raise ValueError("symbolic weight variables were not enabled")
        if not 1 <= j <= self.k:
            raise IndexError(f"a index {j} outside 1..{self.k}")
        return self.k + self.r + 2 + (j - 1)

    @property
    def cohomology_weights(self) -> tuple[int, ...]:
        """Weighted degree of each ring variable: u, h -> 1; c_l -> l; d, a -> 0."""
        weights = [1] * self.k + list(range(1, self.r + 1)) + [1, 0]
        if self.symbolic_weights:
            weights += [0] * self.k
        return tuple(weights)

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

    __slots__ = ("ctx", "lifted", "relations", "_neg_lifted", "_peels")

    def __init__(self, ctx: TowerContext, lifted, relations):
        self.ctx = ctx
        self.lifted = lifted          # lifted[j][l-1] = class l at level j, j = 0..k-1
        self.relations = relations    # relations[j-1] = monic relation of level j
        self._neg_lifted: dict[int, list[dict[int, dict[int, int]]]] = {}
        self._peels: dict[int, bool] = {}

    def specialized(self, term_map: Callable[[Polynomial], Polynomial]) -> "RelationSet":
        """This set with every lifted class and relation mapped through ``term_map``, memos fresh.

        The result lives on the same ``ctx``.  When ``term_map`` is a ring map
        ``phi`` that fixes ``u_1..u_k`` (such as ``c_j -> (-1)^j``), pushing
        ``phi(p)`` forward on the result gives ``phi`` of the pushforward of
        ``p`` on this set: every step of ``pushforward_to_base`` is a sum of
        products, and its degree cut reads u-exponents only.  ``peels`` is
        decided afresh on the mapped classes.
        """
        lifted = tuple(tuple(map(term_map, level)) for level in self.lifted)
        return RelationSet(self.ctx, lifted, tuple(map(term_map, self.relations)))

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

    def negated_lifted_by_degree(self, j: int) -> list[dict[int, dict[int, int]]]:
        """Negated level-j lifted classes as raw term maps bucketed by u-degree.

        Entry ``l - 1`` maps each degree ``e`` in ``u_1..u_j`` to the terms
        of ``-c_l^[j]`` of that degree; memoized per level.
        """
        cached = self._neg_lifted.get(j)
        if cached is None:
            low = self.ctx.ring.shift(self.ctx.u(self.ctx.k))
            cached = []
            for l in range(1, self.ctx.r + 1):
                buckets: dict[int, dict[int, int]] = {}
                for key, coeff in self.lifted[j][l - 1]._terms.items():
                    buckets.setdefault(_key_degree(key >> low), {})[key] = -coeff
                cached.append(buckets)
            self._neg_lifted[j] = cached
        return cached

    def peels(self, j: int) -> bool:
        """Whether the level-j pushforward multiplies through the lifted-class recursion.

        True when ``j >= 2`` and both hold: it pays, since the level-(j-1)
        classes hold more terms than the level-(j-2) classes plus the nonzero
        recursion coefficients; and it is exact, since the level-(j-1) classes
        equal ``_lifted_class`` of the level-(j-2) classes.  Memoized per level.
        """
        peel = self._peels.get(j)
        if peel is None:
            peel = False
            if j >= 2:
                r = self.ctx.r
                prev, cur = self.lifted[j - 2], self.lifted[j - 1]
                coeffs = sum(
                    1 for l in range(1, r + 1) for s in range(l + 1) if _lift_coeff(r, l, s)
                )
                if sum(map(len, cur)) > sum(map(len, prev)) + coeffs:
                    u = self.ctx.ring.variable(self.ctx.u(j - 1))
                    upow = [u**e for e in range(r + 1)]
                    peel = all(
                        cur[l - 1] == _lifted_class(prev, upow, l) for l in range(1, r + 1)
                    )
            self._peels[j] = peel
        return peel


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
    towers built by hand (perturbed or with symbolic weights) do not.
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


def _shift_add(
    target: dict[int, dict[int, int]],
    window: dict[int, dict[int, dict[int, int]]],
    m: int,
    s: int,
    sources: Sequence[tuple[int, int]],
    below: int,
    floor: int,
) -> dict[int, dict[int, int]]:
    """Add ``sum_(l, w) w u^(l-s) B_(m+l)`` into ``target``, bucketed by u-degree.

    ``window[m + l]`` holds ``B_(m+l)`` by degree, ``below`` is the key shift
    of ``u``, and a term that lands below degree ``floor`` is left out.
    """
    for l, w in sources:
        step = (l - s) << below
        for a, terms in window.get(m + l, {}).items():
            if a + l - s < floor:
                continue
            into = target.setdefault(a + l - s, {})
            get = into.get
            for key, coeff in terms.items():
                key += step
                into[key] = get(key, 0) + w * coeff
    return target


def pushforward_to_base(p: Polynomial, rels: RelationSet) -> Polynomial:
    """Integrate an arbitrary tower class to the base in one pass per level.

    Returns exactly ``integrate_fibers(reduce_tower(p, rels), ctx)`` (it
    performs the same Euclidean divisions, less the terms that vanish in the
    base; see below) but never materializes the reduced class, which is what
    makes high jet orders tractable.  Per level
    the class is split into strata ``A_m`` by the power of the top variable
    and the adjoint recurrence ``B_m = A_m - sum_l c_l^[j-1] B_(m+l)`` is run
    from the top power down; ``B_(r-1)`` is the pushforward (each B-step is
    one division step, restricted to what can still reach the ``u^(r-1)``
    coefficient).

    Terms are kept bucketed by their degree in the tautological variables,
    and a term ``u_j^m * t`` of ``B_m`` whose degree ``m + deg_u(t)`` is
    below ``j(r-1)`` is never formed.  This is exact for every ``p``: the
    map is Z[c,h,d]-linear and lowers the weighted degree by ``r - 1`` per
    level, so such a term lands in base classes of negative degree, which
    are zero.  The buckets of ``B_(r-1)`` are the buckets of the next level,
    and the lifted classes are bucketed once per relation set, so the only
    per-term degree count is on the input.  A term whose power of the top
    variable is below ``r - 1`` is dropped when bucketed: no B-step reads it.

    Where ``rels.peels(j)``, level j multiplies through the recursion
    ``c_l^[j-1] = sum_s _lift_coeff(r, l, s) u_(j-1)^(l-s) c_s^[j-2]``: at
    step m, ``sum_l c_l^[j-1] B_(m+l) = E_0 + sum_(s>=1) c_s^[j-2] E_s`` with
    ``E_s = sum_(l>=max(s,1)) _lift_coeff(r, l, s) u_(j-1)^(l-s) B_(m+l)``.
    Each part ``E_s`` takes only key shifts and small-integer multiples; it
    is built in turn, multiplied by the negated level-(j-2) classes and
    dropped, and ``E_0`` is subtracted as it is built.  A term of ``B_(m+l)``
    enters ``E_s`` only if its products with ``c_s^[j-2]`` can reach the
    cut.  A level peels only where that forms fewer products and is exact
    (see ``RelationSet.peels``); on the towers ``build_relations`` makes,
    that is from j = 3 at n >= 4 and from j = 4 at n = 3, never at n = 2.
    Elsewhere the parts are the windows ``B_(m+s)`` themselves, multiplied
    by the level-(j-1) classes.

    The input is released once it is bucketed, and each level's buckets once
    they are split into strata; each level's window is released once
    ``B_(r-1)`` is taken out of it.  When the caller holds no other
    reference to ``p``, as for a class built in the call's argument, the
    pass never holds the input next to its strata (from Python 3.11 on;
    before, the caller's value stack keeps a call's arguments alive until
    it returns).
    """
    ctx = rels.ctx
    r = ctx.r
    ring = ctx.ring
    # the u_1..u_k fields sit above every other field of the packed key
    low = ring.shift(ctx.u(ctx.k))
    graded: dict[int, dict[int, int]] = {}
    for key, coeff in p._terms.items():
        graded.setdefault(_key_degree(key >> low), {})[key] = coeff
    del p  # a class the caller does not hold is freed here
    for j in range(ctx.k, 0, -1):
        cut = j * (r - 1)
        sh = ring.shift(ctx.u(j))
        # strata[m][a]: terms of A_m whose degree in u_1..u_(j-1) is a
        strata: dict[int, dict[int, dict[int, int]]] = {}
        for degree, terms in graded.items():
            if degree < cut:
                continue
            by_power: dict[int, dict[int, int]] = {}
            for key, coeff in terms.items():
                m = (key >> sh) & _EXP_MASK
                if m >= r - 1:
                    by_power.setdefault(m, {})[key - (m << sh)] = coeff
            for m, stratum in by_power.items():
                strata.setdefault(m, {})[degree - m] = stratum
        del graded
        top = max(strata, default=-1)
        if top < r - 1:
            return ring.zero
        # at step m, part s is sum_(l, w) w u_(j-1)^(l-s) B_(m+l) over sources[s];
        # acc takes -part 0 and the product of each part s >= 1 with factors[s-1]
        if rels.peels(j):
            factors = rels.negated_lifted_by_degree(j - 2)
            below = ring.shift(ctx.u(j - 1))
            sources = [
                [(l, c if s else -c)
                 for l in range(max(s, 1), r + 1) if (c := _lift_coeff(r, l, s))]
                for s in range(r + 1)
            ]
        else:
            factors = rels.negated_lifted_by_degree(j - 1)
            sources = [[]] + [[(s, 1)] for s in range(1, r + 1)]
        window: dict[int, dict[int, dict[int, int]]] = {}
        for m in range(top, r - 2, -1):
            need = cut - m
            acc = strata.pop(m, {})
            if sources[0]:
                _shift_add(acc, window, m, 0, sources[0], below, need)
            for s in range(r, 0, -1):
                factor = factors[s - 1]
                if not factor:
                    continue
                if sources[s] == [(s, 1)]:
                    part = window.get(m + s, {})
                else:
                    # products with c_s^[j-2] raise the degree by at most max(factor)
                    part = _shift_add({}, window, m, s, sources[s], below, need - max(factor))
                for a, terms in part.items():
                    for e, neg in factor.items():
                        if a + e >= need:
                            _mul_into(acc.setdefault(a + e, {}), neg, terms)
                del part
            window[m] = {}
            for a, terms in acc.items():
                kept = {k: c for k, c in terms.items() if c}
                if kept:
                    window[m][a] = kept
            window.pop(m + r, None)
        graded = window.pop(r - 1, {})
        del window
    return ring.polynomial(graded.get(0, {}))


def intersect(ctx: TowerContext, exponents: Sequence[int]) -> Polynomial:
    """Intersection class of ``u_1^(e_1) ... u_k^(e_k)`` on the base: the reference path.

    The exponents must sum to the tower dimension ``n + k(r-1)``; the result
    is the base class of weighted degree ``n`` obtained by
    ``integrate_fibers(reduce_tower(...))``.  The pipeline integrates with
    ``pushforward_to_base``; the tests compare the two.
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
