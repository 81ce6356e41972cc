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
``u_j^(r-1)`` coefficient.  It also drops the terms that would push forward
to zero.  Levels j down to j - i are i + 1 projective bundles of relative
dimension ``r - 1``, and the map is linear over the classes below them and
graded (u and h weigh 1, c_l weighs l, and each level lowers the degree by
``r - 1``), so at level j a term whose exponents of ``u_j, ..., u_(j-i)``
sum to less than ``(i + 1)(r - 1)`` lands in classes of negative degree,
which are zero.  Every level cuts on the shortest run (i = 0, the
power of ``u_j``) and on the whole one (i = j - 1, the degree in
``u_1..u_j``); the levels that peel cut on every run between.  Where the
lifted classes below level j follow the rank-r recursion and that saves
products, level j runs its window through ``RelationSet.peel_depth(j)``
steps of that recursion, each one key shifts and small-integer multiples,
and multiplies the result by the smaller classes that many levels down.

The pushforward and reduce-then-integrate produce identical polynomials
term by term when the relations are graded: every lifted class ``c_l`` is
weighted-homogeneous of weight l, u and h weighing 1 and ``c_l`` weighing
l, as ``build_relations`` makes them, so that each lifted class raises any
sum of u-exponents by at most l.  A set mapped by a ring map that fixes
``u_1..u_k`` (``RelationSet.specialized``) inherits the equality through
that map.  On any other set the cuts may drop terms that reach the base.
The test suite pins the equality, and the limit.

``_segre_expansion`` serves a combination of powers of a linear form in
the ``u_j``, as a single job's Morse class is at ``h = 1``: it writes a
product of the Segre classes ``s^[j] = 1 / c^[j]`` of level j as powers of
``u_j`` times Segre classes of level j - 1, so ``morse`` integrates such a
class level by level without forming a u-monomial.  It reads the rank
alone, not a relation set: the identity it uses holds on the towers
``build_relations`` makes.
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
def _lift_table(r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry t lists the ``(s, _lift_coeff(r, s, t))`` with ``t < s <= r`` that are nonzero.

    The coefficients left out are ``_lift_coeff(r, t, t) = 1``.
    """
    return tuple(tuple((s, c) for s in range(t + 1, r + 1) if (c := _lift_coeff(r, s, t))) for t in range(r + 1))


@functools.cache
def _segre_gamma(r: int, i: int, e: int) -> int:
    """``[x^e] (1 + x)^-(i + r) (1 - x)^-1``: the coefficient of ``u_j^e s_i^[j-1]`` in ``s_(i+e)^[j]`` at rank r."""
    return sum((-1) ** t * comb(i + r + t - 1, t) for t in range(e + 1))


@functools.cache
def _segre_expansion(r: int, indices: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """``prod_(i in indices) s_i^[j]`` over level j-1 at rank r, as triples ``(e, rest, g)``.

    ``s^[j] = 1 / c^[j]`` is the Segre series of the level-j classes.  The
    product is ``sum g u_j^e prod_(i in rest) s_i^[j-1]``, each ``rest``
    sorted and free of ``s_0 = 1``, each ``g`` nonzero.  One factor expands
    as ``s_i^[j] = sum_(i' <= i) _segre_gamma(r, i', i - i') u_j^(i-i')
    s_(i')^[j-1]``: the lifted classes of ``_lifted_class`` are the degree
    <= r part of ``c^[j](y) = (1 - u_j y)(1 + u_j y)^r c^[j-1](y / (1 +
    u_j y))``, whose ``y^(r+1)`` term ``-u_j q_j`` vanishes modulo the level
    relation, so on level j ``s^[j](y) = (1 - u_j y)^-1 (1 + u_j y)^-r
    s^[j-1](y / (1 + u_j y))`` exactly.  The product is that of the
    expansion of ``indices[:-1]`` with the last factor, memoized per
    ``(r, indices)`` and so independent of any weight.
    """
    if not indices:
        return ((0, (), 1),)
    *head, i = indices
    terms: dict[tuple[int, tuple[int, ...]], int] = {}
    for e, rest, g in _segre_expansion(r, tuple(head)):
        for low in range(i + 1):
            key = (e + i - low, tuple(sorted((*rest, low))) if low else rest)
            terms[key] = terms.get(key, 0) + g * _segre_gamma(r, low, i - low)
    return tuple((e, rest, g) for (e, rest), g in terms.items() if g)


#: A suffix sum is read from a key only in a bucket of lower degree, so that it leaves
#: the top bit of its field free; a bucket of higher degree is kept whole.
_HALF = 1 << _EXP_BITS - 1


@functools.cache
def _suffix_test(r: int, m: int, first: int, stop: int) -> Optional[tuple[int, int]]:
    """``(add, guard)`` testing ``s_q >= (q + 1)(r - 1) - m`` for ``first <= q < stop`` at once.

    ``s_q`` is a term's sum of exponents of ``u_(j-1), ..., u_(j-q)`` at
    level j, which field q - 1 of ``(key >> base) * spread`` holds (see
    ``pushforward_to_base``).  Adding ``2^15 - bound`` to a field below
    ``2^15`` sets its top bit exactly when it reaches the bound and carries
    nothing, so a term passes when ``((key >> base) * spread + add) & guard
    == guard``.  A bound above ``2^15`` is clamped to it, which no sum read
    reaches.  None when no bound is positive.
    """
    add = guard = 0
    for q in range(first, stop):
        bound = min((q + 1) * (r - 1) - m, _HALF)
        if bound > 0:
            add += (_HALF - bound) << _EXP_BITS * (q - 1)
            guard += _HALF << _EXP_BITS * (q - 1)
    return (add, guard) if guard else None


#: The tests of a level that does not peel: none.
_UNTESTED = ((None,), None)


@functools.cache
def _suffix_tests(r: int, m: int, depth: int, stop: int) -> tuple[tuple, Optional[tuple[int, int]]]:
    """The tests of window step m on a level of ``depth`` that reads the suffixes below ``stop`` per term.

    Step i + 1 of the recursion makes ``s_(i+1)`` final, so its parts are
    tested on that suffix; ``B_m`` is tested on the suffixes past
    ``depth``, which a product by the factor classes may leave short.
    """
    steps = tuple(_suffix_test(r, m, i + 1, min(i + 2, stop)) for i in range(depth)) or (None,)
    return steps, _suffix_test(r, m, depth + 1, stop)


def _passing(terms: dict[int, int], a: int, base: int, spread: int, test: Optional[tuple[int, int]]) -> dict[int, int]:
    """The terms of a bucket of degree ``a`` that pass ``test``: ``terms`` itself if none is read, else a new map."""
    if test is None or a >= _HALF:
        return terms
    add, guard = test
    return {key: coeff for key, coeff in terms.items() if ((key >> base) * spread + add) & guard == guard}


def _kept(
    buckets: dict[int, dict[int, int]], base: int, spread: int, test: Optional[tuple[int, int]], least: int = 0
) -> dict[int, dict[int, int]]:
    """New buckets: the terms that pass ``test`` of the buckets of degree ``least`` or more, none empty."""
    return {a: kept for a, terms in buckets.items() if a >= least and (kept := _passing(terms, a, base, spread, test))}


def _reach(r: int, gains: Sequence[float], steps: int) -> list[list[float]]:
    """Entry ``[i][t]``: the most a term of part t of step i raises a sum of u-exponents on its way into acc.

    ``gains[t - 1]`` is the most a term of factor class t raises it by
    (``NEG_INFINITY`` for a zero class), and each later step of the
    recursion raises it by ``t - s`` on the way to part s.
    """
    reach = [[0, *gains]]
    for _ in range(steps - 1):
        after = reach[0]
        reach.insert(0, [0] + [
            max(t - s + after[s] for s in range(t + 1) if _lift_coeff(r, t, s)) for t in range(1, r + 1)
        ])
    return reach


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


#: A level runs more than one step of the lifted-class recursion only where its
#: classes hold more than this many times as many terms as the recursion has
#: nonzero coefficients; on lighter levels the chunked steps lose time.
_DEEP_PEEL = 6


class RelationSet:
    """Lifted Chern classes and the monic relation of every level, memoized."""

    __slots__ = ("ctx", "lifted", "relations", "_neg_lifted", "_depths")

    def __init__(self, ctx: TowerContext, lifted, relations):
        self.ctx = ctx
        self.lifted = lifted          # lifted[j][l-1] = class l at level j, j = 0..k-1
        self.relations = relations    # relations[j-1] = monic relation of level j
        self._neg_lifted: dict[tuple[int, bool], list[list[tuple[int, int, dict[int, int]]]]] = {}
        self._depths: dict[int, int] = {}

    def specialized(self, term_map: Callable[[Polynomial], Polynomial]) -> "RelationSet":
        """This set with every lifted class and relation mapped through ``term_map``, memos fresh.

        The result lives on the same ``ctx``.  When ``term_map`` is a ring map
        ``phi`` that fixes ``u_1..u_k`` (such as ``c_j -> (-1)^j``), pushing
        ``phi(p)`` forward on the result gives ``phi`` of the pushforward of
        ``p`` on this set: every step of ``pushforward_to_base`` is a sum of
        products, and its degree and suffix cuts read u-exponents only, never
        a coefficient.  So the pushforward on the result equals
        reduce-then-integrate wherever it does on this set, though the mapped
        classes are not homogeneous.  ``peel_depth`` is decided afresh on the
        mapped classes.
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

    def negated_lifted_buckets(self, j: int, chunked: bool) -> list[list[tuple[int, int, dict[int, int]]]]:
        """Negated level-j lifted classes as raw term maps, bucketed for the pushforward.

        Entry ``l - 1`` lists ``(e, f, terms)``: the terms of ``-c_l^[j]``
        whose degree in ``u_1..u_j`` is ``e`` and, when ``chunked``, whose
        ``u_1`` exponent is ``f`` (else ``f = 0``); memoized per level and
        ``chunked``.
        """
        cached = self._neg_lifted.get((j, chunked))
        if cached is None:
            ring, ctx = self.ctx.ring, self.ctx
            low, first, mask = ring.shift(ctx.u(ctx.k)), ring.shift(ctx.u(1)), _EXP_MASK if chunked else 0
            cached = []
            for l in range(1, ctx.r + 1):
                buckets: dict[tuple[int, int], dict[int, int]] = {}
                for key, coeff in self.lifted[j][l - 1]._terms.items():
                    buckets.setdefault((_key_degree(key >> low), (key >> first) & mask), {})[key] = -coeff
                cached.append([(e, f, terms) for (e, f), terms in buckets.items()])
            self._neg_lifted[(j, chunked)] = cached
        return cached

    def peel_depth(self, j: int) -> int:
        """How many steps of the lifted-class recursion the level-j pushforward runs through.

        Step i rewrites the level-(j-i) classes by the recursion from level
        j-i-1, so the window is multiplied by the level-(j-1-depth) classes.
        A step is taken while it is exact, the level-(j-i) classes being
        ``_lifted_class`` of the level-(j-i-1) classes, and while it pays:
        per window term it forms one product fewer for each term by which the
        level-(j-i) classes outnumber the level-(j-i-1) classes, and one shift
        more for each nonzero recursion coefficient.  Steps beyond the first
        run in ``u_1`` chunks (see ``pushforward_to_base``), whose smaller
        buckets cost more than they save unless the level is heavy: they are taken
        only where the level-(j-1) classes hold more than ``_DEEP_PEEL`` times
        as many terms as there are coefficients.  Memoized per level, so a
        perturbed or specialized set decides on its own classes.
        """
        depth = self._depths.get(j)
        if depth is None:
            ctx, r = self.ctx, self.ctx.r
            terms = lambda i: sum(map(len, self.lifted[i]))
            coeffs = r + sum(map(len, _lift_table(r)))  # the nonzero recursion coefficients
            depth = 0
            while depth < j - 1 and (not depth or terms(j - 1) > _DEEP_PEEL * coeffs):
                i = j - 1 - depth  # the level this step rewrites
                if terms(i) <= terms(i - 1) + coeffs:
                    break
                u = ctx.ring.variable(ctx.u(i))
                upow = [u**e for e in range(r + 1)]
                prev, cur = self.lifted[i - 1], self.lifted[i]
                if any(cur[l - 1] != _lifted_class(prev, upow, l) for l in range(1, r + 1)):
                    break
                depth += 1
            self._depths[j] = depth
        return depth


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


def pushforward_to_base(p: Polynomial, rels: RelationSet) -> Polynomial:
    """Integrate an arbitrary tower class to the base in one pass per level.

    Returns exactly ``integrate_fibers(reduce_tower(p, rels), ctx)`` on
    graded relations (see the module docstring; it performs the same
    Euclidean divisions, less the terms that vanish in the base, see below)
    but never materializes the reduced class, which is what makes high jet
    orders tractable.  Per level
    the class is split into strata ``A_m`` by the power of the top variable
    and the adjoint recurrence ``B_m = A_m - sum_l c_l^[j-1] B_(m+l)`` is run
    from the top power down; ``B_(r-1)`` is the pushforward (each B-step is
    one division step, restricted to what can still reach the ``u^(r-1)``
    coefficient).

    Terms are kept bucketed by their degree in the tautological variables,
    and a term ``u_j^m * t`` of ``B_m`` whose degree ``m + deg_u(t)`` is
    below ``j(r-1)`` is never formed, for every ``p``: the map is
    Z[c,h,d]-linear and lowers the weighted degree by ``r - 1`` per level,
    so such a term lands in base classes of negative degree, which are
    zero.  The buckets of ``B_(r-1)`` are the buckets of the next level,
    and the lifted classes are bucketed once per relation set, so the only
    per-term degree count is on the input.  A term whose power of the top
    variable is below ``r - 1`` is dropped when bucketed: no B-step reads it.

    Level j runs its window through ``d = rels.peel_depth(j)`` steps of the
    recursion ``c_s^[i] = sum_t _lift_coeff(r, s, t) u_i^(s-t) c_t^[i-1]``
    (``c_0 = 1``).  At step m the parts ``E_s^(0) = B_(m+s)``, s = 1..r,
    give ``sum_s c_s^[j-1] E_s^(0)``; step i rewrites that as ``E_0^(i) +
    sum_(t>=1) c_t^[j-1-i] E_t^(i)`` with ``E_t^(i) = sum_(s>=max(t,1))
    _lift_coeff(r, s, t) u_(j-i)^(s-t) E_s^(i-1)``, key shifts and
    small-integer multiples only.  Each step's part 0 is subtracted into
    the accumulator as it is built; the last step's parts are built in turn,
    multiplied by the negated level-(j-1-d) classes and dropped.  At d = 0
    the parts are the windows themselves.  A term enters a part only if it
    can still reach the cut.  Where ``2 <= d <= j - 2`` no step shifts
    ``u_1``, so the window is kept in chunks by the ``u_1`` exponent and each
    chunk runs through the steps alone: terms of two chunks never merge in a
    part, the products are those of the unchunked pass, and the parts held
    at a time are one chunk's.  On the towers ``build_relations`` makes at
    k = 5, the depths of levels 1..5 are 0, 0, 0, 0, 0 at n = 2, 0, 0, 0, 1,
    1 at n = 3, and 0, 0, 1, 1, 3 at n = 4 and 5.

    A level that peels also cuts on the shorter runs of levels below it: a
    term ``u_j^m * t`` reaches the base only if ``m + s_i(t) >= (i + 1)(r -
    1)`` for i = 1..j-2, where ``s_i`` sums the exponents of ``u_(j-1), ...,
    u_(j-i)``.  This holds for the reason the degree cut holds, levels j down
    to j - i being i + 1 projective bundles, and a lifted class ``c_l``
    raises any sum of u-exponents by at most l, so a term of a part or of
    ``B_m`` that fails it never reaches the base.  The test reads exponents
    only: one multiplication places every suffix sum of a key in a field of
    its own (``_suffix_test``).  It runs on each stratum of the input as the
    stratum is split (below the top level the input is the output of a
    level that cut it, and drops nothing where that level peels), on the
    parts after step i for ``s_i``, which the later steps and the factor
    classes leave as it is, and on each ``B_m`` for the suffixes past d,
    which a product may leave short.  Parts are cut into new maps, since a
    part can be the part before or a window entry.  In chunks ``s_(j-2)``
    is a bucket's degree less its chunk, and it is cut per bucket, with the
    degree.  A level that does not peel (every level at n = 2) cuts on its
    degree only: there the test per term costs more time than it saves.

    The input is released once it is bucketed, and each bucket of a level
    once it is split into strata; each level's window is released once
    ``B_(r-1)`` is taken out of it, and each ``B_m`` drops its zero terms in
    place.  When the caller holds no other
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
    lift = _lift_table(r)
    for j in range(ctx.k, 0, -1):
        cut = j * (r - 1)
        sh = ring.shift(ctx.u(j))
        depth = rels.peel_depth(j)
        # where parts are stored between steps and no step shifts u_1, terms are kept in
        # chunks by their u_1 exponent
        chunked = _EXP_MASK if 2 <= depth <= j - 2 else 0
        above = ring.shift(ctx.u(1)) - sh
        select = _EXP_MASK | chunked << above
        # key >> base holds u_(j-1), ..., u_1 in fields 0, ..., j-2, and times spread = 1 + 2^16 + ...
        # + 2^(16(j-2)) it holds in field q - 1 the suffix sum s_q of the exponents of u_(j-1), ..., u_(j-q)
        base, spread = sh + _EXP_BITS, (1 << _EXP_BITS * (j - 1)) // _EXP_MASK
        # a level that peels reads the suffixes below per_term per term; s_(j-1) is a bucket's
        # degree a, and in chunks s_(j-2) is a - chunk
        per_term = (j - 2 if chunked else j - 1) if depth else 1
        # strata[m][chunk][a]: terms of A_m whose degree in u_1..u_(j-1) is a
        strata: dict[int, dict[int, dict[int, dict[int, int]]]] = {}
        while graded:  # each bucket is released once it is split
            degree, terms = graded.popitem()
            if degree < cut:
                continue
            # by_power[v]: the terms whose u_j exponent is m = v & _EXP_MASK, and u_1 exponent
            # v >> above when chunked
            by_power: dict[int, dict[int, int]] = {}
            for key, coeff in terms.items():
                v = (key >> sh) & select
                m = v & _EXP_MASK
                if m >= r - 1:
                    by_power.setdefault(v, {})[key - (m << sh)] = coeff
            for v, stratum in by_power.items():
                m = v & _EXP_MASK
                if depth:
                    stratum = _passing(stratum, degree - m, base, spread, _suffix_test(r, m, 1, j - 1))
                strata.setdefault(m, {}).setdefault((v >> above) & chunked, {})[degree - m] = stratum
        top = max(strata, default=-1)
        if top < r - 1:
            return ring.zero
        factors = rels.negated_lifted_buckets(j - 1 - depth, bool(chunked))
        # step i shifts u_(j-i) by lift; depth 0 is one step whose parts are the window entries
        steps = [(ring.shift(ctx.u(j - i)), lift) for i in range(1, depth + 1)] or [(0, ((),) * (r + 1))]
        # reach[i][t]: the most u-degree a term of part t of step i gains on its way into acc
        reach = _reach(r, [max((e for e, _, _ in factor), default=NEG_INFINITY) for factor in factors], len(steps))
        if chunked:  # high[i][t]: the same for the degree in u_2..u_(j-1), which is a - chunk
            high = _reach(r, [max((e - f for e, f, _ in fac), default=NEG_INFINITY) for fac in factors], len(steps))
        window: dict[int, dict[int, dict[int, dict[int, int]]]] = {}
        for m in range(top, r - 2, -1):
            need = cut - m
            tests, final = _suffix_tests(r, m, depth, per_term) if depth else _UNTESTED
            acc = strata.pop(m, {})
            for chunk in {c for s in range(1, r + 1) for c in window.get(m + s, ())}:
                parts = [{}] + [window.get(m + s, {}).get(chunk, {}) for s in range(1, r + 1)]
                into_chunk = acc.setdefault(chunk, {})
                for i, (shift, sources) in enumerate(steps):
                    last, gain, test = i == len(steps) - 1, reach[i], tests[i]
                    if chunked:  # a + gain >= need then also takes s_(j-2) = a - chunk to its bound
                        gain = [min(g, r - 1 + h - chunk) for g, h in zip(gain, high[i])]
                    prev, parts = parts, [{}] * (r + 1)
                    for t in range(r + 1):
                        if gain[t] == NEG_INFINITY:
                            continue
                        if t and not sources[t]:
                            part = prev[t]
                            if chunked:  # gains in chunks can drop buckets that the step before kept
                                part = _kept(part, base, spread, None, need - gain[t])
                        else:
                            # part t >= 1 starts as a copy of part t before; part 0 goes
                            # into acc negated, since c_0 = 1
                            part = into_chunk
                            if t:
                                part = {a: dict(terms) for a, terms in prev[t].items() if a + gain[t] >= need}
                            for s, w in sources[t]:
                                w, up = (w if t else -w), (s - t) << shift
                                for a, terms in prev[s].items():
                                    if a + s - t + gain[t] < need:
                                        continue
                                    into = part.setdefault(a + s - t, {})
                                    get = into.get
                                    for key, coeff in terms.items():
                                        key += up
                                        into[key] = get(key, 0) + w * coeff
                        if not t:
                            continue
                        if test:  # into a new map: part t may be prev[t] or a window entry
                            part = _kept(part, base, spread, test)
                        if not last:
                            parts[t] = part
                            continue
                        for a, terms in part.items():
                            for e, f, neg in factors[t - 1]:
                                if a + e >= need:
                                    _mul_into(acc.setdefault(chunk + f, {}).setdefault(a + e, {}), neg, terms)
                        del part
                    del prev
            if final or chunked:  # in chunks, a product may also leave s_(j-2) = a - chunk short
                acc = {c: _kept(buckets, base, spread, final, need - (r - 1) + c) for c, buckets in acc.items()}
            # B_m is acc less its zero terms, dropped in place, and its empty chunks
            for chunk, buckets in list(acc.items()):
                for a, terms in list(buckets.items()):
                    if 0 in terms.values():
                        for key in [key for key, coeff in terms.items() if not coeff]:
                            del terms[key]
                        if not terms:
                            del buckets[a]
                if not buckets:
                    del acc[chunk]
            window[m] = acc
            del acc
            window.pop(m + r, None)
        chunks = window.pop(r - 1)
        del window
        graded = chunks.pop(0, {})
        for buckets in chunks.values():
            for a, terms in buckets.items():
                graded.setdefault(a, {}).update(terms)
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
