"""Level relations, canonical reduction, fiber integration, intersections."""

import itertools
import random

import pytest

from jetbound import (
    NEG_INFINITY,
    RelationSet,
    TowerContext,
    build_relations,
    integrate_fibers,
    intersect,
    pushforward_to_base,
    reduce_tower,
)
from jetbound import morse, tower, verify
from jetbound.errors import DimensionMismatchError, UnreducedClassError
from jetbound.morse import default_weights, morse_class
from jetbound.polyring import _EXP_BITS
from jetbound.cli import main
from jetbound.verify import (
    check_low_order_leading_vanishes,
    check_truncation,
    check_vanishing_against_first_chern,
    run_all,
)


def test_level_one_relation_is_defining():
    ctx = TowerContext(2, 1)
    rels = ctx.relations
    assert str(rels.relation(1)) == "u1^2 + u1*c1 + c2"


def test_level_two_lifted_classes_by_hand():
    # rank-2 recursion applied once: c1 lifts to c1 + u1, c2 to c2 - u1^2
    ctx = TowerContext(2, 2)
    rels = ctx.relations
    ring = ctx.ring
    u1, u2, c1, c2 = (ring.variable(x) for x in ("u1", "u2", "c1", "c2"))
    assert rels.lifted_chern(1, 1) == c1 + u1
    assert rels.lifted_chern(1, 2) == c2 - u1**2
    assert rels.relation(2) == u2**2 + (c1 + u1) * u2 + (c2 - u1**2)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("k", range(1, 6))
def test_first_chern_closed_form(n, k):
    ctx = TowerContext(n, k)
    rels = ctx.relations
    ring = ctx.ring
    for j in range(0, k):
        expected = ring.variable(ctx.c(1))
        for s in range(1, j + 1):
            expected = expected + (n - 1) * ring.variable(ctx.u(s))
        assert rels.lifted_chern(j, 1) == expected


def test_truncation_above_rank():
    ctx = TowerContext(3, 4)
    rels = ctx.relations
    for j in range(0, 4):
        for l in (4, 5, 9):
            assert not rels.lifted_chern(j, l)


def _patch_relations(monkeypatch, perturb):
    """Make every new tower build its relations through ``perturb(ctx, lifted, relations)``.

    ``verify`` reads the process's pipeline towers, built before the patch;
    it gets an uncached ``pipeline_tower`` for the test, so the cached
    towers are never perturbed.
    """
    build = tower.build_relations

    def perturbed(ctx):
        rels = build(ctx)
        return RelationSet(ctx, *perturb(ctx, list(rels.lifted), list(rels.relations)))

    monkeypatch.setattr(tower, "build_relations", perturbed)
    monkeypatch.setattr(verify, "pipeline_tower", tower.pipeline_tower.__wrapped__)


def test_truncation_check_fails_on_a_perturbed_relation(monkeypatch):
    assert check_truncation().passed

    def perturb(ctx, lifted, relations):
        # the u1^(r-1)*c1 coefficient of q_1 goes from 1 to 2
        u1, c1 = ctx.ring.variable(ctx.u(1)), ctx.ring.variable(ctx.c(1))
        relations[0] = relations[0] + c1 * u1 ** (ctx.r - 1)
        return lifted, relations

    _patch_relations(monkeypatch, perturb)
    result = check_truncation()
    assert result.name == "rank-truncation"
    assert not result.passed
    assert result.detail == "class 3 is nonzero at n=2, level 1"


def _perturb_segre_expansion(monkeypatch):
    """Make ``morse`` read a ``_segre_expansion`` whose ``s_2^[j]`` gains ``(s_1^[j-1])^2``.

    That coefficient goes from 0 to 1.  The term has the right degree, but
    its extra index breaks the count that makes the low-order forms vanish:
    at ``c_l = (-1)^l`` the base Segre classes are ``S_1 = 1`` and ``S_p =
    0`` for ``2 <= p <= r``, so only products of n classes ``s_1`` reach
    ``d^(n+1)``, and a true expansion adds at most one index per level, so
    fewer than n levels never reach one.
    """
    expansion, s_1, s_2 = morse._segre_expansion, 1 << _EXP_BITS, 1 << 2 * _EXP_BITS

    def perturbed(r, key):
        terms = expansion(r, key)
        return terms + ((0, 2 * s_1, 1),) if key == s_2 else terms

    monkeypatch.setattr(morse, "_segre_expansion", perturbed)


def test_low_order_check_fails_on_a_perturbed_lifted_class(monkeypatch):
    assert check_low_order_leading_vanishes(3).passed
    _perturb_segre_expansion(monkeypatch)
    result = check_low_order_leading_vanishes(3)
    assert result.name == "low-order-leading-n3"
    assert not result.passed
    assert result.detail == "k=2: 1 terms"


def test_verify_catches_a_perturbed_lifted_class(monkeypatch, capsys):
    # the symbolic check is the one low-order proof verify runs; its own line must fail
    _perturb_segre_expansion(monkeypatch)
    results = {r.name: r for r in run_all(3)}
    assert not results["low-order-leading-n3"].passed
    assert main(["verify", "--dim-max", "3"]) == 4
    assert "FAIL  low-order-leading-n3  (k=2: 1 terms)" in capsys.readouterr().out


def test_first_chern_vanishing_fails_on_a_perturbed_lifted_class(monkeypatch, capsys):
    # the Segre expansion, which every integration of verify reads, must carry the check
    assert check_vanishing_against_first_chern(4).passed
    _perturb_segre_expansion(monkeypatch)
    result = check_vanishing_against_first_chern(4)
    assert result.name == "first-chern-vanishing-n4"
    assert not result.passed
    assert result.detail == "i=1: 1 terms"
    assert main(["verify", "--dim-max", "4"]) == 4
    assert "FAIL  first-chern-vanishing-n4  (i=1: 1 terms)" in capsys.readouterr().out


def test_build_relations_matches_cached():
    ctx = TowerContext(2, 3)
    fresh = build_relations(ctx)
    assert fresh.relations == ctx.relations.relations
    assert fresh.lifted == ctx.relations.lifted
    assert ctx.relations is ctx.relations  # built once, reused afterwards


def test_reduce_tower_single_relation():
    ctx = TowerContext(2, 1)
    ring = ctx.ring
    u1, c1, c2 = (ring.variable(x) for x in ("u1", "c1", "c2"))
    assert reduce_tower(u1**2, ctx.relations) == -c1 * u1 - c2


def test_reduce_tower_fixes_reduced_input():
    ctx = TowerContext(2, 2)
    ring = ctx.ring
    rng = random.Random(3)
    for _ in range(20):
        terms = {}
        for _ in range(5):
            exps = {ctx.u(1): rng.randint(0, 1), ctx.u(2): rng.randint(0, 1),
                    ctx.c(1): rng.randint(0, 2), ctx.h: rng.randint(0, 2)}
            terms[ring.encode(exps)] = rng.randint(-9, 9)
        p = ring.polynomial(terms)
        assert reduce_tower(p, ctx.relations) == p


def test_reduce_tower_two_levels_by_hand():
    # u2^2*u1 -> -(c1+u1)u2*u1 - (c2-u1^2)u1, then reduce the u1 powers
    ctx = TowerContext(2, 2)
    ring = ctx.ring
    u1, u2 = ring.variable("u1"), ring.variable("u2")
    c1, c2 = ring.variable("c1"), ring.variable("c2")
    expected = u1 * c1**2 - 2 * u1 * c2 + u2 * c2 + c1 * c2
    assert reduce_tower(u2**2 * u1, ctx.relations) == expected


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3)])
def test_reduce_tower_degrees_below_rank(n, k):
    ctx = TowerContext(n, k)
    ring = ctx.ring
    rng = random.Random(n * 10 + k)
    for _ in range(10):
        terms = {}
        for _ in range(6):
            exps = {ctx.u(j): rng.randint(0, n + 2) for j in range(1, k + 1)}
            exps[ctx.h] = rng.randint(0, 2)
            terms[ring.encode(exps)] = rng.randint(-9, 9)
        p = ring.polynomial(terms)
        reduced = reduce_tower(p, ctx.relations)
        for j in range(1, k + 1):
            deg = reduced.degree_in(ctx.u(j))
            assert deg is NEG_INFINITY or deg < ctx.r


@pytest.mark.parametrize("n,k,level", [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2)])
def test_reduce_tower_kills_relation_multiples(n, k, level):
    ctx = TowerContext(n, k)
    ring = ctx.ring
    rng = random.Random(level * 100 + n)
    q = ctx.relations.relation(level)
    for _ in range(10):
        terms = {}
        for _ in range(4):
            exps = {ctx.u(j): rng.randint(0, 2) for j in range(1, k + 1)}
            exps[ctx.c(1)] = rng.randint(0, 1)
            terms[ring.encode(exps)] = rng.randint(-5, 5)
        p = ring.polynomial(terms)
        s = ring.polynomial({ring.encode({ctx.h: rng.randint(0, 3)}): rng.randint(-5, 5)})
        assert reduce_tower(q * p + s, ctx.relations) == reduce_tower(s, ctx.relations)


def test_integrate_fibers_top_class():
    for n in (2, 3, 4):
        ctx = TowerContext(n, 1)
        ring = ctx.ring
        u1 = ring.variable("u1")
        assert integrate_fibers(u1 ** (n - 1), ctx) == ring.one
        if n >= 2:
            assert integrate_fibers(u1 ** (n - 2), ctx) == ring.zero


def test_integrate_fibers_base_classes_pass_through():
    ctx = TowerContext(3, 2)
    ring = ctx.ring
    h = ring.variable("h")
    cls = h**2
    for j in range(1, 3):
        cls = cls * ring.variable(ctx.u(j)) ** (ctx.r - 1)
    assert integrate_fibers(cls, ctx) == h**2


def test_integrate_fibers_rejects_unreduced():
    ctx = TowerContext(2, 2)
    ring = ctx.ring
    u2 = ring.variable("u2")
    with pytest.raises(UnreducedClassError):
        integrate_fibers(u2**2, ctx)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_pushforward_equals_reduce_then_integrate(n, k):
    ctx = TowerContext(n, k)
    ring = ctx.ring
    rels = ctx.relations
    rng = random.Random(n * 7 + k)
    for _ in range(8):
        terms = {}
        for _ in range(6):
            exps = {ctx.u(j): rng.randint(0, n + 1) for j in range(1, k + 1)}
            exps[ctx.h] = rng.randint(0, 2)
            exps[ctx.c(1)] = rng.randint(0, 1)
            terms[ring.encode(exps)] = rng.randint(-9, 9)
        p = ring.polynomial(terms)
        assert pushforward_to_base(p, rels) == integrate_fibers(reduce_tower(p, rels), ctx)


def test_pushforward_equals_literal_on_morse_class():
    ctx = TowerContext(3, 3)
    rels = ctx.relations
    cls = morse_class(ctx, default_weights(3))
    fast = pushforward_to_base(cls, rels)
    literal = integrate_fibers(reduce_tower(cls, rels), ctx)
    assert fast == literal


def _random_classes(ctx, seed):
    """Ten random inhomogeneous classes of eight terms over every variable of ``ctx``.

    Each u-exponent lies in ``0..2(r-1)`` and each base exponent in ``0..2``.
    """
    ring, rng = ctx.ring, random.Random(seed)
    base = [ctx.c(l) for l in range(1, ctx.r + 1)] + [ctx.h, ctx.d]
    for _ in range(10):
        terms = {}
        for _ in range(8):
            exps = {ctx.u(j): rng.randint(0, 2 * (ctx.r - 1)) for j in range(1, ctx.k + 1)}
            exps.update((v, rng.randint(0, 2)) for v in base)
            terms[ring.encode(exps)] = rng.randint(-9, 9)
        yield ring.polynomial(terms)


@pytest.mark.parametrize(
    "n,k", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (4, 3), (3, 4), (5, 3)]
)
def test_pushforward_cut_on_inhomogeneous_classes(n, k):
    # every base variable occurs, and u-degrees fall on both sides of the
    # cut k(r-1) below which a term pushes forward to zero; (4,3), (3,4) and
    # (5,3) reach a level that multiplies through the lifted-class recursion
    ctx = TowerContext(n, k)
    rels = ctx.relations
    base = {ctx.c(l) for l in range(1, ctx.r + 1)} | {ctx.h, ctx.d}
    cut = k * (ctx.r - 1)
    udegrees = set()
    nonzero = 0
    for p in _random_classes(ctx, 1000 + n * 10 + k):
        udegrees.update(sum(exps.get(ctx.u(j), 0) for j in range(1, k + 1)) for exps, _ in p.terms())
        assert p.variables_used() >= base
        pushed = pushforward_to_base(p, rels)
        assert pushed == integrate_fibers(reduce_tower(p, rels), ctx)
        nonzero += bool(pushed)
    assert min(udegrees) < cut <= max(udegrees)
    assert nonzero


def _suffix_sums(ctx, exps):
    """Entry i: the sum of the exponents of ``u_k, ..., u_(k-i)`` in ``exps``, for i = 0..k-1."""
    return list(itertools.accumulate(exps.get(ctx.u(j), 0) for j in range(ctx.k, 0, -1)))


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (3, 4)])
def test_terms_failing_a_suffix_condition_push_forward_to_zero(n, k):
    # a lemma on the reference path: levels k..k-i are
    # i + 1 projective bundles, so a term whose exponents of u_k, ..., u_(k-i)
    # sum to less than (i + 1)(r - 1) integrates to zero, also where its whole
    # u-degree reaches k(r - 1); terms that meet every condition do not all vanish
    ctx = TowerContext(n, k)
    ring, rels, r = ctx.ring, ctx.relations, ctx.r
    base = ring.encode({ctx.c(1): 1, ctx.h: 1})
    failing = reaching = 0
    for e in itertools.product(range(2 * r - 1), repeat=k):
        exps = dict(zip(map(ctx.u, range(1, k + 1)), e))
        sums = _suffix_sums(ctx, exps)
        if sums[-1] < k * (r - 1):
            continue
        pushed = integrate_fibers(reduce_tower(ring.polynomial({ring.encode(exps) + base: 1}), rels), ctx)
        if any(s < (i + 1) * (r - 1) for i, s in enumerate(sums)):
            assert not pushed, e
            failing += 1
        else:
            reaching += bool(pushed)
    assert failing and reaching


@pytest.mark.parametrize("n,k", [(4, 3), (3, 4), (5, 3), (4, 4)])
def test_pushforward_suffix_cut_on_inhomogeneous_classes(n, k):
    # the classes hold terms on both sides of each suffix's bound (i + 1)(r - 1),
    # and terms that reach the degree cut but fail a shorter suffix: the pass,
    # which cuts on the degree only, forms them and they cancel
    ctx = TowerContext(n, k)
    rels, r = ctx.relations, ctx.r
    sides = set()
    only_suffix = nonzero = 0
    for p in _random_classes(ctx, 6000 + n * 10 + k):
        for exps, _ in p.terms():
            meets = [s >= (i + 1) * (r - 1) for i, s in enumerate(_suffix_sums(ctx, exps))]
            sides.update(enumerate(meets))
            only_suffix += meets[0] and meets[-1] and not all(meets)
        pushed = pushforward_to_base(p, rels)
        assert pushed == integrate_fibers(reduce_tower(p, rels), ctx)
        nonzero += bool(pushed)
    assert sides == {(i, side) for i in range(k) for side in (False, True)}
    assert only_suffix and nonzero


def test_pushforward_is_not_exact_on_an_inhomogeneous_tower():
    # the documented limit of the cuts: c_1^[2] gains u_1*u_2^2, of weight 3, and
    # q_3 is rebuilt from it, so the relations are not graded and the pass
    # drops terms that reach the base
    ctx = TowerContext(3, 3)
    ring, rels = ctx.ring, ctx.relations
    u1, u2, u3 = (ring.variable(ctx.u(j)) for j in (1, 2, 3))
    lifted, relations = list(rels.lifted), list(rels.relations)
    lifted[2] = (lifted[2][0] + u1 * u2**2,) + lifted[2][1:]
    rel = u3**ctx.r
    for l in range(1, ctx.r + 1):
        rel = rel + lifted[2][l - 1] * u3 ** (ctx.r - l)
    relations[2] = rel
    perturbed = RelationSet(ctx, tuple(lifted), tuple(relations))
    classes = list(_random_classes(ctx, 1))
    differ = [pushforward_to_base(p, perturbed) != integrate_fibers(reduce_tower(p, perturbed), ctx) for p in classes]
    assert any(differ) and not all(differ)


def _specialized(rels, term_map):
    """``rels`` with every lifted class and relation mapped through ``term_map``."""
    lifted = tuple(tuple(map(term_map, level)) for level in rels.lifted)
    return RelationSet(rels.ctx, lifted, tuple(map(term_map, rels.relations)))


def _signs(ctx):
    """The ring map ``c_j -> (-1)^j``, which fixes every other variable."""

    def signs(p):
        for l in range(1, ctx.r + 1):
            p = p.substitute(ctx.c(l), ctx.ring.const((-1) ** l))
        return p

    return signs


@pytest.mark.parametrize("n,k", [(4, 3), (3, 4), (5, 3)])
def test_specialized_relations_commute_with_the_pushforward(n, k):
    # pushing phi(p) forward on the relations mapped by phi is phi of the
    # pushforward of p, for a ring map phi that fixes u_1..u_k: every step is
    # a sum of products, and the cuts read u-exponents only
    ctx = TowerContext(n, k)
    rels, signs = ctx.relations, _signs(ctx)
    specialized = _specialized(rels, signs)
    nonzero = 0
    for p in _random_classes(ctx, 2000 + n * 10 + k):
        pushed = pushforward_to_base(signs(p), specialized)
        assert pushed._terms == signs(pushforward_to_base(p, rels))._terms
        nonzero += bool(pushed)
    assert nonzero


def test_pushforward_is_exact_on_a_tower_that_breaks_the_recursion():
    # c_2^[2] gains u_1*u_2 and q_3 is rebuilt from the changed classes, so
    # level 2 no longer lifts level 1 by the recursion, nor level 3 level 2
    ctx = TowerContext(4, 4)
    ring = ctx.ring
    rels = ctx.relations
    u1, u2, u3 = (ring.variable(ctx.u(j)) for j in (1, 2, 3))
    lifted = list(rels.lifted)
    relations = list(rels.relations)
    lifted[2] = (lifted[2][0], lifted[2][1] + u1 * u2) + lifted[2][2:]
    rel = u3**ctx.r
    for l in range(1, ctx.r + 1):
        rel = rel + lifted[2][l - 1] * u3 ** (ctx.r - l)
    relations[2] = rel
    perturbed = RelationSet(ctx, tuple(lifted), tuple(relations))
    cls = morse_class(ctx, default_weights(4))
    pushed = pushforward_to_base(cls, perturbed)
    assert pushed == integrate_fibers(reduce_tower(cls, perturbed), ctx)
    assert pushed != pushforward_to_base(cls, rels)


@pytest.mark.parametrize("n,k", [(4, 4), (3, 5)])
def test_pushforward_cut_on_morse_class(n, k):
    ctx = TowerContext(n, k)
    rels = ctx.relations
    cls = morse_class(ctx, default_weights(k))
    assert pushforward_to_base(cls, rels) == integrate_fibers(reduce_tower(cls, rels), ctx)


def test_intersect_degree_two_class():
    ctx = TowerContext(2, 2)
    cls = intersect(ctx, (2, 2))
    weights = ctx.cohomology_weights
    assert cls.is_homogeneous(weights)
    assert cls.weighted_degree(weights) == 2
    allowed = {ctx.c(1), ctx.c(2), ctx.h}
    assert cls.variables_used() <= allowed
    assert cls == ctx.ring.variable("c2")  # frozen from the reference port


def test_intersect_single_level_cube():
    # pushforward of u1^3 over a rank-2 level: the degree-2 class c1^2 - c2
    ctx = TowerContext(2, 1)
    ring = ctx.ring
    c1, c2 = ring.variable("c1"), ring.variable("c2")
    assert intersect(ctx, (3,)) == c1**2 - c2


def test_intersect_dimension_check():
    ctx = TowerContext(2, 2)
    with pytest.raises(DimensionMismatchError):
        intersect(ctx, (2, 1))
    with pytest.raises(DimensionMismatchError):
        intersect(ctx, (2,))


def test_context_validation():
    with pytest.raises(ValueError):
        TowerContext(0, 1)
    with pytest.raises(ValueError):
        TowerContext(2, 0)
    ctx = TowerContext(2, 3)
    assert ctx.total_dim == 2 + 3 * 1
    assert ctx.r == ctx.n
    with pytest.raises(IndexError):
        ctx.u(4)
    with pytest.raises(IndexError):
        ctx.c(3)
