"""Level relations, canonical reduction, fiber integration, intersections."""

import itertools
import random
import sys
import tracemalloc

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
from jetbound import tower, verify
from jetbound.errors import DimensionMismatchError, UnreducedClassError
from jetbound.geometry import chern_term_map
from jetbound.morse import default_weights, morse_class
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


def _perturb_lifted_c1(ctx, lifted, relations):
    # the u1 coefficient of c_1 at level 1 goes from r-1 to r
    if len(lifted) > 1:
        lifted[1] = (lifted[1][0] + ctx.ring.variable(ctx.u(1)),) + lifted[1][1:]
    return lifted, relations


def test_low_order_check_fails_on_a_perturbed_lifted_class(monkeypatch):
    assert check_low_order_leading_vanishes(3).passed
    _patch_relations(monkeypatch, _perturb_lifted_c1)
    result = check_low_order_leading_vanishes(3)
    assert result.name == "low-order-leading-n3"
    assert not result.passed
    assert result.detail.startswith("k=2: ")


def test_verify_catches_a_perturbed_lifted_class(monkeypatch, capsys):
    # the symbolic check is the one low-order proof verify runs; its own line must fail
    _patch_relations(monkeypatch, _perturb_lifted_c1)
    results = {r.name: r for r in run_all(3)}
    assert not results["low-order-leading-n3"].passed
    assert main(["verify", "--dim-max", "3"]) == 4
    assert "FAIL  low-order-leading-n3  (k=2: " in capsys.readouterr().out


def test_first_chern_vanishing_fails_on_a_perturbed_lifted_class(monkeypatch, capsys):
    # the lifted classes, which the pipeline's pushforward reads, must carry the check
    assert check_vanishing_against_first_chern(4).passed
    _patch_relations(monkeypatch, _perturb_lifted_c1)
    result = check_vanishing_against_first_chern(4)
    assert result.name == "first-chern-vanishing-n4"
    assert not result.passed
    assert result.detail == "i=1: 4 terms"
    assert main(["verify", "--dim-max", "4"]) == 4
    assert "FAIL  first-chern-vanishing-n4  (i=1: 4 terms)" in capsys.readouterr().out


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
    # the lemma behind the suffix cut, on the reference path: levels k..k-i are
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
    # the top level peels, so it also cuts on every shorter suffix of u_k, ..., u_1:
    # the classes hold terms on both sides of each suffix's bound (i + 1)(r - 1),
    # and terms that reach the degree cut but fail a shorter suffix
    ctx = TowerContext(n, k)
    rels, r = ctx.relations, ctx.r
    assert rels.peel_depth(k)
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


def _signs(ctx):
    """The ring map ``c_j -> (-1)^j``, which fixes every other variable."""

    def signs(p):
        for l in range(1, ctx.r + 1):
            p = p.substitute(ctx.c(l), ctx.ring.const((-1) ** l))
        return p

    return signs


@pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (4, 2)])
def test_chern_term_map_at_signs_keeps_the_weight_fields(n, k):
    # on classes over u, c and the symbolic weights a, the one integer map at
    # c_l = (-1)^l is _signs: it keeps the a fields, which lie below u_k
    ctx = TowerContext(n, k, symbolic_weights=True)
    ring, rng, signs = ctx.ring, random.Random(3000 + n * 10 + k), _signs(ctx)
    term_map = chern_term_map(ctx, [(-1) ** l for l in range(1, ctx.r + 1)], 1)
    variables = [*map(ctx.u, range(1, k + 1)), *map(ctx.c, range(1, ctx.r + 1)), *map(ctx.a, range(1, k + 1))]
    weights = {ctx.a(j) for j in range(1, k + 1)}
    for _ in range(10):
        p = ring.polynomial({
            ring.encode({v: rng.randint(0, 2) for v in variables}): rng.randint(-9, 9) for _ in range(8)
        })
        image = term_map(p)
        assert image == signs(p)
        assert image.variables_used() & weights


@pytest.mark.parametrize("n,k", [(4, 3), (3, 4), (5, 3)])
def test_specialized_relations_commute_with_the_pushforward(n, k):
    # pushing phi(p) forward on the relations mapped by phi is phi of the
    # pushforward of p; the cells reach a level that multiplies through the
    # lifted-class recursion, on the specialized set too
    ctx = TowerContext(n, k)
    rels, signs = ctx.relations, _signs(ctx)
    specialized = rels.specialized(signs)
    assert specialized.ctx is ctx
    assert any(specialized.peel_depth(j) for j in range(1, k + 1))
    nonzero = 0
    for p in _random_classes(ctx, 2000 + n * 10 + k):
        pushed = pushforward_to_base(signs(p), specialized)
        assert pushed._terms == signs(pushforward_to_base(p, rels))._terms
        nonzero += bool(pushed)
    assert nonzero


def test_peel_runs_where_it_pays_and_is_exact():
    # a level runs through the recursion of its lifted classes only where that
    # saves products: never at n = 2, whose misses stay cheap, and more than one
    # step only at the heavy top level of n = 4 and 5; specializing
    # c_j -> (-1)^j leaves the depths as they are
    expected = {2: [0, 0, 0, 0, 0], 3: [0, 0, 0, 1, 1], 4: [0, 0, 1, 1, 3], 5: [0, 0, 1, 1, 3]}
    for n, depths in expected.items():
        ctx = TowerContext(n, 5)
        for rels in (ctx.relations, ctx.relations.specialized(_signs(ctx))):
            assert [rels.peel_depth(j) for j in range(1, 6)] == depths
    # and only where the classes follow the recursion
    ctx = TowerContext(4, 3)
    assert ctx.relations.peel_depth(3) == 1
    perturbed = RelationSet(
        ctx, *_perturb_lifted_c1(ctx, list(ctx.relations.lifted), list(ctx.relations.relations))
    )
    assert [perturbed.peel_depth(j) for j in range(1, 4)] == [0, 0, 0]


def _with_depths(rels, depths):
    """A copy of ``rels`` with fresh memos whose level j runs ``depths[j]`` steps where given."""
    forced = RelationSet(rels.ctx, rels.lifted, rels.relations)
    forced._depths.update(depths)
    return forced


@pytest.mark.parametrize("n,k", [(4, 3), (3, 4), (5, 3), (4, 4)])
def test_every_exact_peel_depth_equals_depth_zero(n, k):
    # every level of these towers follows the recursion, so every depth up to
    # j - 1 is exact: at (3,4) and (4,4) depth 2 at level 4 runs in u_1 chunks,
    # and depth j - 1 steps through u_1 itself
    ctx = TowerContext(n, k)
    plain = _with_depths(ctx.relations, {j: 0 for j in range(1, k + 1)})
    classes = list(_random_classes(ctx, 4000 + n * 10 + k))
    expected = [pushforward_to_base(p, plain) for p in classes]
    assert any(expected)
    for j in range(2, k + 1):
        for depth in range(1, j):
            forced = _with_depths(ctx.relations, {j: depth})
            assert forced.peel_depth(j) == depth
            assert [pushforward_to_base(p, forced) for p in classes] == expected


@pytest.mark.parametrize("n,k", [(3, 6), (4, 5)])
def test_suffix_cut_equals_the_depth_zero_pass(n, k):
    # the top level runs three steps in u_1 chunks and cuts on every suffix; a
    # pass at depth 0 everywhere cuts on the degree only.  At (3,6) the factor
    # classes of level 2 hold u_2, so s_4, through u_2, is final only in B_m;
    # at (4,5) they are level-1 classes
    ctx = TowerContext(n, k)
    rels = ctx.relations
    assert rels.peel_depth(k) == 3
    plain = _with_depths(rels, dict.fromkeys(range(1, k + 1), 0))
    classes = [*_random_classes(ctx, 7000 + n * 10 + k), morse_class(ctx, default_weights(k), base_only=True)]
    expected = [pushforward_to_base(p, plain) for p in classes]
    assert all(expected)
    assert [pushforward_to_base(p, rels) for p in classes] == expected


def test_peel_depth_stops_where_a_lower_level_breaks_the_recursion():
    # at (4,5) level 5 runs three steps; c_2^[3] gains u_1*u_3 and levels 4
    # and 5 are rebuilt from it, so level 4 still follows the recursion from
    # level 3 but level 3 no longer follows it from level 2
    ctx = TowerContext(4, 5)
    ring, rels = ctx.ring, ctx.relations
    assert rels.peel_depth(5) == 3
    u = [ring.variable(ctx.u(j)) for j in range(1, 6)]
    lifted, relations = list(rels.lifted), list(rels.relations)
    lifted[3] = (lifted[3][0], lifted[3][1] + u[0] * u[2]) + lifted[3][2:]
    upow = [u[3] ** e for e in range(ctx.r + 1)]
    lifted[4] = tuple(tower._lifted_class(lifted[3], upow, l) for l in range(1, ctx.r + 1))
    for j in (4, 5):
        rel = u[j - 1] ** ctx.r
        for l in range(1, ctx.r + 1):
            rel = rel + lifted[j - 1][l - 1] * u[j - 1] ** (ctx.r - l)
        relations[j - 1] = rel
    perturbed = RelationSet(ctx, tuple(lifted), tuple(relations))
    assert perturbed.peel_depth(5) == 1
    # the literal reduction is slow at (4,5), so it checks the first class and
    # the pass at depth 0 everywhere checks the other nine
    classes = list(_random_classes(ctx, 5000))
    pushed = [pushforward_to_base(p, perturbed) for p in classes]
    assert pushed[0] and pushed[0] == integrate_fibers(reduce_tower(classes[0], perturbed), ctx)
    plain = _with_depths(perturbed, dict.fromkeys(range(1, 6), 0))
    assert pushed == [pushforward_to_base(p, plain) for p in classes]
    assert pushed != [pushforward_to_base(p, rels) for p in classes]


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


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 the caller's value stack holds a call's arguments until it returns",
)
def test_pushforward_releases_an_input_the_caller_does_not_hold():
    # traced at (4,4): a class the caller still holds stays alive through the
    # pass; one built in the call's argument is released once it is bucketed,
    # so that pass peaks at least half a class below the held one plus the class
    ctx = TowerContext(4, 4)
    rels = ctx.relations
    w = default_weights(4)
    pushforward_to_base(morse_class(ctx, w), rels)  # memoize the bucketed lifted classes

    def traced_peak(run):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cls = morse_class(ctx, w)
        size = tracemalloc.get_traced_memory()[0] - start
        held = traced_peak(lambda: pushforward_to_base(cls, rels))
        del cls
        temporary = traced_peak(lambda: pushforward_to_base(morse_class(ctx, w), rels))
    finally:
        tracemalloc.stop()
    assert temporary + size // 2 < size + held


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
    with pytest.raises(ValueError):
        ctx.a(1)
    sym = TowerContext(2, 2, symbolic_weights=True)
    assert sym.ring.names[-2:] == ("a1", "a2")
