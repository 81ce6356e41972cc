"""Weight vectors, the positivity pipeline, thresholds, leading coefficients."""

import functools
import hashlib
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetbound import (
    EvaluatedClass,
    MorseReport,
    TowerContext,
    WeightVector,
    compact_hypersurface,
    compute_report,
    default_weights,
    degree_threshold,
    enumerate_admissible,
    evaluate_in_degree,
    integrate_fibers,
    is_admissible,
    logarithmic_pair,
    morse_class,
    morse_polynomial,
    order_bounds,
    reduce_tower,
    symbolic_leading_form,
)
from jetbound import morse
from jetbound.cli import TABLE_CELLS
from jetbound.errors import InadmissibleWeightsError
from jetbound.geometry import GeometrySpec, _chern_coefficient_in_degree
from jetbound.morse import class_terms
from jetbound.polyring import _EXP_BITS, _EXP_MASK
from jetbound.tower import RelationSet, _segre_expansion, _segre_gamma, pipeline_tower, pushforward_to_base


# ---- weight vectors --------------------------------------------------------


def test_default_weights_examples():
    assert default_weights(1).a == (1,)
    assert default_weights(3).a == (6, 2, 1)
    assert default_weights(5).a == (54, 18, 6, 2, 1)
    assert default_weights(5).total == 81 == 3**4


@pytest.mark.parametrize("k", range(1, 6))
def test_default_weights_match_reference_construction(k):
    # a_j = 2*3^(k-j-1) for j < k, a_k = 1; the h-twist weight is 2*3^(k-1)
    w = default_weights(k)
    assert w.a[-1] == 1
    for j in range(1, k):
        assert w.a[j - 1] == 2 * 3 ** (k - j - 1)
    assert 2 * w.total == 2 * 3 ** (k - 1)


@pytest.mark.parametrize(
    "a,expected",
    [
        ((6, 2, 1), True),
        ((1, 1), False),
        ((3, 1), True),
        ((2, 1), True),
        ((1,), True),
        ((0,), False),
        ((-2, 1), False),
        ((54, 18, 6, 2, 1), True),
        ((18, 6, 2, 1), True),
        ((17, 6, 2, 1), False),
        ((9, 3, 1), True),
        ((8, 3, 1), False),
        ((), False),
    ],
)
def test_is_admissible(a, expected):
    assert is_admissible(a) is expected


def test_weight_vector_partial_sums():
    w = WeightVector((6, 2, 1))
    assert w.total == 9
    assert w.k == 3
    assert str(w) == "6,2,1"


def test_weight_vector_rejects_inadmissible():
    with pytest.raises(InadmissibleWeightsError):
        WeightVector((1, 1))
    with pytest.raises(InadmissibleWeightsError):
        WeightVector(())


# ---- the Morse class ----------------------------------------------------------


def _morse_class_by_product(ctx, a):
    """``(F - N*G) * F^(N-1)`` by ring arithmetic."""
    ring = ctx.ring
    G = 2 * sum(a) * ring.variable(ctx.h)
    F = G
    for j, aj in enumerate(a, start=1):
        F = F + aj * ring.variable(ctx.u(j))
    N = ctx.total_dim
    return (F - N * G) * F ** (N - 1)


def test_morse_class_matches_formula():
    ctx = TowerContext(2, 2)
    ring = ctx.ring
    u1, u2, h = (ring.variable(x) for x in ("u1", "u2", "h"))
    F = 2 * u1 + u2 + 6 * h
    G = 6 * h
    N = ctx.total_dim
    assert N == 4
    assert morse_class(ctx, (2, 1)) == (F - N * G) * F ** (N - 1)
    for n, k in [(2, 2), (3, 3), (3, 5), (4, 4)]:
        ctx = TowerContext(n, k)
        w = default_weights(k)
        assert morse_class(ctx, w) == _morse_class_by_product(ctx, w.a)


@st.composite
def _admissible(draw, k):
    """An admissible k-tuple: a_k >= 1, a_(k-1) >= 2a_k, a_j >= 3a_(j+1) below."""
    a = [draw(st.integers(1, 3))]
    for j in range(k - 1):
        least = 2 * a[0] if j == 0 else 3 * a[0]
        a.insert(0, least + draw(st.integers(0, 4)))
    return tuple(a)


# k = 1 spreads the whole rest onto u_1 at once
@settings(max_examples=40, deadline=None)
@given(data=st.data(), cell=st.sampled_from([(2, k) for k in range(1, 6)] + [(3, k) for k in range(1, 5)]))
def test_morse_class_equals_product_for_drawn_weights(data, cell):
    n, k = cell
    a = data.draw(_admissible(k))
    assert is_admissible(a)
    ctx = TowerContext(n, k)
    assert morse_class(ctx, a) == _morse_class_by_product(ctx, a)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(n, 6)])
def test_morse_class_term_count_and_no_linear_h(n, k):
    # the coefficient of u^alpha h^beta carries the factor (1 - beta)
    ctx = TowerContext(n, k)
    cls = morse_class(ctx, default_weights(k))
    N = ctx.total_dim
    assert len(cls) == comb(N + k, k) - comb(N + k - 2, k - 1) == class_terms(n, k)
    assert 1 not in {exponents.get(ctx.h, 0) for exponents, _ in cls.terms()}
    # at h = 1 no two terms merge: |alpha| + beta = N fixes beta
    assert len(cls.substitute(ctx.h, ctx.ring.one)) == len(cls)


def test_morse_class_homogeneous():
    ctx = TowerContext(3, 2)
    cls = morse_class(ctx, (2, 1))
    weights = ctx.cohomology_weights
    assert cls.is_homogeneous(weights)
    assert cls.weighted_degree(weights) == ctx.total_dim


def test_morse_class_validates_weights():
    ctx = TowerContext(2, 2)
    with pytest.raises(InadmissibleWeightsError):
        morse_class(ctx, (1, 1))
    with pytest.raises(InadmissibleWeightsError):
        morse_class(ctx, (2, 1, 1))


def _perturbed_3_4() -> RelationSet:
    """The (3,4) tower with the u1 coefficient of c_1 at level 1 raised from r-1 to r."""
    rels = pipeline_tower(3, 4)
    ctx = rels.ctx
    lifted = (rels.lifted[0], (rels.lifted[1][0] + ctx.ring.variable(ctx.u(1)),) + rels.lifted[1][1:]) + rels.lifted[2:]
    return RelationSet(ctx, lifted, rels.relations)


def _wide_degree(spec, k) -> int:
    """A power of two above twice the 1-norm of the ladder's ``P(d)``, where ``P`` shows every coefficient."""
    return 2 ** (sum(map(abs, compute_report(spec, k).morse_poly.coeffs)).bit_length() + 1)


def _at_degree(ctx, spec, D):
    """The ring map ``c_l -> p_l(D)``, ``h -> 1``, ``d -> D``, ``p_l`` the degree polynomial of class l.

    It fixes ``u_1..u_k``, so the image of a base class is an integer.
    """
    values = {ctx.h: 1, ctx.d: D}
    for l in range(1, ctx.n + 1):
        values[ctx.c(l)] = sum(c * D**i for i, c in enumerate(_chern_coefficient_in_degree(spec, l)))

    def at_degree(p):
        for v, value in values.items():
            p = p.substitute(v, ctx.ring.const(value))
        return p

    return at_degree


def _specialized(rels, term_map) -> RelationSet:
    """``rels`` with every lifted class and relation mapped through ``term_map``.

    When ``term_map`` is a ring map that fixes ``u_1..u_k``, such as the
    degree specialization, the pushforward on the result is that map of the
    pushforward on ``rels``.
    """
    lifted = tuple(tuple(map(term_map, level)) for level in rels.lifted)
    return RelationSet(rels.ctx, lifted, tuple(map(term_map, rels.relations)))


def _tower(cell) -> RelationSet:
    return _perturbed_3_4() if cell == "perturbed" else pipeline_tower(*cell)


def _reaches_base(ctx, key) -> bool:
    """``beta <= n`` (u-degree at least ``N - n``) and a power of ``u_k`` of at least ``r - 1``."""
    e = ctx.ring.decode(key)
    u_degree = sum(e.get(ctx.u(j), 0) for j in range(1, ctx.k + 1))
    return u_degree >= ctx.total_dim - ctx.n and e.get(ctx.u(ctx.k), 0) >= ctx.r - 1


BASE_ONLY_TOWERS = [(n, k) for n, k in TABLE_CELLS if n + k <= 8] + [(2, 1), (3, 2), "perturbed"]


@pytest.mark.parametrize("cell", BASE_ONLY_TOWERS, ids=str)
def test_base_only_class_has_the_pushforward_of_the_full_class(cell):
    # pushforward_to_base drops every other term whatever the relations: for beta > n the u-degree
    # is below the top level's cut k(r-1), and a lower power of u_k is dropped as the strata are
    # split; the Segre recursion, which forms no beta > n, relies on the first
    rels = _tower(cell)
    ctx = rels.ctx
    full = morse_class(ctx, default_weights(ctx.k))
    cut = ctx.ring.polynomial({key: c for key, c in full._terms.items() if _reaches_base(ctx, key)})
    assert 0 < len(cut) < len(full)
    assert pushforward_to_base(cut, rels) == pushforward_to_base(full, rels)
    # on the tower specialized at a degree above the 1-norm of the ladder's P, in both geometries
    for spec in (logarithmic_pair(ctx.n), compact_hypersurface(ctx.n)):
        at_degree = _at_degree(ctx, spec, _wide_degree(spec, ctx.k))
        specialized = _specialized(rels, at_degree)
        value = pushforward_to_base(at_degree(cut), specialized)
        assert value._terms.get(0)
        assert value == pushforward_to_base(at_degree(full), specialized)


def test_every_term_the_base_only_class_leaves_out_pushes_forward_to_zero():
    rels = _perturbed_3_4()
    ctx = rels.ctx
    full = morse_class(ctx, default_weights(4))
    dropped = {key: c for key, c in full._terms.items() if not _reaches_base(ctx, key)}
    assert 0 < len(dropped) < len(full)
    for key, coeff in dropped.items():
        assert not pushforward_to_base(ctx.ring.polynomial({key: coeff}), rels)


def test_power_equals_repeated_product():
    ctx = TowerContext(2, 3)
    ring = ctx.ring
    u1, u2, u3, h = (ring.variable(name) for name in ("u1", "u2", "u3", "h"))
    F = 6 * u1 + 2 * u2 + u3 + 18 * h
    product = ring.one
    for e in range(10):
        assert F**e == product
        product = product * F


# ---- pipeline golden values ---------------------------------------------------


def test_pipeline_log_2_2():
    P = morse_polynomial(logarithmic_pair(2), 2, (2, 1))
    assert P.coeffs == (0, -378, -153, 12)
    assert P.leading_coefficient > 0
    assert degree_threshold(P) == 15


def test_pipeline_low_order_leading_vanishes():
    for spec in (logarithmic_pair(2), compact_hypersurface(2)):
        P = morse_polynomial(spec, 1, (1,))
        assert P.coefficient(3) == 0


# P(d) of every table cell, logarithmic geometry and default weights, ascending in d.
TABLE_POLYNOMIALS = {
    (2, 2): (0, -378, -153, 12),
    (2, 3): (0, -84906, -29664, 2718),
    (2, 4): (0, -66469968, -22060404, 2046552),
    (2, 5): (0, -180221162904, -58995641916, 5456245128),
    (3, 3): (0, -948279600, -535215528, -17302968, 333162),
    (3, 4): (0, -265899680907552, -143330165541864, -4484935292544, 99990842868),
    (3, 5): (
        0,
        -932767072844075779968,
        -499176117299761437888,
        -15358014975447538560,
        341303724582213312,
    ),
    (4, 4): (
        0,
        -1280749294458271131120,
        -780112539825150983760,
        -54492363039675135600,
        -332789748717844800,
        1701148891784544,
    ),
    (4, 5): (
        0,
        -6284389657639637744025806161728,
        -3814155153164444360301839614464,
        -262379193322034631195469394928,
        -1581149421562117359644825760,
        9208896946562372362531920,
    ),
    (5, 5): (
        0,
        -46703198966428309600592869452982793657856,
        -29846680351307170272068793346759585645440,
        -2623955323371179894253718921204096381056,
        -39796200882092970607855191327868610880,
        -59222020879185394455699435668241792,
        82970555252684668951323755447424,
    ),
}


def test_every_table_cell_polynomial_is_pinned(table_reports):
    assert set(table_reports) == set(TABLE_POLYNOMIALS)
    for cell, report in table_reports.items():
        assert report.weights == default_weights(cell[1]).a
        assert report.morse_poly.coeffs == TABLE_POLYNOMIALS[cell], cell


def test_pipeline_rejects_wrong_weight_count():
    with pytest.raises(InadmissibleWeightsError, match=r"^got 3 weights for a tower of order 2$"):
        morse_polynomial(logarithmic_pair(2), 2, (6, 2, 1))


# SHA-256 of the comma-joined decimal coefficients of P(d) at the default
# weights, as the engine printed them before single-job passes collapsed to Z[u].
POLYNOMIAL_DIGESTS = {
    "log": {
        (2, 2): "3bd730e700c8af0b486cfccd5b1085e2d0c1c0b49cb4111d67383dbface67ae5",
        (2, 3): "996857fc68082de6575cebf0007aec3ffe8d0450cce8d1574e269280cba887ad",
        (2, 4): "67e9aa71a96aa339ab3a7c02dfe539d1b1bf584870d08e1cfa6a5a4f78da4b9c",
        (2, 5): "f3dbbf422d493b5e506eca2dcd89a9a1241a4f70d4c70f7574f4982a0a13a0ad",
        (3, 3): "b418f25b87e3f4b57cdc55a3c2a34b21bb97b2dd68b76a7a4a491c14f5cf301c",
        (3, 4): "df6c3e580b2247bb51955341de465ddf8b5ce7ca0e4fd4ff2977a8aad96ddec4",
        (3, 5): "376f04c849ff839562a1d27ccf3f18a062e48954c2cfbff64040b6bdbc84b1ad",
        (4, 4): "a74f05c30228489489d16042dd79ffd9181492c1da9446bc05817ab507656f7a",
        (4, 5): "4f4096b765de8dd307feabdfc18fc10741c3a8f1c3d74a2a01f05027436d1565",
        (5, 5): "1d8983e62cd3b32f7ff3665414d5a334fee1e73cb6e53cc01373d173a07ebd40",
    },
    "compact": {
        (2, 2): "0db69bbe3f57d41aa4db4ecb8cf1e59a97a34b92718c81f82c339d552f6e953d",
        (2, 3): "93e1109fcd6475838cc530e3cb2880fae8c0311446278dd893dc32b8fedae1b9",
        (2, 4): "f978de2b41e41d94176c47c9cacb51ff2386ce90787949eedac373a7884e3fc6",
        (2, 5): "0ba6389ad2122fdfdd56794470e16ca3f5f1d9cf0a2c24d415fd8d8c6d068175",
        (3, 3): "847436ae88e889056d8c217fc0b960a8a3673738f3c760daffed378f4afbffc7",
        (3, 4): "cd05cb77e263ea32cf549cb298a91c7bd5acd6b1d0517f8de3fc9cb044a25f63",
        (3, 5): "83e5b18401e82c1303a7181023762fb844f9236b80cb9e14404874f62a969845",
        (4, 4): "5a422fa271932a95e6bc07ab5948565b95cc74682fa2ddcfdeb78d6c2efeebce",
        (4, 5): "f47bdfc5b50b3c5ba702edb655eb9b73a5956572c38bff8930eed7ce277dc3a6",
        (5, 5): "7fb6edf5df5fbb70b5f60d2920198880982709fae1e919255a69689934fd7525",
    },
}


# SHA-256 of the term map of symbolic_leading_form(compact_hypersurface(n), k, c1_power=i), keyed
# (n, k, i): one line "e_1,...,e_k:coefficient" per term, the a-exponents ascending, as the
# pushforward computed the forms before they moved onto the Segre recursion.
FORM_DIGESTS = {
    (2, 2, 0): "6b6164e00f6253358d5d34fe417d851274c524f2b06f9fd3dfd18799813bce96",
    (3, 3, 0): "e6af4ecd1e754b7aedad31391f08109cc245213c346c3e96530a32f307bac1eb",
    (4, 4, 0): "9d2aafd34763070bcaf5ea8d5a539233e21067e5dd77b9476be4995626d056b5",
    (2, 2, 1): "266be7cb1c96204952fe43ee64d24bb0be721f786ae751a321ca5db240a552e7",
    (3, 3, 1): "c397ec4f852c7a91419cf1110cba8f0609610c3d02481c664f68ea5232b8c97c",
    (4, 3, 1): "7fa1664fbcf7f30207eaad148b32971f9baff33fcd1e02e722cccaf57ad73043",
}


@pytest.mark.parametrize("n,k,i", list(FORM_DIGESTS))
def test_every_term_of_the_symbolic_forms_is_pinned(n, k, i):
    form = symbolic_leading_form(compact_hypersurface(n), k, c1_power=i)
    weights = [form.ring.var(f"a{j}") for j in range(1, k + 1)]
    rows = sorted((tuple(exps.get(v, 0) for v in weights), coeff) for exps, coeff in form.terms())
    text = "\n".join(f"{','.join(map(str, e))}:{coeff}" for e, coeff in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == FORM_DIGESTS[n, k, i]


@pytest.fixture()
def both_tables(table_reports, compact_table_reports):
    return {"log": table_reports, "compact": compact_table_reports}


def test_every_coefficient_of_every_table_cell_in_both_geometries_is_pinned(both_tables):
    for token, reports in both_tables.items():
        assert set(reports) == set(POLYNOMIAL_DIGESTS[token])
        for cell, report in reports.items():
            text = ",".join(map(str, report.morse_poly.coeffs))
            assert hashlib.sha256(text.encode()).hexdigest() == POLYNOMIAL_DIGESTS[token][cell], (token, cell)


@pytest.mark.parametrize("make_spec", [logarithmic_pair, compact_hypersurface])
@pytest.mark.parametrize("cell", [(n, k) for n, k in TABLE_CELLS if n + k <= 7])
def test_pushforward_on_the_degree_specialized_tower_is_P_at_that_degree(make_spec, cell):
    n, k = cell
    spec, rels = make_spec(n), pipeline_tower(n, k)
    a = default_weights(k)
    P = compute_report(spec, k).morse_poly
    cls = morse_class(rels.ctx, a).substitute(rels.ctx.h, rels.ctx.ring.one)
    for D in (-3, -1, 1, 2, 7, _wide_degree(spec, k)):
        value = pushforward_to_base(cls, _specialized(rels, _at_degree(rels.ctx, spec, D)))
        assert set(value._terms) <= {0}
        assert D * value._terms.get(0, 0) == P(D)


# ---- the Segre recursion of single jobs ----------------------------------------------


def _pushed_forward_polynomials(n, k, a) -> dict[str, EvaluatedClass]:
    """``P(d)`` in both geometries from the Morse class pushed forward on the pipeline tower."""
    rels = pipeline_tower(n, k)
    base = pushforward_to_base(morse_class(rels.ctx, a), rels)
    return {spec.token: evaluate_in_degree(rels.ctx, base, spec) for spec in (logarithmic_pair(n), compact_hypersurface(n))}


# (5,5), the one cell the fixture leaves out, is pinned by POLYNOMIAL_DIGESTS
@pytest.mark.parametrize("cell", [cell for cell in TABLE_CELLS if cell != (5, 5)])
def test_segre_recursion_equals_the_pushforward_on_table_cell(cell, table_bases):
    n, k = cell
    ctx = pipeline_tower(n, k).ctx
    for spec in (logarithmic_pair(n), compact_hypersurface(n)):
        expected = evaluate_in_degree(ctx, table_bases[cell], spec)
        assert compute_report(spec, k).morse_poly == expected, spec.token


SEGRE_JOBS = [
    *((n, default_weights(k).a) for n, k in [(2, 1), (3, 1), (3, 2), (4, 3), (3, 6)]),
    *((3, w.a) for w in enumerate_admissible(5, 12)),
    (3, (10**20 + 7, 2, 1)),
]


@pytest.mark.parametrize("n,a", SEGRE_JOBS, ids=str)
def test_segre_recursion_equals_the_pushforward(n, a):
    expected = _pushed_forward_polynomials(n, len(a), a)
    for spec in (logarithmic_pair(n), compact_hypersurface(n)):
        assert compute_report(spec, len(a), a).morse_poly == expected[spec.token], spec.token


def _decode(key: int) -> tuple[tuple[int, ...], int]:
    """The sorted Segre indices and the power M of a packed state key."""
    M, indices, i = key & _EXP_MASK, [], 0
    while key := key >> _EXP_BITS:
        i += 1
        indices += [i] * (key & _EXP_MASK)
    return tuple(indices), M


@pytest.mark.parametrize("n,k", [(2, 1), (2, 5), (3, 3), (4, 4), (5, 5)])
def test_segre_states_keep_their_degree_and_end_with_no_power_left(n, k):
    r, N = n, n + k * (n - 1)
    factors = [[x**m for m in range(N + 1)] for x in default_weights(k).a]
    for beta in (0, *range(2, n + 1)):
        levels = [[_decode(key) for key in states] for states in morse._segre_states(r, factors, {N - beta: 1})]
        assert len(levels) == k + 1 and levels[-1]
        for j, states in zip(range(k, -1, -1), levels):
            for indices, M in states:
                assert sum(indices) + M == n - beta + j * (r - 1)
                assert list(indices) == sorted(indices) and 0 not in indices
        assert all(M == 0 for _, M in levels[-1])


# the Segre recursion with each product of Segre classes a sorted tuple of indices: the reference
# that the packed keys must decode to
@functools.cache
def _tuple_segre_expansion(r, indices):
    if not indices:
        return ((0, (), 1),)
    *head, i = indices
    terms = {}
    for e, rest, g in _tuple_segre_expansion(r, tuple(head)):
        for low in range(i + 1):
            key = (e + i - low, tuple(sorted((*rest, low))) if low else rest)
            terms[key] = terms.get(key, 0) + g * _segre_gamma(r, low, i - low)
    return tuple((e, rest, g) for (e, rest), g in terms.items() if g)


def _tuple_segre_states(r, levels, powers):
    states = {((), M): g for M, g in powers.items()}
    yield states
    for j in range(len(levels), 0, -1):
        factors, below = levels[j - 1], {}
        for (indices, M), g in states.items():
            for m in range(M if j == 1 else 0, M + 1):
                scale = g * comb(M, m) * factors[m]
                for e, rest, coeff in _tuple_segre_expansion(r, indices):
                    if (index := e + m - r + 1) >= 0:
                        key = (tuple(sorted((*rest, index))) if index else rest, M - m)
                        below[key] = below.get(key, 0) + scale * coeff
        states = below
        yield states


def _multisets(total, largest):
    """Every sorted tuple of positive indices at most ``largest`` with sum at most ``total``."""
    yield ()
    for i in range(1, min(total, largest) + 1):
        yield from ((*head, i) for head in _multisets(total - i, i))


@pytest.mark.parametrize("r", range(2, 6))
def test_packed_segre_expansion_equals_the_tuple_expansion(r):
    multisets = list(_multisets(8, 8))
    assert len(multisets) == 67  # the partitions of 0, 1, ..., 8
    for indices in multisets:
        key = sum(1 << i * _EXP_BITS for i in indices)
        packed = {(e, _decode(rest)): g for e, rest, g in _segre_expansion(r, key)}
        assert packed == {(e, (rest, 0)): g for e, rest, g in _tuple_segre_expansion(r, indices)}, indices


@pytest.mark.parametrize("n,k", [(3, 5), (4, 4)])
def test_packed_segre_states_equal_the_tuple_states(n, k):
    w, N = default_weights(k), n + k * (n - 1)
    powers = {N - beta: (1 - beta) * comb(N, beta) * (2 * w.total) ** beta for beta in range(n + 1) if beta != 1}
    levels = [[a**m for m in range(N + 1)] for a in w.a]
    reference = list(_tuple_segre_states(n, levels, powers))
    packed = [{_decode(key): g for key, g in states.items()} for states in morse._segre_states(n, levels, powers)]
    assert packed == reference and reference[-1]


def test_a_power_beyond_the_key_field_is_refused_before_any_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Segre product was expanded")

    monkeypatch.setattr(morse, "_segre_expansion", refuse)
    levels = [[1] * (_EXP_MASK + 2)]
    with pytest.raises(ValueError, match=f"power {_EXP_MASK + 1} .* limit {_EXP_MASK}$"):
        list(morse._segre_states(2, levels, {_EXP_MASK + 1: 1}))
    assert list(morse._segre_states(2, [], {_EXP_MASK: 1})) == [{_EXP_MASK: 1}]


def test_a_wrong_length_vector_is_refused_before_any_pushforward(monkeypatch):
    def refuse(*args):
        raise AssertionError("a class was pushed forward")

    monkeypatch.setattr(morse, "pushforward_to_base", refuse)
    with pytest.raises(InadmissibleWeightsError, match=r"^got 3 weights for a tower of order 2$"):
        compute_report(logarithmic_pair(2), 2, (6, 2, 1))


# ---- thresholds ------------------------------------------------------------------


def test_threshold_linear():
    assert degree_threshold(EvaluatedClass.from_coefficients([-3, 1])) == 4


def test_threshold_positive_everywhere():
    assert degree_threshold(EvaluatedClass.from_coefficients([1, 0, 1])) == 1


def test_threshold_absent_for_negative_leading():
    assert degree_threshold(EvaluatedClass.from_coefficients([5, -1])) is None
    assert degree_threshold(EvaluatedClass.from_coefficients([])) is None


def test_threshold_integer_root_is_excluded():
    # P(3) = 0 must not count as positive: smallest good degree is 4
    assert degree_threshold(EvaluatedClass.from_coefficients([0, -3, 1])) == 4


def test_threshold_dips_after_sign_change():
    # (d-2)(d-5)(d-6) is positive at 3,4 but dips negative again up to 6
    P = EvaluatedClass.from_coefficients([-60, 52, -13, 1])
    assert P(3) > 0 and P(5) == 0
    assert degree_threshold(P) == 7


def _root_bound(P):
    """The first power of two B with ``lead * B^m > sum_i |c_i| B^i``, given a positive leading coefficient."""
    lead, rest = P.leading_coefficient, [abs(c) for c in P.coeffs[:-1]]
    bound = 1
    while lead * bound ** len(rest) <= sum(c * bound**i for i, c in enumerate(rest)):
        bound *= 2
    return bound


def _threshold_by_scan(P):
    """The reference search: every integer below the power-of-two root bound, downwards."""
    if P.leading_coefficient <= 0:
        return None
    for x in range(_root_bound(P) - 1, 0, -1):
        if P(x) <= 0:
            return x + 1
    return 1


@st.composite
def _threshold_polynomials(draw):
    """Random coefficients, or lead * prod (d - r_i) + offset with repeated roots: dips and touches."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=7))
        return EvaluatedClass.from_coefficients(coeffs)
    roots = draw(st.lists(st.integers(-30, 300), min_size=1, max_size=6))
    roots += draw(st.lists(st.sampled_from(roots), max_size=2))
    coeffs = [draw(st.integers(1, 5))]
    for r in roots:  # multiply by (d - r)
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    coeffs[0] += draw(st.integers(-3, 3))
    return EvaluatedClass.from_coefficients(coeffs)


@settings(max_examples=300, deadline=None)
@given(_threshold_polynomials())
def test_threshold_equals_linear_scan(P):
    assert degree_threshold(P) == _threshold_by_scan(P)


@settings(max_examples=100, deadline=None)
@given(_threshold_polynomials())
def test_taylor_certificate_holds_at_the_root_bound_and_from_its_first_point_upwards(P):
    # the search starts at the first x with P(x) > 0 and every Taylor coefficient of P(x + t) >= 0:
    # by Gauss-Lucas every coefficient is positive at the root bound, and the property holds upwards
    assume(P.leading_coefficient > 0)
    bound = _root_bound(P)
    assert min(morse._taylor(P.coeffs, bound)) > 0
    window = range(max(1, bound - 256), bound + 1)
    certified = [x for x in window if P(x) > 0 and min(morse._taylor(P.coeffs, x)) >= 0]
    assert certified == list(range(certified[0], bound + 1))


def test_threshold_search_skips_certified_runs(monkeypatch):
    # d^3 - 10^30 vanishes at 10^10: a search that stepped one integer at a
    # time would need about 7 * 10^9 steps from the root bound 2^34
    steps = []
    positive_run = morse._positive_run

    def counted(coeffs, x):
        steps.append(x)
        assert len(steps) <= 100, "the search visits too many points"
        return positive_run(coeffs, x)

    monkeypatch.setattr(morse, "_positive_run", counted)
    assert degree_threshold(EvaluatedClass.from_coefficients([-(10**30), 0, 0, 1])) == 10**10 + 1


def _segre_by_recursion(spec):
    """``S_p = -sum_(l <= p) p_l(d) S_(p-l)`` from ``S_0 = 1``, ``p_l`` the degree polynomial of class l."""
    segre = [[1]]
    for p in range(1, spec.n + 1):
        s = [0] * (p + 1)
        for l in range(1, p + 1):
            for i, c in enumerate(_chern_coefficient_in_degree(spec, l)):
                for j, e in enumerate(segre[p - l]):
                    s[i + j] -= c * e
        segre.append(s)
    return [{i: c for i, c in enumerate(s) if c} for s in segre[1:]]


@pytest.mark.parametrize("token", ["log", "compact"])
def test_base_segre_closed_form_equals_the_recursion_on_the_chern_classes(token):
    for n in range(1, 41):
        spec = GeometrySpec(token, n)
        closed = [{i: c for i, c in S.items() if c} for S in morse._base_segre(spec)]
        assert closed == _segre_by_recursion(spec), n


def test_order_one_reports_at_dimension_200_have_no_threshold():
    # order 1 at n = 200 reads 200 base Segre classes, each a closed form of degree 1 in d
    for spec in (logarithmic_pair(200), compact_hypersurface(200)):
        report = compute_report(spec, 1)
        assert report.leading_coeff < 0 and report.threshold is None


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3)])
def test_threshold_scaling_invariance(n, k):
    spec = logarithmic_pair(n)
    base = default_weights(k)
    doubled = tuple(2 * a for a in base.a)
    P1 = morse_polynomial(spec, k, base)
    P2 = morse_polynomial(spec, k, doubled)
    N = n + k * (n - 1)
    assert P2.coeffs == tuple(c * 2**N for c in P1.coeffs)
    assert degree_threshold(P1) == degree_threshold(P2)


# ---- leading coefficients --------------------------------------------------------


def test_leading_coefficient_vanishes_below_order_n():
    spec = compact_hypersurface(3)
    for k, a in [(1, (5,)), (2, (2, 1)), (2, (9, 4))]:
        assert morse_polynomial(spec, k, a).coefficient(4) == 0
    assert morse_polynomial(logarithmic_pair(3), 2, (2, 1)).coefficient(4) == 0


def test_leading_coefficient_matches_symbolic_form():
    # symbolic-weight mode (n = 2): the top-coefficient function of the weights
    form = symbolic_leading_form(compact_hypersurface(2), 2)
    sym_ring = form.ring
    a1, a2 = sym_ring.variable("a1"), sym_ring.variable("a2")
    expected = 6 * a1**2 * a2**2 - 8 * a1 * a2**3 + 4 * a2**4
    assert form == expected
    for a in [(2, 1), (5, 2), (9, 3)]:
        value = morse_polynomial(compact_hypersurface(2), 2, a).coefficient(3)
        assert value == 6 * a[0] ** 2 * a[1] ** 2 - 8 * a[0] * a[1] ** 3 + 4 * a[1] ** 4


@pytest.mark.parametrize("n,k", [(2, 1), (3, 3), (4, 2)])
def test_symbolic_leading_form_lives_in_a_ring_of_the_weights_alone(n, k):
    form = symbolic_leading_form(compact_hypersurface(n), k)
    assert form.ring.names == tuple(f"a{j}" for j in range(1, k + 1))


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (3, 3)])
def test_symbolic_leading_form_vanishes_below_order_n(n, k):
    # zero as a polynomial in a_1..a_k below order n, so for every weight vector
    form = symbolic_leading_form(compact_hypersurface(n), k)
    assert bool(form) == (k >= n)


def test_leading_coefficient_geometry_independent():
    for a in [(2, 1), (4, 1)]:
        compact = morse_polynomial(compact_hypersurface(2), 2, a).coefficient(3)
        log = morse_polynomial(logarithmic_pair(2), 2, a).coefficient(3)
        assert compact == log


@functools.lru_cache(maxsize=None)
def _symbolic_form(make_spec, n, k):
    return symbolic_leading_form(make_spec(n), k)


def _evaluate_weights(form, a) -> int:
    for j, aj in enumerate(a, start=1):
        form = form.substitute(form.ring.var(f"a{j}"), form.ring.const(aj))
    return sum(coeff for _, coeff in form.terms())


def _assert_top_coefficient_is_symbolic_form(make_spec, n, k, a):
    # only the beta = 0 terms of the class reach d^(n+1), so the top
    # coefficient of P is the symbolic form at a; P never exceeds degree n+1
    P = morse_polynomial(make_spec(n), k, a)
    assert P.degree <= n + 1
    assert P.coefficient(n + 1) == _evaluate_weights(_symbolic_form(make_spec, n, k), a)


@pytest.mark.parametrize("make_spec", [logarithmic_pair, compact_hypersurface])
@pytest.mark.parametrize("n,k,a", [(2, 2, (2, 1)), (2, 2, (5, 2)), (3, 3, (6, 2, 1))])
def test_top_degree_coefficient_agrees_with_self_intersection(make_spec, n, k, a):
    _assert_top_coefficient_is_symbolic_form(make_spec, n, k, a)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    make_spec=st.sampled_from((logarithmic_pair, compact_hypersurface)),
    cell=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
)
def test_top_degree_coefficient_is_symbolic_form_for_drawn_weights(data, make_spec, cell):
    n, k = cell
    _assert_top_coefficient_is_symbolic_form(make_spec, n, k, data.draw(_admissible(k)))


@pytest.mark.parametrize("n,k,i", [(2, 2, 1), (3, 3, 1), (4, 3, 1)])
def test_symbolic_form_with_c1_power_is_the_reference_tuple_sum(n, k, i):
    # sum_e (N-i)!/e! a^e T_i(e), each T_i(e) on the reference path; level 3
    # of (4,3) multiplies through the lifted-class recursion
    spec, ctx = compact_hypersurface(n), TowerContext(n, k)
    ring, total = ctx.ring, ctx.total_dim - i
    tops = {}
    for e in product(range(total + 1), repeat=k):
        if sum(e) == total:
            cls = ring.variable(ctx.c(1)) ** i
            for j, ej in enumerate(e, start=1):
                cls = cls * ring.variable(ctx.u(j)) ** ej
            base = integrate_fibers(reduce_tower(cls, ctx.relations), ctx)
            tops[e] = evaluate_in_degree(ctx, base, spec).coefficient(n + 1)
    form = symbolic_leading_form(spec, k, c1_power=i)
    # the form reads the base dimension only, not the geometry
    assert symbolic_leading_form(logarithmic_pair(n), k, c1_power=i)._terms == form._terms
    samples = {2: [(2, 1), (5, 2), (9, 4)], 3: [(6, 2, 1), (7, 2, 1), (19, 6, 3)]}[k]
    for a in samples:
        expected = 0
        for e, top in tops.items():
            term = factorial(total) * top
            for aj, ej in zip(a, e):
                term = term * aj**ej // factorial(ej)
            expected += term
        assert expected != 0
        assert _evaluate_weights(form, a) == expected


# ---- reports ---------------------------------------------------------------------


def test_report_fields_and_json_round_trip():
    report = compute_report(logarithmic_pair(2), 2)
    assert (report.n, report.k, report.geometry) == (2, 2, "log")
    assert report.weights == (2, 1)
    assert report.total_dim == 4
    assert report.leading_coeff == 12
    assert report.threshold == 15
    assert report.elapsed_ms >= 0
    data = report.to_json_dict()
    assert list(data) == [
        "dim", "order", "geometry", "weights", "total_dim",
        "polynomial", "leading_coeff", "threshold", "elapsed_ms",
    ]
    assert data["polynomial"] == ["0", "-378", "-153", "12"]
    assert data["leading_coeff"] == "12"
    rebuilt = MorseReport.from_json_dict(data)
    assert rebuilt == report


@pytest.mark.parametrize("n", (2, 3))
def test_existence_shape_at_order_n(n):
    # at k = n with default weights the top coefficient is strictly positive,
    # so a finite threshold exists (both geometries)
    for make_spec in (logarithmic_pair, compact_hypersurface):
        P = morse_polynomial(make_spec(n), n)
        assert P.coefficient(n + 1) > 0
        assert degree_threshold(P) is not None


def test_report_threshold_absent_iff_leading_not_positive():
    report = compute_report(logarithmic_pair(3), 2, (2, 1))
    assert report.leading_coeff < 0
    assert report.threshold is None
    report = compute_report(logarithmic_pair(2), 2)
    assert report.leading_coeff > 0
    assert report.threshold is not None


def test_order_bounds_minimum_over_present_orders():
    # orders below n are never consulted; None and missing orders are skipped
    thresholds = {(3, 2): 5, (3, 3): None, (3, 5): 40, (3, 6): 41}
    assert order_bounds(thresholds) == {(3, 2): None, (3, 3): None, (3, 5): 40, (3, 6): 40}
    assert order_bounds({}) == {}
