"""Ring arithmetic, reduction, serialization: examples and algebraic laws."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetbound import NEG_INFINITY, Polynomial, Ring, reduce_monic
from jetbound.errors import NonMonicRelationError, RingMismatchError


@pytest.fixture(scope="module")
def ring():
    return Ring(("u1", "u2", "c1", "c2", "h", "d"))


def V(ring, name):
    return ring.variable(name)


def random_poly(ring, rng, max_terms=6, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = ring.encode({v: rng.randint(0, max_exp) for v in rng.sample(range(ring.arity), 3)})
        terms[key] = rng.randint(-max_coeff, max_coeff)
    return ring.polynomial(terms)


# ---- operation examples ----------------------------------------------------


def test_add_cancellation(ring):
    u1 = V(ring, "u1")
    assert (u1 + 1) + (u1 - 1) == 2 * u1


def test_add_identity(ring):
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(ring, rng)
        assert p + ring.zero == p


def test_add_inverse(ring):
    h, d = V(ring, "h"), V(ring, "d")
    assert (3 * h - d) + (d - 3 * h) == ring.zero
    assert (3 * h - d) + (d - 3 * h) == 0


def test_mul_difference_of_squares(ring):
    u1, u2 = V(ring, "u1"), V(ring, "u2")
    assert (u1 + u2) * (u1 - u2) == u1**2 - u2**2


def test_mul_identities(ring):
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(ring, rng)
        assert p * ring.one == p
        assert p * ring.zero == ring.zero


def test_pow_square(ring):
    u1, u2 = V(ring, "u1"), V(ring, "u2")
    assert (u1 + u2) ** 2 == u1**2 + 2 * u1 * u2 + u2**2


def test_pow_multinomial_coefficient():
    ring = Ring(("a1", "a2", "u1", "u2"))
    a1, a2, u1, u2 = (ring.variable(x) for x in ring.names)
    p = (a1 * u1 + a2 * u2) ** 4
    target = ring.encode({0: 2, 1: 2, 2: 2, 3: 2})
    import math

    assert p._terms[target] == math.factorial(4) // (math.factorial(2) * math.factorial(2)) == 6


def test_pow_degenerate(ring):
    rng = random.Random(13)
    p = random_poly(ring, rng)
    assert p**1 == p
    assert p**0 == ring.one
    assert ring.zero**0 == ring.one
    with pytest.raises(ValueError):
        p ** -1


def test_pow_of_a_base_with_many_terms():
    ring = Ring(("x", "y"))
    p = ring.polynomial({ring.encode({0: i, 1: j}): i - 2 * j + 1 for i in range(34) for j in range(34)})
    assert len(p) > 1100
    assert p**2 == p * p


def test_coeff_of(ring):
    u1, u2, h = V(ring, "u1"), V(ring, "u2"), V(ring, "h")
    p = 3 * u1**2 * h + 2 * u1
    assert p.coeff_of(ring.var("u1"), 2) == 3 * h
    assert p.coeff_of(ring.var("u1"), 5) == ring.zero
    q = u2**3 + u1 * u2**2
    assert q.coeff_of(ring.var("u2"), 2) == u1


def test_substitute(ring):
    u1, h, c1, d = (V(ring, x) for x in ("u1", "h", "c1", "d"))
    assert (u1**2 + h).substitute(ring.var("u1"), h) == h**2 + h
    rng = random.Random(17)
    for _ in range(10):
        p = random_poly(ring, rng)
        for v in range(ring.arity):
            assert p.substitute(v, ring.variable(v)) == p
    assert (c1 * h).substitute(ring.var("c1"), 3 - d) == (3 - d) * h


def test_reduce_monic_forced(ring):
    v = ring.var("u1")
    u1, c1, c2 = V(ring, "u1"), V(ring, "c1"), V(ring, "c2")
    rel = u1**2 + c1 * u1 + c2
    assert reduce_monic(u1**2, v, rel) == -c1 * u1 - c2


def test_reduce_monic_low_degree_untouched(ring):
    v = ring.var("u1")
    u1, c1, c2, h = (V(ring, x) for x in ("u1", "c1", "c2", "h"))
    rel = u1**2 + c1 * u1 + c2
    p = 5 * u1 * h + c2**3
    assert reduce_monic(p, v, rel) == p


def test_reduce_monic_cube(ring):
    # one Euclidean division step by hand:
    # v^3 = v*v^2 = v*(-c1 v - c2) = -c1 v^2 - c2 v = (c1^2 - c2) v + c1 c2
    v = ring.var("u1")
    u1, c1, c2 = V(ring, "u1"), V(ring, "c1"), V(ring, "c2")
    rel = u1**2 + c1 * u1 + c2
    assert reduce_monic(u1**3, v, rel) == (c1**2 - c2) * u1 + c1 * c2


def test_reduce_monic_rejects_non_monic(ring):
    v = ring.var("u1")
    u1, c1 = V(ring, "u1"), V(ring, "c1")
    with pytest.raises(NonMonicRelationError):
        reduce_monic(u1**3, v, 2 * u1**2 + 1)
    with pytest.raises(NonMonicRelationError):
        reduce_monic(u1**3, v, c1 * u1**2 + 1)
    with pytest.raises(NonMonicRelationError):
        reduce_monic(u1**3, v, c1)


def test_degree_in(ring):
    u1, h = V(ring, "u1"), V(ring, "h")
    p = u1**2 * h + u1
    assert p.degree_in(ring.var("u1")) == 2
    assert (h**3).degree_in(ring.var("u1")) == 0
    assert ring.zero.degree_in(ring.var("u1")) is NEG_INFINITY
    assert ring.zero.degree_in(ring.var("u1")) != -1


# ---- algebraic laws -----------------------------------------------------------


def _poly_strategy(ring):
    exponent = st.integers(min_value=0, max_value=3)
    key = st.tuples(*[exponent] * ring.arity).map(
        lambda exps: ring.encode(dict(enumerate(exps)))
    )
    coeff = st.integers(min_value=-50, max_value=50)
    return st.dictionaries(key, coeff, max_size=6).map(ring.polynomial)


_laws_ring = Ring(("u1", "u2", "c1", "c2", "h", "d"))
_polys = _poly_strategy(_laws_ring)


@given(_polys, _polys)
def test_law_commutativity(p, q):
    assert p + q == q + p
    assert p * q == q * p


@given(_polys, _polys, _polys)
@example((1 + _laws_ring.variable("u1")) ** 10, _laws_ring.one, _laws_ring.one)  # dense: powers merge terms
@settings(max_examples=60)
def test_law_associativity_distributivity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    product = _laws_ring.one
    for e in range(5):
        assert p**e == product
        product = product * p


@given(_polys)
def test_law_canonical_no_zero_coefficients(p):
    assert all(c != 0 for c in p._terms.values())


@given(_polys)
@settings(max_examples=60)
def test_law_reconstruction(p):
    for v in range(_laws_ring.arity):
        top = p.degree_in(v)
        if top is NEG_INFINITY:
            top = 0
        rebuilt = _laws_ring.zero
        for e in range(int(top) + 1):
            rebuilt = rebuilt + p.coeff_of(v, e) * _laws_ring.variable(v) ** e
        assert rebuilt == p


def test_monomial_encoding_round_trip(ring):
    rng = random.Random(31)
    for _ in range(100):
        exps = {v: rng.randint(0, 30) for v in rng.sample(range(ring.arity), 4)}
        key = ring.encode(exps)
        decoded = ring.decode(key)
        assert all(e > 0 for e in decoded.values())  # sparse view stores no zeros
        assert decoded == {v: e for v, e in exps.items() if e}
        assert ring.encode(decoded) == key


def test_variable_index_bounds(ring):
    with pytest.raises(IndexError):
        ring.variable(ring.arity)
    with pytest.raises(IndexError):
        ring.shift(-1)
    with pytest.raises(KeyError):
        ring.var("zz")
    with pytest.raises(ValueError):
        ring.encode({0: -1})


def test_ring_mismatch_raises(ring):
    other = Ring(("u1", "u2", "c1", "c2", "h", "d"))
    with pytest.raises(RingMismatchError):
        V(ring, "u1") + other.variable("u1")
    with pytest.raises(RingMismatchError):
        reduce_monic(V(ring, "u1"), 0, other.variable("u1") ** 2 + other.one)


def test_capacity_guard():
    ring = Ring(("x",))
    x = ring.variable("x")
    with pytest.raises(OverflowError):
        x ** 70000
    with pytest.raises(OverflowError):
        (x ** 40000) * (x ** 40000)


def test_operands_not_mutated(ring):
    rng = random.Random(23)
    p = random_poly(ring, rng)
    q = random_poly(ring, rng)
    snapshot_p, snapshot_q = dict(p._terms), dict(q._terms)
    p + q, p * q, p - q, p**2
    reduce_monic(p, 0, V(ring, "u1") ** 2 + V(ring, "c1"))
    assert p._terms == snapshot_p and q._terms == snapshot_q


# ---- serialization ---------------------------------------------------------------


def test_text_format(ring):
    u1, u2, c1, h = (V(ring, x) for x in ("u1", "u2", "c1", "h"))
    assert str(ring.zero) == "0"
    assert str(3 * u1**2 * h - 2 * c1 + 5) == "3*u1^2*h - 2*c1 + 5"
    assert str(-u1 + 5) == "-u1 + 5"
    assert str(u1 * u2) == "u1*u2"
    assert str(ring.const(-7)) == "-7"


def test_text_term_order_graded_lex(ring):
    u1, u2 = V(ring, "u1"), V(ring, "u2")
    # same degree: lexicographic in the declared variable order
    assert str(u2**2 + u1 * u2 + u1**2) == "u1^2 + u1*u2 + u2^2"
    # higher total degree first
    assert str(u2 + u1**2) == "u1^2 + u2"
