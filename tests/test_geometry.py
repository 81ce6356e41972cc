"""Base Chern classes and degree evaluation for both geometries."""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetbound import (
    EvaluatedClass,
    NEG_INFINITY,
    TowerContext,
    base_chern,
    compact_hypersurface,
    evaluate_in_degree,
    logarithmic_pair,
)
from jetbound.errors import InhomogeneousClassError, ResidualVariableError
from jetbound.geometry import COMPACT_HYPERSURFACE, LOGARITHMIC_PAIR, GeometrySpec


@pytest.fixture()
def ctx2():
    return TowerContext(2, 2)


def test_log_first_class(ctx2):
    ring = ctx2.ring
    h, d = ring.variable("h"), ring.variable("d")
    assert base_chern(ctx2, logarithmic_pair(2), 1) == (3 - d) * h


def test_compact_classes_dimension_two(ctx2):
    ring = ctx2.ring
    h, d = ring.variable("h"), ring.variable("d")
    spec = compact_hypersurface(2)
    assert base_chern(ctx2, spec, 1) == (4 - d) * h
    assert base_chern(ctx2, spec, 2) == (d**2 - 4 * d + 6) * h**2


def test_base_chern_range_checks(ctx2):
    spec = compact_hypersurface(2)
    with pytest.raises(IndexError):
        base_chern(ctx2, spec, 0)
    with pytest.raises(IndexError):
        base_chern(ctx2, spec, 3)
    with pytest.raises(ValueError):
        base_chern(ctx2, compact_hypersurface(3), 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_compact_total_chern_identity(n):
    # (1 + d*h) * c(T) == (1 + h)^(n+2) modulo h^(n+1)
    ctx = TowerContext(n, 1)
    ring = ctx.ring
    h, d = ring.variable("h"), ring.variable("d")
    spec = compact_hypersurface(n)
    total = ring.one
    for j in range(1, n + 1):
        total = total + base_chern(ctx, spec, j)
    lhs = (ring.one + d * h) * total
    rhs = (ring.one + h) ** (n + 2)
    hvar = ctx.h
    truncate = lambda p: sum(
        (p.coeff_of(hvar, e) * h**e for e in range(n + 1)), ring.zero
    )
    assert truncate(lhs) == truncate(rhs)


@pytest.mark.parametrize("n", range(2, 5))
def test_log_classes_from_residue_sequence(n):
    # dualized product expansion: (-1)^j c_j = sum_i (-1)^i binom(n+1,i) h^i (d h)^(j-i)
    from math import comb

    ctx = TowerContext(n, 1)
    ring = ctx.ring
    h, d = ring.variable("h"), ring.variable("d")
    spec = logarithmic_pair(n)
    for j in range(1, n + 1):
        cotangent_side = ring.zero
        for i in range(j + 1):
            cotangent_side = cotangent_side + (-1) ** i * comb(n + 1, i) * h**i * (d * h) ** (j - i)
        assert (-1) ** j * base_chern(ctx, spec, j) == cotangent_side


@pytest.mark.parametrize("n", (2, 3))
def test_evaluate_signed_top_power_is_monic(n):
    ctx = TowerContext(n, 1)
    ring = ctx.ring
    c1 = ring.variable("c1")
    cls = (-1) ** n * c1**n
    P = evaluate_in_degree(ctx, cls, compact_hypersurface(n))
    assert P.degree == n + 1
    assert P.leading_coefficient == 1


def test_evaluate_hyperplane_power(ctx2):
    ring = ctx2.ring
    h = ring.variable("h")
    P = evaluate_in_degree(ctx2, h**2, logarithmic_pair(2))
    assert P.coeffs == (0, 1)


def test_evaluate_log_first_class_square(ctx2):
    ring = ctx2.ring
    c1 = ring.variable("c1")
    P = evaluate_in_degree(ctx2, c1**2, logarithmic_pair(2))
    # d*(3-d)^2 = 9d - 6d^2 + d^3
    assert P.coeffs == (0, 9, -6, 1)


def _weighted_monomials(ctx):
    """The keys of every ``c^gamma h^beta`` of weighted degree n, ``c_l`` of weight l."""
    n = ctx.n
    keys = []
    for gamma in product(*(range(n // l + 1) for l in range(1, n + 1))):
        weight = sum(l * e for l, e in enumerate(gamma, start=1))
        if weight <= n:
            exps = {ctx.c(l): e for l, e in enumerate(gamma, start=1)}
            keys.append(ctx.ring.encode({**exps, ctx.h: n - weight}))
    return keys


def _symbolic_evaluation(ctx, spec, cls):
    """``d`` times ``cls`` with each ``c_j`` replaced by ``base_chern`` and ``h`` by 1, ascending in d."""
    for j in range(1, ctx.n + 1):
        cls = cls.substitute(ctx.c(j), base_chern(ctx, spec, j))
    result = cls.substitute(ctx.h, ctx.ring.one) * ctx.ring.variable(ctx.d)
    assert result.variables_used() <= {ctx.d}
    coeffs = [0] * (ctx.n + 2)
    for exps, coeff in result.terms():
        coeffs[exps.get(ctx.d, 0)] = coeff
    return EvaluatedClass.from_coefficients(coeffs)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 5),
    token=st.sampled_from([COMPACT_HYPERSURFACE, LOGARITHMIC_PAIR]),
    coeffs=st.lists(st.integers(-10**40, 10**40), max_size=19),
)
@example(n=2, token=LOGARITHMIC_PAIR, coeffs=[])
@example(n=5, token=COMPACT_HYPERSURFACE, coeffs=[])
@example(n=5, token=LOGARITHMIC_PAIR, coeffs=[10**40] * 19)
def test_evaluate_equals_symbolic_substitution(n, token, coeffs):
    # each term's product of degree polynomials against substituting the base classes in d
    ctx, spec = TowerContext(n, 1), GeometrySpec(token, n)
    cls = ctx.ring.polynomial(dict(zip(_weighted_monomials(ctx), coeffs)))
    assert evaluate_in_degree(ctx, cls, spec) == _symbolic_evaluation(ctx, spec, cls)


def test_evaluate_rejects_tower_variables(ctx2):
    ring = ctx2.ring
    u1, c1, h = ring.variable("u1"), ring.variable("c1"), ring.variable("h")
    with pytest.raises(ResidualVariableError):
        evaluate_in_degree(ctx2, u1 * h, logarithmic_pair(2))
    with pytest.raises(ResidualVariableError):
        evaluate_in_degree(ctx2, ring.variable("d") * h, logarithmic_pair(2))


def test_evaluate_rejects_inhomogeneous(ctx2):
    ring = ctx2.ring
    c1, h = ring.variable("c1"), ring.variable("h")
    with pytest.raises(InhomogeneousClassError):
        evaluate_in_degree(ctx2, h**2 + h, logarithmic_pair(2))
    with pytest.raises(InhomogeneousClassError):
        evaluate_in_degree(ctx2, c1, logarithmic_pair(2))


def test_evaluated_class_behaviour():
    P = EvaluatedClass.from_coefficients([0, -378, -153, 12, 0, 0])
    assert P.coeffs == (0, -378, -153, 12)
    assert P.degree == 3
    assert P.leading_coefficient == 12
    assert P.coefficient(1) == -378 and P.coefficient(9) == 0
    assert P(15) == 12 * 15**3 - 153 * 15**2 - 378 * 15
    assert str(P) == "12*d^3 - 153*d^2 - 378*d"
    zero = EvaluatedClass.from_coefficients([0, 0])
    assert zero.coeffs == () and zero.degree is NEG_INFINITY
    assert zero.leading_coefficient == 0 and zero(5) == 0


def test_geometry_spec_tokens():
    spec = GeometrySpec("log", 3)
    assert spec == logarithmic_pair(3)
    assert spec.token == "log" == LOGARITHMIC_PAIR
    assert compact_hypersurface(4).token == "compact" == COMPACT_HYPERSURFACE
    for token in ("weird", "spherical", "compact_hypersurface", "logarithmic_pair"):
        with pytest.raises(ValueError):
            GeometrySpec(token, 2)
