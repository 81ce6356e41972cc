"""Morse-inequality classes, degree polynomials and effective thresholds.

For an admissible weight vector ``a`` on a jet tower of total dimension
``N = n + k(n-1)``, the positivity criterion is the top intersection
``F^N - N * F^(N-1) * G`` with ``F = sum_j a_j u_j + 2|a| h`` and
``G = 2|a| h``.  It is integrated as the one class ``(F - N*G) * F^(N-1)``,
so only one reduction pass is needed.  The Euler operator ``h d/dh`` sends
``F^N`` to ``N*G*F^(N-1)``, so the class is ``F^N - h d/dh F^N``, whose
coefficient of ``u^alpha h^beta`` is
``(1 - beta) * N!/(alpha! beta!) * a^alpha * (2|a|)^beta``, and
``morse_class`` forms it from that closed form, one term per exponent tuple.
Evaluating the integrated class in the degree variable yields a univariate
polynomial ``P(d)``; when its leading coefficient is positive, the effective
threshold is the smallest positive integer beyond which ``P`` stays strictly
positive, located by an exact downward search from the first point below a
power-of-two root bound where every Taylor coefficient is non-negative.

``compute_reports`` is the package's one batch computation, and it runs in
this process, one tower at a time.  A job is a ``(GeometrySpec, weights)``
pair; it forms no class and runs no pushforward.  At ``h = 1`` its class is
a combination of powers of the one linear form ``L = sum_j a_j u_j``, and
the Segre recursion integrates those level by level as products of Segre
classes, each product and the power of ``L`` packed into one integer key
whose fields are as wide as the run's largest power of ``L`` needs.  A
level step (``_level_step``) is two passes.  The first (``_expand``) reads
no weight: it expands each state's Segre classes of its own level by those
of the level below (``tower._segre_expansion``) and merges the terms of all
states by ``(rest, e, M)``.  The second (``_spend``) reads the level's
weight: it expands the power of ``L`` by the binomial theorem, scaling by
``a_j^m``, and sends ``u_j^E`` to the Segre class ``s_(E-r+1)`` below.
Level j reads the weights through ``a_j`` alone, level 1 through ``a_1^M``
alone, and the twist ``(2|a|)^beta`` and ``a_1^M`` are applied at the
base, so ``_segre_polynomials`` runs the jobs of one tower as one descent
over the levels above 1: jobs whose weights agree on ``a_k..a_(j+1)``, in
either geometry, share levels k..j + 1 and the expansion of level j, which
is spent once per value of ``a_j``.  Each state entering level 1 is read
out once per spec and key width as a polynomial in d (``_read_out``: its
expansion with all of M spent takes it to the base, and
``geometry._in_degree`` multiplies out the products of base Segre classes
there, as it evaluates a pushed-forward class), and each job is a sum of
those polynomials scaled by its weights and by the coefficients of its
level-1 states.  No u-monomial or c-monomial is formed, and no tower is
built.  The same levels, given the powers of symbolic weights in place of
the ``a_j^m``, and the same readouts give ``symbolic_leading_form``
(``_top_coefficient``), so every run reaches the base one way.  The
pushforward of a class (``morse_class``, ``tower.pushforward_to_base``,
``evaluate_in_degree``) remains the reference the recursion is tested
against.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from math import comb, isfinite
from operator import mul
from typing import Mapping, Optional, Sequence, Union

from .errors import InadmissibleWeightsError
from .geometry import EvaluatedClass, GeometrySpec, _base_segre, _in_degree
# not used here: the benchmark's tracer (perfbench/spans.py) wraps them as ``morse.evaluate_in_degree``
# and ``morse.pushforward_to_base``
from .geometry import evaluate_in_degree  # noqa: F401
from .polyring import Polynomial, Ring
from .tower import TowerContext, _segre_expansion
from .tower import pushforward_to_base  # noqa: F401

__all__ = [
    "WeightVector",
    "is_admissible",
    "default_weights",
    "morse_class",
    "class_terms",
    "morse_polynomial",
    "degree_threshold",
    "order_bounds",
    "symbolic_leading_form",
    "MorseReport",
    "compute_reports",
    "compute_report",
]


def is_admissible(a: Sequence[int]) -> bool:
    """Nefness admissibility: a_1 >= 3a_2, ..., a_(k-2) >= 3a_(k-1), a_(k-1) >= 2a_k > 0."""
    k = len(a)
    if k == 0 or any(not isinstance(x, int) or x <= 0 for x in a):
        return False
    return all(a[j] >= (2 if j == k - 2 else 3) * a[j + 1] for j in range(k - 1))


@dataclass(frozen=True)
class WeightVector:
    """An admissible tuple of level weights."""

    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if not is_admissible(self.a):
            raise InadmissibleWeightsError(f"weights {self.a} violate the admissibility chain")

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def total(self) -> int:
        return sum(self.a)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.a)


def default_weights(k: int) -> WeightVector:
    """The geometric weight ladder (2*3^(k-2), ..., 6, 2, 1), of total 3^(k-1); (1) for k = 1."""
    if k < 1:
        raise ValueError("jet order k must be >= 1")
    return WeightVector(tuple(2 * 3 ** (k - j - 1) for j in range(1, k)) + (1,))


def _check_weight_count(weights: Sequence[int], k: int) -> None:
    """Raise ``InadmissibleWeightsError`` unless there is one weight per level of the order-k tower."""
    if len(weights) != k:
        raise InadmissibleWeightsError(f"got {len(weights)} weights for a tower of order {k}")


def _as_weights(weights: Union[WeightVector, Sequence[int]]) -> WeightVector:
    if isinstance(weights, WeightVector):
        return weights
    return WeightVector(tuple(weights))


def morse_class(ctx: TowerContext, weights: Union[WeightVector, Sequence[int]]) -> Polynomial:
    """The unreduced tower class ``(F - N*G) * F^(N-1)``, term by term from its closed form.

    ``F = sum_j a_j u_j + 2|a| h`` twists the weighted tautological bundle to
    a nef class, ``G = 2|a| h`` is the twisting class, and ``N`` is the total
    tower dimension.  Since ``h d/dh F^N = N*G*F^(N-1)``, the class equals
    ``F^N - h d/dh F^N``, so the coefficient of ``u^alpha h^beta``,
    ``|alpha| + beta = N``, is ``(1 - beta) N!/(alpha! beta!) a^alpha
    (2|a|)^beta``: nonzero for ``beta != 1``, since every ``a_j > 0``.  The
    multinomial is ``C(N, beta)`` times the binomials that spread the rest
    ``N - beta`` over ``u_1, ..., u_k`` one level at a time, and each
    exponent tuple is enumerated once.
    """
    w = _as_weights(weights)
    _check_weight_count(w.a, ctx.k)
    ring, N, twist = ctx.ring, ctx.total_dim, 2 * w.total
    h = 1 << ring.shift(ctx.h)
    # (key, coefficient, degree left to spread) before each level
    partial = [
        (beta * h, (1 - beta) * comb(N, beta) * twist**beta, N - beta) for beta in range(N + 1) if beta != 1
    ]
    for j, a in enumerate(w.a, start=1):
        unit = 1 << ring.shift(ctx.u(j))
        partial = [
            (key + e * unit, coeff * comb(left, e) * a**e, left - e)
            for key, coeff, left in partial
            for e in (range(left + 1) if j < ctx.k else (left,))
        ]
    return ring.polynomial({key: coeff for key, coeff, _ in partial})


def class_terms(n: int, k: int) -> int:
    """The number of terms of ``morse_class`` on the (n, k) tower: ``C(N+k, k) - C(N+k-2, k-1)``.

    One term per ``u^alpha h^beta`` with ``|alpha| + beta = N = n + k(n-1)``
    and ``beta != 1``: the monomials of degree N in k + 1 variables, less
    those with ``beta = 1``, the monomials of degree N - 1 in k variables.
    This counts the full class, which no job forms (each integrates products
    of Segre classes); the CLI's oversize guard reads it.
    """
    N = n + k * (n - 1)
    return comb(N + k, k) - comb(N + k - 2, k - 1)


def morse_polynomial(
    spec: GeometrySpec,
    k: int,
    weights: Union[WeightVector, Sequence[int], None] = None,
) -> EvaluatedClass:
    """Full pipeline: integrate the class to the base and evaluate it in the degree.

    The value equals evaluating ``integrate_fibers(reduce_tower(...))``; the
    job integrates by the Segre recursion of ``_segre_polynomials``.
    """
    return compute_report(spec, k, weights).morse_poly


def degree_threshold(P: EvaluatedClass) -> Optional[int]:
    """Smallest positive integer beyond which ``P`` stays strictly positive.

    Absent (None) when the leading coefficient is not positive.  With
    ``P = lead*d^m + sum_i c_i d^i``, the first power of two ``B`` with
    ``lead*B^m > sum_i |c_i|*B^i`` bounds every complex root: dividing by
    ``B^m``, the leading term dominates at every ``|z| >= B`` as well.  By
    Gauss-Lucas the roots of every derivative lie in the hull of those of
    ``P``, so every Taylor coefficient of ``P(B + t)`` is positive.  Having
    them all ``>= 0`` with ``P(x) > 0`` holds from any such x upwards, so a
    binary search finds the smallest such x in ``[1, B]``, and ``P > 0``
    from there on.  The integers below are searched downwards for the
    largest non-positive value, skipping each run ``_positive_run``
    certifies positive, so the result is exact and the search takes about
    one step per halving of the distance to a root, not one per integer.
    """
    lead = P.leading_coefficient
    if lead <= 0:
        return None
    rest = [abs(c) for c in reversed(P.coeffs[:-1])]
    bound = 1
    while True:
        excess = lead  # lead*B^m - sum_i |c_i|*B^i, by Horner
        for c in rest:
            excess = excess * bound - c
        if excess > 0:
            break
        bound *= 2
    low, high = 1, bound
    while low < high:
        middle = (low + high) // 2
        if P(middle) > 0 and min(_taylor(P.coeffs, middle)) >= 0:
            high = middle
        else:
            low = middle + 1
    x = high - 1
    while x > 0:
        if P(x) <= 0:
            return x + 1
        x -= _positive_run(P.coeffs, x) + 1
    return 1


def _taylor(coeffs: Sequence[int], x: int) -> list[int]:
    """The coefficients ``p_i`` of ``P(x + t) = sum_i p_i t^i``, by synthetic division."""
    p = list(coeffs)
    m = len(p) - 1
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            p[j] += x * p[j + 1]
    return p


def _positive_run(coeffs: Sequence[int], x: int) -> int:
    """A length ``s >= 0`` such that ``P > 0`` on ``[x - s, x]``, given ``P(x) > 0``.

    With ``P(x + t) = sum_i p_i t^i``, the Taylor expansion at x (``_taylor``),
    ``p_0 = P(x)`` and on ``0 <= t <= s`` the value ``P(x - t)`` is at least
    ``p_0 - sum |p_i| s^i`` over the i with ``(-1)^i p_i < 0``.  The run is
    the largest power of two (or 0) that keeps this bound positive, or all
    of ``[0, x]`` when no term can pull ``P`` down.
    """
    p = _taylor(coeffs, x)
    negative = [(i, abs(c)) for i, c in enumerate(p) if (-1) ** i * c < 0]
    if not negative:
        return x
    safe = lambda s: sum(c * s**i for i, c in negative) < p[0]
    low, high = 0, 1
    while safe(high):
        low, high = high, 2 * high
    return low


def order_bounds(
    thresholds: Mapping[tuple[int, int], Optional[int]],
) -> dict[tuple[int, int], Optional[int]]:
    """Effective bounds of order k from the thresholds of single orders.

    An invariant jet differential of order j is one of every order k >= j
    (``E_{j,m}`` is contained in ``E_{k,m}``), so the bound of cell ``(n, k)``
    is the smallest threshold among the orders ``n <= j <= k`` present in
    ``thresholds``.  Orders below n never give one and are not consulted.
    Missing cells and ``None`` thresholds are skipped; a cell with no
    threshold at any of its orders maps to ``None``.
    """
    bounds: dict[tuple[int, int], Optional[int]] = {}
    for n, k in thresholds:
        found = [thresholds.get((n, j)) for j in range(n, k + 1)]
        bounds[(n, k)] = min((t for t in found if t is not None), default=None)
    return bounds


def symbolic_leading_form(spec: GeometrySpec, k: int, c1_power: int = 0) -> Polynomial:
    """The ``d^(n+1)`` coefficient of ``c_1^i (sum_j a_j u_j)^(N-i)`` on the base, ``i = c1_power``.

    Returns a polynomial in the weight variables ``a_1..a_k`` alone,
    homogeneous of degree ``N - i``, ``N = n + k(n-1)`` (or zero).  The
    form is ``sum_e (N-i)!/e! a^e T_i(e)``, ``T_i(e)`` the top coefficient
    of ``c_1^i u^e``, so it is zero exactly when every ``T_i(e)`` is.  At
    ``i = 0`` its value at ``a`` is the ``d^(n+1)`` coefficient of
    ``morse_polynomial(spec, k, a)``: ``h^beta`` lowers the degree in d by
    beta, so only the ``beta = 0`` terms of the class, ``(sum_j a_j u_j)^N``
    scaled by ``1 - 0``, reach ``d^(n+1)``.

    The projection formula moves ``c_1^i`` out of every level, and ``c_1``
    is ``-d`` plus a constant in both geometries, so the form is ``(-1)^i``
    times the ``d^(n+1-i)`` coefficient of ``(sum_j a_j u_j)^(N-i)`` on the
    base: the Segre recursion run with the powers of the weight variables
    ``a_j`` as its factors, its level-1 states read out by the readouts the
    jobs of ``spec`` share (``_top_coefficient``).  Only products of base
    Segre classes ``S_1`` reach that coefficient, so the form does not depend
    on the geometry.  No u-monomial or c-monomial is ever formed, and the
    weights live in a ring of their own, ``a1, ..., ak``.
    """
    ring, r = Ring([f"a{j}" for j in range(1, k + 1)]), spec.n
    N = r + k * (r - 1) - c1_power
    levels = [[ring.variable(v) ** m for m in range(N + 1)] for v in range(k)]
    # ring.zero keeps the result a polynomial where no state counts and the sum is the integer 0
    return (-1) ** c1_power * (ring.zero + _top_coefficient(spec, levels, N))


@dataclass(frozen=True)
class MorseReport:
    """Everything one pipeline run produces."""

    n: int
    k: int
    geometry: str            # 'compact' or 'log'
    weights: tuple[int, ...]
    total_dim: int
    morse_poly: EvaluatedClass
    leading_coeff: int
    threshold: Optional[int]
    elapsed_ms: float

    def to_json_dict(self) -> dict:
        """Report schema used by the CLI and the cache.

        Polynomial coefficients and the leading coefficient are decimal
        strings: they overflow 64-bit integers from dimension 5 on.
        """
        return {
            "dim": self.n,
            "order": self.k,
            "geometry": self.geometry,
            "weights": list(self.weights),
            "total_dim": self.total_dim,
            "polynomial": [str(c) for c in self.morse_poly.coeffs],
            "leading_coeff": str(self.leading_coeff),
            "threshold": self.threshold,
            "elapsed_ms": self.elapsed_ms,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MorseReport":
        """The report of ``data``; ``ValueError`` when its fields disagree.

        The dimension, order, total dimension and weights must be integers
        (not floats or booleans), each polynomial coefficient and the leading
        coefficient the decimal string ``to_json_dict`` writes, the threshold
        null or an integer, the total dimension ``n + k(n-1)``, the leading
        coefficient that of the polynomial, and ``elapsed_ms`` a finite number.
        """
        texts = data["polynomial"]
        texts = [*texts, data["leading_coeff"]] if isinstance(texts, list) else [None]
        if not all(isinstance(c, str) for c in texts):
            raise ValueError("report coefficients are not decimal strings")
        coeffs = [*map(int, texts)]  # each decoded once, then checked to print back as stored
        if [*map(str, coeffs)] != texts:
            raise ValueError("report coefficients are not decimal strings")
        report = MorseReport(
            n=data["dim"],
            k=data["order"],
            geometry=data["geometry"],
            weights=tuple(data["weights"]),
            total_dim=data["total_dim"],
            morse_poly=EvaluatedClass(tuple(coeffs[:-1])),
            leading_coeff=coeffs[-1],
            threshold=data["threshold"],
            elapsed_ms=data["elapsed_ms"],
        )
        integer = lambda x: isinstance(x, int) and not isinstance(x, bool)
        elapsed = report.elapsed_ms
        if not (
            all(map(integer, (report.n, report.k, report.total_dim, *report.weights)))
            and (report.threshold is None or integer(report.threshold))
            and report.total_dim == report.n + report.k * (report.n - 1)
            and report.leading_coeff == report.morse_poly.leading_coefficient
            and (integer(elapsed) or isinstance(elapsed, float) and isfinite(elapsed))
        ):
            raise ValueError("report fields disagree")
        return report


@functools.lru_cache(maxsize=None)
def _key_units(r: int, top: int, bits: int) -> tuple[int, ...]:
    """The unit ``1 << t * bits`` of each Segre index ``t <= top - r + 1`` a level makes from ``L^top``; 0 adds none."""
    return (0, *(1 << t * bits for t in range(1, top - r + 2)))


def _level_step(
    r: int, states: Mapping[int, Union[int, Polynomial]], factors: Sequence, units: Sequence[int], bits: int
) -> dict[int, Union[int, Polynomial]]:
    """The states of level j - 1 from those of level j, ``factors[m]`` the factor ``x_j^m`` of ``u_j^m``.

    A state of level j with coefficient g stands for ``g prod_(i in indices)
    s_i^[j] L_j^M``, ``L_j = sum_(i <= j) x_i u_i`` and ``s^[j] = 1 / c^[j]``
    the Segre series of the level-j classes.  Its key is one integer: M in
    the low field and the count of index ``i >= 1`` in field i, each
    ``bits`` wide, so a new index t is one add of its unit (``_key_units``,
    none for t = 0) and spending m powers of L one subtraction of m.  The
    indices expand by ``tower._segre_expansion`` into ``u_j^e`` times a
    product of level-(j-1) Segre classes; ``L_j^M = sum_m C(M, m) x_j^m u_j^m
    L_(j-1)^(M-m)``; and ``u_j^E`` pushes forward to ``s_(E-r+1)^[j-1]``,
    zero for ``E < r - 1``.  A zero factor drops its power: the factors
    ``[0] * M + [1]`` spend all of M, as level 1 must, where ``L_0 = 0``.

    The step is two passes.  ``_expand`` reads no weight: it expands the
    indices of every state and merges the terms by ``(rest, e, M)``, so
    states that expand to the same term pay for it once.  ``_spend`` reads
    the factors: it expands ``L_j^M`` and pushes forward.  The expansion is
    an identity in the cohomology of level j, and the pushforward is linear
    over level j - 1 (the projection formula), so merging before spending
    changes no sum, and the base states of a run are the pushforward of its
    input exactly; ``_segre_polynomials`` spends one expansion for several
    values of ``x_j``.  Each level lowers the degree by ``r - 1``: a state
    of level j that comes from ``L^top`` has its indices and M summing to
    ``top - (k - j)(r - 1)``, so with ``bits`` the bit length of ``top`` no
    field overflows into the next.
    """
    return _spend(r, _expand(r, states, bits), factors, units, bits)


def _expand(
    r: int, states: Mapping[int, Union[int, Polynomial]], bits: int
) -> dict[tuple[int, int, int], Union[int, Polynomial]]:
    """The states of level j with their Segre products expanded over level j - 1, merged by ``(rest, e, M)``.

    A state ``g prod_(i in indices) s_i^[j] L_j^M`` becomes ``sum g' u_j^e
    prod_(i in rest) s_i^[j-1] L_j^M`` by ``tower._segre_expansion``, and the
    terms of all states that agree on ``(rest, e, M)`` add up.  No weight is
    read, so the result serves every run that enters level j with these
    states, whatever its ``a_j`` (``_segre_polynomials``).
    """
    expanded: dict[tuple[int, int, int], Union[int, Polynomial]] = {}
    get, mask = expanded.get, (1 << bits) - 1
    for key, g in states.items():
        M = key & mask
        for e, rest, coeff in _segre_expansion(r, bits, key - M):
            term = rest, e, M
            expanded[term] = get(term, 0) + g * coeff
    return expanded


def _spend(
    r: int,
    expanded: Mapping[tuple[int, int, int], Union[int, Polynomial]],
    factors: Sequence,
    units: Sequence[int],
    bits: int,
) -> dict[int, Union[int, Polynomial]]:
    """The states of level j - 1 from an expansion of level j (``_expand``), ``factors[m]`` the factor ``x_j^m``.

    ``L_j^M = sum_m C(M, m) x_j^m u_j^m L_(j-1)^(M-m)``, and ``u_j^(e+m)``
    pushes forward to ``s_(e+m-r+1)^[j-1]``, zero for ``e + m < r - 1``.
    Each M's list of ``(m, M - m, C(M, m) x_j^m)`` is built once per call,
    without the zero factors, from ``m = M`` down, so a term's loop ends at
    its first m below ``r - 1 - e`` and visits none of the rest.  A zero
    coefficient of the expansion is skipped; a zero ``Polynomial`` is falsy
    as well.
    """
    below: dict[int, Union[int, Polynomial]] = {}
    get, spends = below.get, {}
    for (rest, e, M), g in expanded.items():
        if not g:
            continue
        if (spend := spends.get(M)) is None:
            spend = spends[M] = [(m, M - m, comb(M, m) * factor) for m in range(M, -1, -1) if (factor := factors[m])]
        low = r - 1 - e
        for m, left, scale in spend:
            if m < low:
                break
            target = rest + units[m - low] + left
            below[target] = get(target, 0) + g * scale
    return below


@functools.lru_cache(maxsize=None)
def _level_one_readouts(spec: GeometrySpec, bits: int) -> dict[int, tuple[int, int, list[int]]]:
    """The readouts ``_read_out`` has made for the spec on keys ``bits`` wide, by level-1 key.

    A readout reads no weight, and one multiset packs to a different key at
    each width, so the memo serves every run of the spec's dimension whose
    keys have that width, jobs and symbolic forms alike.
    """
    return {}


@functools.lru_cache(maxsize=None)
def _base_products(spec: GeometrySpec, bits: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The beta and ``d prod_i S_i(d)`` of each base key ``_read_out`` has reached for the spec on keys ``bits`` wide."""
    return {}


def _read_out(spec: GeometrySpec, bits: int, key: int) -> tuple[int, int, list[int]]:
    """A level-1 key's M, beta and the coefficients of ``R(key) = d sum g prod_i S_i(d)``, stored in its memo.

    The key's Segre expansion with all of M spent, ``m = M`` alone, takes it
    to its base states ``g prod_i s_i``; the units of its new indices are
    built once per (n, width).  ``geometry._in_degree`` multiplies out
    each one's product of base Segre classes ``S_i(d)`` (``_base_segre``), as
    ``evaluate_in_degree`` does a pushed-forward class with the ``p_l``, and
    its beta is n less its weighted index sum.  Each product and each
    readout is formed once per spec, key width and process
    (``_base_products``, ``_level_one_readouts``), so a caller looks the
    readout up first and calls this on a miss.
    """
    n, mask = spec.n, (1 << bits) - 1
    M, beta, total, products = key & mask, 0, [0] * (n + 2), _base_products(spec, bits)
    # a base state's indices sum to at most n, so units up to index n suffice
    units, low = _key_units(n, 2 * n - 1, bits), n - 1 - M
    for e, rest, coeff in _segre_expansion(n, bits, key - M):
        if e < low:
            continue
        base = rest + units[e - low]
        if (entry := products.get(base)) is None:
            counts = [base >> i * bits & mask for i in range(1, n + 1)]
            beta = n - sum(map(mul, range(1, n + 1), counts))
            entry = products[base] = beta, _in_degree([(1, counts)], _base_segre(spec)).coeffs
        beta, product = entry
        for i, c in enumerate(product):
            total[i] += coeff * c
    readout = _level_one_readouts(spec, bits)[key] = M, beta, total
    return readout


def _top_coefficient(spec: GeometrySpec, levels: Sequence[Sequence], power: int):
    """The ``d^(m+1)`` coefficient of ``L^power``, ``L = sum_j x_j u_j``, integrated to the base and put into d.

    ``levels[j - 1][M]`` is the factor ``x_j^M`` of ``u_j^M``, for every M up
    to ``power``, and a zero entry drops that power: ``symbolic_leading_form``
    passes the powers of a weight variable, and the balanced intersection of
    ``verify`` keeps ``M = n`` alone.  Levels k..2 step as the jobs' do, and
    level 1 is read out (``_read_out``): the value is ``sum g x_1^M
    [d^(m+1)] R(key)`` over the level-1 states, ``m = power - k(n-1)`` the
    degree of the class on the base.  A product of Segre classes has degree
    in d at most its number of indices, and ``S_1(d)`` has top coefficient 1,
    so only the products of m classes ``S_1`` reach ``d^(m+1)``, with
    coefficient 1, in either geometry.
    """
    n, k, bits = spec.n, len(levels), power.bit_length()
    states, units = {power: 1}, _key_units(n, power, bits)
    for j in range(k, 1, -1):
        states = _level_step(n, states, levels[j - 1], units, bits)
    readouts, top, value = _level_one_readouts(spec, bits), power - k * (n - 1) + 1, 0
    for key, g in states.items():
        M, _, product = readouts.get(key) or _read_out(spec, bits, key)
        if product[top]:
            value += g * levels[0][M] * product[top]
    return value


def _shared_levels(suffix: tuple[int, ...], other: tuple[int, ...]) -> int:
    """How many levels from the top two weight suffixes ``(a_2, ..., a_k)`` agree on."""
    shared = 0
    while shared < len(suffix) and suffix[-1 - shared] == other[-1 - shared]:
        shared += 1
    return shared


def _segre_polynomials(
    n: int, k: int, jobs: Sequence[tuple[GeometrySpec, WeightVector]]
) -> list[EvaluatedClass]:
    """``P(d)`` of each ``(spec, weights)`` job on the (n, k) tower, from its Morse class as products of base Segre classes.

    At ``h = 1`` the class is ``sum_(beta != 1) (1 - beta) C(N, beta)
    (2|a|)^beta L^(N-beta)``, ``L = sum_j a_j u_j``: ``h^beta`` only fixes
    the degree ``n - beta`` of its base part, so ``beta > n`` gives none.
    Level j's step reads the weights through ``a_j`` alone, and the twist
    ``(2|a|)^beta`` waits for the base: there a state's weighted index sum
    ``sum_i i count_i`` is ``n - beta`` (the degree count of
    ``_level_step``), so its beta is known, and multiplying it in there is
    exact by linearity.  So every job, in either geometry, starts level k
    from the weight-free powers ``{N - beta: (1 - beta) C(N, beta)}``, and
    jobs whose weights agree on ``a_k, ..., a_j`` share levels k..j: the
    suffixes ``a_2..a_k`` are walked in the order of their reversed tuples,
    and each runs only the levels above 1 below the suffix it shares with
    the one before, one ``_spend`` per distinct suffix of each length, on
    keys of ``N.bit_length()`` bits a field.  The expansion of a level reads
    no weight (``_expand``), so when the next suffix shares every level above
    level j, level j is expanded once and spent for each value of ``a_j``.
    An expansion is kept only while a later suffix will spend it again, and
    is dropped after its last spend, so a lone job holds at most one
    expansion at a time.

    Level 1 reads ``a_1`` only through the factor ``a_1^M`` of a state with
    power M, since it spends all of M, so ``a_1`` is applied at the base as
    the twist is: ``P(d) = sum a_1^M (2|a|)^beta V_(M,beta)(d)``, with
    ``V_(M,beta) = sum g R(key)`` over the level-1 states of that M and
    beta, ``R(key)`` the readout of the key (``_read_out``), multiplied out
    once per spec, width and process, and each ``V`` once per suffix and
    spec.  That is ``evaluate_in_degree`` of ``pushforward_to_base`` of the
    same class, coefficient by coefficient.
    """
    polys: list[Optional[EvaluatedClass]] = [None] * len(jobs)
    suffixes: dict[tuple[int, ...], dict[GeometrySpec, list[int]]] = {}
    for index, (spec, w) in enumerate(jobs):
        suffixes.setdefault(w.a[1:], {}).setdefault(spec, []).append(index)
    N = n + k * (n - 1)
    bits = N.bit_length()
    units = _key_units(n, N, bits)
    walk = sorted(suffixes, key=lambda s: s[::-1])
    # shares[p]: the levels walk[p] and walk[p + 1] share, so walk[p + 1] spends again the expansion of
    # stack index shares[p]; respent, from the last suffix back: the stack indices whose expansion some
    # later suffix spends again
    shares = [_shared_levels(suffix, after) for suffix, after in zip(walk, walk[1:])]
    respent: list[set[int]] = [set()]
    for shared in reversed(shares):
        respent.append({shared} | {i for i in respent[-1] if i < shared})
    # stack[i] holds the states after the steps of levels k, ..., k - i + 1, and expansions[i] their
    # expansion while a later suffix will spend it again
    stack = [{N - beta: (1 - beta) * comb(N, beta) for beta in range(n + 1) if beta != 1}]
    expansions: dict[int, dict] = {}
    for suffix, shared, respend in zip(walk, [0, *shares], reversed(respent)):
        del stack[shared + 1:]
        for i in range(shared, k - 1):
            if (expansion := expansions.pop(i, None)) is None:
                expansion = _expand(n, stack[i], bits)
            if i in respend:
                expansions[i] = expansion
            x = suffix[k - i - 2]
            stack.append(_spend(n, expansion, [x**m for m in range(N + 1)], units, bits))
            del expansion  # freed here unless a later suffix spends it, before the next level's is made
        for spec, members in suffixes[suffix].items():
            readouts, parts = _level_one_readouts(spec, bits), {}
            for key, g in stack[-1].items():
                M, beta, product = readouts.get(key) or _read_out(spec, bits, key)
                if (part := parts.get((M, beta))) is None:
                    part = parts[M, beta] = [0] * (n + 2)
                for i, c in enumerate(product):
                    part[i] += g * c
            for index in members:
                a_1, twist = jobs[index][1].a[0], 2 * jobs[index][1].total
                coeffs = [0] * (n + 2)
                for (M, beta), part in parts.items():
                    scale = a_1**M * twist**beta
                    for i, c in enumerate(part):
                        coeffs[i] += scale * c
                polys[index] = EvaluatedClass.from_coefficients(coeffs)
    return polys


def compute_reports(jobs: Sequence[tuple[GeometrySpec, Union[WeightVector, Sequence[int]]]]) -> list[MorseReport]:
    """The report of every ``(spec, weights)`` job, in job order, computed in this process.

    The jobs are grouped by their tower ``(n, k)``, log and compact together,
    and each group's ``P(d)`` comes from one ``_segre_polynomials`` run: no
    tower is built and no class is formed or pushed forward.  Jobs on one
    tower share the levels their weights agree on, so a report's time is not
    its own: its ``elapsed_ms`` is the wall time of its tower's group (the
    recursion and each threshold search) divided by the group's number of
    jobs, which for a job alone on its tower is its own time.
    """
    jobs = [(spec, _as_weights(weights)) for spec, weights in jobs]
    towers: dict[tuple[int, int], list[int]] = {}
    for index, (spec, w) in enumerate(jobs):
        towers.setdefault((spec.n, w.k), []).append(index)
    reports: list[Optional[MorseReport]] = [None] * len(jobs)
    for (n, k), indices in towers.items():
        start = time.perf_counter()
        group = [jobs[index] for index in indices]
        polys = _segre_polynomials(n, k, group)
        thresholds = [degree_threshold(P) for P in polys]
        elapsed = round((time.perf_counter() - start) * 1000.0 / len(group), 3)
        for index, (spec, w), P, threshold in zip(indices, group, polys, thresholds):
            reports[index] = MorseReport(
                n=n,
                k=k,
                geometry=spec.token,
                weights=w.a,
                total_dim=n + k * (n - 1),
                morse_poly=P,
                leading_coeff=P.leading_coefficient,
                threshold=threshold,
                elapsed_ms=elapsed,
            )
    return reports


def compute_report(
    spec: GeometrySpec,
    k: int,
    weights: Union[WeightVector, Sequence[int], None] = None,
) -> MorseReport:
    """Run the full pipeline for one configuration and time it: a job list of one.

    A vector whose length is not ``k`` raises ``InadmissibleWeightsError``
    before anything is assembled.
    """
    w = default_weights(k) if weights is None else _as_weights(weights)
    _check_weight_count(w.a, k)
    return compute_reports([(spec, w.a)])[0]
