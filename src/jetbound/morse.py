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
whose fields are as wide as the run's largest power of ``L`` needs: a
level step (``_level_step``) expands each Segre class of its own level by
those of the level below (``tower._segre_expansion``) and the power of
``L`` by the binomial theorem, and sends ``u_j^E`` to the Segre class
``s_(E-r+1)`` below.  Level j reads the weights through ``a_j`` alone,
level 1 through ``a_1^M`` alone, and the twist ``(2|a|)^beta`` and
``a_1^M`` are applied at the base, so ``_segre_polynomials`` runs the jobs
of one tower as one descent over the levels above 1: jobs whose weights
agree on ``a_k..a_j``, in either geometry, share levels k..j.  Each state
entering level 1 is read out once per spec and key width as a polynomial
in d (``_level_one_readouts``: one weight-free step to the base, whose
products of Segre classes ``geometry._in_degree`` multiplies out, as it
evaluates a pushed-forward class), and each job is a sum of those
polynomials scaled by its weights and by the coefficients of its level-1
states.  No u-monomial or c-monomial is formed, and no tower is built.  The
same level step, given the powers of symbolic weights in place of the
``a_j^m`` (``_segre_states``), gives ``symbolic_leading_form``
(``_leading_value``).  The pushforward of a class (``morse_class``,
``tower.pushforward_to_base``, ``evaluate_in_degree``) remains the
reference the recursion is tested against.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from math import comb, isfinite
from operator import mul
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import InadmissibleWeightsError
from .geometry import COMPACT_HYPERSURFACE, EvaluatedClass, GeometrySpec, _in_degree
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
    if w.k != ctx.k:
        raise InadmissibleWeightsError(f"got {w.k} weights for a tower of order {ctx.k}")
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
    of Segre classes); the CLI's oversize guard keeps reading it, so
    ``MAX_CLASS_TERMS`` and the jobs the guard refuses stay as they were.
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

    The form depends on ``spec.n`` alone, not on the geometry: base class j
    has top d-coefficient ``(-1)^j`` in both, and every c-monomial of the
    base class has weighted degree n, so the ``d^(n+1)`` coefficient is the
    base class at ``c_j = (-1)^j``.  ``_leading_value`` reads it off the
    Segre recursion run on the power of the form, with the powers of the
    weight variables ``a_j`` as its factors; the projection formula moves
    ``c_1^i`` out of every level, and it contributes ``(-1)^i``.  No
    u-monomial or c-monomial is ever formed, and the weights live in a ring
    of their own, ``a1, ..., ak``.
    """
    ring, r = Ring([f"a{j}" for j in range(1, k + 1)]), spec.n
    N = r + k * (r - 1) - c1_power
    levels = [[ring.variable(v) ** m for m in range(N + 1)] for v in range(k)]
    # ring.zero keeps the result a polynomial where no state counts and the sum is the integer 0
    return (-1) ** c1_power * (ring.zero + _leading_value(r, levels, {N: 1}))


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


def _key_units(r: int, top: int, bits: int) -> list[int]:
    """The unit ``1 << t * bits`` of each Segre index ``t <= top - r + 1`` a level makes from ``L^top``; 0 adds none."""
    return [0] + [1 << t * bits for t in range(1, top - r + 2)]


def _level_step(
    r: int, states: Mapping[int, Union[int, Polynomial]], factors: Sequence, units: Sequence[int], bits: int, last: bool
) -> dict[int, Union[int, Polynomial]]:
    """The states of level j - 1 from those of level j, ``factors[m]`` the factor ``x_j^m`` of ``u_j^m``.

    Each state's indices, its key less M, expand by
    ``tower._segre_expansion`` into ``u_j^e`` times a product of
    level-(j-1) Segre classes; ``L_j^M = sum_m C(M, m) x_j^m u_j^m
    L_(j-1)^(M-m)``, with ``m = M`` alone on the ``last`` level, j = 1,
    where ``L_0 = 0``; and ``u_j^E`` pushes forward to ``s_(E-r+1)^[j-1]``,
    zero for ``E < r - 1``.  A zero factor drops its power, the key's
    fields are ``bits`` wide, and ``units`` come from ``_key_units``.
    """
    below: dict[int, Union[int, Polynomial]] = {}
    get, mask = below.get, (1 << bits) - 1
    for key, g in states.items():
        M = key & mask
        expansion = _segre_expansion(r, bits, key - M)
        for m in range(M if last else 0, M + 1):
            if not (factor := factors[m]):
                continue
            scale, low, left = g * comb(M, m) * factor, m - r + 1, M - m
            for e, rest, coeff in expansion:
                if (index := e + low) >= 0:
                    target = rest + units[index] + left
                    below[target] = get(target, 0) + scale * coeff
    return below


def _segre_states(
    r: int, levels: Sequence[Sequence], powers: Mapping[int, int]
) -> Iterator[dict[int, Union[int, Polynomial]]]:
    """The states of ``sum_M powers[M] L^M``, ``L = sum_j x_j u_j``, on levels k, k - 1, ..., 0.

    ``levels[j - 1][m]`` is the factor ``x_j^m`` of ``u_j^m``, for every
    power m up to the largest M, and a zero entry drops that power:
    ``symbolic_leading_form`` passes the powers of a weight variable, and
    the balanced intersection of ``verify`` keeps ``m = n`` alone.  A state
    of level j with coefficient g stands for ``g prod_(i in indices)
    s_i^[j] L_j^M``, ``L_j = sum_(i <= j) x_i u_i`` and ``s^[j] = 1 /
    c^[j]`` the Segre series of the level-j classes.  Its key is one
    integer: M in the low field and the count of index ``i >= 1`` in field
    i, each ``bits`` wide, the bit length of the largest M, so level k
    holds the key M for each power.  ``_level_step`` turns the states of
    level j into those of level j - 1, so a new index t is one add of its
    unit (none for t = 0), and spending m powers of L one subtraction of
    m; no unit is built when there is no level.

    Each step is an identity in the cohomology of level j, and the
    pushforward is linear over level j - 1 (the projection formula), so the
    level-0 states, whose M is 0, are the pushforward of the input exactly:
    ``sum g prod_(i in indices) s_i^[0]``.  No u-monomial is ever formed.  Each
    level lowers the degree by ``r - 1``, so a state of level j that comes
    from ``L^M`` has its indices and M summing to ``M - (k - j)(r - 1)``:
    no field exceeds the largest M, so none overflows into the next.
    """
    top = max(powers, default=0)
    bits = top.bit_length()
    units = _key_units(r, top, bits) if levels else []
    states = dict(powers)
    yield states
    for j in range(len(levels), 0, -1):
        states = _level_step(r, states, levels[j - 1], units, bits, j == 1)
        yield states


def _leading_value(r: int, levels: Sequence[Sequence], powers: Mapping[int, int]):
    """``sum g prod_i S_i`` over the base states of ``_segre_states``, ``S_i`` the base Segre class at ``c_l = (-1)^l``.

    That is the base class at ``c_l = (-1)^l``, the top d-coefficient of
    class l in both geometries, so on a class of weighted degree n it is
    the ``d^(n+1)`` coefficient of its evaluation in the degree.  There
    ``1 / c(y) = (1 + y) / (1 - (-y)^(r+1))``, so ``S_1 = 1`` and ``S_p = 0``
    for ``2 <= p <= r``: only the states whose indices are all 1 count, the
    keys with no field above index 1.
    """
    for states in _segre_states(r, levels, powers):
        pass
    bits = max(powers, default=0).bit_length()
    return sum(g for key, g in states.items() if not key >> 2 * bits)


@functools.lru_cache(maxsize=None)
def _base_segre(spec: GeometrySpec) -> tuple[dict[int, int], ...]:
    """The base Segre classes ``S_1(d), ..., S_n(d)`` of ``spec`` as raw term maps in d, memoized per spec.

    At ``h = 1`` the total Chern class is ``(1 + y)^e / (1 + d y)`` up to
    degree n, ``e = n + 2`` on the compact hypersurface and ``n + 1`` on the
    log pair (``geometry``), so ``S = 1 / c = (1 + d y)(1 + y)^(-e)`` and
    ``S_p = (-1)^p [C(e+p-1, p) - d C(e+p-2, p-1)]``.  Callers only read the maps.
    """
    e = spec.n + (2 if spec.token == COMPACT_HYPERSURFACE else 1)
    return tuple(
        {0: (-1) ** p * comb(e + p - 1, p), 1: (-1) ** (p + 1) * comb(e + p - 2, p - 1)}
        for p in range(1, spec.n + 1)
    )


@functools.lru_cache(maxsize=None)
def _level_one_readouts(spec: GeometrySpec, bits: int) -> dict[int, tuple[int, int, list[int]]]:
    """Each level-1 key's M, beta and ``d sum g prod_i S_i(d)`` over its base states, as ``_segre_polynomials`` reads it.

    A readout reads no weight, and one multiset packs to a different key at
    each width, so the memo serves every tower of the spec's dimension whose
    keys have that width, one entry per level-1 state reached.
    """
    return {}


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
    ``_segre_states``), so its beta is known, and multiplying it in there is
    exact by linearity.  So every job, in either geometry, starts level k
    from the weight-free powers ``{N - beta: (1 - beta) C(N, beta)}``, and
    jobs whose weights agree on ``a_k, ..., a_j`` share levels k..j: the
    suffixes ``a_2..a_k`` are walked in the order of their reversed tuples,
    and each runs only the levels above 1 below the suffix it shares with
    the one before, one ``_level_step`` per distinct suffix of each length,
    on keys of ``N.bit_length()`` bits a field.

    Level 1 reads ``a_1`` only through the factor ``a_1^M`` of a state with
    power M, since it spends all of M, so ``a_1`` is applied at the base as
    the twist is: ``P(d) = sum a_1^M (2|a|)^beta V_(M,beta)(d)``, with
    ``V_(M,beta) = sum g R(key)`` over the level-1 states of that M and
    beta, ``R(key) = d sum g' prod_i S_i(d)`` over the base states of one
    weight-free step of the key.  Each ``R`` is multiplied out once per
    spec, width and process (``_level_one_readouts``, by
    ``geometry._in_degree``, which ``evaluate_in_degree`` runs on the
    ``p_l``; ``_base_segre``), each ``V`` once per suffix and spec.  That is
    ``evaluate_in_degree`` of ``pushforward_to_base`` of the same class,
    coefficient by coefficient.
    """
    polys: list[Optional[EvaluatedClass]] = [None] * len(jobs)
    suffixes: dict[tuple[int, ...], dict[GeometrySpec, list[int]]] = {}
    for index, (spec, w) in enumerate(jobs):
        suffixes.setdefault(w.a[1:], {}).setdefault(spec, []).append(index)
    N = n + k * (n - 1)
    bits = N.bit_length()
    mask, units, indices = (1 << bits) - 1, _key_units(n, N, bits), range(1, n + 1)
    shifts = [i * bits for i in indices]
    # stack[i] holds the states after the steps of levels k, ..., k - i + 1
    stack = [{N - beta: (1 - beta) * comb(N, beta) for beta in range(n + 1) if beta != 1}]
    previous: tuple[int, ...] = ()  # shares no level
    for suffix in sorted(suffixes, key=lambda s: s[::-1]):
        shared = 0
        while shared < len(previous) and suffix[-1 - shared] == previous[-1 - shared]:
            shared += 1
        del stack[shared + 1:]
        for j in range(k - shared, 1, -1):
            x = suffix[j - 2]
            stack.append(_level_step(n, stack[-1], [x**m for m in range(N + 1)], units, bits, False))
        previous = suffix
        for spec, members in suffixes[suffix].items():
            # products: the beta and d prod_i S_i(d) of each base key that this suffix's readouts reach
            readouts, products, parts = _level_one_readouts(spec, bits), {}, {}
            for key, g in stack[-1].items():
                if (readout := readouts.get(key)) is None:
                    M, beta, total = key & mask, 0, [0] * (n + 2)
                    for base, coeff in _level_step(n, {key: 1}, [1] * (M + 1), units, bits, True).items():
                        if base not in products:
                            counts = [base >> shift & mask for shift in shifts]
                            beta = n - sum(map(mul, indices, counts))
                            products[base] = beta, _in_degree([(1, counts)], _base_segre(spec))
                        beta, product = products[base]
                        for i, c in enumerate(product.coeffs):
                            total[i] += coeff * c
                    readout = readouts[key] = (M, beta, total)
                M, beta, product = readout
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
    if w.k != k:
        raise InadmissibleWeightsError(f"got {w.k} weights for a tower of order {k}")
    return compute_reports([(spec, w.a)])[0]
