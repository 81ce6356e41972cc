"""Morse-inequality classes, degree polynomials and effective thresholds.

For an admissible weight vector ``a`` on a jet tower of total dimension
``N = n + k(n-1)``, the positivity criterion is the top intersection
``F^N - N * F^(N-1) * G`` with ``F = sum_j a_j u_j + 2|a| h`` and
``G = 2|a| h``.  It is integrated as the one class ``(F - N*G) * F^(N-1)``,
so only one reduction pass is needed.  The Euler operator ``h d/dh`` sends
``F^N`` to ``N*G*F^(N-1)``, so the class is ``F^N - h d/dh F^N``, whose
coefficient of ``u^alpha h^beta`` is
``(1 - beta) * N!/(alpha! beta!) * a^alpha * (2|a|)^beta``.  It is assembled
as a trinomial in ``h`` and two halves of the weighted form, from the powers
of each half, so every term is formed once; ``morse_class(..., base_only=True)``
forms only the terms that can reach the base (``beta <= n`` and a power of
``u_k`` of at least ``r - 1``), 39,650 of the full class's 122,031 at (5,5).
Evaluating the integrated class in the degree variable yields a univariate
polynomial ``P(d)``; when its leading coefficient is positive, the effective
threshold is the smallest positive integer beyond which ``P`` stays strictly
positive, located by an exact downward search below a power-of-two root bound.

``compute_reports`` is the package's one batch computation, serial or on a
process pool.  A job is a ``(GeometrySpec, weights)`` pair, and each job runs
on its own: it forms no class and runs no pushforward.  At ``h = 1`` its
class is a combination of powers of the one linear form
``L = sum_j a_j u_j``, and ``_segre_states`` integrates those level by
level as products of Segre classes: a level expands each Segre class of
its own by those of the level below (``tower._segre_expansion``) and the
power of ``L`` by the binomial theorem, and sends ``u_j^E`` to the Segre
class ``s_(E-r+1)`` below.  At the base, ``_segre_polynomial`` reads the
products as polynomials in d.  No u-monomial, degree substitution or digit
is formed, and no tower is built.  The pushforward of a class
(``morse_class``, ``tower.pushforward_to_base``) remains the reference the
recursion is tested against, and ``symbolic_leading_form`` runs on it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb, isfinite
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import InadmissibleWeightsError
from .geometry import EvaluatedClass, GeometrySpec, _chern_coefficient_in_degree, chern_term_map
# not used here: the benchmark's tracer (perfbench/spans.py) wraps it as ``morse.evaluate_in_degree``
from .geometry import evaluate_in_degree  # noqa: F401
from .polyring import _EXP_MASK, Polynomial, _add_into, _mul_into
from .tower import TowerContext, _segre_expansion, pushforward_to_base

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


def morse_class(
    ctx: TowerContext,
    weights: Union[WeightVector, Sequence[int]],
    keep_h: bool = True,
    base_only: bool = False,
) -> Polynomial:
    """The unreduced tower class ``(F - N*G) * F^(N-1)``; with ``keep_h`` false, at ``h = 1``.

    ``F = sum_j a_j u_j + 2|a| h`` twists the weighted tautological bundle to
    a nef class, ``G = 2|a| h`` is the twisting class, and ``N`` is the total
    tower dimension.  Since ``h d/dh F^N = N*G*F^(N-1)``, the class equals
    ``F^N - h d/dh F^N``.  With ``A = sum_(j<=m) a_j u_j``, ``B`` the rest of
    the weighted form and ``m = ceil(k/2)``, the trinomial expansion of
    ``F^N = (A + B + 2|a| h)^N`` makes the class
    ``sum_(beta != 1) (1 - beta) C(N, beta) (2|a|)^beta h^beta
    sum_s C(N-beta, s) A^s B^(N-beta-s)``.  The powers of each half are built
    by repeated products (at ``k = 1`` the half ``B`` is empty), and each term
    of the class is one product of a factor of ``(beta, s)`` and a
    coefficient of each half, the larger half ``A`` innermost: the two halves
    share no variable, so no two triples give the same monomial and every
    term is formed once, nonzero since every ``a_j > 0``.  Without the h
    field the keys are still distinct, since ``|alpha| + beta = N`` fixes
    beta: setting ``h = 1`` merges no terms.

    With ``base_only``, only the terms that can reach the base are formed:
    those with ``beta <= n`` whose power of ``u_k`` is at least ``r - 1``.
    ``pushforward_to_base`` drops every other term, whatever the relations
    and the coefficients: for ``beta > n`` the u-degree ``N - beta`` is below
    the level-k cut ``k(r-1)``, and a lower power of ``u_k`` is dropped when
    the input is bucketed.  So both classes have the same pushforward.  The
    powers of the half holding ``u_k`` (``B``, or ``A`` at ``k = 1``) are
    filtered once, before the products, and the filter reads exponents only,
    so every admissible vector on one tower gives the same keys.
    """
    w = _as_weights(weights)
    if w.k != ctx.k:
        raise InadmissibleWeightsError(f"got {w.k} weights for a tower of order {ctx.k}")
    ring, N, m = ctx.ring, ctx.total_dim, (ctx.k + 1) // 2
    low = ring.shift(ctx.u(ctx.k))
    halves = []
    for js in (range(1, m + 1), range(m + 1, ctx.k + 1)):
        form = {1 << ring.shift(ctx.u(j)): w.a[j - 1] for j in js}
        powers = [{0: 1}]
        for _ in range(N):
            acc: dict[int, int] = {}
            _mul_into(acc, powers[-1], form)
            powers.append(acc)
        if base_only and ctx.k in js:
            powers = [
                {key: c for key, c in p.items() if key >> low & _EXP_MASK >= ctx.r - 1} for p in powers
            ]
        halves.append(powers)
    A, B = halves
    h_key, twist = 1 << ring.shift(ctx.h) if keep_h else 0, 2 * w.total
    terms: dict[int, int] = {}
    for beta in range((ctx.n if base_only else N) + 1):
        if beta == 1:
            continue
        outer = (1 - beta) * comb(N, beta) * twist**beta
        for s in range(N - beta + 1):
            factor = outer * comb(N - beta, s)
            a_terms = A[s].items()
            for b_key, b_coeff in B[N - beta - s].items():
                key, scale = beta * h_key + b_key, factor * b_coeff
                terms.update({key + a_key: scale * a_coeff for a_key, a_coeff in a_terms})
    return Polynomial(ring, terms)


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
    job integrates by the Segre recursion of ``_segre_polynomial``.
    """
    return compute_report(spec, k, weights).morse_poly


def degree_threshold(P: EvaluatedClass) -> Optional[int]:
    """Smallest positive integer beyond which ``P`` stays strictly positive.

    Absent (None) when the leading coefficient is not positive.  With
    ``P = lead*d^m + sum_i c_i d^i``, the first power of two ``B`` with
    ``lead*B^m > sum_i |c_i|*B^i`` bounds every real root: dividing by
    ``B^m``, the leading term dominates at every ``x >= B`` as well, so
    ``P(x) > 0`` there.  The integers below ``B`` are searched downwards for
    the largest non-positive value, skipping each run ``_positive_run``
    certifies positive, so the result is exact and the search takes about
    one step per halving of the distance to a root, not one per integer.
    """
    lead = P.leading_coefficient
    if lead <= 0:
        return None
    rest = [abs(c) for c in P.coeffs[:-1]]
    bound = 1
    while lead * bound ** len(rest) <= sum(c * bound**i for i, c in enumerate(rest)):
        bound *= 2
    x = bound - 1
    while x > 0:
        if P(x) <= 0:
            return x + 1
        x -= _positive_run(P.coeffs, x) + 1
    return 1


def _positive_run(coeffs: Sequence[int], x: int) -> int:
    """A length ``s >= 0`` such that ``P > 0`` on ``[x - s, x]``, given ``P(x) > 0``.

    With ``P(x + t) = sum_i p_i t^i``, the Taylor expansion at x, ``p_0 = P(x)``
    and on ``0 <= t <= s`` the value ``P(x - t)`` is at least
    ``p_0 - sum |p_i| s^i`` over the i with ``(-1)^i p_i < 0``.  The run is
    the largest power of two (or 0) that keeps this bound positive, or all
    of ``[0, x]`` when no term can pull ``P`` down.
    """
    p = list(coeffs)
    m = len(p) - 1
    for i in range(m):  # synthetic division: p becomes the coefficients of P(x + t)
        for j in range(m - 1, i - 1, -1):
            p[j] += x * p[j + 1]
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
    base class at ``c_j = (-1)^j``.  That ring map fixes ``u_1..u_k``, so the
    power is pushed forward on the tower's relations specialized by it
    (``RelationSet.specialized`` with ``geometry.chern_term_map``, which
    keeps the ``a_j`` fields), whose base class is that value times
    ``(-1)^i`` for the factor ``c_1^i``; no c-monomial is ever formed.
    """
    ctx = TowerContext(spec.n, k, symbolic_weights=True)
    ring = ctx.ring
    signs = chern_term_map(ctx, [(-1) ** l for l in range(1, ctx.r + 1)], 1)
    F = sum((ring.variable(ctx.a(j)) * ring.variable(ctx.u(j)) for j in range(1, k + 1)), ring.zero)
    base = pushforward_to_base(F ** (ctx.total_dim - c1_power), ctx.relations.specialized(signs))
    return (-1) ** c1_power * base


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
        if not isinstance(texts, list) or not all(
            isinstance(c, str) and str(int(c)) == c for c in (*texts, data["leading_coeff"])
        ):
            raise ValueError("report coefficients are not decimal strings")
        report = MorseReport(
            n=data["dim"],
            k=data["order"],
            geometry=data["geometry"],
            weights=tuple(data["weights"]),
            total_dim=data["total_dim"],
            morse_poly=EvaluatedClass(tuple(map(int, texts))),
            leading_coeff=int(data["leading_coeff"]),
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


def _segre_states(
    r: int, weights: Sequence[int], powers: Mapping[int, int]
) -> Iterator[dict[tuple[tuple[int, ...], int], int]]:
    """The states of ``sum_M powers[M] L^M``, ``L = sum_j a_j u_j``, on levels k, k - 1, ..., 0.

    A state ``(indices, M)`` of level j with coefficient g stands for ``g
    prod_(i in indices) s_i^[j] L_j^M``, ``L_j = sum_(i <= j) a_i u_i`` and
    ``s^[j] = 1 / c^[j]`` the Segre series of the level-j classes; level k
    holds ``((), M)`` for each power.  Level j turns its states into those
    of level j - 1 in three steps:

    - it expands each index by ``tower._segre_expansion``, which gives ``u_j^e``
      times a product of level-(j-1) Segre classes;
    - it writes ``L_j^M = sum_m C(M, m) a_j^m u_j^m L_(j-1)^(M-m)``, with
      ``m = M`` at j = 1, where ``L_0 = 0``;
    - it pushes ``u_j^E`` forward to ``s_(E-r+1)^[j-1]``, zero for ``E < r -
      1``: the ``u_j^(r-1)`` coefficient of ``u_j^E`` modulo the level
      relation, which is what ``pushforward_to_base`` integrates it to.

    Each step is an identity in the cohomology of level j, and the
    pushforward is linear over level j - 1 (the projection formula), so the
    level-0 states, whose M is 0, are the pushforward of the input exactly:
    ``sum g prod_(i in indices) s_i^[0]``.  No u-monomial is ever formed.
    Each level lowers the degree by ``r - 1``, so a state of level j that
    comes from ``L^M`` has its indices and M summing to ``M - (k - j)(r - 1)``.
    """
    states = {((), M): g for M, g in powers.items()}
    yield states
    for j in range(len(weights), 0, -1):
        a, below = weights[j - 1], {}
        for (indices, M), g in states.items():
            expansion = _segre_expansion(r, indices)
            for m in range(M if j == 1 else 0, M + 1):
                scale = g * comb(M, m) * a**m
                for e, rest, coeff in expansion:
                    index = e + m - r + 1
                    if index >= 0:
                        key = (tuple(sorted((*rest, index))) if index else rest, M - m)
                        below[key] = below.get(key, 0) + scale * coeff
        states = below
        yield states


def _segre_polynomial(spec: GeometrySpec, weights: WeightVector) -> EvaluatedClass:
    """``P(d)`` of one job from the Morse class's pushforward as products of base Segre classes.

    At ``h = 1`` the class is ``sum_(beta != 1) (1 - beta) C(N, beta)
    (2|a|)^beta L^(N-beta)``, ``L = sum_j a_j u_j``: ``h^beta`` only fixes
    the degree ``n - beta`` of its base part, so ``beta > n`` gives none.
    ``_segre_states`` pushes it forward to ``sum g prod_i s_i^[0]``.  The base
    Segre series is ``1 / c`` at ``c_l = p_l(d)``, ``h = 1``: ``S_0 = 1`` and
    ``S_p = -sum_(l <= min(p, r)) p_l(d) S_(p-l)``, and ``h^n`` integrates to
    d, so ``P(d) = d sum g prod_i S_i(d)``.  That is
    ``evaluate_in_degree`` of ``pushforward_to_base`` of the same class,
    coefficient by coefficient, with no degree substituted and no digit read.
    """
    n, r, k = spec.n, spec.n, weights.k
    N, twist = n + k * (r - 1), 2 * weights.total
    powers = {N - beta: (1 - beta) * comb(N, beta) * twist**beta for beta in range(n + 1) if beta != 1}
    for states in _segre_states(r, weights.a, powers):
        pass
    # raw term maps in d, each key an exponent: -p_l(d), S_p(d) and then P(d) / d
    chern = [{i: -c for i, c in enumerate(_chern_coefficient_in_degree(spec, l))} for l in range(1, r + 1)]
    segre: list[dict[int, int]] = [{0: 1}]
    for p in range(1, n + 1):
        segre.append({})
        for l in range(1, p + 1):
            _mul_into(segre[p], chern[l - 1], segre[p - l])
    total: dict[int, int] = {}
    for (indices, _), g in states.items():
        term = {0: g}
        for i in indices:
            factor, term = term, {}
            _mul_into(term, factor, segre[i])
        _add_into(total, term)
    return EvaluatedClass.from_coefficients([0] + [total.get(i, 0) for i in range(n + 1)])


def _run_job(job: tuple[GeometrySpec, tuple[int, ...]]) -> MorseReport:
    """The report of one ``(spec, weights)`` job, its ``elapsed_ms`` the job's own wall time.

    ``P(d)`` comes from ``_segre_polynomial``: no tower is built and no class
    is formed or pushed forward.
    """
    spec, weights = job
    start = time.perf_counter()
    w = _as_weights(weights)
    P = _segre_polynomial(spec, w)
    threshold = degree_threshold(P)
    return MorseReport(
        n=spec.n,
        k=w.k,
        geometry=spec.token,
        weights=w.a,
        total_dim=spec.n + w.k * (spec.n - 1),
        morse_poly=P,
        leading_coeff=P.leading_coefficient,
        threshold=threshold,
        elapsed_ms=round((time.perf_counter() - start) * 1000.0, 3),
    )


def compute_reports(
    jobs: Sequence[tuple[GeometrySpec, tuple[int, ...]]],
    threads: int = 1,
) -> list[MorseReport]:
    """The report of every ``(spec, weights)`` job, in job order, each job run by ``_run_job``.

    With more than one thread and more than one job, the jobs go to a
    process pool of ``min(threads, jobs)`` workers, each job pickled as its
    spec and weights, and the reports come back pickled.
    """
    workers = min(threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_job, jobs))
    return list(map(_run_job, jobs))


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
