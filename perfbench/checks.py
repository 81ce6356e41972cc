"""Correctness checks the benchmark applies to the engine's outputs.

Every check compares an output with data from outside the engine (the
published table, the sympy port) or with a property the method must have
(sign change at the threshold, homogeneity in the weights, byte-exact cache
replay).  None of them compares with a stored copy of an earlier output.
Each returns a list of problems; an empty list means the output passed.
Polynomials are ascending coefficient lists in the degree d.
"""

from __future__ import annotations

import csv
import io
import json
import re

# Published effective bounds for the logarithmic pair (P^n, D), 2 <= n <= k <= 5.
PUBLISHED_LOG_BOUNDS = {
    (2, 2): 15, (2, 3): 14, (2, 4): 14, (2, 5): 14,
    (3, 3): 75, (3, 4): 67, (3, 5): 67,
    (4, 4): 306, (4, 5): 280,
    (5, 5): 1154,
}


def evaluate(coeffs, x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def root_bound(coeffs) -> int:
    """A power of two beyond which a polynomial with positive leading coefficient is positive.

    For x >= B with ``lead * B^m > sum_i |c_i| B^i`` the leading term
    dominates, and the dominance only grows with x.
    """
    *rest, lead = coeffs
    m = len(rest)
    bound = 1
    while lead * bound**m <= sum(abs(c) * bound**i for i, c in enumerate(rest)):
        bound *= 2
    return bound


def check_shape(label: str, coeffs, n: int) -> list[str]:
    """Degree n+1 in d and a positive leading coefficient."""
    if len(coeffs) != n + 2 or coeffs[-1] == 0:
        return [f"{label}: degree {len(coeffs) - 1} of P(d), expected {n + 1}"]
    if coeffs[-1] < 0:
        return [f"{label}: leading coefficient {coeffs[-1]} is not positive"]
    return []


def check_threshold(label: str, coeffs, threshold) -> list[str]:
    """P(t-1) <= 0 (for t > 1) and P(x) > 0 for every integer x from t to a root bound."""
    if not coeffs or coeffs[-1] <= 0:
        return [f"{label}: threshold {threshold} given for a polynomial without positive leading coefficient"]
    if not isinstance(threshold, int) or threshold < 1:
        return [f"{label}: threshold {threshold!r} is not a positive integer"]
    if threshold > 1 and evaluate(coeffs, threshold - 1) > 0:
        return [f"{label}: threshold {threshold}, but P({threshold - 1}) > 0"]
    for x in range(threshold, root_bound(coeffs) + 1):
        if evaluate(coeffs, x) <= 0:
            return [f"{label}: threshold {threshold}, but P({x}) <= 0"]
    return []


def check_table_bounds(thresholds: dict, bounds: dict) -> list[str]:
    """Each bound is published and is the least threshold of orders n..k."""
    problems = []
    for cell, published in sorted(PUBLISHED_LOG_BOUNDS.items()):
        bound = bounds.get(cell)
        if bound != published:
            problems.append(f"cell {cell}: bound {bound}, published {published}")
        n, k = cell
        least = min((t for j in range(n, k + 1) if (t := thresholds.get((n, j))) is not None), default=None)
        if bound != least:
            problems.append(f"cell {cell}: bound {bound} is not the least threshold of orders {n}..{k}, {least}")
    return problems


def check_equal(label: str, got, expected) -> list[str]:
    return [] if list(got) == list(expected) else [f"{label}: {list(got)} != {list(expected)}"]


def check_twin(coeffs, twin_coeffs, total_dim: int) -> list[str]:
    """P(d; 2a) = 2^N P(d; a): the Morse class is homogeneous of degree N in the weights."""
    expected = [c << total_dim for c in coeffs]
    return check_equal(f"doubled-weight polynomial against 2^{total_dim} times its half", twin_coeffs, expected)


def admissible(a) -> bool:
    """a_1 >= 3a_2, ..., a_(k-2) >= 3a_(k-1), a_(k-1) >= 2a_k > 0."""
    if not a or any(x <= 0 for x in a):
        return False
    if len(a) > 1 and a[-2] < 2 * a[-1]:
        return False
    return all(a[j] >= 3 * a[j + 1] for j in range(len(a) - 2))


def sweep_rank(report: dict):
    threshold = report["threshold"]
    return (threshold is None, threshold or 0, sum(report["weights"]), tuple(report["weights"]))


def check_sweep(reports: list[dict], best: dict, evaluated: int, budget: int) -> list[str]:
    """The count, the ranking and the candidate vectors of one sweep."""
    problems = []
    if evaluated != budget or len(reports) != budget:
        problems.append(f"sweep evaluated {evaluated} ({len(reports)} reports), budget {budget}")
    vectors = [tuple(r["weights"]) for r in reports]
    if len(set(vectors)) != len(vectors) or not all(admissible(v) for v in vectors):
        problems.append("sweep candidates are not distinct admissible vectors")
    if reports and best != min(reports, key=sweep_rank):
        problems.append(f"sweep best {best['weights']} is not the minimum by (threshold, total, vector)")
    return problems


def check_replay(label: str, payload: bytes, stored: bytes) -> list[str]:
    """A cache hit replays the stored report byte for byte."""
    if payload == stored:
        return []
    at = next((i for i, (a, b) in enumerate(zip(payload, stored)) if a != b), min(len(payload), len(stored)))
    return [f"{label}: payload differs from the stored cache file at byte {at}"]


def parse_poly_text(text: str) -> list[int]:
    """Ascending coefficients of a polynomial in d printed as ``12*d^3 - 153*d^2 - 378*d``."""
    text = text.strip()
    if text == "0":
        return []
    coeffs: dict[int, int] = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        match = re.fullmatch(r"(-?)(\d+)?(\*?d(?:\^(\d+))?)?", chunk)
        if match is None or not (match.group(2) or match.group(3)):
            raise ValueError(f"cannot parse term {chunk!r}")
        sign, mag, var, power = match.groups()
        exponent = 0 if var is None else int(power or 1)
        coeffs[exponent] = (-1 if sign else 1) * int(mag or 1)
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def parse_output(command: str, fmt: str, out: str) -> dict:
    """The report fields one CLI output carries: polynomial, and for bound also weights and threshold."""
    if command == "poly":
        if fmt == "json":
            return {"polynomial": [int(c) for c in json.loads(out)["polynomial"]]}
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))[1:]
            return {"polynomial": [int(c) for _, c in rows]}
        return {"polynomial": parse_poly_text(out)}
    if fmt == "json":
        data = json.loads(out)
        return {
            "polynomial": [int(c) for c in data["polynomial"]],
            "weights": tuple(data["weights"]),
            "threshold": data["threshold"],
        }
    if fmt == "csv":
        row = dict(zip(*list(csv.reader(io.StringIO(out)))))
        return {
            "polynomial": [int(c) for c in row["polynomial"].split(";")],
            "weights": tuple(int(w) for w in row["weights"].split(";")),
            "threshold": int(row["threshold"]) if row["threshold"] else None,
        }
    fields = {}
    for line in out.splitlines():
        name, sep, value = line.partition(" : ")
        if sep:
            fields[name.strip()] = value.strip()
    threshold = fields["threshold"]
    return {
        "polynomial": parse_poly_text(fields["P(d)"]),
        "weights": tuple(int(w) for w in fields["weights"].split(",")),
        "threshold": int(threshold) if threshold.isdigit() else None,
    }


def check_agreement(label: str, views: list[dict]) -> list[str]:
    """All outputs for one configuration carry the same polynomial, weights and threshold."""
    problems = []
    for field in ("polynomial", "weights", "threshold"):
        values = {repr(v[field]) for v in views if field in v}
        if len(values) > 1:
            problems.append(f"{label}: outputs disagree on {field}: {sorted(values)}")
    return problems
