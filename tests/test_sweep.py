"""Sweeps: every weight candidate is a job of its own, run in order, serially or on a pool."""

import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetbound import (
    compact_hypersurface,
    default_weights,
    degree_threshold,
    enumerate_admissible,
    evaluate_in_degree,
    is_admissible,
    logarithmic_pair,
    morse,
    morse_class,
    pushforward_to_base,
    run_sweep,
)
from jetbound.geometry import GeometrySpec
from jetbound.morse import compute_reports
from jetbound.tower import pipeline_tower

RELATIONS = {(n, k): pipeline_tower(n, k)[0] for n in (2, 3) for k in range(1, 6)}
SWEEP_CANDIDATES = [w.a for w in enumerate_admissible(5, 12)]


def _untimed(report) -> dict:
    data = report.to_json_dict()
    del data["elapsed_ms"]
    return data


def _assert_reports_are_the_pushforward(reports, jobs):
    """Each report holds its job's ``P(d)`` by the reference engine: the class pushed forward, then evaluated."""
    assert len(reports) == len(jobs)
    for report, (spec, a) in zip(reports, jobs):
        rels = RELATIONS[spec.n, len(a)]
        P = evaluate_in_degree(rels.ctx, pushforward_to_base(morse_class(rels.ctx, a), rels), spec)
        assert (report.n, report.k, report.geometry, report.weights) == (spec.n, len(a), spec.token, a)
        assert report.morse_poly == P and report.threshold == degree_threshold(P)


@st.composite
def admissible(draw, k: int) -> tuple[int, ...]:
    """a_k >= 1, a_(k-1) >= 2 a_k and a_j >= 3 a_(j+1) below, each with a small excess."""
    a = [draw(st.integers(1, 3))]
    for _ in range(k - 1):
        a.insert(0, (2 if len(a) == 1 else 3) * a[0] + draw(st.integers(0, 4)))
    return tuple(a)


@st.composite
def job_lists(draw) -> list[tuple[GeometrySpec, tuple[int, ...]]]:
    """Jobs on towers n = 2, 3 and k = 1..4 in any order, each in either geometry."""
    cells = draw(st.lists(st.sampled_from([c for c in sorted(RELATIONS) if c[1] <= 4]), min_size=1, max_size=7))
    geometries = st.sampled_from((logarithmic_pair, compact_hypersurface))
    return [(draw(geometries)(n), draw(admissible(k))) for n, k in cells]


@settings(max_examples=25, deadline=None)
@given(job_lists())
def test_job_reports_equal_the_pushforward_of_their_class(jobs):
    _assert_reports_are_the_pushforward(compute_reports(jobs), jobs)


def test_pool_chunks_equal_serial_passes():
    jobs = [
        (spec(2), a)
        for spec in (logarithmic_pair, compact_hypersurface)
        for a in ((2, 1), (6, 2, 1), (3, 1), (7, 2, 1), (5, 2))
    ]
    pooled = compute_reports(jobs, threads=2)
    assert [_untimed(r) for r in pooled] == [_untimed(r) for r in compute_reports(jobs)]


def test_sweep_candidates_equal_the_pushforward_of_their_class():
    jobs = [(logarithmic_pair(3), a) for a in SWEEP_CANDIDATES]
    _assert_reports_are_the_pushforward(compute_reports(jobs), jobs)


@pytest.fixture
def no_pushforward(monkeypatch):
    """Makes forming a class, running a pushforward or evaluating one raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a job formed a class or ran a pushforward")

    for name in ("TowerContext", "morse_class", "pushforward_to_base", "evaluate_in_degree"):
        monkeypatch.setattr(morse, name, refuse)


def test_no_job_of_two_sweep_rounds_runs_a_pushforward(no_pushforward):
    for _ in range(2):  # two sweep rounds on one tower
        assert run_sweep(logarithmic_pair(3), 5, len(SWEEP_CANDIDATES)).best.weights == SWEEP_CANDIDATES[0]


def test_no_job_of_mixed_towers_runs_a_pushforward(no_pushforward):
    jobs = [
        (geometry(n), a)
        for geometry in (logarithmic_pair, compact_hypersurface)
        for n, a in ((2, (2, 1)), (3, (6, 2, 1)), (2, (7, 2, 1)), (3, (3, 1)), (3, (4, 1)))
    ] + [(compact_hypersurface(2), (18, 6, 2, 1))]
    reports = compute_reports(jobs)
    assert [(r.n, r.k, r.geometry, r.weights) for r in reports] == [
        (spec.n, len(a), spec.token, a) for spec, a in jobs
    ]


def test_a_pool_starts_for_several_jobs_only_and_receives_specs_and_weights(monkeypatch):
    pools, payloads = [], []

    class PicklingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, pickles each argument tuple, starts no process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            for args in zip(*iterables):
                payloads.append(pickle.dumps(args))
                yield fn(*pickle.loads(payloads[-1]))

    monkeypatch.setattr(morse, "ProcessPoolExecutor", PicklingPool)
    assert compute_reports([], threads=2) == []  # what an all-hit CLI run passes
    assert compute_reports([(logarithmic_pair(3), SWEEP_CANDIDATES[0])], threads=2)[0].threshold == 68
    assert pools == []
    jobs = [(logarithmic_pair(2), (2, 1)), (compact_hypersurface(2), (6, 2, 1)), (logarithmic_pair(3), (3, 1))]
    reports = compute_reports(jobs, threads=8)
    assert pools == [3]  # one worker per job
    assert [(r.n, r.geometry, r.weights) for r in reports] == [(spec.n, spec.token, a) for spec, a in jobs]
    assert [pickle.loads(payload) for payload in payloads] == [(job,) for job in jobs]
    assert not any(b"RelationSet" in payload for payload in payloads)


@pytest.mark.parametrize("k", range(1, 7))
def test_enumeration_is_the_checker_filtered_in_total_lex_order(k):
    # every vector of each total with a_1 the rest, filtered by is_admissible and sorted; each
    # suffix of an admissible vector is admissible, and the chain gives a_j <= a_1 L_j / L_1 for
    # the ladder L, so suffixes are filtered as they grow, which keeps k = 6 small
    ladder = default_weights(k).a
    brute, total = [], 1
    while len(brute) < 30:
        rests = [()]
        for j in range(k - 1, 0, -1):
            cap = total * ladder[j] // ladder[0]
            rests = [(x,) + rest for rest in rests for x in range(1, cap + 1) if is_admissible((x,) + rest)]
        brute += sorted(a for a in ((total - sum(rest),) + rest for rest in rests) if is_admissible(a))
        total += 1
    assert [w.a for w in enumerate_admissible(k, 30)] == brute[:30]


@pytest.mark.parametrize("k,count", [(8, 3), (40, 2)])
def test_enumeration_at_a_high_order_starts_with_the_ladder_at_once(k, count):
    start = time.perf_counter()
    vectors = enumerate_admissible(k, count)
    assert time.perf_counter() - start < 1.0
    assert vectors[0] == default_weights(k) and len(vectors) == count
    assert all(sum(w.a) == 3 ** (k - 1) + i for i, w in enumerate(vectors))
