"""Sweeps: every weight candidate is a job, run in order in this process, sharing the levels of its tower."""

import time
import types
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetbound import (
    compact_hypersurface,
    compute_report,
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

RELATIONS = {(n, k): pipeline_tower(n, k) for n in (2, 3) for k in range(1, 6)}
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


def _alone(jobs):
    return [_untimed(compute_report(spec, len(a), a)) for spec, a in jobs]


MIXED_JOBS = [
    (geometry(n), a)
    for geometry in (logarithmic_pair, compact_hypersurface)
    for n, a in (
        (3, SWEEP_CANDIDATES[3]),
        (2, (6, 2, 1)),
        (3, SWEEP_CANDIDATES[0]),
        (2, (2, 1)),
        (3, SWEEP_CANDIDATES[3]),  # a duplicate
        (4, (6, 2, 1)),
        (3, (6, 2, 1)),
        (2, (7, 2, 1)),
        (3, SWEEP_CANDIDATES[11]),
        (2, (2, 1)),  # a duplicate
        (2, (5, 2)),
    )
]


@pytest.mark.parametrize("order", ["as listed", "interleaved", "reversed"])
def test_mixed_job_lists_equal_each_job_alone(order):
    jobs = {
        "as listed": MIXED_JOBS,
        "interleaved": MIXED_JOBS[::2] + MIXED_JOBS[1::2],
        "reversed": MIXED_JOBS[::-1],
    }[order]
    assert [_untimed(r) for r in compute_reports(jobs)] == _alone(jobs)


def test_each_report_carries_its_towers_time_over_its_towers_job_count(monkeypatch):
    # a clock that advances by 3/8 s over the first tower read and by 1/2 s over the second
    readings = iter([0.0, 0.375, 1.0, 1.5, 2.0, 2.25])
    monkeypatch.setattr(morse, "time", types.SimpleNamespace(perf_counter=lambda: next(readings)))
    assert compute_reports([]) == []  # no tower, no reading
    jobs = [  # three jobs on the (2,2) tower, log and compact, and two on the (3,3) tower
        (logarithmic_pair(2), (2, 1)),
        (logarithmic_pair(3), (6, 2, 1)),
        (compact_hypersurface(2), (3, 1)),
        (logarithmic_pair(2), (5, 2)),
        (compact_hypersurface(3), (7, 2, 1)),
    ]
    assert [r.elapsed_ms for r in compute_reports(jobs)] == [125.0, 250.0, 125.0, 125.0, 250.0]
    assert compute_report(logarithmic_pair(3), 2).elapsed_ms == 250.0  # a job alone keeps its own time
    assert next(readings, None) is None  # two readings per tower


class _Expansion(dict):
    """An expansion that ``morse._expand`` returned, numbered in call order; unlike a dict, weakly referable."""


@pytest.fixture
def level_steps(monkeypatch):
    """Records the calls of ``morse._expand``, ``morse._spend`` and ``morse._read_out``, from emptied readout memos.

    ``expands`` holds ``(bits, states, alive)`` per call, ``alive`` the number of earlier expansions still held
    by anyone at that call; ``spends`` holds ``(number of the expansion spent, x, below)``, x the level's weight
    ``factors[1]``; ``reads`` holds the ``(bits, key)`` of each level-1 key read out; ``refs`` weakly refers to
    each expansion, so a test can tell which ones the run still holds.
    """
    calls = types.SimpleNamespace(expands=[], spends=[], reads=[], refs=[])
    expand, spend, read_out = morse._expand, morse._spend, morse._read_out

    def counted_expand(r, states, bits):
        alive = sum(ref() is not None for ref in calls.refs)
        expansion = _Expansion(expand(r, states, bits))
        expansion.number = len(calls.refs)
        calls.expands.append((bits, dict(states), alive))
        calls.refs.append(weakref.ref(expansion))
        return expansion

    def counted_spend(r, expansion, factors, units, bits):
        below = spend(r, expansion, factors, units, bits)
        calls.spends.append((expansion.number, factors[1], below))
        return below

    def counted_read_out(spec, bits, key):
        calls.reads.append((bits, key))
        return read_out(spec, bits, key)

    morse._level_one_readouts.cache_clear()
    monkeypatch.setattr(morse, "_expand", counted_expand)
    monkeypatch.setattr(morse, "_spend", counted_spend)
    monkeypatch.setattr(morse, "_read_out", counted_read_out)
    yield calls
    morse._level_one_readouts.cache_clear()


def test_sweep_candidates_share_the_levels_their_weights_agree_on(level_steps):
    # the 12 candidates (54..61, 18|19, 6, 2, 1) share a_3..a_5 and take two values of a_2: levels 5, 4, 3
    # and 2 are expanded once each and spent once, but for level 2, whose one expansion is spent for both
    # values of a_2, on 4-bit keys since N = 13; level 1 takes no step of a candidate's own: each key the two
    # level-2 spends reach is read out once per geometry
    jobs = [(spec(3), a) for a in SWEEP_CANDIDATES for spec in (logarithmic_pair, compact_hypersurface)]
    assert len({a[1] for a in SWEEP_CANDIDATES}) == 2 and len({a[2:] for a in SWEEP_CANDIDATES}) == 1
    reports = compute_reports(jobs)
    # no later suffix spends levels 5..3 again, so each of their expansions is dropped before the next is made
    assert [(bits, alive) for bits, _, alive in level_steps.expands] == [(4, 0)] * 4
    assert [(number, x) for number, x, _ in level_steps.spends] == [(0, 1), (1, 2), (2, 6), (3, 18), (3, 19)]
    # each level's states enter the next level's expansion
    assert [states for _, states, _ in level_steps.expands[1:]] == [below for *_, below in level_steps.spends[:3]]
    level_one = {key for *_, below in level_steps.spends[3:] for key in below}
    # levels 5..2 spend 4 * (r - 1) = 8 of the 13 powers of L, so the powers entering level 1 are 0..5
    assert {key & 15 for key in level_one} == set(range(6))
    assert Counter(level_steps.reads) == {(4, key): 2 for key in level_one}
    # the walk drops the expansions with the run
    assert all(ref() is None for ref in level_steps.refs)
    assert [_untimed(r) for r in reports] == _alone(jobs)


def test_an_expansion_lives_until_the_last_suffix_that_spends_it(level_steps):
    # the suffixes walk as (6, 2, 1), (7, 2, 1), (9, 3, 1): the second shares levels 4 and 3 with the first
    # and spends its level-2 expansion again; the third shares level 4 alone and spends again the level-3
    # expansion, which the walk kept across the second: four expansions and six spends
    jobs = [(logarithmic_pair(3), (30, *suffix)) for suffix in ((9, 3, 1), (6, 2, 1), (7, 2, 1))]
    reports = compute_reports(jobs)
    assert [alive for *_, alive in level_steps.expands] == [0, 0, 1, 0]
    assert [(number, x) for number, x, _ in level_steps.spends] == [(0, 1), (1, 2), (2, 6), (2, 7), (1, 3), (3, 9)]
    assert all(ref() is None for ref in level_steps.refs)
    assert [_untimed(r) for r in reports] == _alone(jobs)


# the powers of L that enter level 1 for each n of the parametrization below
LEVEL_ONE_POWERS = {2: [0, 1, 2, 3], 3: [0, 1, 2, 3, 4, 5], 4: [3, 4, 5, 7]}


@pytest.mark.parametrize("n,a", [(2, (2, 1)), (3, SWEEP_CANDIDATES[5]), (4, (1,))])
def test_one_job_takes_one_step_per_level(level_steps, n, a):
    # one expansion and one spend per level above 1, on keys of N.bit_length() bits, each expansion dropped
    # before the next level's is made, then one readout per state entering level 1, which a second run of
    # the job finds in the memo: (2, 2) has N = 4, (3, 5) 13 and (4, 1) 7, whose level-1 states are the
    # powers n - 1 + n - beta of its class
    spec, k, N = compact_hypersurface(n), len(a), n + len(a) * (n - 1)
    compute_reports([(spec, a)])
    assert [(bits, alive) for bits, _, alive in level_steps.expands] == [(N.bit_length(), 0)] * (k - 1)
    assert [number for number, *_ in level_steps.spends] == list(range(k - 1))
    assert all(ref() is None for ref in level_steps.refs)  # a lone job keeps no expansion after its run
    entering = level_steps.spends[-1][2] if k > 1 else {N - beta: None for beta in (0, *range(2, n + 1))}
    assert sorted(level_steps.reads) == sorted((N.bit_length(), key) for key in entering)
    assert sorted({key & (1 << N.bit_length()) - 1 for key in entering}) == LEVEL_ONE_POWERS[n]
    done = len(level_steps.reads)
    compute_reports([(spec, a)])
    assert len(level_steps.expands) == len(level_steps.spends) == 2 * (k - 1) and len(level_steps.reads) == done


def test_each_level_one_key_is_read_out_once_per_geometry_and_width(level_steps):
    def read_out(jobs):
        done = len(level_steps.reads)
        compute_reports(jobs)
        return level_steps.reads[done:]

    keys = read_out([(logarithmic_pair(3), SWEEP_CANDIDATES[0])])
    assert keys and len(set(keys)) == len(keys) and {bits for bits, _ in keys} == {4}
    # other weights reach the same level-1 keys, which the memo holds
    assert read_out([(logarithmic_pair(3), a) for a in SWEEP_CANDIDATES[1:]]) == []
    # the other geometry reads each of them once more
    assert sorted(read_out([(compact_hypersurface(3), SWEEP_CANDIDATES[1])])) == sorted(keys)
    # a level-1 state's indices and M sum to 2n - 1 - beta whatever k is, and k - 1 levels add at most
    # k - 1 indices, so (3, 4), N = 11, whose keys have the same width, reaches no key the memo lacks;
    # (3, 9), N = 21, reads its keys again at 5 bits, and reaches at least those of (3, 5)
    assert read_out([(logarithmic_pair(3), default_weights(4).a)]) == []
    wide = read_out([(logarithmic_pair(3), default_weights(9).a)])
    assert {bits for bits, _ in wide} == {5} and len(set(wide)) == len(wide) >= len(keys)


def test_a_sweep_round_validates_each_candidate_once(monkeypatch):
    # the ladder once, as the enumeration's starting total, and each of the 12 candidates once: the
    # WeightVector the enumeration built goes into compute_reports as it is
    calls = []
    check = morse.is_admissible
    monkeypatch.setattr(morse, "is_admissible", lambda a: calls.append(a) or check(a))
    result = run_sweep(logarithmic_pair(3), 5, 12)
    assert result.evaluated == 12 and len(calls) == 13
    assert sorted(calls) == sorted([default_weights(5).a] + SWEEP_CANDIDATES)


def test_jobs_sharing_a_2_to_a_k_in_both_geometries_equal_each_job_alone(level_steps):
    # a_1 is applied at the base, so each tower's jobs with one suffix a_2..a_k step level 1 together
    jobs = [
        (geometry(n), (a_1,) + suffix)
        for a_1 in (22, 21, 25)
        for n, suffix in ((3, (6, 2, 1)), (2, (6, 2, 1)), (3, (7, 2, 1)))
        for geometry in (compact_hypersurface, logarithmic_pair)
    ]
    reports = compute_reports(jobs)
    # n = 3 expands levels 4..2 once and spends level 2 for a_2 = 6 and 7, n = 2 expands and spends 4..2 once
    assert len(level_steps.expands) == 3 + 3 and len(level_steps.spends) == 4 + 3
    assert [_untimed(r) for r in reports] == _alone(jobs)


def test_order_one_jobs_equal_each_job_alone():
    jobs = [(geometry(n), (a,)) for n in (2, 3, 4) for a in (1, 2, 5) for geometry in (logarithmic_pair, compact_hypersurface)]
    assert [_untimed(r) for r in compute_reports(jobs)] == _alone(jobs)


def test_duplicated_vectors_equal_each_job_alone():
    jobs = [(logarithmic_pair(3), SWEEP_CANDIDATES[4])] * 3 + [(compact_hypersurface(3), SWEEP_CANDIDATES[4])] * 2
    jobs += [(logarithmic_pair(2), (2, 1)), (logarithmic_pair(2), (2, 1))]
    reports = compute_reports(jobs)
    assert [_untimed(r) for r in reports] == _alone(jobs)
    assert reports[0].morse_poly != reports[3].morse_poly  # the geometries differ


def test_first_sixty_5_5_candidates_equal_each_job_alone():
    jobs = [(logarithmic_pair(5), w.a) for w in enumerate_admissible(5, 60)]
    reports = compute_reports(jobs)
    assert reports[0].threshold == 1154 and len({r.morse_poly for r in reports}) == 60
    assert [_untimed(r) for r in reports] == _alone(jobs)


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
