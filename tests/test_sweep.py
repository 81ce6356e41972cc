"""Packed passes: several weight candidates of one tower share one pushforward."""

import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetbound import (
    TowerContext,
    compact_hypersurface,
    default_weights,
    enumerate_admissible,
    is_admissible,
    logarithmic_pair,
    morse,
    morse_class,
    pushforward_to_base,
)
from jetbound.cli import TABLE_CELLS, cached_reports
from jetbound.geometry import GeometrySpec
from jetbound.morse import _passes, coefficient_bound, compute_report, compute_reports
from jetbound.tower import RelationSet, pipeline_tower

RELATIONS = {(n, k): pipeline_tower(n, k)[0] for n in (2, 3) for k in range(1, 6)}
SWEEP_CANDIDATES = [w.a for w in enumerate_admissible(5, 12)]


def _untimed(report) -> dict:
    data = report.to_json_dict()
    del data["elapsed_ms"]
    return data


def _largest(base) -> int:
    return max((abs(c) for c in base._terms.values()), default=0)


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
def test_packed_reports_equal_one_job_reports(jobs):
    packed = compute_reports(jobs)
    alone = [compute_report(spec, len(a), a) for spec, a in jobs]
    assert [_untimed(r) for r in packed] == [_untimed(r) for r in alone]


def test_pool_chunks_equal_serial_passes():
    jobs = [
        (spec(2), a)
        for spec in (logarithmic_pair, compact_hypersurface)
        for a in ((2, 1), (6, 2, 1), (3, 1), (7, 2, 1), (5, 2))
    ]
    pooled = compute_reports(jobs, threads=2)
    assert [_untimed(r) for r in pooled] == [_untimed(r) for r in compute_reports(jobs)]


def test_sweep_candidates_packed_equal_unpacked(monkeypatch):
    spec = logarithmic_pair(3)
    passes = []
    pushforward = morse.pushforward_to_base

    def counting(p, rels):
        passes.append(len(p))
        return pushforward(p, rels)

    monkeypatch.setattr(morse, "pushforward_to_base", counting)
    packed = compute_reports([(spec, a) for a in SWEEP_CANDIDATES])
    assert len(passes) < len(SWEEP_CANDIDATES)  # the candidates did share passes
    alone = [compute_report(spec, len(a), a) for a in SWEEP_CANDIDATES]
    assert [_untimed(r) for r in packed] == [_untimed(r) for r in alone]
    assert [r.weights for r in packed] == SWEEP_CANDIDATES


def _slot_bound(rels, a) -> int:
    """The bound that sizes a packed pass's slots: every ``c_l`` taken at 1."""
    return coefficient_bound(rels, [1] * rels.ctx.r, a)


@pytest.mark.parametrize("cell", TABLE_CELLS)
def test_slot_bits_cover_table_base_classes(cell, table_bases):
    n, k = cell
    assert 0 < _largest(table_bases[cell]) <= _slot_bound(pipeline_tower(n, k)[0], default_weights(k).a)


def test_coefficient_bound_covers_sweep_candidates():
    rels = TowerContext(3, 5).relations
    top = [max(column) for column in zip(*SWEEP_CANDIDATES)]
    for a in SWEEP_CANDIDATES:
        base = pushforward_to_base(morse_class(rels.ctx, a), rels)
        assert 0 < _largest(base) <= _slot_bound(rels, a) <= _slot_bound(rels, top)


@st.composite
def lopsided(draw, k: int) -> tuple[int, ...]:
    """An admissible vector whose first weight may sit far above the ladder's proportion."""
    a = draw(admissible(k))
    return (a[0] + draw(st.one_of(st.integers(0, 5), st.integers(0, 10**6))),) + a[1:]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_slot_width_at_the_componentwise_maximum_covers_both_drawn_vectors(data):
    rels = RELATIONS[data.draw(st.sampled_from(sorted(RELATIONS)))]
    n, k = rels.ctx.n, rels.ctx.k
    vectors = [data.draw(lopsided(k)), data.draw(lopsided(k))]
    ((_, bits), *_) = _passes([(logarithmic_pair(n), a) for a in vectors])
    for a in vectors:
        base = pushforward_to_base(morse_class(rels.ctx, a), rels)
        assert _largest(base) <= _slot_bound(rels, a) < 2 ** (bits - 1)


def test_coefficient_bound_of_a_perturbed_tower_is_its_own_and_covers_it():
    rels = RELATIONS[3, 4]
    ctx = rels.ctx
    # the u1 coefficient of c_1 at level 1 goes from r-1 to r; the relation text stays
    lifted = (rels.lifted[0], (rels.lifted[1][0] + ctx.ring.variable(ctx.u(1)),) + rels.lifted[1][1:]) + rels.lifted[2:]
    perturbed = RelationSet(ctx, lifted, rels.relations)
    assert _slot_bound(perturbed, (18, 6, 2, 1)) > _slot_bound(rels, (18, 6, 2, 1))
    for a in [(18, 6, 2, 1), (19, 6, 2, 1), (1000, 6, 2, 1), (10**6, 300, 100, 7)]:
        base = pushforward_to_base(morse_class(ctx, a), perturbed)
        assert 0 < _largest(base) <= _slot_bound(perturbed, a)


def test_first_sweep_round_is_one_pass_with_one_slot_bound(monkeypatch):
    jobs = [(logarithmic_pair(3), a) for a in SWEEP_CANDIDATES]
    rels = pipeline_tower(3, 5)[0]
    seen, bounds = [], []
    pushforward, bound = morse.pushforward_to_base, morse.coefficient_bound

    def counting_pushforward(p, tower):
        seen.append(tower)
        return pushforward(p, tower)

    def counting_bound(tower, chern, weights):
        bounds.append((tower, tuple(chern)))
        return bound(tower, chern, weights)

    monkeypatch.setattr(morse, "pushforward_to_base", counting_pushforward)
    monkeypatch.setattr(morse, "coefficient_bound", counting_bound)
    for rounds in (1, 2):
        compute_reports(jobs)
        # one bound at c_l = 1 and one pushforward on the pipeline tower per round; nothing is kept
        assert seen == [rels] * rounds and bounds == [(rels, (1, 1, 1))] * rounds
    assert _passes(jobs) == [(list(range(12)), 85)]


def test_batches_of_one_compute_no_bound(monkeypatch, tmp_path):
    def refuse(rels, chern, weights):
        raise AssertionError("a batch of one computed a bound")

    monkeypatch.setattr(morse, "coefficient_bound", refuse)
    compute_report(logarithmic_pair(3), 3)
    table = [(GeometrySpec("log", n), default_weights(k).a) for n, k in TABLE_CELLS if n + k <= 7]
    assert len(cached_reports(table, 1, str(tmp_path))) == len(table)
    assert cached_reports([(compact_hypersurface(2), (19, 6, 2, 1))], 1, str(tmp_path))[0].weights == (19, 6, 2, 1)


def test_a_pool_starts_for_several_passes_only_and_receives_jobs_and_widths(monkeypatch):
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
    compute_reports([(logarithmic_pair(3), a) for a in SWEEP_CANDIDATES], threads=2)
    assert pools == []  # the 12 candidates are one pass
    jobs = [(logarithmic_pair(2), (2, 1)), (compact_hypersurface(2), (6, 2, 1)), (logarithmic_pair(3), (3, 1))]
    reports = compute_reports(jobs, threads=8)
    assert pools == [3]  # one worker per pass
    assert [(r.n, r.geometry, r.weights) for r in reports] == [(spec.n, spec.token, a) for spec, a in jobs]
    assert len(payloads) == 3 and not any(b"RelationSet" in payload for payload in payloads)


def test_pool_receives_the_slot_width_computed_once_per_tower(monkeypatch):
    calls, in_worker = [], [False]
    bound = morse.coefficient_bound

    def counting(rels, chern, weights):
        calls.append((rels.ctx.n, rels.ctx.k, in_worker[0]))
        return bound(rels, chern, weights)

    class RoundTripPool:
        """Stands in for ProcessPoolExecutor: pickles each argument tuple and result, starts no process."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            for args in zip(*iterables):
                in_worker[0] = True
                result = pickle.dumps(fn(*pickle.loads(pickle.dumps(args))))
                in_worker[0] = False
                yield pickle.loads(result)

    monkeypatch.setattr(morse, "coefficient_bound", counting)
    monkeypatch.setattr(morse, "ProcessPoolExecutor", RoundTripPool)
    jobs = [
        (logarithmic_pair(n), a)
        for a in [(2, 1), (6, 2, 1), (3, 1), (7, 2, 1), (10**40, 2), (9, 3, 1)]
        for n in (2, 3)
    ]
    assert len(_passes(jobs)) > 4  # a first weight of 10^40 leaves one slot per pass on the k = 2 towers
    calls.clear()
    pooled = compute_reports(jobs, threads=2)
    assert sorted(calls) == [(2, 2, False), (2, 3, False), (3, 2, False), (3, 3, False)]
    assert [_untimed(r) for r in pooled] == [_untimed(r) for r in compute_reports(jobs)]


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


def test_mixed_towers_push_forward_once_per_packed_tower_and_single_jobs_run_none(monkeypatch):
    seen = []
    pushforward = morse.pushforward_to_base

    def recording(p, rels):
        seen.append(rels)
        return pushforward(p, rels)

    jobs = [
        (geometry(n), a)
        for geometry in (logarithmic_pair, compact_hypersurface)
        for n, a in ((2, (2, 1)), (3, (6, 2, 1)), (2, (7, 2, 1)), (3, (3, 1)), (3, (4, 1)))
    ] + [(compact_hypersurface(2), (18, 6, 2, 1))]
    towers = {(2, 2), (2, 3), (3, 3), (3, 2), (2, 4)}
    monkeypatch.setattr(morse, "pushforward_to_base", recording)
    reports = compute_reports(jobs)
    # each packed tower is pushed forward once, on its pipeline tower
    assert all(rels is pipeline_tower(rels.ctx.n, rels.ctx.k)[0] for rels in seen)
    assert sorted((rels.ctx.n, rels.ctx.k) for rels in seen) == sorted(towers - {(2, 4)})
    # the one job of (2, 4) runs none: it is integrated as products of Segre classes
    assert [(r.n, r.k, r.geometry, r.weights) for r in reports] == [
        (spec.n, len(a), spec.token, a) for spec, a in jobs
    ]
