"""Packed passes: several weight candidates of one tower share one pushforward."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetbound import (
    TowerContext,
    compact_hypersurface,
    default_weights,
    enumerate_admissible,
    logarithmic_pair,
    morse,
    morse_class,
    pushforward_to_base,
)
from jetbound.cli import TABLE_CELLS
from jetbound.morse import compute_batch, slot_bits
from jetbound.sweep import Job, compute_reports

RELATIONS = {(n, k): TowerContext(n, k).relations for n in (2, 3) for k in range(1, 5)}
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
def job_lists(draw) -> list[Job]:
    """Jobs on towers n = 2, 3 and k = 1..4 in any order, each in either geometry."""
    cells = draw(st.lists(st.sampled_from(sorted(RELATIONS)), min_size=1, max_size=7))
    return [
        Job(draw(st.sampled_from((logarithmic_pair, compact_hypersurface)))(n), draw(admissible(k)), RELATIONS[n, k])
        for n, k in cells
    ]


@settings(max_examples=25, deadline=None)
@given(job_lists())
def test_packed_reports_equal_one_job_reports(jobs):
    packed = compute_reports(jobs)
    alone = [compute_batch(job.rels, [(job.spec, job.weights)])[0] for job in jobs]
    assert [_untimed(r) for r in packed] == [_untimed(r) for r in alone]


def test_pool_chunks_equal_serial_passes():
    jobs = [
        Job(spec(2), a, RELATIONS[2, k])
        for spec in (logarithmic_pair, compact_hypersurface)
        for k, a in ((2, (2, 1)), (3, (6, 2, 1)), (2, (3, 1)), (3, (7, 2, 1)), (2, (5, 2)))
    ]
    pooled = compute_reports(jobs, threads=2)
    assert [_untimed(r) for r in pooled] == [_untimed(r) for r in compute_reports(jobs)]


def test_sweep_candidates_packed_equal_unpacked(monkeypatch):
    spec, rels = logarithmic_pair(3), TowerContext(3, 5).relations
    passes = []
    pushforward = morse.pushforward_to_base

    def counting(p, rels):
        passes.append(len(p))
        return pushforward(p, rels)

    monkeypatch.setattr(morse, "pushforward_to_base", counting)
    packed = compute_reports([Job(spec, a, rels) for a in SWEEP_CANDIDATES])
    assert len(passes) < len(SWEEP_CANDIDATES)  # the candidates did share passes
    alone = [compute_batch(rels, [(spec, a)])[0] for a in SWEEP_CANDIDATES]
    assert [_untimed(r) for r in packed] == [_untimed(r) for r in alone]
    assert [r.weights for r in packed] == SWEEP_CANDIDATES


@pytest.mark.parametrize("cell", TABLE_CELLS)
def test_slot_bits_cover_table_base_classes(cell, table_bases):
    n, k = cell
    bits = slot_bits(TowerContext(n, k).relations, default_weights(k).total)
    assert 0 < _largest(table_bases[cell]) < 2 ** (bits - 1)


def test_slot_bits_cover_sweep_candidates():
    rels = TowerContext(3, 5).relations
    for a in SWEEP_CANDIDATES:
        base = pushforward_to_base(morse_class(rels.ctx, a), rels)
        assert 0 < _largest(base) < 2 ** (slot_bits(rels, sum(a)) - 1)
