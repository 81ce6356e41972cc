"""The benchmark's correctness checks reject deliberately wrong outputs.

Run with: python3 -m pytest perfbench -q
"""

import json

import checks

# P(d) of the logarithmic (2, 2) cell, ascending in d; its threshold is 15.
P22 = [0, -378, -153, 12]


def test_threshold_accepts_the_true_threshold():
    assert checks.check_threshold("(2, 2)", P22, 15) == []


def test_threshold_rejects_off_by_one():
    assert checks.check_threshold("(2, 2)", P22, 14)
    assert checks.check_threshold("(2, 2)", P22, 16)


def test_threshold_rejects_absent_or_nonpositive():
    assert checks.check_threshold("(2, 2)", P22, None)
    assert checks.check_threshold("(2, 2)", [0, 5, -1], 3)


def test_root_bound_dominates():
    bound = checks.root_bound(P22)
    assert all(checks.evaluate(P22, x) > 0 for x in range(bound, 4 * bound))


def test_shape_rejects_wrong_degree():
    assert checks.check_shape("(2, 2)", P22, 2) == []
    assert checks.check_shape("(2, 2)", P22, 3)


def test_table_bounds_accept_published_and_reject_a_changed_bound():
    thresholds = dict(checks.PUBLISHED_LOG_BOUNDS)
    thresholds[(3, 5)] = 68
    bounds = dict(checks.PUBLISHED_LOG_BOUNDS)
    assert checks.check_table_bounds(thresholds, bounds) == []
    bounds[(3, 5)] = 68
    assert checks.check_table_bounds(thresholds, bounds)


def test_table_bounds_reject_a_bound_that_is_not_the_least_threshold():
    thresholds = dict(checks.PUBLISHED_LOG_BOUNDS)
    thresholds[(3, 4)] = 66
    assert checks.check_table_bounds(thresholds, dict(checks.PUBLISHED_LOG_BOUNDS))


def test_twin_rejects_a_polynomial_that_is_not_2_to_the_n_times_its_half():
    twin = [c << 13 for c in P22]
    assert checks.check_twin(P22, twin, 13) == []
    assert checks.check_twin(P22, twin, 12)
    twin[1] += 1
    assert checks.check_twin(P22, twin, 13)


def test_replay_rejects_one_changed_byte():
    stored = (json.dumps({"dim": 2, "polynomial": ["0", "-378"]}, indent=2) + "\n").encode()
    assert checks.check_replay("(2, 2)", stored, stored) == []
    changed = bytearray(stored)
    changed[10] ^= 1
    assert checks.check_replay("(2, 2)", bytes(changed), stored)
    assert checks.check_replay("(2, 2)", stored + b" ", stored)


def test_sweep_rejects_a_wrong_best_and_a_short_count():
    reports = [
        {"weights": [54, 18, 6, 2, 1], "threshold": 68},
        {"weights": [55, 18, 6, 2, 1], "threshold": 68},
        {"weights": [56, 18, 6, 2, 1], "threshold": 70},
    ]
    assert checks.check_sweep(reports, reports[0], 3, 3) == []
    assert checks.check_sweep(reports, reports[1], 3, 3)
    assert checks.check_sweep(reports, reports[0], 2, 3)
    assert checks.check_sweep(reports + [reports[0]], reports[0], 4, 4)


def test_admissibility():
    assert checks.admissible((54, 18, 6, 2, 1))
    assert not checks.admissible((53, 18, 6, 2, 1))
    assert not checks.admissible((6, 3, 2))


def test_parse_text_polynomial():
    assert checks.parse_poly_text("12*d^3 - 153*d^2 - 378*d") == P22
    assert checks.parse_poly_text("d^2 - d + 7") == [7, -1, 1]
    assert checks.parse_poly_text("-2*d") == [0, -2]


def test_agreement_rejects_formats_that_disagree():
    text = checks.parse_output("poly", "text", "12*d^3 - 153*d^2 - 378*d\n")
    csv_view = checks.parse_output("poly", "csv", "power,coefficient\n0,0\n1,-378\n2,-153\n3,12\n")
    bound_csv = checks.parse_output(
        "bound", "csv",
        "dim,order,geometry,weights,total_dim,leading_coeff,threshold,polynomial\n"
        "2,2,log,2;1,4,12,15,0;-378;-153;12\n",
    )
    assert checks.check_agreement("(2, 2)", [text, csv_view, bound_csv]) == []
    wrong = dict(bound_csv, threshold=14)
    assert checks.check_agreement("(2, 2)", [text, bound_csv, wrong])
