"""Command-line behaviour: formats, exit codes, cache, sweep, verify."""

import contextlib
import csv
import io
import json
import os
import pathlib
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetbound import enumerate_admissible, logarithmic_pair, run_sweep
from jetbound.cli import main
from jetbound.polyring import Ring


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXPECTED = pathlib.Path(__file__).parent / "cli_expected"


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_bound_text_threshold(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "bound", "--dim", "2", "--order", "2", "--geometry", "log",
        "--weights", "2,1", "--cache-dir", cache_dir,
    )
    assert code == 0
    assert "threshold : 15" in out
    assert "P(d)      : 12*d^3 - 153*d^2 - 378*d" in out


def test_bound_json_schema(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "bound", "--dim", "2", "--order", "3", "--geometry", "log",
        "--format", "json", "--cache-dir", cache_dir,
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == [
        "dim", "order", "geometry", "weights", "total_dim",
        "polynomial", "leading_coeff", "threshold", "elapsed_ms",
    ]
    assert data["dim"] == 2 and data["order"] == 3
    assert data["geometry"] == "log"
    assert data["weights"] == [6, 2, 1]
    assert data["threshold"] == 14
    assert all(isinstance(c, str) for c in data["polynomial"])
    assert isinstance(data["leading_coeff"], str)
    assert isinstance(data["elapsed_ms"], (int, float))


def test_bound_order_three_dimension_three(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "bound", "--dim", "3", "--order", "3", "--geometry", "log",
        "--cache-dir", cache_dir,
    )
    assert code == 0
    assert "threshold : 75" in out
    assert "weights   : 6,2,1" in out


def test_bound_degenerate_order_is_flagged(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "bound", "--dim", "2", "--order", "1", "--cache-dir", cache_dir,
    )
    assert code == 3  # order 1 on a surface has non-positive leading coefficient
    assert "degenerate" in out


def test_bound_exit_code_no_threshold(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "bound", "--dim", "3", "--order", "2", "--geometry", "log",
        "--cache-dir", cache_dir,
    )
    assert code == 3
    assert "threshold : none" in out


def test_bound_exit_code_bad_weights(capsys, cache_dir):
    code, _, err = run_cli(
        capsys, "bound", "--dim", "2", "--order", "2", "--weights", "1,1",
        "--cache-dir", cache_dir,
    )
    assert code == 2 and "admissibility" in err
    code, _, err = run_cli(
        capsys, "bound", "--dim", "2", "--order", "2", "--weights", "chaos",
        "--cache-dir", cache_dir,
    )
    assert code == 2


#: Forming a cache key and building a relation set, which no refused command may reach.
KEY_AND_RELATIONS = ("jetbound.cache.cache_key", "jetbound.tower.build_relations")


def _refuse(monkeypatch, *targets):
    """Make each dotted ``target`` raise ``AssertionError`` when called."""
    for target in targets:
        def refuse(*args, target=target, **kwargs):
            raise AssertionError(f"{target} was called")

        monkeypatch.setattr(target, refuse)


@pytest.mark.parametrize(
    "command,order,weights",
    [("bound", "3", "2,1"), ("poly", "1", "6,2,1"), ("bound", "2", ""), ("poly", "2", "")],
)
def test_weight_count_other_than_order_exits_2_before_anything_is_built(
    capsys, tmp_path, monkeypatch, command, order, weights
):
    # an empty list is no list at all, not the default ladder
    _refuse(monkeypatch, "jetbound.cli.TowerContext", *KEY_AND_RELATIONS)
    code, out, err = run_cli(capsys, command, "--dim", "2", "--order", order, "--weights", weights,
                             "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert out == ""
    if weights:
        assert err == f"error: got {len(weights.split(','))} weights for a tower of order {order}\n"
    else:
        assert err == "error: weights '' are not a comma-separated integer list\n"
    assert not (tmp_path / "cache").exists()


def test_an_oversized_job_exits_2_before_any_tower_is_built(capsys, tmp_path, monkeypatch):
    _refuse(monkeypatch, *KEY_AND_RELATIONS)
    code, out, err = run_cli(capsys, "bound", "--dim", "2", "--order", "40", "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert out == ""
    assert err == ("error: the Morse class of the (2, 40) tower has 309785580566094139142020 terms,"
                   " above the limit of 2000000\n")
    assert not (tmp_path / "cache").exists()


def test_an_oversized_sweep_exits_2_before_any_tower_is_built(capsys, tmp_path, monkeypatch):
    _refuse(monkeypatch, *KEY_AND_RELATIONS)
    code, out, err = run_cli(capsys, "sweep", "--dim", "2", "--order", "40", "--budget", "2",
                             "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert out == ""
    assert err == ("error: the Morse class of the (2, 40) tower has 309785580566094139142020 terms,"
                   " above the limit of 2000000\n")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("dim,order,terms", [("2", "40", 309785580566094139142020), ("6", "6", 4587778)],
                         ids=["2-40", "6-6"])
def test_an_oversized_sweep_exits_2_before_its_candidates_are_enumerated(capsys, tmp_path, monkeypatch,
                                                                         dim, order, terms):
    def refuse(*args):
        raise AssertionError("the candidates were enumerated")

    monkeypatch.setattr("jetbound.sweep.enumerate_admissible", refuse)
    code, out, err = run_cli(capsys, "sweep", "--dim", dim, "--order", order, "--budget", "100000",
                             "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert out == ""
    assert err == f"error: the Morse class of the ({dim}, {order}) tower has {terms} terms, above the limit of 2000000\n"
    assert not (tmp_path / "cache").exists()


def test_bound_huge_weights_threshold(capsys, cache_dir):
    code, out, _ = run_cli(capsys, "bound", "--dim", "2", "--order", "2",
                           "--weights", "99999999999999999999,1", "--cache-dir", cache_dir)
    assert code == 0
    assert "threshold : 200000000000000000006\n" in out


def test_bound_exit_code_low_dimension(capsys, cache_dir):
    code, _, err = run_cli(capsys, "bound", "--dim", "1", "--order", "1", "--cache-dir", cache_dir)
    assert code == 2 and "--dim" in err


@pytest.mark.parametrize("command", ["bound", "poly", "sweep"])
@pytest.mark.parametrize("order", ["0", "-1"])
def test_order_below_one_exits_2(capsys, cache_dir, command, order):
    code, out, err = run_cli(capsys, command, "--dim", "2", "--order", order,
                             "--cache-dir", cache_dir)
    assert code == 2
    assert out == ""
    assert err == f"{command} requires --order >= 1\n"


def _corrupt_only_entry(cache_dir, damage=lambda data: data[:40]):
    (path,) = [os.path.join(cache_dir, name) for name in os.listdir(cache_dir)]
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(damage(data))
    return path


def _with_field(name, value):
    """Damage that sets one field of the stored report: the file still decodes."""
    def damage(data):
        report = json.loads(data)
        report[name] = value
        return json.dumps(report).encode()
    return damage


def _with_coefficient(i, value):
    """Damage that sets polynomial entry ``i`` of the stored report to ``value(entry)``."""
    def damage(data):
        report = json.loads(data)
        report["polynomial"][i] = value(report["polynomial"][i])
        return json.dumps(report).encode()
    return damage


# stored reports whose fields disagree, by test id
_BAD_FIELDS = {
    "threshold-text": _with_field("threshold", "abc"),
    "threshold-bool": _with_field("threshold", True),
    "total-dim": _with_field("total_dim", 99),
    "leading-coeff": _with_field("leading_coeff", "7"),
    "empty-polynomial": _with_field("polynomial", []),
    "elapsed-text": _with_field("elapsed_ms", "fast"),
    "dim-float": _with_field("dim", 2.0),
    "order-float": _with_field("order", 2.0),
    "total-dim-float": _with_field("total_dim", 4.0),
    "weights-float": _with_field("weights", [2.0, 1.0]),
    "elapsed-nan": _with_field("elapsed_ms", float("nan")),
    "elapsed-inf": _with_field("elapsed_ms", float("inf")),
    "polynomial-float": _with_coefficient(1, lambda c: int(c) + 0.5),
    "polynomial-bool": _with_coefficient(0, lambda c: False),
    "polynomial-noncanonical": _with_coefficient(-1, lambda c: "0" + c),
}


@pytest.mark.parametrize("damage", [
    lambda data: data[:40],      # truncated
    lambda data: b"{}",          # valid JSON, no report fields
    lambda data: b"[1, 2]",      # valid JSON, not an object
    lambda data: b"\xff" + data,  # not text
    *_BAD_FIELDS.values(),
], ids=["truncated", "empty-object", "list", "binary", *_BAD_FIELDS])
def test_bound_recomputes_and_repairs_corrupt_cache_file(capsys, cache_dir, damage):
    args = ("bound", "--dim", "2", "--order", "2", "--format", "json", "--cache-dir", cache_dir)
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    path = _corrupt_only_entry(cache_dir, damage)
    code, second, err = run_cli(capsys, *args)
    assert code == 0 and "Traceback" not in err
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "elapsed_ms"}
    assert strip(second) == strip(first)
    with open(path) as fh:
        assert fh.read() == second  # the recomputed report replaced the bad file
    code, third, _ = run_cli(capsys, *args)
    assert code == 0 and third == second  # and is a hit from then on


def test_table_recomputes_and_repairs_truncated_cache_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("jetbound.cli.TABLE_CELLS", [(2, 2)])
    cache_dir = str(tmp_path / "cache")
    args = ("table", "--format", "json", "--cache-dir", cache_dir)
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    for damage in [lambda data: data[:40], *_BAD_FIELDS.values()]:
        path = _corrupt_only_entry(cache_dir, damage)
        code, second, err = run_cli(capsys, *args)
        assert code == 0 and "Traceback" not in err
        assert second == first
        with open(path) as fh:
            assert json.load(fh)["threshold"] == 15


@pytest.mark.parametrize("argv", [["table"], ["sweep", "--dim", "2", "--order", "2"]], ids=["table", "sweep"])
def test_the_threads_option_is_refused_as_unrecognized(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--threads", "2", "--cache-dir", str(tmp_path / "cache")])
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.endswith("error: unrecognized arguments: --threads 2\n")
    assert not (tmp_path / "cache").exists()


@pytest.fixture(scope="module")
def fuzz_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz-cache"))


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["bound", "poly"]),
    dim=st.integers(-2, 3),
    order=st.integers(-2, 4),
    weights=st.none() | st.text(alphabet="0123456789,-abcxyz", max_size=8),
    fmt=st.sampled_from(["text", "json", "csv"]),
)
def test_bound_and_poly_argv_end_in_documented_exit_code(
    fuzz_cache_dir, command, dim, order, weights, fmt
):
    argv = [command, "--dim", str(dim), "--order", str(order), "--format", fmt,
            "--cache-dir", fuzz_cache_dir]
    if weights is not None:
        argv.append(f"--weights={weights}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()


def _argv_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=25, deadline=None)
@given(fmt=st.sampled_from(["text", "json", "csv"]))
def test_table_argv_ends_in_documented_exit_code(table_cache_dir, fmt):
    argv = ["table", "--format", fmt, "--cache-dir", table_cache_dir]
    assert _argv_exit_code(argv) in {0, 2, 3, 4}


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(-2, 3),
    order=st.integers(-2, 3),
    budget=st.integers(-2, 4),
    fmt=st.sampled_from(["text", "json", "csv"]),
)
def test_sweep_argv_ends_in_documented_exit_code(fuzz_cache_dir, dim, order, budget, fmt):
    argv = ["sweep", "--dim", str(dim), "--order", str(order), "--budget", str(budget),
            "--format", fmt, "--cache-dir", fuzz_cache_dir]
    assert _argv_exit_code(argv) in {0, 2, 3, 4}


# The cache key of `bound` at the default ladder, by (geometry, n, k): the
# SHA-256 of the job's description, which names the engine version and the job
# alone.
PINNED_KEYS = {
    ("log", 2, 2): "5ec86829edf570164b59983cb0f4029f512c8eb474ed493e3f7707e5f0924088",
    ("compact", 3, 3): "9bf849f03af4ab60a24249056d365349e1a4fb0419751de6cf4a023b63d47efc",
    ("log", 3, 5): "a23cdd6284658b72bdb837c7b0cedc142e94210163b8bd1c5513bcaad23908f2",
}
PINNED_IDS = ["-".join(map(str, cell)) for cell in PINNED_KEYS]
DESCRIPTIONS = {
    ("log", 2, 2): "engine=0.1.0\nn=2\nk=2\ngeometry=log\nweights=2,1",
    ("compact", 3, 3): "engine=0.1.0\nn=3\nk=3\ngeometry=compact\nweights=6,2,1",
    ("log", 3, 5): "engine=0.1.0\nn=3\nk=5\ngeometry=log\nweights=54,18,6,2,1",
}


@pytest.mark.parametrize("cell,key", PINNED_KEYS.items(), ids=PINNED_IDS)
def test_cache_file_names_are_stable(capsys, cache_dir, cell, key):
    geometry, n, k = cell
    argv = ("bound", "--dim", str(n), "--order", str(k), "--geometry", geometry, "--cache-dir", cache_dir)
    # a cold request stores the file; a warm one in the same process reads it and leaves it alone
    for _ in range(2):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert os.listdir(cache_dir) == [f"{key}.json"]


@pytest.mark.parametrize("cell,key", PINNED_KEYS.items(), ids=PINNED_IDS)
def test_cache_key_is_the_sha256_of_its_description(cell, key):
    import hashlib

    from jetbound import cache
    from jetbound.morse import default_weights

    geometry, n, k = cell
    assert hashlib.sha256(DESCRIPTIONS[cell].encode()).hexdigest() == key
    assert cache.cache_key(n, k, geometry, default_weights(k).a) == key


def test_no_cached_command_builds_a_relation_set(capsys, tmp_path, monkeypatch):
    from jetbound import compute_report, tower

    _refuse(monkeypatch, "jetbound.tower.build_relations")
    tower.pipeline_tower.cache_clear()
    dim_order = ("--dim", "2", "--order", "3")
    for argv in (("bound", *dim_order), ("poly", *dim_order), ("sweep", *dim_order, "--budget", "6"), ("table",)):
        cache_dir = str(tmp_path / argv[0])
        outputs = []
        for _ in ("cold", "warm"):
            code, out, _ = run_cli(capsys, *argv, "--cache-dir", cache_dir)
            assert code == 0, argv
            outputs.append(out)
        assert outputs[0] == outputs[1], argv
    compute_report(logarithmic_pair(2), 3)
    run_sweep(logarithmic_pair(2), 3, budget=2)


@pytest.mark.parametrize("command", ["bound", "poly", "table", "sweep"])
def test_cache_dir_that_is_a_file_exits_2(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setattr("jetbound.cli.TABLE_CELLS", [(2, 2)])
    path = tmp_path / "not-a-directory"
    path.write_text("")
    argv = [command, "--cache-dir", str(path)]
    if command != "table":
        argv += ["--dim", "2", "--order", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write cache directory {path}: File exists\n"
    assert path.read_text() == ""


def test_bound_cache_hit_byte_identical(capsys, cache_dir):
    args = (
        "bound", "--dim", "2", "--order", "2", "--geometry", "log",
        "--format", "json", "--cache-dir", cache_dir,
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    (name,) = os.listdir(cache_dir)
    with open(os.path.join(cache_dir, name), "rb") as fh:
        assert fh.read() == out2.encode()  # the hit serialises the report to the stored bytes


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_cache_hit_builds_no_ring(capsys, cache_dir, monkeypatch, fmt):
    # the key's tower context names the tower only, and the text form prints P(d) in one shared ring
    args = ("bound", "--dim", "3", "--order", "4", "--format", fmt, "--cache-dir", cache_dir)
    code1, out1, _ = run_cli(capsys, *args)

    def refuse(self, names):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(Ring, "__init__", refuse)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_cache_file_of_another_configuration_is_a_miss(capsys, cache_dir):
    args = ("bound", "--dim", "2", "--order", "2", "--format", "json", "--cache-dir", cache_dir)
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    (path,) = [os.path.join(cache_dir, name) for name in os.listdir(cache_dir)]
    code, _, _ = run_cli(capsys, "bound", "--dim", "2", "--order", "3", "--cache-dir", cache_dir)
    assert code == 0
    (other,) = [os.path.join(cache_dir, name) for name in os.listdir(cache_dir)
                if os.path.join(cache_dir, name) != path]
    shutil.copyfile(other, path)  # the order-3 report under the order-2 key
    code, second, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    data = json.loads(second)
    assert (data["order"], data["weights"], data["threshold"]) == (2, [2, 1], 15)
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "elapsed_ms"}
    assert strip(second) == strip(first)
    with open(path) as fh:
        assert fh.read() == second  # the recomputed report replaced the other one


_FULL_OUTPUT_CASES = [
    (name, fmt, argv)
    for name, argv in [
        ("bound", ("--dim", "2", "--order", "2")),
        ("poly", ("--dim", "2", "--order", "3")),
        ("sweep", ("--dim", "2", "--order", "3", "--budget", "6")),
        ("table", ()),
    ]
    for fmt in ("text", "json", "csv")
] + [("verify", fmt, ("--dim-max", "2")) for fmt in ("text", "json")]


@pytest.mark.parametrize("command,fmt,argv", _FULL_OUTPUT_CASES,
                         ids=[f"{c}-{f}" for c, f, _ in _FULL_OUTPUT_CASES])
def test_full_stdout_is_pinned(capsys, cache_dir, table_cache_dir, command, fmt, argv):
    # the files hold the whole output, CSV line endings included, with elapsed times as <ms>
    if command != "verify":
        argv += ("--cache-dir", table_cache_dir if command == "table" else cache_dir)
    code, out, err = run_cli(capsys, command, *argv, "--format", fmt)
    assert code == 0 and err == ""
    untimed = re.sub(r'(elapsed   : |"elapsed_ms": )[0-9.]+', r"\1<ms>", out)
    assert untimed == (EXPECTED / f"{command}.{fmt}").read_bytes().decode()


def test_cache_entry_equals_fresh_recomputation(capsys, cache_dir):
    from jetbound.cli import cached_reports
    from jetbound.morse import compute_report

    spec = logarithmic_pair(2)
    (cached,) = cached_reports([(spec, (2, 1))], cache_dir)
    (again,) = cached_reports([(spec, (2, 1))], cache_dir)
    fresh = compute_report(spec, 2)
    strip = lambda report: {
        k: v for k, v in report.to_json_dict().items() if k != "elapsed_ms"
    }
    assert strip(cached) == strip(fresh)
    assert again == cached  # the stored file decodes to the identical report


def test_env_var_cache_dir(capsys, tmp_path, monkeypatch):
    target = tmp_path / "envcache"
    monkeypatch.setenv("JETBOUND_CACHE", str(target))
    code, _, _ = run_cli(capsys, "bound", "--dim", "2", "--order", "2")
    assert code == 0
    assert any(target.glob("*.json"))
    assert not any(target.glob("*.tmp"))  # writes go through rename


def test_internal_error_maps_to_exit_4(capsys, cache_dir, monkeypatch):
    from jetbound.errors import UnreducedClassError

    def boom(*args, **kwargs):
        raise UnreducedClassError("synthetic invariant violation")

    monkeypatch.setattr("jetbound.morse._segre_polynomials", boom)
    code, _, err = run_cli(capsys, "bound", "--dim", "2", "--order", "2",
                           "--cache-dir", cache_dir)
    assert code == 4
    assert "synthetic invariant violation" in err


def test_bound_csv_round_trip(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "bound", "--dim", "2", "--order", "2", "--format", "csv",
        "--cache-dir", cache_dir,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["dim"] == "2" and row["threshold"] == "15"
    assert row["weights"] == "2;1"
    assert row["polynomial"] == "0;-378;-153;12"


def test_poly_text(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "poly", "--dim", "2", "--order", "2", "--geometry", "log",
        "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out.strip() == "12*d^3 - 153*d^2 - 378*d"


def test_poly_csv(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "poly", "--dim", "2", "--order", "2", "--format", "csv",
        "--cache-dir", cache_dir,
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["power"], r["coefficient"]) for r in rows] == [
        ("0", "0"), ("1", "-378"), ("2", "-153"), ("3", "12"),
    ]


def test_table_small_passthrough(capsys, table_cache_dir):
    code, out, _ = run_cli(capsys, "table", "--cache-dir", table_cache_dir)
    assert code == 0
    assert "1154" in out and "306" in out and "15" in out


def test_table_text_marks_bound_from_lower_order(capsys, table_cache_dir):
    code, out, _ = run_cli(capsys, "table", "--cache-dir", table_cache_dir)
    assert code == 0
    lines = out.splitlines()
    row3 = next(line for line in lines if line.split()[0] == "3")
    assert row3.split() == ["3", "-", "75", "67", "67*"]
    assert lines[-1].startswith("* threshold of a lower order j < k")
    assert out.count("*") == 2  # the (3,5) cell and the footnote


def test_table_csv_round_trip(capsys, table_cache_dir):
    code, out, _ = run_cli(
        capsys, "table", "--format", "csv", "--cache-dir", table_cache_dir
    )
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == ["dim", "order", "threshold", "bound"]
    rows = {(int(r["dim"]), int(r["order"])): (int(r["threshold"]), int(r["bound"]))
            for r in reader}
    assert rows[(2, 2)] == (15, 15) and rows[(5, 5)] == (1154, 1154)
    assert rows[(3, 4)] == (67, 67)
    assert rows[(3, 5)] == (68, 67)  # order-5 threshold alone; bound from order 4
    assert len(rows) == 10


def test_table_json_and_cached_second_run_identical(capsys, table_cache_dir):
    code, out1, _ = run_cli(capsys, "table", "--format", "json", "--cache-dir", table_cache_dir)
    assert code == 0
    code, out2, _ = run_cli(capsys, "table", "--format", "json", "--cache-dir", table_cache_dir)
    assert out1 == out2
    cells = {(c["dim"], c["order"]): c for c in json.loads(out1)["cells"]}
    assert cells[(3, 4)]["threshold"] == 67 and cells[(3, 4)]["bound"] == 67
    assert cells[(3, 5)]["threshold"] == 68 and cells[(3, 5)]["bound"] == 67


def test_sweep_contains_default(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "sweep", "--dim", "2", "--order", "2", "--budget", "4",
        "--cache-dir", cache_dir,
    )
    assert code == 0
    assert "threshold : 15" in out
    assert "best      : 2,1" in out


def test_sweep_deterministic(capsys, cache_dir):
    args = ("sweep", "--dim", "2", "--order", "2", "--budget", "6",
            "--format", "json", "--cache-dir", cache_dir)
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    data1, data2 = json.loads(out1), json.loads(out2)
    data1["best"].pop("elapsed_ms"), data2["best"].pop("elapsed_ms")
    assert data1 == data2
    assert data1["evaluated"] == 6


def test_sweep_caches_each_candidate_and_replays(capsys, cache_dir):
    args = ("sweep", "--dim", "2", "--order", "3", "--budget", "12",
            "--format", "json", "--cache-dir", cache_dir)
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    entries = sorted(os.listdir(cache_dir))
    assert len(entries) == 12
    mtimes = [os.stat(os.path.join(cache_dir, name)).st_mtime_ns for name in entries]
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and second == first  # every candidate is a hit
    assert sorted(os.listdir(cache_dir)) == entries
    assert [os.stat(os.path.join(cache_dir, name)).st_mtime_ns for name in entries] == mtimes
    best = json.loads(first)["best"]
    code, out, _ = run_cli(capsys, "bound", "--dim", "2", "--order", "3", "--format", "json",
                           "--weights", ",".join(map(str, best["weights"])), "--cache-dir", cache_dir)
    assert code == 0 and json.loads(out) == best  # bound shares the sweep's entry


def test_sweep_order_three_improves_to_table_value():
    # regression: the k = 3 search space already contains a vector matching
    # the best default threshold 14
    spec = logarithmic_pair(2)
    result = run_sweep(spec, 3, budget=12)
    assert result.best.threshold <= 14
    assert result.best.weights == (6, 2, 1)
    assert result.best.threshold == 14


def test_enumerate_admissible_order_and_content():
    first = enumerate_admissible(2, 6)
    assert [w.a for w in first] == [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2)]
    assert enumerate_admissible(3, 1)[0].a == (6, 2, 1)
    ladder = enumerate_admissible(4, 3)
    assert ladder[0].a == (18, 6, 2, 1)
    assert all(sum(ladder[i].a) <= sum(ladder[i + 1].a) for i in range(len(ladder) - 1))
    # the candidates of a (3,5) sweep of budget 12
    assert [w.a for w in enumerate_admissible(5, 12)] == [
        (54, 18, 6, 2, 1), (55, 18, 6, 2, 1), (56, 18, 6, 2, 1), (57, 18, 6, 2, 1),
        (57, 19, 6, 2, 1), (58, 18, 6, 2, 1), (58, 19, 6, 2, 1), (59, 18, 6, 2, 1),
        (59, 19, 6, 2, 1), (60, 18, 6, 2, 1), (60, 19, 6, 2, 1), (61, 18, 6, 2, 1),
    ]
    for k in (0, -1):
        with pytest.raises(ValueError):
            enumerate_admissible(k, 1)


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dim-max", "5")
    assert code == 0
    assert "FAIL" not in out
    assert "balanced-unit-n5" in out
    assert out.endswith("13/13 checks passed\n")


@pytest.mark.parametrize("dim_max", ["1", "-3"])
def test_verify_dim_max_below_two_exits_2(capsys, dim_max):
    code, out, err = run_cli(capsys, "verify", "--dim-max", dim_max)
    assert code == 2
    assert out == ""
    assert err == "verify requires --dim-max >= 2\n"


@pytest.mark.parametrize("dim_max", ["6", "40"])
def test_verify_dim_max_above_five_exits_2_before_any_check(capsys, monkeypatch, dim_max):
    def refuse(max_n):
        raise AssertionError("an oversized verify run started its checks")

    monkeypatch.setattr("jetbound.cli.run_all", refuse)
    code, out, err = run_cli(capsys, "verify", "--dim-max", dim_max)
    assert code == 2
    assert out == ""
    assert err == "verify requires --dim-max <= 5\n"


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dim-max", "2", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert all(c["passed"] for c in checks)
