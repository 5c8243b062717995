import json
import subprocess
import sys
from fractions import Fraction

import pytest

import ellsuper.pipelines as sp
from ellsuper import AspectRatio
from ellsuper.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "--d", "2", "--a", "inf")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["T"] == "1"
    assert payload["wtT"] == "5"
    assert payload["mult"] == 5
    assert payload["a"] == "inf"
    assert payload["method"] == "recursion"
    assert isinstance(payload["ms"], float)


def test_compute_default_reaches_degree_40():
    # a subprocess with a timeout, so an exponential default fails fast instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "compute", "--d", "40", "--a", "3/2", "--no-timing"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["method"] == "recursion"
    assert Fraction(payload["T"]) * payload["mult"] == Fraction(payload["wtT"])


def test_compute_json_round_trips_exactly(capsys):
    code, out, _ = run_cli(capsys, "compute", "--d", "3", "--a", "7/2", "--method", "tree")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["method"] == "tree"
    assert AspectRatio.parse(payload["a"]) == AspectRatio.plus_delta(7, 2)
    wt = Fraction(payload["wtT"])
    assert Fraction(payload["T"]) * payload["mult"] == wt
    default = json.loads(run_cli(capsys, "compute", "--d", "3", "--a", "7/2")[1])
    assert Fraction(default["wtT"]) == wt


def test_compute_byte_identical_without_timing(capsys):
    runs = [run_cli(capsys, "compute", "--d", "4", "--a", "inf", "--no-timing")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    assert "ms" not in json.loads(runs[0])


def test_compute_stable_apart_from_timing(capsys):
    outs = [json.loads(run_cli(capsys, "compute", "--d", "3", "--a", "5/2")[1]) for _ in range(2)]
    for payload in outs:
        payload.pop("ms")
    assert outs[0] == outs[1]


def test_compute_warns_below_one(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run_cli(capsys, "compute", "--d", "1", "--a", "1/2", "--no-timing")
    assert code == EXIT_OK
    assert "warning" in json.loads(out)


def test_gamma_fixture(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--a", "3/2", "--k", "7")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["points"] == [[0, 0], [1, 0], [1, 1], [2, 1], [3, 1], [3, 2], [4, 2], [4, 3]]
    assert payload["a"] == "3/2+delta"


def test_gamma_csv(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--a", "inf", "--k", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == ["k,i,j", "0,0,0", "1,1,0", "2,2,0", "3,3,0"]


def test_trees_text_table(capsys):
    code, out, _ = run_cli(capsys, "trees", "--d", "4", "--format", "text")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith("  ")]
    assert len(lines) == 5
    auts = sorted(int(ln.split("Aut=")[1].split()[0]) for ln in lines)
    assert auts == [2, 4, 6, 8, 24]


def test_trees_json(capsys):
    code, out, _ = run_cli(capsys, "trees", "--d", "3")
    payload = json.loads(out)
    assert payload["count"] == 2
    keys = {t["key"] for t in payload["trees"]}
    assert keys == {"(***)", "(*(**))"}
    nested = next(t for t in payload["trees"] if t["key"] == "(*(**))")
    assert [(v["leaf_number"], v["movable"]) for v in nested["vertices"]] == [(3, False), (2, True)]


def test_compute_csv_uses_fraction_strings(capsys):
    code, out, _ = run_cli(capsys, "compute", "--d", "2", "--a", "3/2", "--format", "csv", "--no-timing")
    assert code == EXIT_OK
    header, row = out.splitlines()
    assert header.split(",") == ["d", "a", "wtT", "mult", "T", "method"]
    assert row.split(",") == ["2", "3/2+delta", "0", "2", "0", "recursion"]


def test_validate_agreement(capsys):
    code, out, _ = run_cli(capsys, "validate", "--d-max", "4", "--a", "inf", "--no-timing")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["agree"] is True
    assert [row["T"] for row in payload["results"]] == ["1", "1", "4", "26"]
    assert all("ms" not in row for row in payload["results"])


def test_validate_marks_rows_without_a_comparison(capsys, monkeypatch):
    # rows past the oracles' bounds ran the recursion alone: null, "unchecked"
    monkeypatch.setattr(sp, "TREE_MAX_DEGREE", 2)
    code, out, _ = run_cli(capsys, "validate", "--d-max", "3", "--linf-bound", "0", "--no-timing")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [row["agree"] for row in payload["results"]] == [True, True, None]
    assert payload["agree"] is True  # over the compared rows only
    _, text, _ = run_cli(capsys, "validate", "--d-max", "3", "--linf-bound", "0", "--format", "text")
    assert text.splitlines()[-1].endswith("agree = unchecked")
    assert text.splitlines()[0].endswith("agree = True")
    _, table, _ = run_cli(capsys, "validate", "--d-max", "3", "--linf-bound", "0", "--format", "csv")
    assert [line.split(",")[-1] for line in table.splitlines()] == ["agree", "True", "True", "unchecked"]

    monkeypatch.setattr(sp, "TREE_MAX_DEGREE", 0)
    _, out, _ = run_cli(capsys, "validate", "--d-max", "2", "--linf-bound", "0", "--no-timing")
    assert json.loads(out)["agree"] is None  # nothing compared at all


def test_validate_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sp, "tree_wtT", lambda d, a: Fraction(999))
    code, _, err = run_cli(capsys, "validate", "--d-max", "2", "--a", "inf")
    assert code == EXIT_VALIDATION
    assert "cross-validation failure" in err


def test_scan_report(capsys):
    code, out, _ = run_cli(capsys, "scan", "--d", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"d", "profile", "infinity_T", "nondecreasing", "consistent"}
    assert payload["consistent"] is True
    starts = [row["interval_start"] for row in payload["profile"]]
    assert starts == ["1", "3/2", "2", "3", "4", "5"]


def test_integrality_report(capsys):
    code, out, _ = run_cli(capsys, "integrality", "--d", "3", "--format", "text")
    assert code == EXIT_OK
    assert "8/1" in out and "all integral: True" in out


def test_reports_are_byte_identical_across_runs(capsys):
    for argv in (["scan", "--d", "2"], ["integrality", "--d", "3"],
                 ["trees", "--d", "5", "--format", "csv"]):
        first = run_cli(capsys, *argv)[1]
        second = run_cli(capsys, *argv)[1]
        assert first == second


def test_usage_errors(capsys):
    assert run_cli(capsys, "compute", "--d", "0", "--a", "inf")[0] == EXIT_USAGE
    assert run_cli(capsys, "compute", "--d", "2", "--a", "bogus")[0] == EXIT_USAGE
    assert run_cli(capsys, "compute", "--d", "2", "--a", "inf", "--method", "nope")[0] == EXIT_USAGE
    assert run_cli(capsys, "compute", "--d", "2", "--a", "inf", "--frobnicate")[0] == EXIT_USAGE
    assert run_cli(capsys, "nosuchcommand")[0] == EXIT_USAGE
    assert run_cli(capsys)[0] == EXIT_USAGE


def test_linf_bound_respected(capsys):
    code, _, err = run_cli(capsys, "compute", "--d", "8", "--a", "inf", "--method", "linf")
    assert code == EXIT_USAGE
    assert "linf" in err


def test_tree_method_refused_beyond_degree_12():
    # a subprocess with a timeout: unguarded, this enumerates trees until memory runs out
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "compute", "--d", "40", "--a", "3/2", "--method", "tree"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "recursion" in proc.stderr


def test_trees_refused_beyond_degree_12():
    # a subprocess with a timeout: unguarded, d = 13 prints 68954 trees and d = 14 about 3x more
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "trees", "--d", "13"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "d <= 12" in proc.stderr and "compute" in proc.stderr


def test_scan_and_validate_skip_tree_oracle_beyond_degree_12():
    # subprocesses with a timeout: unguarded, the tree-sum cross-checks run for hours
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "scan", "--d", "13"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["consistent"] is True
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "validate", "--d-max", "13", "--a", "3/2", "--no-timing"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout)
    methods = {row["d"]: row["methods"] for row in payload["results"]}
    assert methods[13] == ["recursion"]
    assert all("tree" in methods[d] for d in range(1, 13))
    # the d = 13 row compared nothing; the verdict covers d <= 12
    assert [row["agree"] for row in payload["results"]] == [True] * 12 + [None]
    assert payload["agree"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "compute", "--d", "1", "--a", "inf", "--no-timing"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["T"] == "1"


def test_jobs_flag_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "compute", "--d", "2", "--a", "inf", "--jobs", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--jobs" in err
