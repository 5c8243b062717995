import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellsuper.cli as cli
import ellsuper.pipelines as sp
import ellsuper.treesum as treesum
import ellsuper.usage as usage
from ellsuper import AspectRatio
from ellsuper.__main__ import EXIT_PIPE
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


@pytest.mark.parametrize("method", ["tree", "linf"])
def test_compute_resolves_the_engine_before_the_clock(capsys, monkeypatch, method):
    # the ms field times the computation, not the import of the engine's module
    calls = []
    engine = cli._engine
    monkeypatch.setattr(cli, "_engine", lambda method: calls.append("engine") or engine(method))
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: calls.append("clock") or 0.0))
    assert run_cli(capsys, "compute", "--d", "3", "--a", "inf", "--method", method)[0] == EXIT_OK
    assert calls == ["engine", "clock", "clock"]


def test_compute_warns_below_one(capsys):
    code, out, _ = run_cli(capsys, "compute", "--d", "1", "--a", "1/2", "--no-timing")
    assert code == EXIT_OK
    assert json.loads(out)["warning"] == "aspect ratio below 1: outside the intended range a > 1"


@pytest.mark.parametrize("argv", [("compute", "--d", "2", "--a", "1/2", "--no-timing"),
                                  ("validate", "--d-max", "2", "--a", "1/2", "--no-timing")],
                         ids=lambda argv: argv[0])
def test_below_one_notice_is_one_plain_stderr_line(capsys, argv):
    # the notice names no source file or line, so it stays put when cli.py changes
    import warnings

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK and not rec
    assert err == "ellsuper: warning: aspect ratio 1/2+delta is below 1: outside the intended range a > 1\n"


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


@pytest.mark.parametrize("argv, out, err", [
    (("scan", "--d", "2"), [
        "T profile for d = 2 (interval start -> value):",
        "  a > 1: T = 0",
        "  a > 3/2: T = 0",
        "  a > 2: T = 1/4",
        "  a > 3: T = 1/4",
        "  a > 4: T = 1",
        "  a > 5: T = 1",
        "  a = inf: T = 1",
        "nondecreasing: True  consistent: True",
    ], ""),
    (("gamma", "--a", "52/7", "--k", "5"), [
        "path for a = 52/7+delta:",
        "  (0,0) (1,0) (2,0) (3,0) (4,0) (5,0)",
    ], ""),
    (("compute", "--d", "3", "--a", "1/2", "--no-timing"), [
        "T_3^1/2+delta = 0  (wtT = 0, mult = 3, method = recursion)",
        "warning: aspect ratio below 1: outside the intended range a > 1",
    ], "ellsuper: warning: aspect ratio 1/2+delta is below 1: outside the intended range a > 1\n"),
    (("trees", "--d", "1"), [
        "1 tree with 1 leaf:",
        "  *  Aut=1      no internal vertices",
    ], ""),
    (("trees", "--d", "2"), [
        "1 tree with 2 leaves:",
        "  (**)  Aut=2      l=2 |v|=3 movable",
    ], ""),
    (("validate", "--d-max", "2", "--no-timing"), [
        "d=1 a=inf: wtT = 2, T = 1, agree = True",
        "d=2 a=inf: wtT = 5, T = 1, agree = True",
    ], ""),
    (("integrality", "--d", "2"), [
        "boundary fractions for d = 2 (p + q = 6):",
        "  a = 5/1: T = 1  [integer nonnegative adjunction_bound]",
        "all integral: True",
    ], ""),
], ids=["scan", "gamma", "compute", "trees", "trees-d2", "validate", "integrality"])
def test_text_renderings_are_pinned(capsys, argv, out, err):
    assert run_cli(capsys, *argv, "--format", "text") == (EXIT_OK, "\n".join(out) + "\n", err)


def test_single_leaf_tree_csv_has_no_vertices(capsys):
    # the one tree with d = 1 is a bare leaf: its vertices cell is empty
    assert run_cli(capsys, "trees", "--d", "1", "--format", "csv") == (EXIT_OK, "key,aut,vertices\n*,1,\n", "")


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


# strings that the emitter writes itself or must leave to json.dumps
_JSON_TEXT = st.text(st.sampled_from('a Z0~ "\\/\x00\x1f\n\t\x7f\x80é€😀') | st.characters(), max_size=8)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([10**40, -(2**64), 10**400])
                 | st.floats() | _JSON_TEXT)


@given(value=st.recursive(_JSON_SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4) | st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=20))
@settings(max_examples=300, deadline=None)
def test_json_emitter_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("argv", [
    ("compute", "--d", "10", "--a", "52/7"),
    ("compute", "--d", "2", "--a", "1/2", "--no-timing"),
    ("validate", "--d-max", "4", "--linf-bound", "4", "--a", "52/7"),
    ("scan", "--d", "3"),
    ("integrality", "--d", "6"),
    ("gamma", "--a", "52/7", "--k", "29"),
    ("trees", "--d", "1"),
    ("trees", "--d", "5"),
], ids=" ".join)
def test_default_output_is_json_dumps_of_the_payload(capsys, monkeypatch, argv):
    calls = []  # every value the emitter is called on; the first is the job's payload
    emit = cli._json
    monkeypatch.setattr(cli, "_json", lambda value, *pad: calls.append(value) or emit(value, *pad))
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out == json.dumps(calls[0], indent=2) + "\n"


def test_validate_agreement(capsys):
    code, out, _ = run_cli(capsys, "validate", "--d-max", "4", "--a", "inf", "--no-timing")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["agree"] is True
    assert [row["T"] for row in payload["results"]] == ["1", "1", "4", "26"]
    assert all("ms" not in row for row in payload["results"])
    _, text, _ = run_cli(capsys, "validate", "--d-max", "3", "--linf-bound", "0", "--format", "text")
    assert all(line.endswith("agree = True") for line in text.splitlines())
    _, table, _ = run_cli(capsys, "validate", "--d-max", "3", "--linf-bound", "0", "--format", "csv")
    assert [line.split(",")[-1] for line in table.splitlines()] == ["agree", "True", "True", "True"]


def _disagreement_dump(err: str) -> dict:
    # the operands after "disagree: ", as one JSON object on the failure line
    dump = json.loads(err.split("disagree: ", 1)[1])
    assert set(dump) == {"d", "a", "path_prefix", "values"}
    return dump


def test_validate_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(treesum, "_tree_pass", lambda points, fact, rows: (999, 1))
    code, _, err = run_cli(capsys, "validate", "--d-max", "2", "--a", "inf")
    assert code == EXIT_VALIDATION
    assert "cross-validation failure" in err
    dump = _disagreement_dump(err)
    assert (dump["d"], dump["a"], dump["path_prefix"]) == (1, "inf", [[0, 0], [1, 0], [2, 0]])
    assert dump["values"] == {"recursion": "2", "tree": "999", "linf": "2"}


def test_scan_report(capsys):
    code, out, _ = run_cli(capsys, "scan", "--d", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"d", "profile", "infinity_T", "nondecreasing", "consistent"}
    assert payload["consistent"] is True
    starts = [row["interval_start"] for row in payload["profile"]]
    assert starts == ["1", "3/2", "2", "3", "4", "5"]


def test_scan_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(treesum, "_tree_pass", lambda points, fact, rows: (999, 1))
    code, out, err = run_cli(capsys, "scan", "--d", "3")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "cross-validation failure" in err and "path_prefix" in err
    dump = _disagreement_dump(err)
    assert (dump["d"], dump["a"]) == (3, "1+delta")
    assert len(dump["path_prefix"]) == 9 and dump["values"]["tree"] == "999"


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
    assert run_cli(capsys, "scan", "--d", "2", "--format", "csv")[1] == (
        "interval_start,a,T,midpoint,midpoint_T\n"
        "1,1+delta,0,4/3,0\n"
        "3/2,3/2+delta,0,5/3,0\n"
        "2,2+delta,1/4,5/2,1/4\n"
        "3,3+delta,1/4,7/2,1/4\n"
        "4,4+delta,1,9/2,1\n"
        "5,5+delta,1,6,1\n"
    )
    assert run_cli(capsys, "integrality", "--d", "4", "--format", "csv")[1] == (
        "p,q,T,integer,nonnegative,vanishes,adjunction_bound\n"
        "11,1,26,True,True,False,True\n"
        "7,5,0,True,True,True,False\n"
    )


def test_usage_errors(capsys):
    assert run_cli(capsys, "compute", "--d", "0", "--a", "inf")[0] == EXIT_USAGE
    assert run_cli(capsys, "compute", "--d", "2", "--a", "bogus")[0] == EXIT_USAGE
    assert run_cli(capsys, "compute", "--d", "2", "--a", "1E3")[0] == EXIT_USAGE
    assert run_cli(capsys, "compute", "--d", "2", "--a", "inf", "--method", "nope")[0] == EXIT_USAGE
    assert run_cli(capsys, "compute", "--d", "2", "--a", "inf", "--frobnicate")[0] == EXIT_USAGE
    assert run_cli(capsys, "nosuchcommand")[0] == EXIT_USAGE
    assert run_cli(capsys)[0] == EXIT_USAGE


def test_argparse_usage_error_keeps_its_text_and_exits_1(capsys, monkeypatch):
    # argparse itself exits with 2 here; main reports every usage error as 1
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line to the terminal width
    assert run_cli(capsys, "compute", "--d", "0", "--a", "inf") == (EXIT_USAGE, "", (
        "usage: ellsuper compute [-h] [--format {json,csv,text}] --d D --a A\n"
        "                        [--method {recursion,tree,linf}]\n"
        "                        [--linf-bound LINF_BOUND] [--no-timing]\n"
        "ellsuper compute: error: argument --d: must be a positive integer, got 0\n"
    ))
    code, out, err = run_cli(capsys, "gamma", "--a", "3/2", "--k", "-1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith("ellsuper gamma: error: argument --k: must be a nonnegative integer, got -1\n")


def test_help_exits_0_with_empty_stderr(capsys):
    code, out, err = run_cli(capsys, "compute", "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: ellsuper compute ")
    with pytest.raises(SystemExit) as exc:  # the parser alone exits as argparse does
        usage.build_parser().parse_args(["compute", "--d", "0", "--a", "inf"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_each_subcommand_help_describes_it(capsys, monkeypatch, name):
    # wide enough that argparse does not wrap the description
    monkeypatch.setenv("COLUMNS", "200")
    code, out, err = run_cli(capsys, name, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(f"usage: ellsuper {name} ")
    assert cli._SUBCOMMANDS[name][0] in out


# tokens that plain parsing leaves to argparse, among them abbreviations and options of no subcommand
_ODD_TOKENS = ["--", "-", "-h", "--help", "--no-t", "--lin", "--form", "--d-m", "--jobs", "--k", "--d=3", "x"]
_VALUES = {
    cli._aspect: ["inf", "INF", "3/2", "52/7", "7", "3/2+delta", "1/2", "0", "bogus", "-5/2", "1e3", ""],
    cli._positive_int: ["1", "3", "0", "-1", "+2", " 4", "x", "2.5"],
    cli._nonnegative_int: ["0", "5", "-1", "x"],
}


@st.composite
def _command_lines(draw):
    name = draw(st.sampled_from(list(cli._SUBCOMMANDS) + ["nosuch"]))
    options = (cli._FORMAT, *cli._SUBCOMMANDS.get(name, (None, None, ()))[2])
    present = [opt for opt in options if draw(st.integers(0, 9)) < (9 if opt[1].get("required") else 4)]
    argv = [name]
    for flag, kwargs in draw(st.permutations(present)):
        form = draw(st.sampled_from(["exact"] * 6 + ["equals", "repeat", "no value", "odd"]))
        if kwargs.get("action") == "store_true":
            pool = None
            tokens = [flag]
        else:
            pool = list(kwargs["choices"]) + ["nope"] if "choices" in kwargs else _VALUES[kwargs["type"]]
            tokens = [flag, draw(st.sampled_from(pool))]
        if form == "equals":
            tokens = ["=".join(tokens)]
        elif form == "repeat":
            tokens += [flag] if pool is None else [flag, draw(st.sampled_from(pool))]
        elif form == "no value":
            tokens = [flag]
        elif form == "odd":
            tokens.append(draw(st.sampled_from(_ODD_TOKENS)))
        argv += tokens
    return argv


@given(argv=_command_lines())
@settings(max_examples=150, deadline=None)
def test_plain_parser_matches_argparse(argv):
    plain = cli._parse_plain(argv)
    if plain is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        parsed = usage.build_parser().parse_args(argv)
    assert vars(plain) == vars(parsed)


def test_plain_parser_takes_the_benchmark_command_lines():
    # the shapes every benchmark job passes; parsing them must not need argparse
    for argv in (["compute", "--d", "10", "--a", "52/7", "--no-timing"], ["scan", "--d", "7"],
                 ["validate", "--d-max", "6", "--linf-bound", "6", "--a", "29/4", "--no-timing"]):
        assert cli._parse_plain(argv) is not None, argv


@pytest.mark.parametrize("argv", [
    ["compute", "--d", "4", "--a", "inf", "--no-timing"],
    ["compute", "--no-timing", "--a", "52/7", "--format", "csv", "--d", "5", "--method", "tree"],
    ["compute", "--d", "3", "--a", "7", "--method", "linf", "--linf-bound", "3", "--format", "text", "--no-timing"],
    ["gamma", "--k", "4", "--a", "3/2", "--format", "csv"],
    ["trees", "--d", "3", "--format", "text"],
    ["validate", "--d-max", "3", "--a", "29/4", "--no-timing"],
    ["scan", "--d", "3", "--format", "csv"],
    ["integrality", "--d", "4"],
    [], ["-h"], ["compute", "-h"], ["nosuchcommand"], ["compute", "--d", "3"],
    ["compute", "--d", "0", "--a", "inf"], ["compute", "--d", "2", "--a", "bogus"],
    ["compute", "--d", "2", "--a", "inf", "--method", "nope"], ["compute", "--d", "2", "--a", "-5/2"],
    ["compute", "--d", "2", "--a", "inf", "--jobs", "2"], ["compute", "--d", "2", "--d", "3", "--a", "inf", "--no-timing"],
    ["compute", "--d=3", "--a", "inf", "--no-t"], ["validate", "--d-m", "2", "--lin", "0", "--no-timing"],
    ["gamma", "--a", "3/2", "--k", "100001"], ["trees", "--d", "13"],
], ids=" ".join)
def test_plain_parsing_runs_as_argparse_does(capsys, monkeypatch, argv):
    plain = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
    assert run_cli(capsys, *argv) == plain


def test_gamma_refused_beyond_index_limit():
    # a subprocess with a timeout: unguarded, k = 10^6 took about 5 s and 400 MB
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "gamma", "--a", "3/2", "--k", str(cli.GAMMA_MAX_INDEX + 1)],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "k <= 100000" in proc.stderr and "3d - 1" in proc.stderr


def test_linf_bound_respected(capsys):
    code, _, err = run_cli(capsys, "compute", "--d", "9", "--a", "inf", "--method", "linf")
    assert code == EXIT_USAGE
    assert "linf" in err and "d <= 8" in err
    assert err.endswith("or pass a larger linf_bound (--linf-bound)\n")  # names the CLI option
    code, out, _ = run_cli(capsys, "compute", "--d", "8", "--a", "inf", "--method", "linf", "--no-timing")
    assert code == EXIT_OK
    assert json.loads(out)["T"] == "264057"


def test_tree_method_answers_at_degree_40():
    # a subprocess with a timeout, so an exponential tree sum fails fast instead of hanging;
    # at 52/7 the value is nonzero, where at 3/2 it cancels to zero
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "compute", "--d", "40", "--a", "52/7", "--method", "tree",
         "--no-timing"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["method"] == "tree"
    assert Fraction(payload["T"]) == sp.superpotential(40, AspectRatio.plus_delta(52, 7)).T != 0


def test_trees_refused_beyond_degree_12():
    # a subprocess with a timeout: unguarded, d = 13 prints 68954 trees and d = 14 about 3x more
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "trees", "--d", "13"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "d <= 12" in proc.stderr and "compute" in proc.stderr


def test_scan_and_validate_run_tree_sum_beyond_degree_12():
    # subprocesses with a timeout, so an exponential tree sum fails fast instead of hanging
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
    assert methods[13] == ["recursion", "tree"]
    assert all("tree" in methods[d] for d in range(1, 13))
    assert [row["agree"] for row in payload["results"]] == [True] * 13
    assert payload["agree"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ellsuper", "compute", "--d", "1", "--a", "inf", "--no-timing"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["T"] == "1"


def _entry(*argv: str, python: tuple = ("-m", "ellsuper")) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *python, *argv], capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, code", [
    (("compute", "--d", "3", "--a", "inf", "--no-timing"), EXIT_OK),
    (("compute", "--d", "0", "--a", "inf"), EXIT_USAGE),
    (("trees", "--d", "13"), EXIT_USAGE),
], ids=["ok", "argparse-usage", "handler-usage"])
def test_process_exit_codes(argv, code):
    proc = _entry(*argv)
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout == "") == (code != EXIT_OK)
    assert code == EXIT_OK or proc.stderr.endswith("\n")


def test_process_exit_code_2_keeps_the_whole_dump():
    # a planted tree-pass fault, run through the process entry: stderr is flushed before the exit
    proc = _entry(python=("-c", "import sys, ellsuper.treesum as t\n"
                                "t._tree_pass = lambda points, fact, rows: (999, 1)\n"
                                "sys.argv = ['ellsuper', 'scan', '--d', '3']\n"
                                "from ellsuper.__main__ import run\n"
                                "sys.exit(run())"))
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr.split("disagree: ", 1)[1])["values"]["tree"] == "999"


def test_long_output_arrives_whole_through_a_pipe():
    # about 3.7 MB, many times a pipe's buffer: the exit must not cut it short
    proc = _entry("gamma", "--a", "52/7", "--k", str(cli.GAMMA_MAX_INDEX))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(proc.stdout) == 3693856
    points = json.loads(proc.stdout)["points"]
    assert len(points) == cli.GAMMA_MAX_INDEX + 1 and points[-1] == [88136, 11864]


def test_profiler_still_reports_at_exit():
    # with a profiler attached, run() returns instead of ending the process at once
    proc = _entry("compute", "--d", "3", "--a", "inf", "--no-timing", python=("-m", "cProfile", "-m", "ellsuper"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert '"T": "4"' in proc.stdout and "function calls" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("compute", "--d", "3", "--a", "inf"),  # fits the buffer: the write fails at the flush
    ("gamma", "--a", "52/7", "--k", "2000"),  # overflows it: the write itself fails
], ids=["short", "long"])
def test_closed_pipe_exits_141_with_empty_stderr(argv, unbuffered):
    # the reader is gone before the job writes, as when `| head -n 1` exits early
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run([sys.executable, "-m", "ellsuper", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_PIPE, "")
    assert EXIT_PIPE not in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION)


class _Writes:
    """A standard output that records each write it is given."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_each_payload_is_one_write(monkeypatch, fmt):
    # `print` writes the newline apart; with unbuffered output a reader gone
    # after the first line (`| head -n 1`) then breaks the pipe on the second
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["integrality", "--d", "4", "--format", fmt]) == EXIT_OK
    assert len(out.writes) == 1 and out.writes[0].endswith("\n"), out.writes


def test_cli_module_runs_no_job():
    # `python -m ellsuper.cli` only imports the module: __main__.run is the one process entry
    proc = _entry("compute", "--d", "1", "--a", "inf", python=("-m", "ellsuper.cli"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")


def test_console_script_is_the_process_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["ellsuper", "=", '"ellsuper.__main__:run"']


def test_jobs_flag_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "compute", "--d", "2", "--a", "inf", "--jobs", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--jobs" in err
