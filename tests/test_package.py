import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import types
from collections import namedtuple
from pathlib import Path

import pytest

import ellsuper
import ellsuper.cli
import ellsuper.pipelines
from ellsuper import AspectRatio, superpotential

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# standard modules that neither `import ellsuper.cli` nor a plain default-format
# job loads: argparse (which imports gettext, and locale on its first message)
# loads only for help and errors; fractions (which imports decimal and numbers)
# only for a non-plain `--a` text or a non-integer linf entry; csv only for
# `--format csv|text`; json, which imports re, only for a value that cli's own
# JSON writer leaves to it and for a disagreement dump; warnings only for the
# library's below-1 warning in `pipelines`; and nothing a job loads imports
# dataclasses, inspect, typing or __future__
NOT_LOADED = frozenset({
    "__future__", "argparse", "csv", "dataclasses", "decimal", "fractions", "gettext", "inspect", "json",
    "locale", "numbers", "re", "typing", "warnings"})

Run = namedtuple("Run", "modules functions out")

# ends every probe: the modules loaded, taken before this report imports
# anything, and the functions that the package's modules hold, as two lines
# on the real stderr after whatever the job wrote there
_REPORT = """
import sys
modules = sorted(sys.modules)
import types
functions = sorted({name for module, m in list(sys.modules.items()) if module.startswith("ellsuper")
                    for name, value in vars(m).items() if isinstance(value, types.FunctionType)})
print(*modules, file=sys.__stderr__)
print(*functions, file=sys.__stderr__)
"""
_RUNS: dict = {}


def _probe(command: str = "", code: int = 0, setup: str = "") -> Run:
    """One job in a fresh ``python -S``, run once and shared by every test that reads it.

    ``setup`` runs first; then, given a ``command``, ``cli.main`` runs its
    words and must return ``code``.  Returns the modules loaded at the end,
    the names of the functions the ``ellsuper`` modules hold, and what the
    job printed.  ``-S`` keeps ``site`` and whatever it preloads out, so the
    modules depend on the package alone.
    """
    key = (command, code, setup)
    if key not in _RUNS:
        job = f"from ellsuper.cli import main\nassert main({command.split()!r}) == {code}\n" if command else ""
        proc = subprocess.run([sys.executable, "-S", "-c", f"{setup}\n{job}{_REPORT}"],
                              capture_output=True, text=True, env=ENV, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        modules, functions = proc.stderr.splitlines()[-2:]
        _RUNS[key] = Run(frozenset(modules.split()), frozenset(functions.split()), proc.stdout)
    return _RUNS[key]


def _load_map() -> list[tuple[str, set[str]]]:
    """The README "Start-up" table: each command it names, with the modules it says load.

    "these" stands for the first row's modules; a parenthesised remark, such
    as "(not `morphisms`)", names no module the job loads.
    """
    section = (ROOT / "README.md").read_text().split("\n## Start-up\n", 1)[1].split("\n## ", 1)[0]
    rows, base = [], set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        commands, modules = (re.sub(r"\([^)]*\)", "", cell) for cell in line.strip("|").split("|"))
        loaded = {f"ellsuper.{name}" for name in re.findall(r"`(\w+)`", modules)}
        loaded |= base if "these" in modules else set()
        base = base or loaded
        rows += [(command, loaded) for command in re.findall(r"`([^`]+)`", commands)]
    return rows


_LOAD_MAP = _load_map()
# the one command line each row runs: the benchmark's own for compute, scan
# and validate, and small operands for the rest
_ROWS = {
    "gamma": "gamma --a 52/7 --k 29",
    "compute": "compute --d 10 --a 52/7 --no-timing",
    "compute --method tree": "compute --d 10 --a 52/7 --method tree --no-timing",
    "compute --method linf": "compute --d 4 --a inf --method linf --no-timing",
    "integrality": "integrality --d 4",
    "scan": "scan --d 7",
    "validate": "validate --d-max 6 --linf-bound 6 --a 52/7 --no-timing",
    "validate --linf-bound 0": "validate --d-max 3 --linf-bound 0 --no-timing",
    "trees": "trees --d 4",
}
_HELP = "compute --help"

# each subcommand's own drivers; a job compiles none of another's, and only
# the argparse path compiles the parser's builder
_SWEEPS = {"scan_monotonicity", "integrality_scan", "_breakpoint_pairs"}
_OWN_DRIVERS = {"validate": {"_validation_sweep"}, "scan": _SWEEPS, "integrality": _SWEEPS}
_DRIVERS = {"_validation_sweep", "build_parser", *_SWEEPS}


def _package(run: Run) -> set[str]:
    return {name for name in run.modules if name.startswith("ellsuper.")}


def test_public_names_resolve():
    missing = [name for name in ellsuper.__all__ if not hasattr(ellsuper, name)]
    assert missing == []


@pytest.mark.parametrize("name", ["BasedSpace", "ellipsoid_space", "descendant_space"])
def test_linf_spaces_are_plain_names(name):
    # an L-infinity space is a string in the one even grading; no space type is public
    assert name not in ellsuper.__all__
    with pytest.raises(AttributeError):
        getattr(ellsuper, name)


@pytest.mark.parametrize("command, modules", _LOAD_MAP, ids=[command for command, _ in _LOAD_MAP])
def test_start_up_table_is_what_each_job_loads(command, modules):
    # the row's one run: its exact package modules, none of NOT_LOADED, only
    # its own subcommand's drivers, and no module that composes or inverts morphisms
    assert set(command.split()) <= set(_ROWS[command].split())
    run = _probe(_ROWS[command])
    assert _package(run) == modules
    assert not run.modules & NOT_LOADED
    assert run.functions & _DRIVERS == _OWN_DRIVERS.get(command.split()[0], set())
    assert not run.functions & {"compose", "invert"}


def test_start_up_table_names_every_subcommand():
    assert {command.split()[0] for command, _ in _LOAD_MAP} == set(ellsuper.cli._SUBCOMMANDS)


@pytest.mark.parametrize("command", ["compute", "scan", "validate"])
def test_process_entry_loads_what_the_table_says(command):
    # the benchmark's job shapes through `python -m ellsuper`, the process entry
    # the console script shares; `-X importtime` writes each import to stderr as
    # it happens, so `os._exit` does not cut the list
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "ellsuper", *_ROWS[command].split()],
                          capture_output=True, text=True, env=ENV, timeout=60)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {name for name in imported if name.startswith("ellsuper")} == {"ellsuper", *dict(_LOAD_MAP)[command]}
    assert proc.returncode == 0
    assert proc.stdout == _probe(_ROWS[command]).out


def test_cli_import_and_compute_load_no_oracle():
    assert not _package(_probe(setup="import ellsuper"))
    for run in (_probe(setup="import ellsuper.cli"), _probe(_ROWS["compute"]), _probe(_ROWS["compute --method tree"])):
        assert not run.modules & NOT_LOADED
        assert _package(run) <= {"ellsuper.cli", "ellsuper.lattice", "ellsuper.engine", "ellsuper.treesum"}


@pytest.mark.parametrize("code", ["import ellsuper.cli"], ids=["import"])
def test_only_the_oracles_and_sweeps_load_the_pipelines(code):
    # the README table pins each job's package modules; the bare import has no
    # row there: it loads neither `pipelines` nor the tree oracle `treesum`
    assert _package(_probe(setup=code)) == {"ellsuper.cli", "ellsuper.lattice", "ellsuper.engine"}


# a planted tree-pass fault, with the job's stderr sent to stdout, which the probe returns
_PLANTED_FAULT = ("import sys\n"
                  "import ellsuper.treesum as treesum\n"
                  "treesum._tree_pass = lambda points, fact, rows: (999, 1)\n"
                  "sys.stderr = sys.stdout\n")


@pytest.mark.parametrize("command", ["scan --d 3", "validate --d-max 3 --no-timing"],
                         ids=lambda command: command.split()[0])
def test_failure_dumps_load_no_pipelines(command):
    # the sweep exits 2 with its dump, whose path prefix comes from `lattice`,
    # without loading the Fraction-returning API
    run = _probe(command, code=2, setup=_PLANTED_FAULT)
    assert run.out.startswith("ellsuper: cross-validation failure: superpotential pipelines disagree: ")
    assert '"path_prefix": [[0, 0], [1, 0]' in run.out and '"tree": "999"' in run.out
    assert "ellsuper.pipelines" not in run.modules


@pytest.mark.parametrize("command", ["compute", "validate", "scan", "integrality", "gamma", "trees"])
def test_default_format_jobs_load_neither_json_nor_re(command):
    # cli writes its own JSON; see NOT_LOADED
    assert not _probe(_ROWS[command]).modules & NOT_LOADED


@pytest.mark.parametrize("command", ["scan", "integrality", "validate --linf-bound 0"],
                         ids=lambda command: command.split()[0])
def test_sweeps_without_linf_load_no_fractions(command):
    # exact values stay integer pairs up to the output; only linf builds Fractions
    assert not _probe(_ROWS[command]).modules & NOT_LOADED


@pytest.mark.parametrize("command, drivers", [
    (_ROWS["validate"], {"_validation_sweep"}),
    (_ROWS["validate --linf-bound 0"], {"_validation_sweep"}),
    (_ROWS["scan"], _SWEEPS),
    (_ROWS["integrality"], _SWEEPS),
    (_ROWS["compute --method tree"], set()),
    (_ROWS["compute --method linf"], set()),
    (_ROWS["gamma"], set()),
    (_ROWS["trees"], set()),
    (_HELP, {"build_parser"}),
], ids=["validate", "validate-no-linf", "scan", "integrality", "compute-tree", "compute-linf", "gamma", "trees",
        "help"])
def test_no_job_loads_another_subcommands_driver(command, drivers):
    assert _probe(command).functions & _DRIVERS == drivers


def _assert_compute_answer(out: str, d: int, a: AspectRatio, method: str) -> None:
    res = superpotential(d, a)  # the recursion, as the reference
    assert json.loads(out) == {"d": d, "a": str(a), "wtT": str(res.wtT), "mult": res.multiplier,
                               "T": str(res.T), "method": method}


@pytest.mark.parametrize("command", ["compute --method linf", "validate"], ids=lambda command: command.split()[0])
def test_linf_answers_without_fractions(command):
    # every entry of the witness's inverse at these ratios is an integer, kept
    # as an int, and every degree's pairing is summed as one integer pair
    run = _probe(_ROWS[command])
    assert "ellsuper.linf" in run.modules
    assert not run.modules & NOT_LOADED
    if command == "validate":
        assert [row["methods"] for row in json.loads(run.out)["results"]] == [["linf", "recursion", "tree"]] * 6
    else:
        _assert_compute_answer(run.out, 4, AspectRatio.infinite(), "linf")


def test_decimal_ratio_answers_through_fractions():
    run = _probe("compute --d 4 --a 7.5 --no-timing")
    assert "fractions" in run.modules
    _assert_compute_answer(run.out, 4, AspectRatio.parse("7.5"), "recursion")


@pytest.mark.parametrize("command, code", [(_HELP, 0), ("compute --d 0 --a inf", 1)], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(command, code):
    assert "argparse" in _probe(command, code).modules


@pytest.mark.parametrize("command", ["validate", "compute --method linf"], ids=lambda command: command.split()[0])
def test_linf_runs_without_the_morphism_operations(command):
    # the witness inverts on scalars; no module the job loads composes or inverts morphisms
    assert not _probe(_ROWS[command]).functions & {"compose", "invert"}


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_csv_and_text_load_the_renderers(fmt):
    loaded = _probe(f"compute --d 3 --a 7 --format {fmt}").modules
    assert "ellsuper.render" in loaded and "ellsuper.sweeps" not in loaded


def test_lazy_public_names_cover_all():
    _probe(setup="import ellsuper\n"
                 "assert set(ellsuper.__all__) <= set(dir(ellsuper))\n"
                 "assert ellsuper.trees.set_partitions is ellsuper.set_partitions\n"
                 "from ellsuper import *\n"
                 "missing = [name for name in ellsuper.__all__ if name not in globals()]\n"
                 "assert not missing, missing")


def test_public_names_live_where_public_says():
    # each function and class is defined in the module `_PUBLIC` reads it from;
    # `factorial` is math.factorial itself
    for module, names in ellsuper._PUBLIC.items():
        for name in names:
            value = getattr(ellsuper, name)
            if callable(value) and name != "factorial":
                assert value.__module__ == f"ellsuper.{module}", name


def test_pipelines_module_is_a_module():
    assert isinstance(ellsuper.pipelines, types.ModuleType)
    assert callable(ellsuper.superpotential)
    assert not isinstance(ellsuper.superpotential, types.ModuleType)


def test_traced_layers_stay_public():
    # the benchmark's trace wraps these names; a missing one is reported as absent
    spec = importlib.util.spec_from_file_location("trace_driver", ROOT / "bench" / "trace_driver.py")
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    for _, public, kind in driver.LAYERS:
        fn = getattr(ellsuper, public, None)
        assert callable(fn), public
        if kind == driver.GEN:
            assert inspect.isgeneratorfunction(fn), public
    for _, cls_name, method, _ in driver.METHODS:
        assert callable(vars(getattr(ellsuper, cls_name)).get(method)), (cls_name, method)


def test_trees_owns_the_enumerators():
    # the benchmark's trace counts what `partitions` and `compositions` yield
    # and reads the cache of `enumerate_trees`
    assert importlib.util.find_spec("ellsuper.numerics") is None
    for name in ("partitions", "set_partitions", "compositions"):
        assert getattr(ellsuper, name).__module__ == "ellsuper.trees", name
    assert inspect.isgeneratorfunction(ellsuper.partitions)
    assert inspect.isgeneratorfunction(ellsuper.compositions)
    assert callable(ellsuper.enumerate_trees.cache_info)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    # twice, with equal output: a demo prints nothing that depends on the run
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
