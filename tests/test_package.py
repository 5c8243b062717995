import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ellsuper
import ellsuper.cli
import ellsuper.pipelines
from ellsuper import AspectRatio, superpotential

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# neither `import ellsuper.cli` nor a plain `compute` needs the oracles, the
# sweep drivers, the Fraction-returning library functions, the csv/text
# renderers, the argparse parser's builder, or these costly standard modules (dataclasses imports inspect;
# argparse imports gettext, which loads locale; fractions imports decimal and
# numbers); no module of the package
# imports __future__, since every annotation it writes evaluates on Python 3.10;
# and `warnings` serves only the library's below-1 warning in `pipelines`: a
# job prints its own notice line, so no job loads it
NOT_ON_COMPUTE_PATH = {
    "dataclasses", "inspect", "typing", "csv", "__future__", "argparse", "gettext", "locale",
    "fractions", "decimal", "numbers", "warnings",
    "ellsuper.linf", "ellsuper.morphisms", "ellsuper.trees", "ellsuper.sweeps", "ellsuper.validation",
    "ellsuper.render", "ellsuper.pipelines", "ellsuper.usage",
}


def _probe(code: str) -> tuple[set[str], str]:
    """The modules loaded after ``code`` runs in a fresh ``python -S``, and what it printed.

    ``-S`` keeps ``site`` and whatever it preloads out, so the set depends on
    the package alone.
    """
    probe = f"{code}\nimport sys\nprint(*sorted(sys.modules), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split()), proc.stdout


def _modules_after(code: str) -> set[str]:
    return _probe(code)[0]


def _run_cli(*argv: str, code: int = 0) -> tuple[set[str], str]:
    return _probe(f"from ellsuper.cli import main\nassert main({list(argv)!r}) == {code}")


def _modules_after_cli(*argv: str, code: int = 0) -> set[str]:
    return _run_cli(*argv, code=code)[0]


def test_public_names_resolve():
    missing = [name for name in ellsuper.__all__ if not hasattr(ellsuper, name)]
    assert missing == []


@pytest.mark.parametrize("name", ["BasedSpace", "ellipsoid_space", "descendant_space"])
def test_linf_spaces_are_plain_names(name):
    # an L-infinity space is a string in the one even grading; no space type is public
    assert name not in ellsuper.__all__
    with pytest.raises(AttributeError):
        getattr(ellsuper, name)


def test_cli_import_and_compute_load_no_oracle():
    assert not {name for name in _modules_after("import ellsuper") if name.startswith("ellsuper.")}
    assert not _modules_after("import ellsuper.cli") & NOT_ON_COMPUTE_PATH
    for method in ("recursion", "tree"):
        loaded = _modules_after_cli("compute", "--d", "10", "--a", "52/7", "--method", method, "--no-timing")
        assert not loaded & NOT_ON_COMPUTE_PATH, method


@pytest.mark.parametrize("code", ["import ellsuper.cli"], ids=["import"])
def test_only_the_oracles_and_sweeps_load_the_pipelines(code):
    # the README table pins each job's package modules; the bare import has no
    # row there: it loads neither `pipelines` nor the tree oracle `treesum`
    loaded = _modules_after(code)
    assert {name for name in loaded if name.startswith("ellsuper.")} == {
        "ellsuper.cli", "ellsuper.lattice", "ellsuper.engine"}


@pytest.mark.parametrize("argv", [("scan", "--d", "3"), ("validate", "--d-max", "3", "--no-timing")],
                         ids=lambda argv: argv[0])
def test_failure_dumps_load_no_pipelines(argv):
    # a planted tree-pass fault: the sweep exits 2 with its dump, whose path
    # prefix comes from `lattice`, without loading the Fraction-returning API
    loaded, out = _probe(
        "import contextlib, io\n"
        "import ellsuper.treesum as treesum\n"
        "treesum._tree_pass = lambda points, fact, rows: (999, 1)\n"
        "from ellsuper.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    assert main({list(argv)!r}) == 2\n"
        "print(err.getvalue(), end='')")
    assert out.startswith("ellsuper: cross-validation failure: superpotential pipelines disagree: ")
    assert '"path_prefix": [[0, 0], [1, 0]' in out and '"tree": "999"' in out
    assert "ellsuper.pipelines" not in loaded


@pytest.mark.parametrize("argv", [
    ("compute", "--d", "10", "--a", "52/7"),
    ("validate", "--d-max", "4", "--linf-bound", "4", "--a", "52/7"),
    ("scan", "--d", "3"),
    ("integrality", "--d", "4"),
    ("gamma", "--a", "52/7", "--k", "29"),
    ("trees", "--d", "4"),
], ids=lambda argv: argv[0])
def test_default_format_jobs_load_neither_json_nor_re(argv):
    # cli writes its own JSON; `json` loads only for a value its writer leaves to it
    # and for a sweep's disagreement dump, and no other module a job loads imports `re`
    assert not _modules_after_cli(*argv) & {"json", "re"}


@pytest.mark.parametrize("argv", [("scan", "--d", "4"), ("integrality", "--d", "4"),
                                  ("validate", "--d-max", "3", "--linf-bound", "0", "--no-timing")],
                         ids=lambda argv: argv[0])
def test_sweeps_without_linf_load_no_fractions(argv):
    # exact values stay integer pairs up to the output; only linf builds Fractions
    assert not _modules_after_cli(*argv) & (NOT_ON_COMPUTE_PATH - {"ellsuper.sweeps", "ellsuper.validation"})


# each subcommand's own drivers; a job compiles none of another's, and only
# the argparse path compiles the parser's builder
_DRIVERS = {"_validation_sweep", "scan_monotonicity", "integrality_scan", "_breakpoint_pairs", "build_parser"}
_SWEEPS = {"scan_monotonicity", "integrality_scan", "_breakpoint_pairs"}


@pytest.mark.parametrize("argv, drivers", [
    (("validate", "--d-max", "3", "--linf-bound", "3", "--no-timing"), {"_validation_sweep"}),
    (("validate", "--d-max", "3", "--linf-bound", "0", "--format", "csv"), {"_validation_sweep"}),
    (("scan", "--d", "3"), _SWEEPS),
    (("integrality", "--d", "4", "--format", "text"), _SWEEPS),
    (("compute", "--d", "4", "--a", "52/7", "--method", "tree"), set()),
    (("compute", "--d", "3", "--a", "inf", "--method", "linf"), set()),
    (("gamma", "--a", "52/7", "--k", "29"), set()),
    (("trees", "--d", "4"), set()),
    (("scan", "--help"), {"build_parser"}),
], ids=["validate", "validate-no-linf", "scan", "integrality", "compute-tree", "compute-linf", "gamma", "trees",
        "help"])
def test_no_job_loads_another_subcommands_driver(argv, drivers):
    _, out = _probe(f"from ellsuper.cli import main\nassert main({list(argv)!r}) in (0, 1)\n"
                    "import sys, types\n"
                    "print('functions:', *sorted({name for module, m in list(sys.modules.items())\n"
                    "                             if module.startswith('ellsuper.')\n"
                    "                             for name, value in vars(m).items()\n"
                    "                             if isinstance(value, types.FunctionType)}))")
    loaded = set(out.splitlines()[-1].split()[1:])
    assert loaded & _DRIVERS == drivers


def _assert_compute_answer(out: str, d: int, a: AspectRatio, method: str) -> None:
    res = superpotential(d, a)  # the recursion, as the reference
    assert json.loads(out) == {"d": d, "a": str(a), "wtT": str(res.wtT), "mult": res.multiplier,
                               "T": str(res.T), "method": method}


@pytest.mark.parametrize("argv", [("compute", "--d", "4", "--a", "inf", "--method", "linf"),
                                  ("validate", "--d-max", "6", "--linf-bound", "6", "--a", "52/7")],
                         ids=lambda argv: argv[0])
def test_linf_answers_without_fractions(argv):
    # every entry of the witness's inverse at these ratios is an integer, kept
    # as an int, and every degree's pairing is summed as one integer pair
    loaded, out = _run_cli(*argv, "--no-timing")
    assert "ellsuper.linf" in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}
    if argv[0] == "compute":
        _assert_compute_answer(out, 4, AspectRatio.infinite(), "linf")
    else:
        assert [row["methods"] for row in json.loads(out)["results"]] == [["linf", "recursion", "tree"]] * 6


def test_decimal_ratio_answers_through_fractions():
    loaded, out = _run_cli("compute", "--d", "4", "--a", "7.5", "--no-timing")
    assert "fractions" in loaded
    _assert_compute_answer(out, 4, AspectRatio.parse("7.5"), "recursion")


@pytest.mark.parametrize("argv, code", [(("compute", "--help"), 0), (("compute", "--d", "0", "--a", "inf"), 1)],
                         ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(argv, code):
    assert "argparse" in _modules_after_cli(*argv, code=code)


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


# the operands each subcommand needs; the table names the options that change what loads
_OPERANDS = {"gamma": ["--a", "52/7", "--k", "29"], "compute": ["--d", "4", "--a", "52/7"],
             "integrality": ["--d", "4"], "scan": ["--d", "3"], "validate": ["--d-max", "3"],
             "trees": ["--d", "4"]}
_LOAD_MAP = _load_map()


@pytest.mark.parametrize("command, modules", _LOAD_MAP, ids=[command for command, _ in _LOAD_MAP])
def test_start_up_table_is_what_each_job_loads(command, modules):
    name, *options = command.split()
    loaded = _modules_after_cli(name, *_OPERANDS[name], *options)
    assert {m for m in loaded if m.startswith("ellsuper.")} == modules


def test_start_up_table_names_every_subcommand():
    assert {command.split()[0] for command, _ in _LOAD_MAP} == set(ellsuper.cli._SUBCOMMANDS)


@pytest.mark.parametrize("argv", [("validate", "--d-max", "3"),
                                  ("compute", "--d", "3", "--a", "inf", "--method", "linf")],
                         ids=lambda argv: argv[0])
def test_linf_runs_without_the_morphism_operations(argv):
    # the witness inverts on scalars; no module the job loads composes or inverts morphisms
    _, out = _probe(f"from ellsuper.cli import main\nassert main({list(argv)!r}) == 0\n"
                    "import sys\n"
                    "print('ops:', *sorted(name for name, m in sys.modules.items()\n"
                    "                      if name.startswith('ellsuper') and {'compose', 'invert'} & vars(m).keys()))")
    assert out.splitlines()[-1] == "ops:"


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_csv_and_text_load_the_renderers(fmt):
    loaded = _modules_after_cli("compute", "--d", "3", "--a", "7", "--format", fmt)
    assert "ellsuper.render" in loaded and "ellsuper.sweeps" not in loaded


def test_lazy_public_names_cover_all():
    _modules_after(
        "import ellsuper\n"
        "assert set(ellsuper.__all__) <= set(dir(ellsuper))\n"
        "assert ellsuper.trees.set_partitions is ellsuper.set_partitions\n"
        "from ellsuper import *\n"
        "missing = [name for name in ellsuper.__all__ if name not in globals()]\n"
        "assert not missing, missing"
    )


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
