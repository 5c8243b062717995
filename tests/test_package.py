import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ellsuper
import ellsuper.pipelines

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# neither `import ellsuper.cli` nor a plain `compute` needs the oracles, the
# sweep drivers, the csv/text renderers, or these costly standard
# modules (dataclasses imports inspect; argparse imports gettext, which loads
# locale); no module of the package imports __future__, since every
# annotation it writes evaluates on Python 3.10
NOT_ON_COMPUTE_PATH = {
    "dataclasses", "inspect", "typing", "csv", "__future__", "argparse", "gettext", "locale",
    "ellsuper.linf", "ellsuper.trees", "ellsuper.sweeps", "ellsuper.render",
}


def _modules_after(code: str) -> set[str]:
    """The modules loaded after ``code`` runs in a fresh ``python -S``.

    ``-S`` keeps ``site`` and whatever it preloads out, so the set depends on
    the package alone.
    """
    probe = f"{code}\nimport sys\nprint(*sorted(sys.modules), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def _modules_after_cli(*argv: str, code: int = 0) -> set[str]:
    return _modules_after(f"from ellsuper.cli import main\nassert main({list(argv)!r}) == {code}")


def test_public_names_resolve():
    missing = [name for name in ellsuper.__all__ if not hasattr(ellsuper, name)]
    assert missing == []


def test_cli_import_and_compute_load_no_oracle():
    assert not {name for name in _modules_after("import ellsuper") if name.startswith("ellsuper.")}
    assert not _modules_after("import ellsuper.cli") & NOT_ON_COMPUTE_PATH
    loaded = _modules_after_cli("compute", "--d", "10", "--a", "52/7", "--no-timing")
    assert not loaded & NOT_ON_COMPUTE_PATH


@pytest.mark.parametrize("argv, code", [(("compute", "--help"), 0), (("compute", "--d", "0", "--a", "inf"), 1)],
                         ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(argv, code):
    assert "argparse" in _modules_after_cli(*argv, code=code)


def test_subcommands_load_the_oracles_they_run():
    loaded = _modules_after_cli("validate", "--d-max", "3")
    assert "ellsuper.linf" in loaded and "ellsuper.trees" not in loaded
    assert "ellsuper.trees" in _modules_after_cli("trees", "--d", "4")


@pytest.mark.parametrize("argv", [("validate", "--d-max", "3"),
                                  ("compute", "--d", "3", "--a", "inf", "--method", "linf")],
                         ids=lambda argv: argv[0])
def test_linf_runs_without_trees(argv):
    loaded = _modules_after_cli(*argv)
    assert "ellsuper.linf" in loaded and "ellsuper.trees" not in loaded


@pytest.mark.parametrize("argv", [("validate", "--d-max", "2"), ("scan", "--d", "2"),
                                  ("integrality", "--d", "2")], ids=lambda argv: argv[0])
def test_sweep_subcommands_load_the_sweeps(argv):
    loaded = _modules_after_cli(*argv)
    assert "ellsuper.sweeps" in loaded and "ellsuper.render" not in loaded


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
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
