import importlib.util
import inspect
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ellsuper
import ellsuper.pipelines

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_public_names_resolve():
    missing = [name for name in ellsuper.__all__ if not hasattr(ellsuper, name)]
    assert missing == []


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


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
