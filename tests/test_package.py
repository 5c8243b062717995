import subprocess
import sys
import types
from pathlib import Path

import pytest

import ellsuper
import ellsuper.pipelines

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_public_names_resolve():
    missing = [name for name in ellsuper.__all__ if not hasattr(ellsuper, name)]
    assert missing == []


def test_pipelines_module_is_a_module():
    assert isinstance(ellsuper.pipelines, types.ModuleType)
    assert callable(ellsuper.superpotential)
    assert not isinstance(ellsuper.superpotential, types.ModuleType)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
