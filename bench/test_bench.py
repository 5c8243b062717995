"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run

REFERENCE = run.load_reference()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_root, *args):
    return subprocess.run([sys.executable, str(tmp_root / "bench" / "run.py"), *args],
                          cwd=tmp_root, capture_output=True, text=True, timeout=170)


def _result(*args):
    out = _bench(run.ROOT, *args)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("record ")
    return json.loads(lines[0][len("record "):]), json.loads(lines[-1])


def test_every_drawable_ratio_maps_to_a_reference_entry():
    for d in (1, 2, 3, 4, 5, 6, 10):
        table = REFERENCE["values"][str(d)]
        for ratio in run.ratio_pool():
            assert run.reference_key(d, ratio) in table
    assert set(REFERENCE["values"]["7"]) == {str(s) for s in run.interval_starts(7)} | {"inf"}


def test_reference_key_picks_the_interval_start():
    assert run.reference_key(2, "7/3") == "2"  # starts for d = 2: 1, 3/2, 2, 3, 4, 5
    assert run.reference_key(2, "3/2") == "3/2"
    assert run.reference_key(2, "39") == "5"
    assert run.reference_key(2, "inf") == "inf"


def test_correct_job_passes_and_planted_wrong_entry_fails():
    argv = run.job_argv("compute", "3/2")
    good = run.run_job(argv, REFERENCE)
    assert good.ok and good.values == 1, good.error

    planted = copy.deepcopy(REFERENCE)
    entry = planted["values"]["10"][run.reference_key(10, "3/2")]
    entry["wtT"] = str(Fraction(entry["wtT"]) + 1)
    bad = run.run_job(argv, planted)
    assert not bad.ok and bad.values == 0
    assert "wrong value" in bad.error


def test_planted_wrong_entry_fails_validate():
    argv = run.job_argv("oracle", "inf")
    planted = copy.deepcopy(REFERENCE)
    planted["values"]["4"]["inf"]["T"] = "27"
    bad = run.run_job(argv, planted)
    assert not bad.ok and "d=4" in bad.error


def test_nonzero_exit_is_a_failed_job():
    result = run.run_job(["compute", "--d", "0", "--a", "3/2"], REFERENCE)
    assert result.exit_code == 1
    assert not result.ok and result.values == 0


def test_job_over_its_timeout_is_killed_and_failed():
    result = run.run_job(run.job_argv("scan", "3/2"), REFERENCE, timeout=0.05)
    assert not result.ok and "timed out" in result.error


def test_tail_has_ten_jobs_beyond_it():
    times = [float(i) for i in range(1, 21)]
    assert run.tail(times) == (10.0, 50.0, 10)
    assert run.tail(times[:5]) == (5.0, 100.0, 0)


def test_absent_public_name_is_reported_as_absent_not_zero():
    script = (
        "import json, trace_driver as t\n"
        "layers = t.LAYERS + (('numerics', 'no_such_function', t.SPAN),)\n"
        "originals, absent = t.install(layers)\n"
        "import ellsuper.cli\n"
        "ellsuper.cli.main(['compute', '--d', '3', '--a', 'inf'])\n"
        "print(json.dumps(t.summarize(originals, absent, 7)))\n"
    )
    env = run.child_env()
    env["PYTHONPATH"] += f":{run.BENCH}"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["job"] == 7 and summary["absent"] == ["numerics.no_such_function"]
    assert run._layer_value(summary, "numerics.no_such_function.self_ms") is None
    assert run._layer_value(summary, "linf.entry.calls") == 0
    assert run._layer_value(summary, "superpotential.tree_wtT.calls") == 1


def test_untraced_run_prints_every_end_to_end_metric():
    record, result = _result("--workload", "oracle", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("seed", "commit", "python", "cpu_count", "nproc", "job_p50_jobs",
                "job_p50_cal_jobs", "job_tail_percentile", "job_tail_jobs_beyond",
                "calibration_p50_s", "error_rate"):
        assert key in record
    assert record["error_rate"] == 0


def test_traced_run_prints_every_layer_metric_and_counts_repeat():
    args = ("--workload", "oracle", "--seed", "5", "--seconds", "1", "--trace", "1")
    record, first = _result(*args)
    _, second = _result(*args)
    assert first["correct"] and record["absent"] == []
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == wanted
    assert first["metrics"]["linf.entry.calls"]["value"] > 0
    counts = [k for k in wanted if k.endswith((".calls", ".yielded", ".misses", ".hits"))]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = _bench(tmp_path, "--workload", "compute", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
