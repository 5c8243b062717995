"""Benchmark of the ``ellsuper`` command line, with exact checks of every value.

Usage (from the repository root)::

    python3 bench/run.py --workload compute --seed 1 --seconds 38 --trace 0

Every workload is a closed loop with one client: one process at a time runs
``python -m ellsuper ...`` with the interpreter running this script and the
checkout's ``src``; the next job starts when the previous one has exited.
``ELLSUPER_WORKERS`` is removed from the child's environment and ``--jobs`` is
never passed, so the program is single-threaded.  The seed draws each job's
aspect ratio from the reduced fractions ``p/q > 1`` with ``p + q <= 40``, plus
``inf``; the program only ever sees the generated arguments.

Workloads (one job kind each, so the median never falls between cost classes):

``compute``  ``compute --d 10 --a <seeded> --no-timing``: cold single values.
             Every job pays interpreter start-up, tree enumeration and one
             pass of the tree-term loop.
``scan``     ``scan --d 7``: warm use of the same layers; one process runs the
             profile over about 70 aspect intervals plus their midpoints.
             Its arguments are fixed, so the seed only labels the run.
``oracle``   ``validate --d-max 6 --linf-bound 6 --a <seeded> --no-timing``:
             the only workload where L-infinity inversion does real work.

Every value a job prints is compared, as an exact rational, with
``bench/reference.json`` (made once by ``bench/make_reference.py``).  A job
fails if it exits nonzero, if any value differs or is missing, or if it
exceeds its timeout and is killed.  Each run starts with one untimed warm-up
job, so bytecode compilation is not measured.

``--trace 0`` reports, of the wall time per job including interpreter
start-up, the median ``job_p50_s`` and ``job_tail_s`` (the highest percentile
with at least ten jobs beyond it); ``values_per_s`` (verified exact values per
second of job wall time); ``peak_rss_mb`` (largest child ``ru_maxrss``);
``setup_raw_s`` (median time for a fresh interpreter to import
``ellsuper.cli``, sampled evenly through the run); ``error_rate``; and the
calibrated timings below.  All are printed; the result line carries
``job_p50_cal``, ``peak_rss_mb`` and ``setup_s``, and ``failed`` and
``attempted`` carry the error rate.

Calibrated timings: ``bench/calibration_job.py``, a fixed pure-Python job, runs
before the first job and after every job.  ``job_p50_cal`` is the median over
jobs of the job's wall time divided by the mean of the two calibration times
around it.  ``setup_s`` is the median over import-only start-ups of their wall
time divided by the calibration time just before them, times
``CALIBRATION_NOMINAL_S``: the set-up time in seconds of a host on which the
calibration job takes that long.  Why: on a shared host every process slows
to as little as half its speed for spells of seconds to minutes, so the same
code's raw times move between runs by more than any useful bound.  A job and the
calibration runs next to it meet the same spell, and their ratio keeps only the
program's own cost.

``--trace 1`` runs each seeded job twice, untraced and through
``bench/trace_driver.py``, alternating which goes first, and prints the
per-layer metrics: the median per traced job of each layer's self time and
counters, and ``trace.overhead_frac`` = traced / untraced ``job_p50_s`` - 1.
Per-job counts depend on the workload and, on ``oracle``, on whether the ratio
is ``inf``, so their medians repeat exactly for a seed.

The benchmark's own tests run with ``python3 -m pytest bench``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the run record (seed, commit, Python version, core counts, job counts)
and a readable table.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import trace_driver

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
CALIBRATION = BENCH / "calibration_job.py"
CALIBRATION_NOMINAL_S = 0.2  # s; the calibration job took 0.13 to 0.24 s on 2 Xeon vCPUs

MAX_RATIO_SUM = 40  # aspect ratios p/q with p + q <= 40
JOB_TIMEOUT_S = 30.0
MIN_JOBS = 11  # job_tail_s needs ten jobs beyond its percentile
MAX_RUN_S = 120.0  # never extend a run past this to reach MIN_JOBS
SETUP_REPEATS = 25  # import-only start-ups per run, spread evenly over it
TAIL_BEYOND = 10

WORKLOADS = ("compute", "scan", "oracle")
WARMUP_RATIO = "3/2"

END_TO_END_UNITS = {  # the metrics of the result line
    "job_p50_cal": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
REPORTED_UNITS = {  # printed in the report only
    "values_per_s": "values/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_raw_s": "s",
    "calibration_p50_s": "s",
    "error_rate": "ratio",
}


# -- aspect ratios and reference keys ----------------------------------------

def _fractions_above_one(max_sum: int) -> list[Fraction]:
    """Reduced fractions p/q > 1 with p + q <= max_sum, ascending."""
    return sorted(Fraction(total - q, q) for total in range(3, max_sum + 1)
                  for q in range(1, (total + 1) // 2) if math.gcd(total, q) == 1)


def ratio_pool() -> list[str]:
    """Every ratio a seed can draw: reduced p/q > 1 with p + q <= 40, and inf."""
    return [str(f) for f in _fractions_above_one(MAX_RATIO_SUM)] + ["inf"]


@functools.lru_cache(maxsize=None)
def interval_starts(d: int) -> tuple[Fraction, ...]:
    """1 and the reduced p/q > 1 with p + q <= 3d, ascending.

    T(d, a + delta) only changes at these fractions, so the value at any ratio
    equals the value at the largest start not above it.
    """
    return (Fraction(1), *_fractions_above_one(3 * d))


def reference_key(d: int, ratio: str) -> str:
    """Reference-table key of the interval holding ``ratio`` (a 'p/q' or 'inf')."""
    if ratio == "inf":
        return "inf"
    starts = interval_starts(d)
    idx = bisect.bisect_right(starts, Fraction(ratio)) - 1
    if idx < 0:
        raise ValueError(f"ratio {ratio} is not above 1")
    return str(starts[idx])


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# -- jobs ---------------------------------------------------------------------

def job_argv(workload: str, ratio: str) -> list[str]:
    if workload == "compute":
        return ["compute", "--d", "10", "--a", ratio, "--no-timing"]
    if workload == "scan":
        return ["scan", "--d", "7"]
    if workload == "oracle":
        return ["validate", "--d-max", "6", "--linf-bound", "6", "--a", ratio, "--no-timing"]
    raise ValueError(f"unknown workload {workload!r}")


def seeded_jobs(workload: str, seed: int):
    """Endless, seed-determined stream of job argument lists."""
    rng = random.Random(seed)
    pool = ratio_pool()
    while True:
        yield job_argv(workload, rng.choice(pool))


class Mismatch(Exception):
    """A job's output differs from the reference."""


def _expect_value(got: dict, want: dict, where: str) -> None:
    for field in ("wtT", "T"):
        if Fraction(got[field]) != Fraction(want[field]):
            raise Mismatch(f"{where}: {field} = {got[field]}, reference {want[field]}")
    if int(got["mult"]) != int(want["mult"]):
        raise Mismatch(f"{where}: mult = {got['mult']}, reference {want['mult']}")


def _ratio_of(argv: list[str]) -> str:
    text = argv[argv.index("--a") + 1]
    return "inf" if text == "inf" else str(Fraction(text))


def check_output(argv: list[str], stdout: str, reference: dict) -> int:
    """Number of exact values in the output, all equal to the reference.

    Raises :class:`Mismatch` (or a parse error) if anything differs.  Only
    values are compared, never bytes or the list of methods that ran.
    """
    out = json.loads(stdout)
    values = reference["values"]
    command = argv[0]
    if command == "compute":
        d = int(argv[argv.index("--d") + 1])
        ratio = _ratio_of(argv)
        _expect_value(out, values[str(d)][reference_key(d, ratio)], f"compute d={d} a={ratio}")
        return 1
    if command == "validate":
        d_max = int(argv[argv.index("--d-max") + 1])
        ratio = _ratio_of(argv)
        rows = out["results"]
        if out["agree"] is not True or [r["d"] for r in rows] != list(range(1, d_max + 1)):
            raise Mismatch(f"validate a={ratio}: agree={out['agree']}, "
                           f"degrees {[r['d'] for r in rows]}")
        for row in rows:
            where = f"validate d={row['d']} a={ratio}"
            if row["agree"] is not True:
                raise Mismatch(f"{where}: agree = {row['agree']}")
            _expect_value(row, values[str(row["d"])][reference_key(row["d"], ratio)], where)
        return len(rows)
    if command == "scan":
        d = int(argv[argv.index("--d") + 1])
        table = values[str(d)]
        rows = out["profile"]
        starts = [str(s) for s in interval_starts(d)]
        if [r["interval_start"] for r in rows] != starts:
            raise Mismatch(f"scan d={d}: interval starts differ from the {len(starts)} expected")
        for row in rows:
            if Fraction(row["T"]) != Fraction(table[row["interval_start"]]["T"]):
                raise Mismatch(f"scan d={d} a={row['interval_start']}: T = {row['T']}, "
                               f"reference {table[row['interval_start']]['T']}")
            mid_ref = table[reference_key(d, row["midpoint"])]["T"]
            if Fraction(row["midpoint_T"]) != Fraction(mid_ref):
                raise Mismatch(f"scan d={d} midpoint {row['midpoint']}: "
                               f"T = {row['midpoint_T']}, reference {mid_ref}")
        if Fraction(out["infinity_T"]) != Fraction(table["inf"]["T"]):
            raise Mismatch(f"scan d={d}: infinity_T = {out['infinity_T']}, "
                           f"reference {table['inf']['T']}")
        if out["consistent"] is not True:
            raise Mismatch(f"scan d={d}: consistent = {out['consistent']}")
        return 2 * len(rows) + 1
    raise ValueError(f"no reference check for {command!r}")


@dataclass
class JobResult:
    wall_s: float
    maxrss_kb: int
    exit_code: int
    values: int  # exact values verified; 0 when the job failed
    error: str  # empty when the job succeeded
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.error


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ELLSUPER_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Finished(NamedTuple):
    wall_s: float  # from just before the spawn to the reaping os.wait4
    maxrss_kb: int
    exit_code: int
    stdout: str
    stderr: str
    trace: str | None  # what the child wrote to the trace pipe
    timed_out: bool


def spawn(cmd: list[str], timeout: float, trace_fd: bool = False) -> Finished:
    """Run ``cmd`` in the checkout to completion, killing it after ``timeout`` seconds.

    With ``trace_fd`` a pipe is passed to the child, and its number replaces
    the ``{fd}`` argument of the command.
    """
    read_fd = write_fd = None
    if trace_fd:
        read_fd, write_fd = os.pipe()
        cmd = [str(write_fd) if part == "{fd}" else part for part in cmd]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=(write_fd,) if trace_fd else ())
    if write_fd is not None:
        os.close(write_fd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    buffers = {out_fd: bytearray(), err_fd: bytearray()}
    if read_fd is not None:
        buffers[read_fd] = bytearray()
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in buffers:
                sel.register(fd, selectors.EVENT_READ)
            deadline = start + timeout
            while sel.get_map():
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    proc.kill()
                    timed_out = True
                    break
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        buffers[key.fd] += chunk
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        # Interrupted: leave no child behind.
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    trace = None
    if read_fd is not None:
        trace = buffers[read_fd].decode()
        os.close(read_fd)
    return Finished(wall, usage.ru_maxrss, proc.returncode, buffers[out_fd].decode(),
                    buffers[err_fd].decode(), trace, timed_out)


def run_job(argv: list[str], reference: dict, timeout: float = JOB_TIMEOUT_S,
            traced: bool = False, job_id: int = 0) -> JobResult:
    """Run one CLI job in a fresh interpreter and check its output."""
    if traced:
        cmd = [sys.executable, str(BENCH / "trace_driver.py"), "{fd}", str(job_id), *argv]
    else:
        cmd = [sys.executable, "-m", "ellsuper", *argv]
    done = spawn(cmd, timeout, trace_fd=traced)

    def failed(error: str) -> JobResult:
        return JobResult(done.wall_s, done.maxrss_kb, done.exit_code, 0, error)

    if done.timed_out:
        return failed(f"timed out after {timeout:g} s")
    if done.exit_code != 0:
        return failed(f"exit code {done.exit_code}: {done.stderr.strip()[-300:]}")
    try:
        values = check_output(argv, done.stdout, reference)
        trace = json.loads(done.trace) if traced else None
    except Mismatch as exc:
        return failed(f"wrong value: {exc}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return failed(f"unreadable output: {exc!r}")
    if traced and trace.get("job") != job_id:
        return failed(f"trace belongs to job {trace.get('job')}")
    return JobResult(done.wall_s, done.maxrss_kb, done.exit_code, values, "", trace)


def timed(cmd: list[str]) -> float:
    """Wall time of ``cmd``, run to completion in a fresh process; it must succeed."""
    done = spawn(cmd, JOB_TIMEOUT_S)
    if done.timed_out or done.exit_code != 0:
        raise RuntimeError(f"{cmd[1:]} failed: {done.stderr.strip()[-300:]}")
    return done.wall_s


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports ``ellsuper.cli`` and exits."""
    return timed([sys.executable, "-c", "import ellsuper.cli"])


def measure_calibration() -> float:
    """Wall time of the fixed calibration job, which gauges the host's current speed."""
    return timed([sys.executable, str(CALIBRATION)])


# -- statistics ---------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond) of the highest percentile with ten jobs beyond it.

    With fewer than eleven jobs the maximum is returned, with nothing beyond.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


# -- runs ---------------------------------------------------------------------

def _loop(jobs, seconds: float, step, min_jobs: int = 1) -> float:
    """Call ``step(argv)`` for successive jobs until ``seconds`` have passed; return wall s.

    The loop goes on past ``seconds`` until ``min_jobs`` jobs have run, but
    never past ``MAX_RUN_S``.
    """
    start = perf_counter()
    n = 0
    while True:
        step(next(jobs))
        n += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and (n >= min_jobs or elapsed >= MAX_RUN_S):
            return elapsed


def run_untraced(workload: str, seed: int, seconds: float, reference: dict) -> tuple[dict, dict, list]:
    results: list[JobResult] = []
    setup: list[tuple[float, float]] = []  # (import wall s, calibration s just before)
    calibration = [measure_calibration()]  # entries i and i + 1 bracket job i
    start = perf_counter()

    def step(argv):
        # Import-only start-ups are spread over the run, so that their median
        # meets the same spells of host speed as the jobs.
        due = 1 + SETUP_REPEATS * (perf_counter() - start) / seconds
        if len(setup) < min(SETUP_REPEATS, due):
            setup.append((measure_setup(), calibration[-1]))
        results.append(run_job(argv, reference))
        calibration.append(measure_calibration())

    wall = _loop(seeded_jobs(workload, seed), seconds, step, MIN_JOBS)
    times = [r.wall_s for r in results]
    tail_s, tail_pct, beyond = tail(times)
    failed = [r for r in results if not r.ok]
    metrics = {
        "job_p50_cal": statistics.median(2 * t / (before + after) for t, before, after
                                         in zip(times, calibration, calibration[1:])),
        "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024,
        "setup_s": CALIBRATION_NOMINAL_S * statistics.median(s / c for s, c in setup),
    }
    record = {
        "jobs": len(results),
        "run_wall_s": wall,
        "values_verified": sum(r.values for r in results),
        "values_per_s": sum(r.values for r in results) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "setup_raw_s": statistics.median(s for s, _ in setup),
        "calibration_p50_s": statistics.median(calibration),
        "calibration_runs": len(calibration),
        "error_rate": len(failed) / len(results),
        "job_p50_cal_jobs": len(times),
        "job_p50_jobs": len(times),
        "job_tail_percentile": tail_pct,
        "job_tail_jobs_beyond": beyond,
        "setup_repeats": len(setup),
        "errors": [r.error for r in failed[:5]],
    }
    return metrics, record, results


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in a fixed order."""
    names = [(f"{trace_driver.ROOT_SPAN}.self_ms", "ms")]
    kinds = [(prefix, public, kind) for prefix, public, kind in trace_driver.LAYERS]
    kinds += [(prefix, method, kind) for prefix, _, method, kind in trace_driver.METHODS]
    for prefix, public, kind in kinds:
        base = f"{prefix}.{public}"
        if kind == trace_driver.SPAN:
            names.append((f"{base}.self_ms", "ms"))
            names.append((f"{base}.calls", "count"))
        elif kind == trace_driver.COUNT:
            names.append((f"{base}.calls", "count"))
        else:
            names.append((f"{base}.yielded", "count"))
    names += [("trees.enumerate_trees.misses", "count"), ("trees.enumerate_trees.hits", "count"),
              ("trace.overhead_frac", "ratio")]
    return names


def _layer_value(summary: dict, metric: str):
    """One job's value of a per-layer metric, or None when the name is absent."""
    base, _, field = metric.rpartition(".")
    if field in ("misses", "hits"):
        cache = summary["cache"].get(base)
        return None if cache is None else cache[field]
    if base in summary["absent"]:
        return None
    if field == "self_ms":
        return summary["self_ms"].get(base, 0.0)
    return summary["calls"].get(base, 0)


def run_traced(workload: str, seed: int, seconds: float, reference: dict) -> tuple[dict, dict, list]:
    plain: list[JobResult] = []
    traced: list[JobResult] = []

    def pair(argv):
        job_id = len(traced)
        if job_id % 2 == 0:
            plain.append(run_job(argv, reference))
            traced.append(run_job(argv, reference, traced=True, job_id=job_id))
        else:
            traced.append(run_job(argv, reference, traced=True, job_id=job_id))
            plain.append(run_job(argv, reference))

    wall = _loop(seeded_jobs(workload, seed), seconds, pair)
    summaries = [r.trace for r in traced if r.ok]
    metrics: dict = {}
    absent = []
    for name, _ in per_layer_names():
        if name == "trace.overhead_frac":
            metrics[name] = (statistics.median(r.wall_s for r in traced)
                             / statistics.median(r.wall_s for r in plain) - 1)
            continue
        values = [_layer_value(s, name) for s in summaries]
        if not values or any(v is None for v in values):
            metrics[name] = None
            absent.append(name)
        else:
            metrics[name] = statistics.median(values)
    results = plain + traced
    failed = [r for r in results if not r.ok]
    record = {
        "jobs": len(results),
        "traced_jobs": len(traced),
        "untraced_jobs": len(plain),
        "run_wall_s": wall,
        "error_rate": len(failed) / len(results),
        "layer_median_jobs": len(summaries),
        "spans_per_job_p50": statistics.median(s["spans"] for s in summaries) if summaries else 0,
        "absent": absent,
        "note": "linf.entry self time includes the inverse's private tree-plan "
                "evaluation and LinfMorphism.apply",
        "errors": [r.error for r in failed[:5]],
    }
    return metrics, record, results


def _commit() -> str | None:
    """The checkout's git commit, or None when it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code under test."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ellsuper").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellsuper" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"bench: no ellsuper sources under {SRC} or no {REFERENCE.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    reference = load_reference()

    warm = run_job(job_argv(args.workload, WARMUP_RATIO), reference)
    if not warm.ok:
        print(f"bench: warm-up job failed: {warm.error}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, record, results = run_traced(args.workload, args.seed, args.seconds, reference)
        units = dict(per_layer_names())
    else:
        metrics, record, results = run_untraced(args.workload, args.seed, args.seconds, reference)
        units = END_TO_END_UNITS

    failed = sum(not r.ok for r in results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        **record,
    }
    print("record " + json.dumps(record))
    if not args.trace:
        for name, unit in REPORTED_UNITS.items():
            print(f"  {name:<40} {record[name]:>14.6g} {unit}")
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: ({"value": None, "unit": units[name], "absent": True} if value is None
                   else {"value": value, "unit": units[name]})
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
