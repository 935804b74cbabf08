"""Cold-process benchmark of the schur-clusters command line.

    python3 perfbench/run.py --workload dynkin-poset --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports the package from `src/`.
Every timed job is one CLI call in a fresh interpreter (cold_job.py), run
one at a time by this process.  Passes over the workload's job list repeat
until the next one would end after --seconds; end-to-end metrics are
medians over them of speed-corrected times (see REF_NOMINAL_S).  With
--trace 1 each job instead runs once untraced and once as public library
calls with one span per layer (traced_job.py), and the per-layer sums are
reported.  See perfbench/README.md.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is 0 when the run completed
(even if jobs failed their checks) and 2 when the program could not be
set up at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from cold_job import MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A job slower than this counts as failed; the run never starts a job it
# could not finish before RUN_DEADLINE_S, so it exits well inside 180 s.
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0
MIN_JOB_BUDGET_S = 5.0

END_TO_END = {"pass_s": "s", "largest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Reported times are wall times rescaled to a machine on which cold_job's
# reference loop takes this long, about its fastest on a 2-core 2.0 GHz
# Xeon VM.  On that VM load from outside the benchmark made one job's cold
# wall time vary by up to 2x within a run; the reference loop, timed just
# before and after the job, slows down with it, so the ratio stays put.
REF_NOMINAL_S = 0.05

SPANS = (
    "fileio.parse_s", "quiver.roots_s", "einv.schur_s", "einv.e_s", "einv.alt_s",
    "clusters.compat_s", "clusters.enumerate_s", "clusters.order_s",
    "clusters.assemble_s", "clusters.naive_s", "clusters.preclusters_s",
    "clusters.complete_s", "reps.realize_s", "reps.gen_order_s", "reps.compare_s",
    "posets.count_s",
)
COUNTS = (
    "quiver.roots", "einv.schur_candidates", "einv.schur_kept", "einv.e_calls",
    "einv.memo_pairs", "einv.memo_hits", "einv.memo_misses", "einv.memo_lookups",
    "einv.summand_sets", "clusters.variables", "clusters.compat_edges",
    "clusters.clusters", "clusters.order_pairs", "clusters.order_true",
    "clusters.hasse_edges", "reps.modules", "reps.gen_pairs", "reps.hom_hits",
    "reps.hom_misses", "posets.maps", "posets.source_size", "posets.codomain_size",
)
PER_LAYER = (
    {name: "s" for name in SPANS}
    | {name: "count" for name in COUNTS}
    | {"einv.memo_hit_ratio": "1", "trace.coverage": "1", "trace.overhead_s": "s"}
)


class SetupError(Exception):
    """The program under test cannot be imported from this checkout."""


@dataclass
class JobResult:
    """One job's outcome.  `job_s` and `import_s` are wall times; `ref_s`
    holds the reference loop's times before the import, before the command
    and after it."""

    name: str
    ok: bool = True
    reason: str = ""
    job_s: float = 0.0
    import_s: float | None = None
    ref_s: tuple = ()
    rss_mb: float = 0.0
    versions: dict = field(default_factory=dict)

    def _scale(self, before: int, after: int) -> float:
        if not self.ref_s:
            return 1.0
        return REF_NOMINAL_S / ((self.ref_s[before] + self.ref_s[after]) / 2)

    @property
    def norm_job_s(self) -> float:
        return self.job_s * self._scale(1, 2)

    @property
    def norm_import_s(self) -> float | None:
        return None if self.import_s is None else self.import_s * self._scale(0, 1)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_setup() -> None:
    """Fail fast, printing no result, when src/ is missing or unusable."""
    if not (SRC / "schur_clusters" / "cli.py").is_file():
        raise SetupError(f"no package at {SRC / 'schur_clusters'}")
    code = "import schur_clusters.cli, schur_clusters; print(schur_clusters.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"import failed: {_last_line(proc.stderr)}")
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported {proc.stdout.strip()}, not the copy under {SRC}")


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_job(job: wl.Job, deadline: float) -> JobResult:
    """One cold CLI call, timed inside the child and checked here."""
    result = JobResult(job.name)
    budget = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    if budget < MIN_JOB_BUDGET_S:
        result.ok, result.reason = False, "not started: run deadline reached"
        return result
    try:
        proc = subprocess.run([sys.executable, str(HERE / "cold_job.py"), *job.argv],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=budget)
    except subprocess.TimeoutExpired:
        result.ok, result.reason, result.job_s = False, f"exceeded {budget:.0f} s", budget
        return result
    marks = [line for line in proc.stderr.splitlines() if line.startswith(MARK)]
    if not marks:
        result.ok, result.reason = False, f"crashed: {_last_line(proc.stderr)}"
        return result
    record = json.loads(marks[-1][len(MARK):])
    result.job_s = record["job_s"]
    result.ref_s = tuple(record["ref_s"])
    result.import_s = record["import_s"]
    result.rss_mb = record["maxrss_kb"] / 1024
    result.versions = record["versions"]
    errors = [line for line in proc.stderr.splitlines() if not line.startswith(MARK)]
    result.ok, result.reason = evaluate(job, record["rc"], proc.stdout, errors)
    return result


def evaluate(job: wl.Job, rc: int, stdout: str, stderr_lines=()) -> tuple[bool, str]:
    """Whether one job's exit code and stdout pass its check, and why not."""
    if rc != 0:
        return False, f"exit {rc}: {stderr_lines[-1] if stderr_lines else ''}"
    try:
        job.check(stdout)
    except wl.CheckFailed as exc:
        return False, f"wrong output: {exc}"
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return False, f"unreadable output: {exc!r}"
    return True, ""


def run_traced_job(job: wl.Job, deadline: float) -> tuple[dict | None, str]:
    """The job's spans and counters from traced_job.py, or None and why not."""
    budget = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    if budget < MIN_JOB_BUDGET_S:
        return None, "traced re-run not started: run deadline reached"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "traced_job.py"), job.name, *job.argv],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=budget)
    except subprocess.TimeoutExpired:
        return None, f"traced re-run exceeded {budget:.0f} s"
    if proc.returncode != 0:
        return None, f"traced re-run failed: {_last_line(proc.stderr)}"
    return json.loads(_last_line(proc.stdout)), ""


# ---------------------------------------------------------------- statistics


def tail_percentile(values):
    """The highest percentile with at least ten samples above it, as
    (percentile, value), or None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return math.floor(100 * k / n), sorted(values)[k - 1]


def end_to_end(workload: wl.Workload, passes, normalized: bool = True) -> dict:
    """Medians over passes (over jobs for setup_s), with their samples."""
    def job(r):
        return r.norm_job_s if normalized else r.job_s

    def imp(r):
        return r.norm_import_s if normalized else r.import_s

    pass_s = [sum(job(r) for r in p) for p in passes]
    largest = [job(r) for p in passes for r in p if r.name == workload.largest]
    setup = [imp(r) for p in passes for r in p if r.import_s is not None]
    rss = [max(r.rss_mb for r in p) for p in passes]
    return {
        "pass_s": statistics.median(pass_s),
        "largest_job_s": statistics.median(largest),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": statistics.median(rss),
        "_samples": {"pass_s": pass_s, "largest_job_s": largest, "setup_s": setup,
                     "peak_rss_mb": rss},
    }


def per_layer(cold: list[JobResult], traced: list[dict]) -> tuple[dict, list[str]]:
    spans = dict.fromkeys(SPANS, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    absent: set[str] = set()
    for record in traced:
        for span in record["spans"]:
            if span["name"] in spans:
                spans[span["name"]] += span["end"] - span["start"]
        for name, value in record["counts"].items():
            counts[name] += value
        absent.update(record["absent"])
    memo_names = ("einv.memo_hits", "einv.memo_misses")
    if any(name in absent for name in memo_names):
        absent.update(("einv.memo_lookups", "einv.memo_hit_ratio"))
    lookups = counts["einv.memo_hits"] + counts["einv.memo_misses"]
    counts["einv.memo_lookups"] = lookups
    untraced = sum(r.job_s for r in cold)
    values = {
        **spans,
        **counts,
        "einv.memo_hit_ratio": counts["einv.memo_hits"] / lookups if lookups else 0.0,
        "trace.coverage": sum(spans.values()) / untraced if untraced else 0.0,
        "trace.overhead_s": sum(r["job_s"] for r in traced) - untraced,
    }
    for name in absent:
        values.pop(name, None)
    return values, sorted(absent)


# ---------------------------------------------------------------- metadata


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(seed: int, results: list[JobResult]) -> dict:
    reported = next((r.versions for r in results if r.versions), {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reported.get("numpy"),
        "networkx": reported.get("networkx"),
        "schur_clusters": reported.get("schur_clusters"),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------- runs


def measure(workload: wl.Workload, seconds: float, deadline: float):
    """Passes over the job list until the next one would end after `seconds`."""
    start = time.perf_counter()
    passes = []
    while True:
        began = time.perf_counter()
        passes.append([run_job(job, deadline) for job in workload.jobs])
        now = time.perf_counter()
        if now - start + (now - began) > seconds or now + (now - began) > deadline:
            return passes


def trace(workload: wl.Workload, deadline: float):
    cold, traced = [], []
    for job in workload.jobs:
        result = run_job(job, deadline)
        record = None
        if result.ok:
            record, reason = run_traced_job(job, deadline)
            if record is None:
                result.ok, result.reason = False, reason
        cold.append(result)
        if record is not None:
            traced.append(record)
    return cold, traced


def _say(line: str = "") -> None:
    print(line, flush=True)


def report_failures(results: list[JobResult]) -> None:
    for r in results:
        if not r.ok:
            _say(f"FAIL {r.name}: {r.reason}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
                 deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT) as tmp:
        workload = wl.build(name, seed, Path(tmp), smoke=smoke)
        _say(f"== {name} (seed {seed}, {len(workload.jobs)} jobs, "
             f"{'traced' if traced else 'untraced'}{', smoke' if smoke else ''})")
        if traced:
            results, records = trace(workload, deadline)
            metrics, absent = per_layer(results, records)
            units = PER_LAYER
            extra = {"spans": [s for r in records for s in r["spans"]], "absent": absent}
        else:
            passes = measure(workload, seconds, deadline)
            results = [r for p in passes for r in p]
            metrics = end_to_end(workload, passes)
            wall = end_to_end(workload, passes, normalized=False)
            units = END_TO_END
            extra = {"samples": metrics.pop("_samples"),
                     "wall": {k: v for k, v in wall.items() if k != "_samples"},
                     "jobs": [[(r.name, r.job_s, r.import_s, r.ref_s, r.rss_mb) for r in p]
                              for p in passes]}
    meta = run_metadata(seed, results)
    failed = sum(not r.ok for r in results)
    _say("meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    report_failures(results)
    if traced:
        for metric, value in metrics.items():
            _say(f"  {metric:24s} {_fmt(value):>14s} {units[metric]}")
        if extra["absent"]:
            _say("  absent (counter source missing): " + ", ".join(extra["absent"]))
    else:
        samples = extra["samples"]
        tail = tail_percentile(samples["pass_s"])
        tail_text = (f"p{tail[0]} = {tail[1]:.4f} s" if tail
                     else "no percentile has 10 passes beyond it")
        _say(f"  pass_s        {metrics['pass_s']:10.4f} s    median of "
             f"{len(samples['pass_s'])} passes; {tail_text}")
        _say(f"  largest_job_s {metrics['largest_job_s']:10.4f} s    {workload.largest}")
        _say(f"  setup_s       {metrics['setup_s']:10.4f} s    median of "
             f"{len(samples['setup_s'])} imports")
        _say(f"  peak_rss_mb   {metrics['peak_rss_mb']:10.2f} MiB  "
             "median of per-pass maxima")
        wall = extra["wall"]
        _say(f"  unscaled wall medians: pass {wall['pass_s']:.4f} s, largest job "
             f"{wall['largest_job_s']:.4f} s, import {wall['setup_s']:.4f} s")
    _say(f"  fail_ratio    {failed / len(results):10.4f} 1    {failed}/{len(results)} jobs")
    record = {"workload": name, "trace": int(traced), "smoke": smoke, "meta": meta,
              "attempted": len(results), "failed": failed, "metrics": metrics, **extra}
    label = f"{name}-seed{seed}-trace{int(traced)}{'-smoke' if smoke else ''}"
    (OUT / f"result-{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="A2/A3-sized inputs, one untraced and one traced run "
                         "of every workload")
    args = ap.parse_args(argv)
    started = time.perf_counter()
    # Turn a termination request into SystemExit, so that subprocess.run
    # kills and reaps the running child and temporary inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_setup()
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot set up the program: {exc}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" or args.smoke else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)
    seconds = 0.0 if args.smoke else args.seconds
    attempted = failed = 0
    metrics = {}
    deadline = started + (RUN_DEADLINE_S if len(names) == 1 else math.inf)
    for name in names:
        for traced in modes:
            part = run_workload(name, args.seed, seconds, traced, args.smoke,
                                deadline)
            attempted += part["attempted"]
            failed += part["failed"]
            if len(names) == 1 and len(modes) == 1:
                metrics = part["metrics"]
            else:
                prefix = f"{name}{'.traced' if traced else ''}"
                metrics |= {f"{prefix}/{k}": v for k, v in part["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
