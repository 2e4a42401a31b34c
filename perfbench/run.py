"""The latcirc benchmark: one workload per process, one job at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Each workload is a closed loop on one thread: a job starts when the previous
one has finished.  A run makes its inputs from ``--seed``, sets up several
times and keeps the median set-up time, then runs whole passes over the job
list.  The number of passes comes from ``--seconds`` and a reference
pass time per workload, never from the speed of the code being measured, so
every commit measured with the same settings runs the same jobs and its tail
percentile means the same thing.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it runs one pass untraced and the same pass traced, and reports
per-layer metrics.  Earlier lines are a human-readable report.  See README.md
in this directory for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import jobs as jobs_mod
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MODULES = ("cli", "circuit", "gate", "finspace", "order_core", "tower")
SETUP_REPS = 5

# Times the import of the six modules in a fresh interpreter, after its own
# start-up; argv[1] is the src directory.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    + "; ".join(f"import latcirc.{name}" for name in MODULES)
    + "; print(time.perf_counter() - t)"
)

# Seconds one pass takes at the commit that defined the benchmark (2-core
# x86-64 container, Python 3.11).  Only used to turn --seconds into a pass
# count; changing the code under test never changes how many passes run.
REFERENCE_PASS_S = {"oracle": 4.7, "lattice": 4.0, "truncation": 8.5}

# Layers the workload is meant to stress; the traced run reports whether the
# largest self times confirm it.
PREDICTED = {
    "oracle": ["finspace", "gate"],
    "lattice": ["circuit"],
    "truncation": ["circuit", "order_core"],
}

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_latcirc():
    """The library under ``src/`` of this checkout, and nothing else."""
    src = ROOT / "src"
    if not (src / "latcirc" / "__init__.py").is_file():
        raise ImportError(f"no latcirc package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"latcirc.{name}") for name in MODULES}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(src):
            raise ImportError(f"{mod.__name__} was imported from {mod.__file__}")
    return SimpleNamespace(**mods)


def import_seconds() -> float:
    """Median import time of the library over SETUP_REPS fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def run_job(job, tracer=None, job_id=None):
    """Time one job; return (seconds, failure reason or None)."""
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    try:
        outcome = job.run()
        error = None
    except (Exception, SystemExit) as exc:  # a failed job is recorded, never fatal
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            if tracer is not None:
                with tracer.paused():
                    error = job.check(outcome)
            else:
                error = job.check(outcome)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, error


def run_passes(job_list, passes: int, tracer=None):
    """Closed loop over whole passes; returns latencies, failures, wall time."""
    latencies, failures = [], []
    start = time.perf_counter()
    for p in range(passes):
        for i, job in enumerate(job_list):
            elapsed, error = run_job(job, tracer, f"{p}:{i}")
            if error is None:
                latencies.append(elapsed)
            else:
                failures.append({"job": job.name, "error": error})
    return latencies, failures, time.perf_counter() - start


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n samples beyond it.

    With fewer than eleven samples it is the 100th: the slowest job.
    """
    return 100.0 if n <= 10 else 100.0 * (n - 10) / n


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of values.

    A weighted mean of all order statistics, the weights being the mass of a
    Beta((n+1)p, (n+1)(1-p)) density over each rank's share of [0, 1].  The
    job mixes have gaps between groups of similar jobs; a single order
    statistic jumps across such a gap when a seed or the host's speed shifts
    a few samples, where this estimate moves with them smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    if p >= 1.0:
        return xs[-1]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    grid = 20000  # midpoint rule; dividing by the summed weights absorbs its error
    for k in range(grid):
        t = (k + 0.5) / grid
        weights[k * n // grid] += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def setup(lc, workload: str, seed: int, workdir: Path):
    """Generate, write and validate the inputs; return (inputs, workload)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    inp = jobs_mod.generate_inputs(workload, seed, workdir)
    jobs_mod.validate_inputs(lc, inp)
    return inp, jobs_mod.build_workload(lc, workload, inp, seed)


def warm_up(wl) -> None:
    """Run the workload's cheap warm-up call of each CLI command, untimed.

    First-call costs of each command then fall in set-up, not in the first
    timed job; the calls are cheap so that set-up time stays set-up work.
    """
    for job in wl.warmups:
        _, error = run_job(job)
        if error is not None:
            raise RuntimeError(f"{job.name} failed: {error}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(jobs_mod.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        lc = import_latcirc()
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    import_s = import_seconds()

    run_dir = WORK / f"{args.workload}-{args.seed}"
    setup_times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        inp, wl = setup(lc, args.workload, args.seed, run_dir / "inputs")
        warm_up(wl)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    passes = max(1, int(args.seconds // REFERENCE_PASS_S[args.workload]))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": inp.digest,
        "jobs_per_pass": len(wl.jobs),
    }
    if args.trace:
        result = traced_run(wl, run_dir, report)
    else:
        result = untraced_run(wl, passes, setup_s, report)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def untraced_run(wl, passes: int, setup_s: float, report: dict) -> dict:
    latencies, failures, wall = run_passes(wl.jobs, passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = passes * len(wl.jobs)
    tail_pct = tail_percentile(len(latencies))
    values = {
        "jobs_per_s": len(latencies) / wall,
        "job_ms_p50": quantile(latencies, 0.5) * 1e3 if latencies else 0.0,
        "job_ms_tail": quantile(latencies, tail_pct / 100) * 1e3 if latencies else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    report.update({
        "passes": passes,
        "wall_s": wall,
        "tail_percentile": tail_pct,
        "samples": len(latencies),
        "failures": failures,
        # failed_share is 0 on every workload, so it is reported here only
        "metrics": {**metrics, "failed_share": {"value": len(failures) / attempted, "unit": "ratio"}},
    })
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def traced_run(wl, run_dir: Path, report: dict) -> dict:
    _, failures_plain, untraced_wall = run_passes(wl.jobs, 1)
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        _, failures_traced, traced_wall = run_passes(wl.jobs, 1, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(run_dir / "spans.jsonl")
    failures = failures_plain + failures_traced
    values = tracer.metrics(traced_wall, untraced_wall)
    units = spans.metric_units()
    by_module = {mod: values[f"{mod}.self_ms"] for mod in spans.LAYERS}
    ranked = sorted(by_module, key=by_module.get, reverse=True)
    predicted = PREDICTED[wl.name]
    report.update({
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "module_self_ms": by_module,
        "dominant": ranked[: len(predicted)],
        "predicted": predicted,
        "prediction_confirmed": sorted(ranked[: len(predicted)]) == sorted(predicted),
        "failures": failures,
    })
    return {
        "correct": not failures,
        "attempted": 2 * len(wl.jobs),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


if __name__ == "__main__":
    sys.exit(main())
