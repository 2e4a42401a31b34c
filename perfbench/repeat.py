"""Repeat the benchmark over seeds and summarize each metric's spread.

Usage, from the repository root:

    python3 perfbench/repeat.py --workload oracle --seeds 1-10 [--out summary.json]

Each run is a fresh ``perfbench/run.py`` process with the ``run_seconds`` of
BENCHMARK.json.  For every end-to-end metric it prints the median and the
quartile spread: the distance between the first and third quartiles as a
share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": values})
        print(seed, result["correct"], result["attempted"], result["failed"],
              json.dumps({k: round(v, 4) for k, v in values.items()}), flush=True)

    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "bound": bound}
        print(f"{name:12s} median {median:12.4f}  spread {(q3 - q1) / median:6.3f}  bound {bound}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "run_seconds": spec["run_seconds"],
             "runs": runs, "summary": summary}, indent=2) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
