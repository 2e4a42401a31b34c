"""Time the Horn closure kernel on seeded random lattices of 40, 80 and 150 elements.

    python3 scripts/scale_horn.py [--sizes 40 80 150] [--seed 0] [--src SRC]

Each lattice is an intersection-closed family of subsets of 12 points with the
full set, ordered by inclusion (every finite lattice is one).  The family is
drawn here, by adding seeded random subsets and closing under intersection
until it has exactly the requested size (a draw that overshoots starts
again), so the inputs do not depend on the code under test.  For each size
the script runs two measures, each in a fresh interpreter:

- `filters`: `order_core.filters(l)`, whose closed sets come from the
  filter rules a => up(a) and a, b => a ^ b;
- `verify_full`: `circuit.verify_iso(l, circuit.build_full(l))`, one gate per
  qualifying triple, so its closure has the most rules per premise pair.

It prints one JSON line per measure: the size, the measure, the gate count
(for `verify_full`), the wall time of the measured call, the child process's
peak RSS in MB (`resource.getrusage`, so it includes building the lattice,
which is small) and the number of filters or assignments found.  SRC
(default: this checkout's `src`) is put first on `sys.path` in each child,
so two trees can be compared with the same script.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUND = 12
MEASURES = ("filters", "verify_full")


def draw_family(seed: int, size: int) -> list[int]:
    """Exactly ``size`` intersection-closed subsets of GROUND points, the full
    set among them, in ascending mask order."""
    rng = random.Random(f"scale_horn:{seed}:{size}")
    full = (1 << GROUND) - 1
    while True:
        fam = {full}
        while len(fam) < size:
            new = rng.randrange(full)
            fam |= {new} | {new & x for x in fam}
        if len(fam) == size:
            return sorted(fam)


def measure(src: str, size: int, seed: int, what: str) -> dict:
    sys.path.insert(0, src)
    from latcirc import circuit, order_core

    masks = draw_family(seed, size)
    lat = order_core.inclusion_lattice([f"s{m}" for m in masks], masks)
    out = {"size": size, "measure": what}
    start = time.perf_counter()
    if what == "filters":
        found = len(order_core.filters(lat))
    else:
        c = circuit.build_full(lat)
        res = circuit.verify_iso(lat, c)
        if not res.ok:
            raise SystemExit(f"verify_iso failed at {size} elements: {res.witness}")
        found = len(res.assignments)
        out["gates"] = len(c.gates)
    out["wall_s"] = round(time.perf_counter() - start, 3)
    out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    out["found"] = found
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[40, 80, 150])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--one", choices=MEASURES, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.one:
        [size] = args.sizes
        print(json.dumps(measure(args.src, size, args.seed, args.one)))
        return 0
    for size in args.sizes:
        for what in MEASURES:
            run = subprocess.run(
                [sys.executable, __file__, "--sizes", str(size), "--seed", str(args.seed),
                 "--src", args.src, "--one", what],
                capture_output=True, text=True,
            )
            if run.returncode:
                sys.stderr.write(run.stderr)
                return run.returncode
            sys.stdout.write(run.stdout)
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
