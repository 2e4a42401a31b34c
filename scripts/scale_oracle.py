"""Time the factorized circuit oracle on the largest full circuit of 8 elements.

    python3 scripts/scale_oracle.py [--n 8] [--budget 4000000] [--src SRC]

The circuit is `circuit.build_full(l)` for the lattice `l` of 8 elements whose
full presentation has the most gates (307, over `all_lattices_up_to_iso(8)`;
the first such lattice in that list on a tie).  The script runs
`circuit.oracle(c, N, budget)` once and prints one JSON line: the gate count,
the wall time of that call, the process's peak RSS in MB
(`resource.getrusage`, so it includes the circuit's construction, which is
small), and the patterns, definables and refuted counts of the result.
SRC (default: this checkout's `src`) is put first on `sys.path`, so two
trees can be compared with the same script.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=8, help="subdivision of every gate")
    p.add_argument("--budget", type=int, default=4_000_000)
    p.add_argument("--src", default=str(ROOT / "src"))
    args = p.parse_args()
    sys.path.insert(0, args.src)
    from latcirc import circuit, order_core

    c = max(
        (circuit.build_full(l) for l in order_core.all_lattices_up_to_iso(8)),
        key=lambda c: len(c.gates),
    )
    start = time.perf_counter()
    res = circuit.oracle(c, args.n, args.budget)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "gates": len(c.gates),
        "n": args.n,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "patterns": len(res.patterns),
        "definables": res.definables,
        "refuted": len(res.refuted),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
