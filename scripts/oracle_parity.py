"""Compare `verify-lattice --oracle` reports of two source trees.

    python3 scripts/oracle_parity.py OLD_SRC NEW_SRC [--n 3 4 8]

OLD_SRC and NEW_SRC are `src` directories of two checkouts.  Every lattice of
two to five elements (the hand-written list in perfbench/inputs.py, which is
also what the benchmark's `oracle` workload reads) is run
with the full and the minimal presentation at each pitch N, under the
`--max-candidates 4000000` the benchmark gives its two-gate oracle jobs.
Where the old tree exits 0 or 1, the new tree must print the same report
apart from `timing_ms` and exit with the same code; where the old tree exits
2, both outcomes are listed.  Exits 1 if any report differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)


def run(src: str, argv: list[str]) -> tuple[int, dict]:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "latcirc.cli", *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    report = json.loads(proc.stdout)
    report.pop("timing_ms", None)
    return proc.returncode, report


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--n", type=int, nargs="+", default=[3, 4, 8])
    args = p.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for fam in inputs.fixed_lattices():
            if len(fam.masks) < 2:
                continue
            path = Path(tmp) / f"{fam.name}.json"
            path.write_text(fam.to_json(), encoding="utf-8")
            for pres in ("full", "minimal"):
                for n in args.n:
                    argv = ["--max-candidates", "4000000", "verify-lattice",
                            str(path), "--presentation", pres, "--oracle", str(n)]
                    old = run(args.old_src, argv)
                    new = run(args.new_src, argv)
                    name = f"{fam.name} {pres} n={n}"
                    if old[0] == 2:
                        print(f"{name}: old exits 2 ({old[1]['error']}); "
                              f"new exits {new[0]} {new[1].get('verdict')}")
                    elif old == new:
                        print(f"{name}: identical (exit {old[0]})")
                    else:
                        differ += 1
                        print(f"{name}: DIFFERS\n  old {old}\n  new {new}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
