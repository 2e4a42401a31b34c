"""Compare the CLI reports of two source trees on lattice and filter inputs.

    python3 scripts/report_parity.py OLD_SRC NEW_SRC [--n 3 4 8]

OLD_SRC and NEW_SRC are `src` directories of two checkouts.  The inputs are
the hand-written lattices of one to five elements in perfbench/inputs.py
(also what the benchmark's `oracle` workload reads), the same lattices with
their top dropped, and malformed posets: a 2-cycle, a 3-cycle, a duplicate
label, an unknown label and a pair without a meet.  On every input both trees
run

- `verify-lattice --presentation full` and `--presentation minimal`,
- `filters` with no flag, with `--include-empty`, with `--as-lattice`, and
  with both,
- `y0 --k 1`, `y0 --k 2`, and `y0 --k 6`, which exceeds every input's
  element count and so exits 2,

and on every lattice of at least two elements `verify-lattice --oracle N` with
both presentations at each pitch N, under the `--max-candidates 4000000` the
benchmark gives its two-gate oracle jobs.  To pin which error wins when the
floor 2/N leaves no distance threshold and the budget is also too small, both
trees also run

- `gate-oracle --variant plain|dagger --n 2|3|4|8`, each with no extra flag,
  with `--r-min 1`, with `--r-min 1/4` and with `--probes 30 --seed 5`,
- `gate-oracle --n 8 --r-min=-1/4`, a negative floor that `thresholds`
  refuses before the budget is charged,
- `verify-lattice --oracle 2|3` on the two-element chain with both
  presentations,

each with and without `--max-candidates 10`.  They also run

- `gate-oracle --variant plain|dagger --n 16|32`, the pitches the
  benchmark's `oracle` workload runs,
- `gate-oracle --variant plain|dagger --n 8|32 --probes 200 --seed 7` and
  `gate-oracle --n 8 --r-min 0 --probes 50`, whose random closed sets
  exercise `is_definable` on sets of every size, at the default floor and
  at 0,
- `tower --kind forward|reverse|exact-pair --n 1|3|6`, each with and without
  `--limit`, and `--n 50|200 --limit`, plus `--kind forward|exact-pair
  --n 400 --limit` and `--kind reverse --n 75|100 --limit`: every size the
  benchmark's `truncation` workload runs; and the long chains
  `--kind reverse --n 400 --limit`, `--kind forward|exact-pair --n 800
  --limit`, `--kind forward --n 2000 --limit` and `--kind exact-pair
  --n 4000 --limit`,
- `verify-lattice --presentation full` on the lattices of 6 to 16 elements
  that the benchmark's `lattice` workload draws from seed 1,
- `y0 --k 1` to `--k 6` on the meet-semilattices that the `truncation`
  workload draws from seed 1, and `y0 --k 4` on B3 without its top, where
  both trees report 9 assignments against 8 truncated filters and exit 1
  (ROADMAP, Known defects),
- `export-dot hasse|circuit` on every lattice of at least two elements; both
  trees write to the same `-o` path, and the written file's bytes count as
  part of the report.

Each report, error reports included, must be the same apart from
`timing_ms`, with the same exit code.  Each tree also runs the brute-force
scan `finspace.enumerate_definable(dc.space, dc.r_min,
gate.saturated_candidates(dc))` (`python -c` under its `PYTHONPATH`) on the
plain and dagger gates at each pitch N and on the one-gate complex with a
free point z, and must find the same list of sets.

Last, each tree builds spaces and reports a digest of each field, which
must be equal field by field:

- `gate.build_complex` of one gate in each of the five shapes (terminals
  all distinct, in1 = in2, in1 = out, in2 = out, all equal), with and
  without a `terminal_order` that adds a free point, at n = 2, 3, 4, 5, 8,
  16 and 32, and `circuit.discretize(circuit.build_full(l), 4)` for every
  lattice of 2 to 6 elements: cells, the minimal-open table, `dist` with
  its insertion order, slices, resolution, edges, vertices, terminals,
  terminal order, copies and n.  The table is `s.open_masks()` in a tree
  that has it (an assembled space there keeps no `min_open`, and
  `open_masks()` reads it off the view) and `s.min_open` otherwise, so
  both trees digest the same table;
- `tower.build_W` on two sliced bases drawn as the `truncation` workload
  draws them: the space's fields as above, `copy_of` and `base_cell`.

Each tree also reports digests of what the metric layer reads off those
spaces, which must be equal too:

- `finspace.interior` of seeded masks, and `finspace.expand` of the same
  masks at every distance value of the space, on the plain and dagger gates
  at n = 2, 3, 8 and 32, on `circuit.discretize` of the full presentations
  of the chain of four and of N5 at n = 4, and on the two `build_W` spaces;
- the whole `tower.check_directed_system` report on the `truncation`
  workload's two forward systems (6 stages at n = 2, 4 stages at n = 4)
  and on a reverse system of 4 stages at n = 2, each embedded by identity;
- `gate.oracle`'s `definable`, `patterns` and `candidates` for the plain
  and dagger gates at every n = 2…32 (the error's text where it refuses).

Exits 1 if any report, scan or field differs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)
import jobs  # noqa: E402  (perfbench/jobs.py)

MALFORMED = {
    "cycle2": {"elements": ["x", "y"], "covers": [["x", "y"], ["y", "x"]]},
    "cycle3": {"elements": ["x", "y", "z"], "leq": [["x", "y"], ["y", "z"], ["z", "x"]]},
    "duplicate": {"elements": ["x", "y", "x"], "covers": [["x", "y"]]},
    "unknown": {"elements": ["x"], "covers": [["x", "z"]]},
    "meetless": {"elements": ["x", "y", "1"], "covers": [["x", "1"], ["y", "1"]]},
}

# B3 without its top, on which `y0 --k 4` gives the wrong verdict
B3_WITNESS = {
    "elements": ["0", "ab", "ac", "bc", "a", "b", "c"],
    "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "ab"], ["a", "ac"],
               ["b", "ab"], ["b", "bc"], ["c", "ac"], ["c", "bc"]],
}

COMMANDS = [
    ["verify-lattice", "--presentation", "full"],
    ["verify-lattice", "--presentation", "minimal"],
    ["filters"],
    ["filters", "--include-empty"],
    ["filters", "--as-lattice"],
    ["filters", "--as-lattice", "--include-empty"],
    ["y0", "--k", "1"],
    ["y0", "--k", "2"],
    ["y0", "--k", "6"],  # above the five elements of the largest input
]


def run(src: str, argv: list[str]) -> tuple[int, dict, bytes | None]:
    """Exit code, report without `timing_ms`, and the bytes written to `-o`."""
    out = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
    if out is not None:
        out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "latcirc.cli", *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    report = json.loads(proc.stdout)
    report.pop("timing_ms", None)
    written = out.read_bytes() if out is not None and out.exists() else None
    return proc.returncode, report, written


SCAN = """
import json, sys
from latcirc import finspace, gate
cases = {f"{v} n={n}": (gate.discretize if v == "plain" else gate.discretize_dagger)(n)
         for v in ("plain", "dagger") for n in map(int, sys.argv[1:])}
cases["free-point n=3"] = gate.build_complex([("a", "b", "c")], 3, ("a", "b", "c", "z"))
print(json.dumps({name: finspace.enumerate_definable(dc.space, dc.r_min,
                                                     gate.saturated_candidates(dc))
                  for name, dc in cases.items()}))
"""


BUILD = """
import hashlib, json, random, sys
from fractions import Fraction
from latcirc import circuit, finspace, gate, order_core, tower

def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()

def space_fields(s):
    opens = s.open_masks() if hasattr(s, "open_masks") else s.min_open
    return {"cells": digest(s.cells), "min_open": digest([hex(m) for m in opens]),
            "dist": digest(list(s.dist.items())), "slices": digest(s.slices),
            "resolution": digest(s.resolution)}

def complex_fields(dc):
    out = space_fields(dc.space)
    out.update({"edges": digest(dc.edges), "vertices": digest(dc.vertices),
                "terminals": digest(list(dc.terminals.items())),
                "terminal_order": digest(dc.terminal_order),
                "copies": digest(dc.copies), "n": digest(dc.n)})
    return out

sys.set_int_max_str_digits(0)
shapes = {"plain": ("a", "b", "c"), "inputs": ("a", "a", "c"), "in1-out": ("a", "b", "a"),
          "in2-out": ("a", "b", "b"), "all": ("a", "a", "a")}
out = {}
spaces = {}  # name -> a space whose interior and expand are digested below
for n in (2, 3, 8, 32):
    spaces[f"plain n={n}"] = gate.discretize(n).space
    spaces[f"dagger n={n}"] = gate.discretize_dagger(n).space
for name, lat in (("chain4", order_core.chain(4)), ("n5", order_core.n5())):
    spaces[f"discretize full {name} n=4"] = circuit.discretize(circuit.build_full(lat), 4).space
for n in (2, 3, 4, 5, 8, 16, 32):
    for name, labels in shapes.items():
        for order in (None, ("z", "a", "b", "c")):
            dc = gate.build_complex([labels], n, order)
            out[f"build_complex {name} n={n} order={order}"] = complex_fields(dc)
for k in range(2, 7):
    for i, lat in enumerate(order_core.all_lattices_up_to_iso(k)):
        out[f"discretize full {k}#{i} n=4"] = complex_fields(circuit.discretize(circuit.build_full(lat), 4))
for name, (slices, dist) in json.loads(sys.argv[1]).items():
    base = finspace.DiscreteSpace(
        tuple(finspace.Cell(i, 0, f"b{i}") for i in range(len(slices))),
        tuple(1 << i for i in range(len(slices))),
        {(a, b): Fraction(d) for a, b, d in dist}, tuple(map(Fraction, slices)), Fraction(1, 4))
    w = tower.build_W(base, *tower.default_turn_functions(6))
    fields = space_fields(w.space)
    fields.update({"copy_of": digest(w.copy_of), "base_cell": digest(w.base_cell)})
    out[f"build_W {name}"] = fields
    spaces[f"build_W {name}"] = w.space

def masks_fields(s, seed):
    rng = random.Random(seed)
    masks = [rng.getrandbits(s.n) for _ in range(8)]
    return {"interior": digest([hex(finspace.interior(s, d)) for d in masks]),
            "expand": digest([hex(finspace.expand(s, d, r)) for d in masks
                              for r in finspace.thresholds(s, Fraction(0))])}

for name, s in spaces.items():
    out[f"relations {name}"] = masks_fields(s, s.n)
for kind, stages, n in (("FORWARD_CHAIN", 6, 2), ("FORWARD_CHAIN", 4, 4), ("REVERSE_CHAIN", 4, 2)):
    system = [circuit.discretize(tower.truncate(tower.TowerKind[kind], k), n).space
              for k in range(1, stages + 1)]
    report = tower.check_directed_system(system, [tuple(range(s.n)) for s in system[:-1]])
    out[f"check_directed_system {kind} stages={stages} n={n}"] = {"report": digest(report)}
for n in range(2, 33):
    for variant, make in (("plain", gate.discretize), ("dagger", gate.discretize_dagger)):
        try:
            res = gate.oracle(make(n))
            fields = {"definable": digest(res.definable), "patterns": digest(res.patterns),
                      "candidates": digest(res.candidates)}
        except ValueError as err:
            fields = {"error": digest(str(err))}
        out[f"gate.oracle {variant} n={n}"] = fields
print(json.dumps(out))
"""


def build(src: str) -> dict:
    """Per built space, a digest of each field, as built by the tree at src."""
    rng = random.Random(5)
    bases = {}
    for cells in (20, 60):
        slices, dist = inputs.draw_sliced_base(rng, cells, 6)
        bases[f"base{cells}"] = (slices, [(a, b, str(d)) for (a, b), d in dist.items()])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", BUILD, json.dumps(bases)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def scan(src: str, pitches: list[int]) -> dict:
    """The brute-force scan's sets per complex, as found by the tree at src."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCAN, *map(str, pitches)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--n", type=int, nargs="+", default=[3, 4, 8])
    args = p.parse_args()
    lattices = inputs.fixed_lattices()
    texts = {fam.name: fam.to_json() for fam in lattices}
    texts.update({f"{fam.name}-top": inputs.drop_top(fam).to_json() for fam in lattices})
    texts.update({name: json.dumps(data) for name, data in MALFORMED.items()})
    exits: Counter = Counter()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, text in texts.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            for cmd, *flags in COMMANDS:
                runs.append([cmd, str(path), *flags])
        for fam in lattices:
            if len(fam.masks) < 2:
                continue
            path = str(Path(tmp) / f"{fam.name}.json")
            for pres in ("full", "minimal"):
                for n in args.n:
                    runs.append(["--max-candidates", "4000000", "verify-lattice", path,
                                 "--presentation", pres, "--oracle", str(n)])
            for what in ("hasse", "circuit"):
                runs.append(["export-dot", what, path, "-o", str(Path(tmp) / "out.dot")])
        for kind in ("forward", "reverse", "exact-pair"):
            for n in (1, 3, 6):
                for extra in ([], ["--limit"]):
                    runs.append(["tower", "--kind", kind, "--n", str(n), *extra])
            for n in (50, 200):
                runs.append(["tower", "--kind", kind, "--n", str(n), "--limit"])
        for kind, n in (("forward", 400), ("exact-pair", 400), ("reverse", 75), ("reverse", 100),
                        ("reverse", 400), ("forward", 800), ("exact-pair", 800),
                        ("forward", 2000), ("exact-pair", 4000)):
            runs.append(["tower", "--kind", kind, "--n", str(n), "--limit"])
        bench = Path(tmp) / "bench"
        for workload, seed in (("lattice", 1), ("truncation", 1)):
            inp = jobs.generate_inputs(workload, seed, bench / workload)
            for name, path in inp.files.items():
                if name.startswith("lat"):
                    runs.append(["verify-lattice", path, "--presentation", "full"])
                elif name.startswith("msl"):
                    runs += [["y0", path, "--k", str(k)] for k in range(1, 7)]
        b3 = Path(tmp) / "b3_witness.json"
        b3.write_text(json.dumps(B3_WITNESS), encoding="utf-8")
        runs.append(["y0", str(b3), "--k", "4"])
        for variant in ("plain", "dagger"):
            for n in (16, 32):
                runs.append(["gate-oracle", "--variant", variant, "--n", str(n)])
            for n in (8, 32):
                runs.append(["gate-oracle", "--variant", variant, "--n", str(n),
                             "--probes", "200", "--seed", "7"])
        runs.append(["gate-oracle", "--n", "8", "--r-min", "0", "--probes", "50"])
        floor_runs = []
        for variant in ("plain", "dagger"):
            for n in (2, 3, 4, 8):
                for extra in ([], ["--r-min", "1"], ["--r-min", "1/4"],
                              ["--probes", "30", "--seed", "5"]):
                    floor_runs.append(["gate-oracle", "--variant", variant, "--n", str(n), *extra])
        floor_runs.append(["gate-oracle", "--n", "8", "--r-min=-1/4"])
        chain2 = str(Path(tmp) / "l2_chain.json")
        for pres in ("full", "minimal"):
            for n in (2, 3):
                floor_runs.append(["verify-lattice", chain2, "--presentation", pres,
                                   "--oracle", str(n)])
        runs += floor_runs + [["--max-candidates", "10", *argv] for argv in floor_runs]
        for argv in runs:
            name = " ".join(Path(a).stem if a.startswith(tmp) else a for a in argv)
            old = run(args.old_src, argv)
            new = run(args.new_src, argv)
            exits[old[0]] += 1
            if old == new:
                print(f"{name}: identical (exit {old[0]})")
            else:
                differ += 1
                print(f"{name}: DIFFERS\n  old {old}\n  new {new}")
    print(f"{len(runs)} reports, {len(runs) - differ} identical, {differ} differ; "
          "old exit codes " + ", ".join(f"{k}: {v}" for k, v in sorted(exits.items())))
    old_scan, new_scan = scan(args.old_src, args.n), scan(args.new_src, args.n)
    unequal = 0
    for name, found in old_scan.items():
        if new_scan.get(name) == found:
            print(f"brute-force scan {name}: equal ({len(found)} sets)")
        else:
            unequal += 1
            print(f"brute-force scan {name}: DIFFERS\n  old {found}\n  new {new_scan.get(name)}")
    old_build, new_build = build(args.old_src), build(args.new_src)
    mismatched = 0
    for name, fields in old_build.items():
        other = new_build.get(name, {})
        bad = [field for field in fields if other.get(field) != fields[field]]
        if bad:
            mismatched += 1
            print(f"structure {name}: DIFFERS in {', '.join(bad)}")
        else:
            print(f"structure {name}: equal ({len(fields)} fields)")
    print(f"{len(old_build)} structures, {len(old_build) - mismatched} equal, "
          f"{mismatched} differ")
    return 1 if differ or unequal or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
