"""Workload job lists: each job is one user-level verification plus its check.

A job is a ``latcirc.cli.main([...])`` call made in-process with stdout
captured, or, where no CLI command exists, a direct library call that checks
one of the paper's claims.  Only ``run`` is timed; ``check`` runs afterwards
and returns None or the reason the job failed.  Checks are cheap and never
rerun the path being timed: their expectations come from the benchmark's own
input representation (see inputs.py) or from a different library path.

Library functions are always looked up on their module at call time, so the
traced run's patched bindings are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs

# every in1/in2/out pattern except 001 (both inputs out, output in)
PLAIN_PATTERNS = sorted(f"{n:03b}" for n in range(8) if n != 0b001)
DAGGER_PATTERNS = ["00", "10", "11"]

# Sizes are fixed per workload; the seed only changes shapes (see inputs.py).
# Twelve lattices of the largest size, whose 2^16-mask filter scans carry
# order_core's share of the pass.  Twenty of six elements, whose jobs cost
# about the same as the fixed 5-element ones, so that the median falls inside
# that dense group rather than among the sparse, shape-dependent 8- and
# 10-element jobs.
LATTICE_SIZES = (6, 8, 10, 12, 14, 6, 8, 10, 12, 14, 16, 16, 16, 16, 16, 16) + (6,) * 18 + (16,) * 6
# The minimal searches on M3 and l5_b2_high take 5.5-11 s each.  Run once per
# pass they would fill most of the run, so a run would see only one or two
# passes and its figures would hang on the host's speed in those seconds.
# Their cost is recorded as a wall in README.md instead.
MINIMAL_LEFT_OUT = ("l5_m3", "l5_b2_high")
SEMILATTICE_SIZES = (16, 18, 20)
Y0_RAILS = 6
# Six cheap Y and W jobs sit below the three tower jobs at n=200 (fixed
# inputs, close in cost), so the truncation median falls inside that group
# instead of on a gap between two clusters of different jobs.
Y_TRUNCATION_SIZES = (8, 10, 12, 14, 16)
W_BASE_CELLS = (10, 20, 40, 60, 100)
W_TOP_SLICE = 6
DIRECTED_SYSTEMS = ((6, 2), (4, 4))  # (stages, subdivision)
PROBES = ((8, 100), (12, 40))  # (n, probe count)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    argv: list[str] | None = None  # set for CLI jobs


@dataclass
class Workload:
    name: str
    jobs: list  # one pass, in order
    warmups: list  # one cheap untimed job per CLI command the pass uses


@dataclass(frozen=True)
class CliOutcome:
    rc: int
    out: str
    err: str


def call_cli(lc, argv: list[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lc.cli.main(argv)
    return CliOutcome(rc, out.getvalue(), err.getvalue())


def cli_check(check_results):
    """The report must exit 0, pass, and have results that satisfy the check."""

    def check(o: CliOutcome):
        if o.rc != 0:
            return f"exit {o.rc}: {o.err.strip()[:200]}"
        report = json.loads(o.out)
        if report.get("verdict") != "pass":
            return f"verdict {report.get('verdict')}"
        return check_results(report["results"])

    return check


def cli_job(lc, name: str, argv: list[str], check_results) -> Job:
    return Job(name, lambda: call_cli(lc, argv), cli_check(check_results), argv)


def warmup_jobs(lc, argvs: list[list[str]]) -> list[Job]:
    """Cheap calls of each CLI command, run untimed at set-up.

    They are checked only for exit 0 and a pass verdict.
    """
    return [cli_job(lc, f"warm-up {argv[0]}", argv, lambda results: None) for argv in argvs]


def expect(**want):
    """A results check comparing named fields with expected values."""

    def check(results):
        for key, value in want.items():
            if results.get(key) != value:
                return f"{key} = {results.get(key)!r}, expected {value!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# oracle


def oracle_workload(lc, inp: inputs.Inputs, rng: random.Random) -> Workload:
    jobs = []
    for n in (8, 12, 16, 24, 32):
        jobs.append(
            cli_job(lc, f"gate-oracle plain n={n}", ["gate-oracle", "--n", str(n)],
                    expect(patterns=PLAIN_PATTERNS, definables=7))
        )
    for n in (8, 16, 32):
        jobs.append(
            cli_job(lc, f"gate-oracle dagger n={n}",
                    ["gate-oracle", "--variant", "dagger", "--n", str(n)],
                    expect(patterns=DAGGER_PATTERNS, definables=3))
        )
    for n, count in PROBES:
        seed = rng.randrange(1 << 31)
        jobs.append(
            cli_job(lc, f"gate-oracle probes n={n}",
                    ["gate-oracle", "--n", str(n), "--probes", str(count), "--seed", str(seed)],
                    _probe_check(count))
        )
    jobs.append(Job("saturated scan n=4", lambda: _saturated_scan(lc, 4), _saturated_check(lc)))
    chain4 = inp.files["l4_chain"]
    for n in (4, 8):
        jobs.append(
            cli_job(lc, f"verify-lattice chain4 minimal oracle={n}",
                    ["--max-candidates", "4000000", "verify-lattice", chain4,
                     "--presentation", "minimal", "--oracle", str(n)],
                    _oracle_agrees(4, inputs.MINIMAL_GATES["l4_chain"], n))
        )
    warmups = warmup_jobs(lc, [
        ["gate-oracle", "--n", "4"],
        ["verify-lattice", inp.files["l3_chain"], "--presentation", "minimal", "--oracle", "4"],
    ])
    return Workload("oracle", jobs, warmups)


def _probe_check(count: int):
    def check(results):
        bad = expect(patterns=PLAIN_PATTERNS, definables=7)(results)
        if bad:
            return bad
        probes = results.get("probes", {})
        if probes.get("count") != count or probes.get("unexpected_definable") != []:
            return f"probes {probes!r}"
        return None

    return check


def _saturated_scan(lc, n: int):
    dc = lc.gate.discretize(n)
    found = lc.finspace.enumerate_definable(
        dc.space, dc.r_min, lc.gate.saturated_candidates(dc)
    )
    return dc, found


def _saturated_check(lc):
    def check(outcome):
        dc, found = outcome
        if found != list(lc.gate.oracle(dc).definable):
            return "brute-force scan differs from gate.oracle"
        patterns = sorted("".join(map(str, dc.pattern(d))) for d in found)
        if patterns != PLAIN_PATTERNS:
            return f"patterns {patterns}"
        return None

    return check


def _oracle_agrees(size: int, gates: int, n: int):
    def check(results):
        bad = expect(iso="pass", elements=size, definables=size, gates=gates)(results)
        if bad:
            return bad
        if results.get("oracle") != {"n": n, "definables": size, "agrees": True}:
            return f"oracle {results.get('oracle')!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# lattice


def lattice_workload(lc, inp: inputs.Inputs, rng: random.Random) -> Workload:
    jobs = []
    names = [f.name for f in inputs.fixed_lattices() if len(f.masks) >= 2]
    names += [name for name in inp.families if name.startswith("lat")]
    for name in names:
        fam = inp.families[name]
        size = len(fam.masks)
        jobs.append(
            cli_job(lc, f"verify-lattice {name} full",
                    ["verify-lattice", inp.files[name], "--presentation", "full"],
                    expect(iso="pass", elements=size, definables=size,
                           gates=fam.full_gate_count()))
        )
        jobs.append(
            cli_job(lc, f"filters {name} as-lattice",
                    ["filters", inp.files[name], "--as-lattice"],
                    _filters_check(fam, include_empty=False))
        )
    for name, gates in inputs.MINIMAL_GATES.items():
        if name not in MINIMAL_LEFT_OUT:
            jobs.append(_minimal_job(lc, inp, name, gates))
    jobs.append(_corpus_job(lc, 5))
    chain2 = inp.files["l2_chain"]
    warmups = warmup_jobs(lc, [
        ["verify-lattice", chain2, "--presentation", "full"],
        ["filters", chain2, "--as-lattice"],
    ])
    return Workload("lattice", jobs, warmups)


def _filters_check(fam: inputs.Family, include_empty: bool):
    """Every nonempty filter of a finite meet-semilattice is principal."""
    want = {fam.up_set(i) for i in range(len(fam.masks))}
    if include_empty:
        want.add(frozenset())

    def check(results):
        got = [frozenset(f) for f in results["filters"]]
        if len(got) != len(want) or set(got) != want:
            return f"{len(got)} filters, expected the {len(want)} principal ones"
        if len(results["lattice"]["elements"]) != len(want):
            return "filter lattice size differs from the filter count"
        return None

    return check


def _minimal_job(lc, inp: inputs.Inputs, name: str, gates: int) -> Job:
    """verify-lattice --presentation minimal, keeping the built circuit.

    The report gives only counts, so the circuit build_minimal returned is
    kept by a pass-through wrapper installed for this one call, and its gate
    triples are checked with circuit.is_adequate.
    """
    size = len(inp.families[name].masks)
    argv = ["verify-lattice", inp.files[name], "--presentation", "minimal"]
    kept = []

    def run():
        original = lc.circuit.build_minimal

        def keep(*args, **kwargs):
            circ = original(*args, **kwargs)
            kept.append((args[0], circ))
            return circ

        kept.clear()
        lc.circuit.build_minimal = keep
        try:
            return call_cli(lc, argv)
        finally:
            lc.circuit.build_minimal = original

    counts = expect(iso="pass", elements=size, definables=size, gates=gates)

    def results_check(results):
        bad = counts(results)
        if bad:
            return bad
        if len(kept) != 1:
            return "build_minimal was not called exactly once"
        lat, circ = kept[0]
        nodes = lat.nontop()  # one circuit node per non-top element, in order
        triples = [(nodes[i], nodes[j], nodes[k]) for i, j, k in circ.gates]
        if not lc.circuit.is_adequate(lat, triples):
            return "minimal presentation is not adequate"
        return None

    return Job(f"verify-lattice {name} minimal", run, cli_check(results_check), argv)


def _corpus_job(lc, k_max: int) -> Job:
    """Generate every lattice up to k_max elements and match each class.

    Counts must follow OEIS A006966, and every generated class must be
    ``iso`` to one of the hand-written inputs, parsed once at set-up.
    """
    oc = lc.order_core
    own = [oc.as_lattice(oc.parse_poset(f.to_json())) for f in inputs.fixed_lattices()]

    def run():
        corpus = [lc.order_core.all_lattices_up_to_iso(k) for k in range(1, k_max + 1)]
        unmatched = [
            lat.n for level in corpus for lat in level
            if not any(lc.order_core.iso(lat, o) is not None for o in own)
        ]
        return [len(level) for level in corpus], unmatched

    def check(outcome):
        counts, unmatched = outcome
        if counts != [1, 1, 1, 2, 5]:
            return f"counts {counts}, expected [1, 1, 1, 2, 5] (OEIS A006966)"
        if unmatched:
            return f"lattices of sizes {unmatched} match no fixed input"
        return None

    return Job(f"corpus up to {k_max}", run, check)


# ---------------------------------------------------------------------------
# truncation


def truncation_workload(lc, inp: inputs.Inputs, rng: random.Random) -> Workload:
    jobs = []
    for kind, ns in (("forward", (200, 400)), ("exact-pair", (200, 400)), ("reverse", (50, 75, 100))):
        for n in ns:
            jobs.append(
                cli_job(lc, f"tower {kind} n={n} limit",
                        ["tower", "--kind", kind, "--n", str(n), "--limit"],
                        _tower_check(kind, n))
            )
    for size in SEMILATTICE_SIZES:
        name = f"msl{size}"
        fam = inp.families[name]
        jobs.append(
            cli_job(lc, f"filters {name} include-empty as-lattice",
                    ["filters", inp.files[name], "--include-empty", "--as-lattice"],
                    _filters_check(fam, include_empty=True))
        )
        jobs.append(
            cli_job(lc, f"y0 {name} k={Y0_RAILS}",
                    ["y0", inp.files[name], "--k", str(Y0_RAILS)],
                    expect(match=True, rails=Y0_RAILS,
                           assignments=fam.truncated_filter_count(Y0_RAILS)))
        )
    for size in Y_TRUNCATION_SIZES:
        name = f"ysl{size}"
        jobs.append(Job(f"solder Y {name} k={size}", _y_truncation(lc, inp, name), _short_circuit_ok))
    for cells in W_BASE_CELLS:
        name = f"base{cells}"
        jobs.append(Job(f"build W {name}", _w_job(lc, inp, name), _w_check))
    for stages, n in DIRECTED_SYSTEMS:
        jobs.append(
            Job(f"directed system forward stages={stages} n={n}",
                _directed_job(lc, stages, n), _directed_check)
        )
    small = inp.files[f"ysl{Y_TRUNCATION_SIZES[0]}"]
    warmups = warmup_jobs(lc, [
        ["tower", "--kind", "forward", "--n", "10", "--limit"],
        ["filters", small, "--include-empty", "--as-lattice"],
        ["y0", small, "--k", "2"],
    ])
    return Workload("truncation", jobs, warmups)


def _tower_check(kind: str, n: int):
    def check(results):
        expected = n + 4 if kind == "exact-pair" else n + 2
        bad = expect(definables=expected, restriction_coherent=True)(results)
        if bad:
            return bad
        if kind == "exact-pair":
            limit = results["limit"]
            if limit["meet_exists"] or limit["lower_bounds_have_maximum"]:
                return f"exact pair limit {limit!r}"
        return None

    return check


def _y_truncation(lc, inp: inputs.Inputs, name: str):
    fam = inp.families[name]
    text = fam.to_json()
    enumeration = fam.y0_enumeration()

    def run():
        m = lc.order_core.as_meet_semilattice(lc.order_core.parse_poset(text))
        yt = lc.tower.solder_Y_truncation(m, enumeration, len(fam.masks))
        return lc.tower.verify_short_circuit(yt)

    return run


def _short_circuit_ok(report):
    return None if report.ok else f"short circuit fails at {report.offending}"


def _w_job(lc, inp: inputs.Inputs, name: str):
    slices, dist = inp.bases[name]

    def run():
        fs = lc.finspace
        base = fs.DiscreteSpace(
            tuple(fs.Cell(i, 0, f"b{i}") for i in range(len(slices))),
            tuple(1 << i for i in range(len(slices))),
            dict(dist),
            tuple(Fraction(v) for v in slices),
            Fraction(1, 4),
        )
        h1, h2 = lc.tower.default_turn_functions(W_TOP_SLICE)
        w = lc.tower.build_W(base, h1, h2)
        diags = fs.validate(w.space)
        covers = [lc.tower.check_cover_radius(w, r).ok for r in (Fraction(1, 2), Fraction(1, 3))]
        return w.space.n, len(slices), diags, covers

    return run


def _w_check(outcome):
    n, base_n, diags, covers = outcome
    if n != 3 * base_n:
        return f"W has {n} cells, expected {3 * base_n}"
    if diags:
        return f"W does not validate: {diags[0]}"
    if covers != [True, True]:
        return f"cover radius fails: {covers}"
    return None


def _directed_job(lc, stages: int, n: int):
    def run():
        kind = lc.tower.TowerKind.FORWARD_CHAIN
        spaces = [
            lc.circuit.discretize(lc.tower.truncate(kind, k), n).space
            for k in range(1, stages + 1)
        ]
        embeddings = [tuple(range(spaces[k].n)) for k in range(stages - 1)]
        return lc.tower.check_directed_system(spaces, embeddings)

    return run


def _directed_check(report):
    if not (report.crisp and report.eventually_open) or report.embedding_violations:
        return "directed system not crisp, not eventually open, or distorted"
    return None


# ---------------------------------------------------------------------------
# inputs per workload


def generate_inputs(workload: str, seed: int, workdir: Path) -> inputs.Inputs:
    """Draw, write and digest the inputs of one workload from its seed."""
    rng = random.Random(f"{workload}:{seed}")
    inp = inputs.Inputs(workdir, {}, {}, {})
    fams = {f.name: f for f in inputs.fixed_lattices()}
    if workload == "lattice":
        for i, size in enumerate(LATTICE_SIZES):
            fams[f"lat{i:02d}_{size}"] = inputs.draw_family(rng, 6, size, f"lat{i:02d}_{size}")
    elif workload == "truncation":
        for size in SEMILATTICE_SIZES:
            fams[f"msl{size}"] = inputs.drop_top(inputs.draw_family(rng, 7, size + 1, f"msl{size}"))
        for size in Y_TRUNCATION_SIZES:
            fams[f"ysl{size}"] = inputs.drop_top(inputs.draw_family(rng, 6, size + 1, f"ysl{size}"))
        for cells in W_BASE_CELLS:
            inp.bases[f"base{cells}"] = inputs.draw_sliced_base(rng, cells, W_TOP_SLICE)
    inp.families.update(fams)
    inputs.write_inputs(inp, {name: f.to_json() for name, f in fams.items()})
    return inp


def validate_inputs(lc, inp: inputs.Inputs) -> None:
    """Parse every written input the way the CLI does and compare structures.

    Raises ValueError when a file does not parse to the drawn family: same
    size, and meets that are intersections.
    """
    oc = lc.order_core
    for name, fam in inp.families.items():
        with open(inp.files[name], encoding="utf-8") as fh:
            poset = oc.parse_poset(fh.read())
        build = oc.as_lattice if fam.is_lattice else oc.as_meet_semilattice
        structure = build(poset)
        masks = fam.masks
        if structure.n != len(masks):
            raise ValueError(f"{name}: {structure.n} elements, drew {len(masks)}")
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if masks[structure.meet[i][j]] != a & b:
                    raise ValueError(f"{name}: meet of {i} and {j} is not the intersection")
    for name, (slices, dist) in inp.bases.items():
        fs = lc.finspace
        base = fs.DiscreteSpace(
            tuple(fs.Cell(i, 0) for i in range(len(slices))),
            tuple(1 << i for i in range(len(slices))),
            dict(dist),
            tuple(Fraction(v) for v in slices),
        )
        diags = fs.validate(base)
        if diags:
            raise ValueError(f"{name}: {diags[0]}")


BUILDERS = {
    "oracle": oracle_workload,
    "lattice": lattice_workload,
    "truncation": truncation_workload,
}


def build_workload(lc, name: str, inp: inputs.Inputs, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}:jobs")
    return BUILDERS[name](lc, inp, rng)
