"""Command-line surface: run constructions and verifications, emit JSON reports.

Each ``cmd_*`` handler returns ``(input_digest, results, ok)`` and ``main``
wraps it in the report, printed to stdout as JSON with sorted keys:
``command``, ``input_digest``, ``flags`` (the command's parsed options,
without the input file and without ``--max-candidates``), ``results``,
``verdict`` (``pass`` or ``fail``, from ``ok``) and ``timing_ms``.  The exit
code follows the verdict: 0 pass, 1 fail.  An input or usage error, or an
exceeded ``--max-candidates``, prints one line to stderr and the report
``{command, error, verdict: "error"}``, and exits 2.  Reports are
byte-identical for identical inputs and flags except for ``timing_ms``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import circuit as circuit_mod
from . import finspace, gate, order_core, tower


class InputError(Exception):
    pass


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_order(path: str, build):
    """Parse a poset file and build it with as_lattice or as_meet_semilattice."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return build(order_core.parse_poset(raw.decode("utf-8"))), _digest(raw)
    except ValueError as exc:  # OrderError, bad JSON, bad UTF-8
        raise InputError(str(exc)) from exc
    except RecursionError as exc:  # JSON nested past the parser's depth limit
        raise InputError(f"cannot parse {path}: nesting too deep") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad fraction {text!r}") from exc


def cmd_verify_lattice(args):
    lat, digest = _read_order(args.file, order_core.as_lattice)
    if args.presentation == "full":
        circ = circuit_mod.build_full(lat)
    else:
        circ = circuit_mod.build_minimal(lat, args.max_candidates)
    iso_res = circuit_mod.verify_iso(lat, circ, args.max_candidates)
    assignments = iso_res.assignments
    results = {
        "elements": len(lat.elements),
        "gates": circ.gate_count,
        "definables": len(assignments),
        "iso": "pass" if iso_res.ok else "fail",
    }
    if not iso_res.ok:
        results["witness"] = iso_res.witness
    ok = iso_res.ok
    if args.oracle:
        try:
            res = circuit_mod.oracle(circ, args.oracle, args.max_candidates)
        except gate.NoThreshold as exc:
            raise InputError(
                f"--oracle {args.oracle} leaves no distance threshold above "
                f"r_min = {exc.r_min}; use --oracle 3 or more"
            ) from exc
        symbolic = set(assignments)
        agree = (
            not res.refuted
            and set(res.patterns) == symbolic
            and res.definables == len(symbolic)
        )
        results["oracle"] = {
            "n": args.oracle,
            "definables": res.definables,
            "agrees": agree,
        }
        ok = ok and agree
    return digest, results, ok


def cmd_gate_oracle(args):
    if args.n < 2:
        raise InputError(f"subdivision n must be >= 2, got {args.n}")
    if args.probes < 0:
        raise InputError(f"--probes must be >= 0, got {args.probes}")
    dc = gate.discretize(args.n) if args.variant == "plain" else gate.discretize_dagger(args.n)
    r_min = _parse_fraction(args.r_min) if args.r_min else dc.r_min
    try:
        res = gate.oracle(dc, r_min, budget=args.max_candidates)
    except gate.NoThreshold as exc:
        raise InputError(
            f"r_min = {r_min} leaves no distance threshold in (r_min, 1] at "
            f"n = {args.n}; pass a smaller --r-min, e.g. --r-min 1/4"
        ) from exc
    expected = gate.expected_patterns(args.variant)
    ok = res.pattern_set == expected and len(res.definable) == len(expected)
    results = {
        "n": args.n,
        "r_min": str(r_min),
        "candidates": res.candidates,
        "definables": len(res.definable),
        "patterns": sorted("".join(map(str, p)) for p in res.patterns),
        "expected": sorted("".join(map(str, p)) for p in expected),
    }
    if args.probes:
        # the gate has definable sets outside the saturated family, so a
        # definable probe fails only when its pattern is not an expected one
        bad = []
        for d in finspace.random_closed_sets(dc.space, args.probes, args.seed):
            if finspace.is_definable(dc.space, d, r_min) and dc.pattern(d) not in expected:
                bad.append(sorted(finspace.members(d)))
        results["probes"] = {
            "count": args.probes,
            "unexpected_definable": bad,
        }
        ok = ok and not bad
    return _digest(f"{args.variant}:{args.n}".encode()), results, ok


def cmd_tower(args):
    if args.n < 1:
        raise InputError(f"tower height must be >= 1, got {args.n}")
    kind = tower.TowerKind(args.kind)
    circ = tower.truncate(kind, args.n)
    assignments = circuit_mod.definable_assignments(circ, args.max_candidates)
    expected = args.n + 4 if kind is tower.TowerKind.EXACT_PAIR else args.n + 2
    fam = tower.LimitFamily(kind)
    assignment_set = set(assignments)
    coherent = all(
        tower.restrict(d, args.n) in assignment_set
        for d in fam.elements(args.n + 2)
    )
    ok = len(assignments) == expected and coherent
    results = {
        "nodes": len(circ.nodes),
        "gates": circ.gate_count,
        "definables": len(assignments),
        "expected": expected,
        "restriction_coherent": coherent,
    }
    if args.limit:
        limit: dict = {"contains_infinity": {}}
        for beta in (0, 1, 2):
            limit["contains_infinity"][f"D_{beta}"] = fam.d(beta).contains_infinity
        limit["contains_infinity"]["top"] = fam.top().contains_infinity
        if kind is tower.TowerKind.EXACT_PAIR:
            meet, lbs, has_max = fam.meet_analysis(
                fam.side("a"), fam.side("b"), 8
            )
            limit["meet_exists"] = meet is not None
            limit["lower_bounds_sampled"] = len(lbs)
            limit["lower_bounds_have_maximum"] = has_max
            ok = ok and meet is None and not has_max
        results["limit"] = limit
    return _digest(f"{args.kind}:{args.n}".encode()), results, ok


def cmd_filters(args):
    m, digest = _read_order(args.file, order_core.as_meet_semilattice)
    fs = order_core.filters(m, args.include_empty, args.max_candidates)
    results = {
        "count": len(fs),
        "filters": [sorted(m.elements[i] for i in f) for f in fs],
    }
    if args.as_lattice:
        lat = order_core.filter_lattice(m, fs)
        results["lattice"] = {
            "elements": list(lat.elements),
            "bottom": lat.elements[lat.bottom],
            "top": lat.elements[lat.top],
            "covers": [
                [lat.elements[i], lat.elements[j]] for i, j in lat.poset.covers()
            ],
        }
    return digest, results, True


def cmd_y0(args):
    m, digest = _read_order(args.file, order_core.as_meet_semilattice)
    if args.k > m.n:
        raise InputError(f"k={args.k} exceeds the {m.n} enumerated elements")
    enumeration = tuple(range(m.n))
    if enumeration[0] != m.bottom:
        enumeration = (m.bottom,) + tuple(
            i for i in range(m.n) if i != m.bottom
        )
    circ = circuit_mod.build_Y0(m, enumeration, args.k)
    offs = circuit_mod.y0_assignment_offsets(circ, args.max_candidates)
    truncated = circuit_mod.truncated_filters(m, enumeration, args.k, args.max_candidates)
    match = offs == truncated
    results = {
        "k": args.k,
        "rails": len(circ.nodes),
        "gates": circ.gate_count,
        "assignments": len(offs),
        "truncated_filters": len(truncated),
        "match": match,
    }
    return digest, results, match


def _dot_id(label: str) -> str:
    """A DOT quoted string naming ``label``; distinct labels stay distinct."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_export_dot(args):
    lat, digest = _read_order(args.file, order_core.as_lattice)
    if args.what == "hasse":
        covers = lat.poset.covers()
        ids = [_dot_id(e) for e in lat.elements]
        lines = ["digraph hasse {"]
        for e in ids:
            lines.append(f"  {e};")
        for i, j in covers:
            lines.append(f"  {ids[i]} -> {ids[j]};")
        lines.append("}")
        text = "\n".join(lines) + "\n"
        nodes, edges = len(lat.elements), len(covers)
    else:
        circ = circuit_mod.build_minimal(lat, args.max_candidates)
        ids = [_dot_id(node) for node in circ.nodes]
        lines = ["digraph circuit {"]
        for node in ids:
            lines.append(f"  {node} [shape=circle];")
        for gi, (i, j, k) in enumerate(circ.gates):
            lines.append(f'  gate{gi} [shape=box, label="AND"];')
            lines.append(f"  {ids[i]} -> gate{gi};")
            lines.append(f"  {ids[j]} -> gate{gi};")
            lines.append(f"  gate{gi} -> {ids[k]};")
        lines.append("}")
        text = "\n".join(lines) + "\n"
        nodes, edges = len(circ.nodes), circ.gate_count
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    return digest, {"written": args.out, "nodes": nodes, "edges": edges}, True


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="latcirc",
        description="Lattice gate circuits and their definable-set families.",
    )
    p.add_argument(
        "--max-candidates",
        type=int,
        default=finspace.DEFAULT_BUDGET,
        help="bound on exhaustive-search candidates (error when exceeded)",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify-lattice", help="circuit + filter-lattice check")
    v.add_argument("file")
    v.add_argument("--presentation", choices=["full", "minimal"], default="full")
    v.add_argument("--oracle", type=int, default=0, metavar="N",
                   help="also discretize at pitch 1/N and cross-check")

    g = sub.add_parser("gate-oracle", help="definable sets of one gate")
    g.add_argument("--variant", choices=["plain", "dagger"], default="plain")
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--r-min", default=None, help="fraction, default 2/n")
    g.add_argument("--probes", type=int, default=0,
                   help="random closed sets; each definable one must show an "
                   "expected pattern")
    g.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("tower", help="chain / exact-pair truncations")
    t.add_argument("--kind", choices=["forward", "reverse", "exact-pair"],
                   default="forward")
    t.add_argument("--n", type=int, default=6)
    t.add_argument("--limit", action="store_true",
                   help="also query the symbolic limit family")

    f = sub.add_parser("filters", help="filters of a meet-semilattice")
    f.add_argument("file")
    f.add_argument("--include-empty", action="store_true")
    f.add_argument("--as-lattice", action="store_true")

    y = sub.add_parser("y0", help="truncated rail circuit vs filters")
    y.add_argument("file")
    y.add_argument("--k", type=int, required=True)

    d = sub.add_parser("export-dot", help="DOT of a Hasse diagram or circuit")
    d.add_argument("what", choices=["hasse", "circuit"])
    d.add_argument("file")
    d.add_argument("-o", "--out", required=True)
    return p


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.time()
    # looked up per call, so a rebound cmd_* is the one that runs
    handler = globals()["cmd_" + args.cmd.replace("-", "_")]
    try:
        if args.max_candidates < 0:
            raise InputError(
                f"--max-candidates must be >= 0, got {args.max_candidates}"
            )
        digest, results, ok = handler(args)
    except (InputError, ValueError, finspace.BudgetExceeded) as exc:
        print(str(exc), file=sys.stderr)
        report = {"command": args.cmd, "error": str(exc), "verdict": "error"}
        code = 2
    else:
        unechoed = ("cmd", "file", "max_candidates")
        report = {
            "command": args.cmd,
            "input_digest": digest,
            "flags": {k: v for k, v in vars(args).items() if k not in unechoed},
            "results": results,
            "verdict": "pass" if ok else "fail",
            "timing_ms": int((time.time() - started) * 1000),
        }
        code = 0 if ok else 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
