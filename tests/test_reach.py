"""Reach ledger: every src/latcirc function is entered by a command or listed.

A fixed list of in-process ``cli.main`` calls covers every subcommand, its
main flags and its error exits.  They run in a fresh interpreter under
``sys.setprofile``, set before the package is imported, which records every
function of ``src/latcirc`` that is entered.  Each function that is never
entered must be listed in the ledger below, in one of three groups:

- BENCHMARK: called by ``perfbench/jobs.py`` or named in
  ``perfbench/spans.py``'s ``LAYERS``;
- ACCEPTANCE: called by the acceptance criterion of that number;
- WAITING: kept for the ROADMAP item of that number.

A listed function that a command enters fails the test too.  So does a
benchmark or acceptance entry that its group's code does not reach through
the names that the library's own functions call or read as attributes: a
function that only tests call belongs in ``tests/references.py``.  A change
that wires a listed function into a command, or deletes one, edits the
ledger.  Functions are named ``module.qualname`` without ``<locals>``, as in
``order_core.horn_closure.close``; a nested function counts as part of the
function that defines it.

Run alone, ``python tests/test_reach.py DIR`` (with ``src`` importable)
prints the entered names as JSON, with DIR for the input files.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latcirc"

BENCHMARK = {
    "circuit.is_adequate",
    "circuit.verify_iso.fail",  # entered only when a lattice check fails
    "finspace.DiscreteSpace._per_cell",
    "finspace.DiscreteSpace.closure_masks",
    "finspace.DiscreteSpace.distance",
    "finspace.DiscreteSpace.full_mask",
    "finspace.DiscreteSpace.neighbours",
    "finspace.DiscreteSpace.open_masks",
    "finspace._View.neighbours",
    "finspace._tile",
    "finspace.cellset",
    "finspace.closure",
    "finspace.enumerate_definable",
    "finspace.interior",
    "finspace.is_open",
    "finspace.is_open_metric",
    "finspace.openness_thresholds",
    "finspace.point_space",
    "finspace.validate",
    "gate.saturated_candidates",
    "gate.saturated_count",  # named in LAYERS, called by nothing
    "order_core._profiles",
    "order_core.all_lattices_up_to_iso",
    "order_core.iso",
    "order_core.iso.extend",
    "tower.PiecewiseLinearFn.__call__",
    "tower.PiecewiseLinearFn.__post_init__",
    "tower.YTruncation.copy_nodes",
    "tower._suspect_pairs",
    "tower.build_W",
    "tower.check_cover_radius",
    "tower.check_directed_system",
    "tower.default_turn_functions",
    "tower.solder_Y_truncation",
    "tower.solder_Y_truncation.find",
    "tower.solder_Y_truncation.node",
    "tower.solder_Y_truncation.union",
    "tower.verify_short_circuit",
}
# name -> acceptance criterion
ACCEPTANCE = {
    "circuit.smaller_adequate_exists": 2,
    "finspace.coproduct": 12,
    "finspace.is_closed": 12,
    "gate.edge_mask": 5,
    "gate.state_to_cells": 5,
    "order_core.chain": 9,
    "order_core.n5": 1,
    "order_core.v_semilattice": 9,
}
# name -> ROADMAP item
WAITING = {
    "finspace.why_not_definable": 2,  # the failure witness in every report
    "finspace.members": 2,  # its message; also the CLI's failing-probe list
}

N5 = {
    "elements": ["0", "a", "b", "c", "1"],
    "covers": [["0", "a"], ["a", "1"], ["0", "b"], ["b", "c"], ["c", "1"]],
}
# B3 without its top: y0 reports 9 assignments against 8 truncated filters
B3_NO_TOP = {
    "elements": ["0", "ab", "ac", "bc", "a", "b", "c"],
    "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "ab"], ["a", "ac"],
               ["b", "ab"], ["b", "bc"], ["c", "ac"], ["c", "bc"]],
}
INPUTS = {
    "n5": json.dumps(N5),
    "chain2": json.dumps({"elements": ["0", "1"], "covers": [["0", "1"]]}),
    "v": json.dumps({"elements": ["0", "a", "b"], "covers": [["0", "a"], ["0", "b"]]}),
    "b3-no-top": json.dumps(B3_NO_TOP),
    "no-meet": json.dumps({"elements": ["x", "y"], "covers": []}),
    "cycle": json.dumps({"elements": ["x", "y"], "covers": [["x", "y"], ["y", "x"]]}),
    "not-json": "{",
}

# (argv, exit code); {name} is the path of INPUTS[name], {missing} a path
# that does not exist and {out} a file to write
CALLS = [
    (["verify-lattice", "{n5}"], 0),
    (["verify-lattice", "{n5}", "--presentation", "minimal"], 0),
    (["verify-lattice", "{chain2}", "--oracle", "4"], 0),
    (["verify-lattice", "{n5}", "--presentation", "minimal", "--oracle", "3"], 0),
    (["verify-lattice", "{chain2}", "--oracle", "2"], 2),
    (["--max-candidates", "10", "verify-lattice", "{n5}", "--oracle", "4"], 2),
    (["--max-candidates", "-1", "verify-lattice", "{n5}"], 2),
    (["verify-lattice", "{v}"], 2),
    (["verify-lattice", "{no-meet}"], 2),
    (["verify-lattice", "{cycle}"], 2),
    (["verify-lattice", "{not-json}"], 2),
    (["verify-lattice", "{missing}"], 2),
    (["gate-oracle", "--n", "4"], 0),
    (["gate-oracle", "--variant", "dagger", "--n", "4"], 0),
    (["gate-oracle", "--n", "3", "--probes", "20", "--seed", "1"], 0),
    (["gate-oracle", "--n", "2", "--r-min", "1/4"], 0),
    (["gate-oracle", "--n", "4", "--r-min", "1"], 2),
    (["gate-oracle", "--n", "4", "--r-min", "x"], 2),
    (["gate-oracle", "--n", "4", "--r-min=-1/4"], 2),
    (["gate-oracle", "--n", "1"], 2),
    (["gate-oracle", "--n", "4", "--probes", "-1"], 2),
    (["--max-candidates", "10", "gate-oracle", "--n", "4"], 2),
    (["tower", "--kind", "forward", "--n", "4", "--limit"], 0),
    (["tower", "--kind", "reverse", "--n", "4", "--limit"], 0),
    (["tower", "--kind", "exact-pair", "--n", "4", "--limit"], 0),
    (["tower", "--n", "0"], 2),
    (["filters", "{v}"], 0),
    (["filters", "{n5}", "--include-empty", "--as-lattice"], 0),
    (["filters", "{no-meet}"], 2),
    (["y0", "{v}", "--k", "3"], 0),
    (["y0", "{b3-no-top}", "--k", "4"], 1),
    (["y0", "{v}", "--k", "4"], 2),
    (["export-dot", "hasse", "{n5}", "-o", "{out}"], 0),
    (["export-dot", "circuit", "{n5}", "-o", "{out}"], 0),
    (["export-dot", "hasse", "{n5}", "-o", "{missing}/out.dot"], 2),
]


def read_names(node) -> set:
    """The names that a piece of code calls, and the attributes it reads."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} | {
        n.func.id for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def defined_functions() -> dict:
    """Every def in src/latcirc: name -> (file, first line of its code, node)."""
    found = {}

    def walk(body, prefix, path):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[prefix + node.name] = (path, first, node)
                walk(node.body, prefix + node.name + ".", path)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".", path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()).body, path.stem + ".", path)
    return found


def trace(work: Path) -> set:
    """Run CALLS, with the package imported under the profiler; return the
    names of the src/latcirc functions entered."""
    paths = {name: work / f"{name}.json" for name in INPUTS}
    for name, text in INPUTS.items():
        paths[name].write_text(text)
    paths["missing"], paths["out"] = work / "missing", work / "out.dot"
    codes: dict = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    sys.setprofile(hook)
    try:
        from latcirc import cli

        for argv, want in CALLS:
            argv = [a.format(**paths) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code == want, f"{argv} exited {code}, not {want}"
    finally:
        sys.setprofile(None)
    where = {(path, first): name for name, (path, first, _) in defined_functions().items()}
    return {where[key] for key in (
        (Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes.values()
    ) if key in where}


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, __file__, str(tmp_path_factory.mktemp("reach"))],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout))


def test_every_unentered_function_is_in_the_ledger(entered):
    defined = set(defined_functions())
    ledger = [*BENCHMARK, *ACCEPTANCE, *WAITING]
    assert len(ledger) == len(set(ledger)), "a function is in two groups"
    for names, what in (
        (set(ledger) - defined, "in the ledger but not defined"),
        (defined - entered - set(ledger), "never entered and not in the ledger"),
        (entered & set(ledger), "in the ledger but entered"),
    ):
        assert not names, f"{what}: {', '.join(sorted(names))}"


def test_benchmark_and_acceptance_code_reaches_its_entries():
    functions = defined_functions()
    reads = {name: read_names(node) for name, (_, _, node) in functions.items()}
    by_name: dict = {}
    for name in functions:
        *scope, last = name.split(".")
        # Python calls a special method through its class
        by_name.setdefault(scope[-1] if last.startswith("__") else last, []).append(name)

    def reached(roots):
        seen, todo = set(), set(roots)
        while todo:
            for name in by_name.get(todo.pop(), ()):
                if name not in seen:
                    seen.add(name)
                    todo |= reads[name]
        return seen

    perfbench = ROOT / "perfbench"
    spans = ast.parse((perfbench / "spans.py").read_text())
    [layers] = [n.value for n in spans.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in n.targets)]
    roots = {fn.split(".")[-1] for fns in ast.literal_eval(layers).values() for fn in fns}
    roots |= read_names(ast.parse((perfbench / "jobs.py").read_text()))
    unreached = BENCHMARK - reached(roots)
    assert not unreached, f"the benchmark does not reach {', '.join(sorted(unreached))}"

    criteria = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()).body
    for name, number in ACCEPTANCE.items():
        prefix = f"test_criterion_{number:02d}_"
        roots = set().union(*(read_names(n) for n in criteria if
                              isinstance(n, ast.FunctionDef) and n.name.startswith(prefix)))
        assert name in reached(roots), f"criterion {number} does not reach {name}"
    assert all(isinstance(item, int) and item > 0 for item in WAITING.values())


if __name__ == "__main__":
    print(json.dumps(sorted(trace(Path(sys.argv[1])))))
