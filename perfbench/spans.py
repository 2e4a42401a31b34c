"""Traced runs: spans around calls into the library's public functions.

The tracer patches every binding of each listed function (the module
attribute, names other latcirc modules imported with ``from ... import``, and
class attributes for methods), records one span per call in memory, and
restores every original on ``uninstall``.  Hot private helpers (``bits``,
``_off_closure``, ``_near_table``) are not wrapped, so their cost lands in
their caller's self time.  Spans are recorded only from here: the library is
never edited.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> traced functions ("Class.method" for methods)
LAYERS = {
    "order_core": [
        "parse_poset", "as_lattice", "as_meet_semilattice", "filters",
        "filter_lattice", "iso", "all_lattices_up_to_iso",
    ],
    "circuit": [
        "build_full", "build_minimal", "is_adequate", "definable_assignments",
        "verify_iso", "build_Y0", "truncated_filters", "discretize",
    ],
    "gate": [
        "build_complex", "discretize", "discretize_dagger", "saturated_count",
        "saturated_candidates", "oracle",
    ],
    "finspace": [
        "is_definable", "DiscreteSpace.closure_masks", "closure", "interior",
        "expand", "thresholds", "enumerate_definable", "random_closed_sets",
        "validate", "solder", "is_open_metric",
    ],
    "tower": [
        "truncate", "restrict", "LimitFamily.meet_analysis",
        "solder_Y_truncation", "verify_short_circuit", "build_W",
        "check_cover_radius", "check_directed_system",
    ],
    "cli": [
        "main", "cmd_verify_lattice", "cmd_gate_oracle", "cmd_tower",
        "cmd_filters", "cmd_y0",
    ],
}

# Counts taken where the work happens: name -> (counter updates from args, result)
COUNTERS = {
    "order_core.filters": lambda c, args, out: c.update(
        {"order_core.filters.masks_scanned": 1 << args[0].n,
         "order_core.filters.found": len(out)}),
    "circuit.is_adequate": lambda c, args, out: c.update(
        {"circuit.is_adequate.true": int(bool(out))}),
    "circuit.definable_assignments": lambda c, args, out: c.update(
        {"circuit.definable_assignments.assignments": len(out)}),
    "gate.oracle": lambda c, args, out: c.update(
        {"gate.oracle.definables": len(out.definable)}),
    "finspace.is_definable": lambda c, args, out: c.update(
        {"finspace.is_definable.true": int(bool(out))}),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_ms"] = "ms"
        units[f"{mod}.self_ms"] = "ms"
    units.update({
        "order_core.filters.masks_scanned": "count",
        "order_core.filters.found": "count",
        "order_core.filters.yield": "ratio",
        "circuit.is_adequate.yield": "ratio",
        "circuit.definable_assignments.assignments": "count",
        "gate.oracle.candidates": "count",
        "gate.oracle.definables": "count",
        "gate.oracle.yield": "ratio",
        "finspace.is_definable.us_per_call": "us",
        "finspace.is_definable.yield": "ratio",
        "trace.overhead_s": "s",
        "trace.attributed_share": "ratio",
    })
    return units


class Tracer:
    """Span recorder for one traced pass.

    A span is (name, start_ns, end_ns, parent span index, job id).  Spans are
    kept in memory and written out by ``write``.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = None
        self.active = False
        self._patches: list = []  # (owner, attribute, original)

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        latcirc = {
            name: mod for name, mod in sys.modules.items()
            if name == "latcirc" or name.startswith("latcirc.")
        }
        for mod, fns in LAYERS.items():
            module = latcirc[f"latcirc.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._patch(owner, meth, original, self._wrap(name, original))
                    continue
                original = getattr(module, fn)
                wrapped = self._wrap(name, original)
                for other in latcirc.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, original, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent, time.perf_counter_ns()

    def _close(self, name: str, idx: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.job)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        post = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            span = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, *span)
            if post is not None:
                post(self.counts, args, out)
            return out

        return traced

    def _wrap_generator(self, name: str, fn):
        """One call per generator created; one span per resumption.

        The work of a generator runs inside whoever iterates it, so each
        resumption is its own span under the consumer's span.
        """

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            gen = fn(*args, **kwargs)

            def resumed():
                while True:
                    span = self._open()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, *span)
                    yield item

            return resumed()

        return traced

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- results --------------------------------------------------------

    def self_times_ns(self) -> Counter:
        """Per function: span durations minus the time their child spans cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return out

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        self_ns = self.self_times_ns()
        values = {}
        for mod, fns in LAYERS.items():
            module_ns = 0
            for fn in fns:
                name = f"{mod}.{fn}"
                values[f"{name}.calls"] = self.calls[name]
                values[f"{name}.self_ms"] = self_ns[name] / 1e6
                module_ns += self_ns[name]
            values[f"{mod}.self_ms"] = module_ns / 1e6
        c = self.counts
        scanned = c["order_core.filters.masks_scanned"]
        values["order_core.filters.masks_scanned"] = scanned
        values["order_core.filters.found"] = c["order_core.filters.found"]
        values["order_core.filters.yield"] = _ratio(c["order_core.filters.found"], scanned)
        values["circuit.is_adequate.yield"] = _ratio(
            c["circuit.is_adequate.true"], self.calls["circuit.is_adequate"])
        values["circuit.definable_assignments.assignments"] = c[
            "circuit.definable_assignments.assignments"]
        candidates = self._children_named("gate.oracle", "finspace.is_definable")
        values["gate.oracle.candidates"] = candidates
        values["gate.oracle.definables"] = c["gate.oracle.definables"]
        values["gate.oracle.yield"] = _ratio(c["gate.oracle.definables"], candidates)
        calls = self.calls["finspace.is_definable"]
        inclusive = sum(e - s for n, s, e, _, _ in self.spans if n == "finspace.is_definable")
        values["finspace.is_definable.us_per_call"] = inclusive / 1e3 / calls if calls else 0.0
        values["finspace.is_definable.yield"] = _ratio(c["finspace.is_definable.true"], calls)
        values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        values["trace.attributed_share"] = sum(self_ns.values()) / 1e9 / traced_wall_s
        return values

    def _children_named(self, parent_name: str, child_name: str) -> int:
        spans = self.spans
        return sum(
            1 for name, _, _, parent, _ in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in ns, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
