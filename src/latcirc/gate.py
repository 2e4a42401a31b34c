"""The AND-gate space: symbolic 7-state semantics and exact discretization.

The gate is a 9-edge topological graph in the plane.  Its metric is 1 between
almost everything; the only short distances pair same-x points across the two
diagonal branches and the inner output segment.  Discretization subdivides
every edge on a shared x-grid of pitch 1/n so that those same-x witnesses
survive, with all distances exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from . import finspace
from .finspace import BudgetExceeded, Cell, DiscreteSpace, bits


class GateState(NamedTuple):
    """Terminal membership flags; 1 means the vertex lies in the definable set."""

    in1: int
    in2: int
    out: int


def allowed_states() -> list[GateState]:
    """The seven realizable terminal patterns, in canonical order.

    The one excluded pattern is (0, 0, 1): an output in the set with both
    inputs outside it.
    """
    return [
        GateState(0, 0, 0),
        GateState(1, 0, 0),
        GateState(0, 1, 0),
        GateState(1, 1, 0),
        GateState(1, 0, 1),
        GateState(0, 1, 1),
        GateState(1, 1, 1),
    ]


def state_join(s: GateState, t: GateState) -> GateState:
    return GateState(max(s.in1, t.in1), max(s.in2, t.in2), max(s.out, t.out))


# Geometry: vertex name -> coordinates, edge name -> (x_lo, x_hi, y(x), ends).
_F = Fraction

VERTICES = {
    "I1": (_F(-2), _F(1)),
    "I2": (_F(-2), _F(-1)),
    "A": (_F(-1), _F(1)),
    "B": (_F(-1), _F(-1)),
    "C": (_F(1), _F(1)),
    "D": (_F(1), _F(-1)),
    "O": (_F(0), _F(0)),
    "OUT": (_F(2), _F(0)),
}

_Y_FN = {
    "top": lambda x: _F(1),
    "bot": lambda x: _F(-1),
    "diag+": lambda x: x,
    "diag-": lambda x: -x,
    "zero": lambda x: _F(0),
}

EDGES = {
    "TL": (_F(-2), _F(-1), "top", ("I1", "A")),
    "TR": (_F(-1), _F(1), "top", ("A", "C")),
    "BL": (_F(-2), _F(-1), "bot", ("I2", "B")),
    "BR": (_F(-1), _F(1), "bot", ("B", "D")),
    "UL": (_F(-1), _F(0), "diag-", ("A", "O")),
    "LL": (_F(-1), _F(0), "diag+", ("B", "O")),
    "UR": (_F(0), _F(1), "diag+", ("O", "C")),
    "LR": (_F(0), _F(1), "diag-", ("O", "D")),
    "OS": (_F(0), _F(2), "zero", ("O", "OUT")),
}

EDGE_ORDER = ("TL", "TR", "BL", "BR", "UL", "LL", "UR", "LR", "OS")
VERTEX_ORDER = ("I1", "I2", "A", "B", "C", "D", "O", "OUT")

TOP_LOBE_EDGES = ("TL", "TR", "UL", "UR")
BOTTOM_LOBE_EDGES = ("BL", "BR", "LL", "LR")


def in_crisp_region(x: Fraction, y: Fraction) -> bool:
    """The horizontals and the outer output segment carry the discrete metric."""
    if -2 <= x <= 1 and (y == 1 or y == -1):
        return True
    return 1 <= x <= 2 and y == 0


@dataclass(frozen=True)
class ComplexEdge:
    name: str
    closure_mask: int  # 1-cells, interior 0-cells, and both endpoint vertices
    endpoints: tuple[int, int]


@dataclass(frozen=True)
class DiscretizedComplex:
    """A discretized gate assembly: the space plus its saturated-family data.

    edges/vertices describe the original topological-graph structure after
    soldering; terminals maps each terminal label to its (merged) cell.
    copies lists, per gate copy, its cells in the copy's own pre-solder
    numbering, which is the same for every copy and for a one-gate complex.
    A node that no gate names is an isolated crisp 0-cell with no rep.
    """

    space: DiscreteSpace
    edges: tuple[ComplexEdge, ...]
    vertices: tuple[int, ...]
    terminals: dict
    terminal_order: tuple[str, ...]
    reps: tuple[tuple[Fraction, Fraction] | None, ...]
    n: int
    copies: tuple[tuple[int, ...], ...]

    @property
    def r_min(self) -> Fraction:
        """Default definability floor: twice the grid pitch."""
        return Fraction(2, self.n)

    def pattern(self, d: int) -> tuple[int, ...]:
        return tuple(
            1 if d >> self.terminals[t] & 1 else 0 for t in self.terminal_order
        )


def build_complex(gate_labels, n: int, terminal_order=None) -> DiscretizedComplex:
    """One gate copy per (in1, in2, out) label triple, soldered by label.

    All terminals sharing a label are identified into a single crisp cell
    tagged with that label.  A gate whose two input labels coincide is the
    soldered-inputs variant; a triple with one label throughout collapses all
    three terminals.  Each terminal_order label that no gate names becomes an
    isolated crisp 0-cell, a free point.
    """
    if n < 2:
        raise ValueError(f"subdivision n must be >= 2, got {n}")
    h = Fraction(1, n)
    cells: list[Cell] = []
    min_open: list[int] = []
    reps: list[tuple[Fraction, Fraction]] = []
    cell_copy: list[int] = []
    edge_records: list[tuple[str, list[int], tuple[int, int]]] = []
    terminal_cells: dict = {}
    named_vertex_ids: list[int] = []
    copy_starts: list[int] = []
    current_copy = 0

    def add_cell(dim: int, tag: str, rep) -> int:
        cid = len(cells)
        cells.append(Cell(cid, dim, tag))
        min_open.append(1 << cid)
        reps.append(rep)
        cell_copy.append(current_copy)
        return cid

    for copy, (l1, l2, l3) in enumerate(gate_labels):
        current_copy = copy
        copy_starts.append(len(cells))
        pfx = f"g{copy}." if len(gate_labels) > 1 else ""
        vid = {}
        for vname in VERTEX_ORDER:
            vid[vname] = add_cell(0, f"{pfx}{vname}", VERTICES[vname])
            named_vertex_ids.append(vid[vname])
        for label, vname in ((l1, "I1"), (l2, "I2"), (l3, "OUT")):
            terminal_cells.setdefault(label, []).append(vid[vname])
        for ename in EDGE_ORDER:
            lo, hi, kind, (va, vb) = EDGES[ename]
            y = _Y_FN[kind]
            segs = int((hi - lo) * n)
            chain = [vid[va]]
            ecells = []
            for k in range(segs):
                xm = lo + k * h + h / 2
                e = add_cell(1, f"{pfx}{ename}.e{k}", (xm, y(xm)))
                ecells.append(e)
                chain.append(e)
                if k < segs - 1:
                    xv = lo + (k + 1) * h
                    v = add_cell(0, f"{pfx}{ename}.v{k}", (xv, y(xv)))
                    ecells.append(v)
                    chain.append(v)
            chain.append(vid[vb])
            # 0-cells open into their flanking 1-cells
            for idx in range(0, len(chain), 2):
                v = chain[idx]
                if idx > 0:
                    min_open[v] |= 1 << chain[idx - 1]
                if idx < len(chain) - 1:
                    min_open[v] |= 1 << chain[idx + 1]
            edge_records.append(
                (f"{pfx}{ename}", ecells, (vid[va], vid[vb]))
            )

    dist: dict = {}
    by_x: dict = {}
    # x-slices are metric witnesses only within a single gate copy
    for i, (x, y) in enumerate(reps):
        if not in_crisp_region(x, y):
            by_x.setdefault((cell_copy[i], x), []).append(i)
    for (_, x), group in by_x.items():
        for ai in range(len(group)):
            for bi in range(ai + 1, len(group)):
                a, b = group[ai], group[bi]
                d = max(abs(reps[a][1]), abs(reps[b][1]))
                if d < 1:
                    dist[(a, b) if a < b else (b, a)] = d
    copy_size = len(cells) // len(gate_labels) if gate_labels else 0
    for label in terminal_order or ():
        if label not in terminal_cells:
            terminal_cells[label] = [add_cell(0, f"n.{label}", None)]
            named_vertex_ids.append(terminal_cells[label][0])

    space = DiscreteSpace(
        tuple(cells), tuple(min_open), dist, None, Fraction(1, n)
    )

    groups = []
    group_tags = []
    for label, ids in sorted(terminal_cells.items()):
        uniq = sorted(set(ids))
        if len(uniq) > 1:
            groups.append(uniq)
            group_tags.append(f"n.{label}")
    if groups:
        space, old_to_new = finspace.solder(space, groups, group_tags)
    else:
        old_to_new = tuple(range(space.n))

    new_reps: list = [None] * space.n
    for old, new in enumerate(old_to_new):
        new_reps[new] = reps[old]
    edges = []
    for name, ecells, (va, vb) in edge_records:
        mask = 0
        for c in ecells:
            mask |= 1 << old_to_new[c]
        ea, eb = old_to_new[va], old_to_new[vb]
        mask |= 1 << ea | 1 << eb
        edges.append(ComplexEdge(name, mask, (ea, eb)))
    vertex_ids = sorted({old_to_new[i] for i in named_vertex_ids})
    terminals = {
        label: old_to_new[ids[0]] for label, ids in terminal_cells.items()
    }
    if terminal_order is None:
        terminal_order = tuple(sorted(terminals))
    return DiscretizedComplex(
        space,
        tuple(edges),
        tuple(vertex_ids),
        terminals,
        tuple(terminal_order),
        tuple(new_reps),
        n,
        tuple(
            tuple(old_to_new[start:start + copy_size]) for start in copy_starts
        ),
    )


def _retagged(dc: DiscretizedComplex, labels) -> DiscretizedComplex:
    """The complex with each listed terminal's cell tagged by its label."""
    cells = list(dc.space.cells)
    for label in labels:
        cid = dc.terminals[label]
        cells[cid] = Cell(cid, 0, label)
    return replace(dc, space=replace(dc.space, cells=tuple(cells)))


def discretize(n: int) -> DiscretizedComplex:
    """The plain gate; terminal cells are tagged in1, in2, out."""
    labels = ("in1", "in2", "out")
    return _retagged(build_complex([labels], n, labels), labels)


def discretize_dagger(n: int) -> DiscretizedComplex:
    """The gate with both inputs soldered together; merged node tagged g."""
    labels = ("g", "out")
    return _retagged(build_complex([("g", "g", "out")], n, labels), labels)


def edge_mask(dc: DiscretizedComplex, name: str) -> int:
    for e in dc.edges:
        if e.name == name:
            return e.closure_mask
    raise KeyError(name)


def state_to_cells(dc: DiscretizedComplex, state: GateState) -> int:
    """The unique definable saturated set realizing an allowed state."""
    if state == (0, 0, 1):
        raise ValueError("state 001 is not an allowed gate state")
    d = 0
    if state.in1:
        for e in TOP_LOBE_EDGES:
            d |= edge_mask(dc, e)
    if state.in2:
        for e in BOTTOM_LOBE_EDGES:
            d |= edge_mask(dc, e)
    if state.out:
        d |= edge_mask(dc, "OS")
    return d


def _endpoint_vmasks(dc: DiscretizedComplex) -> list[int]:
    """Per edge, its endpoints as a bitmask over vertex-list positions."""
    pos = {v: i for i, v in enumerate(dc.vertices)}
    out = []
    for e in dc.edges:
        m = 0
        for v in e.endpoints:
            m |= 1 << pos[v]
        out.append(m)
    return out


def _doubled(seed: int, parts) -> list[int]:
    """All 2^k OR-combinations of parts, indexed by choice bitmask."""
    acc = [seed]
    for p in parts:
        acc += [a | p for a in acc]
    return acc


def saturated_count(dc: DiscretizedComplex, cap: int | None = None) -> int:
    """Size of the saturated candidate family.

    With a cap, stops early and returns cap + 1 as soon as the family is
    known to exceed it; this keeps many-gate complexes from exploding the
    count computation itself.
    """
    nv = len(dc.vertices)
    acc = [0]
    for p in _endpoint_vmasks(dc):
        acc += [a | p for a in acc]
        if cap is not None and len(acc) > cap:
            return cap + 1  # each subset contributes at least one candidate
    total = 0
    for pinned in acc:
        total += 1 << (nv - pinned.bit_count())
        if cap is not None and total > cap:
            return cap + 1
    return total


def saturated_candidates(dc: DiscretizedComplex, budget: int = 1 << 20):
    """Every union of whole-edge closures plus extra original vertices.

    The wire rule confines definable sets to this family; candidates are
    closed by construction.  Raises BudgetExceeded before yielding anything
    if the family is larger than the budget.
    """
    count = saturated_count(dc, cap=budget)
    if count > budget:
        raise BudgetExceeded(
            f"saturated family exceeds the budget of {budget}"
        )
    bases = _doubled(0, [e.closure_mask for e in dc.edges])
    pinneds = _doubled(0, _endpoint_vmasks(dc))
    for base, pinned in zip(bases, pinneds):
        free = [v for i, v in enumerate(dc.vertices) if not pinned >> i & 1]
        yield from _doubled(base, [1 << v for v in free])


@dataclass(frozen=True)
class OracleResult:
    definable: tuple[int, ...]
    patterns: tuple[tuple[int, ...], ...]

    @property
    def pattern_set(self) -> set:
        return set(self.patterns)


def oracle(
    dc: DiscretizedComplex,
    r_min: Fraction | None = None,
    budget: int = 1 << 20,
) -> OracleResult:
    """Exhaustive saturated-family search for definable sets.

    A necessary condition at the single binding threshold prunes candidates
    cheaply, and it factorizes: extra vertices are 0-cells, whose witness
    distances live entirely on same-x 1-cell pairs fixed by the edge choice.
    So each edge subset is vetted once, individually addable free vertices
    are computed once, and only the survivors get the full is_definable
    confirmation.
    """
    if r_min is None:
        r_min = dc.r_min
    s = dc.space
    count = saturated_count(dc, cap=budget)
    if count > budget:
        raise BudgetExceeded(
            f"saturated family exceeds the budget of {budget}"
        )
    binding = finspace.thresholds(s, r_min)
    rstar = binding[0] if binding else None
    if rstar is not None:
        near_mask = finspace.near_masks(s, rstar)
    need_edge = []
    for e in dc.edges:
        m = 0
        for c in bits(e.closure_mask):
            m |= s.min_open[c]
        need_edge.append(m)
    flanks = {v: s.min_open[v] & ~(1 << v) for v in dc.vertices}
    vlist = list(dc.vertices)
    bases = _doubled(0, [e.closure_mask for e in dc.edges])
    needs = _doubled(0, need_edge)
    pinneds = _doubled(0, _endpoint_vmasks(dc))
    definable = []
    for idx in range(len(bases)):
        base = bases[idx]
        if rstar is not None:
            outside = needs[idx] & ~base
            ok = True
            while outside:
                y = (outside & -outside).bit_length() - 1
                if not near_mask[y] & base:
                    ok = False
                    break
                outside &= outside - 1
            if not ok:
                continue
        pinned = pinneds[idx]
        free = [vlist[i] for i in range(len(vlist)) if not pinned >> i & 1]
        if rstar is not None:
            addable = []
            for v in free:
                fl = flanks[v] & ~base
                good = True
                while fl:
                    f = (fl & -fl).bit_length() - 1
                    if not near_mask[f] & base:
                        good = False
                        break
                    fl &= fl - 1
                if good:
                    addable.append(v)
        else:
            addable = free
        for d in _doubled(base, [1 << v for v in addable]):
            if finspace.is_definable(s, d, r_min):
                definable.append(d)
    definable.sort()
    patterns = tuple(dc.pattern(d) for d in definable)
    return OracleResult(tuple(definable), patterns)


def expected_patterns(variant: str) -> set:
    """Terminal patterns realizable on the plain gate or the soldered variant."""
    if variant == "plain":
        return {tuple(s) for s in allowed_states()}
    if variant == "dagger":
        return {(0, 0), (1, 0), (1, 1)}
    raise ValueError(f"unknown gate variant {variant!r}")
