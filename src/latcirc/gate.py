"""The AND-gate space: symbolic 7-state semantics and exact discretization.

The gate is a 9-edge topological graph in the plane.  Its metric is 1 between
almost everything; the only short distances pair same-x points across the two
diagonal branches and the inner output segment.  Discretization subdivides
every edge on a shared x-grid of pitch 1/n so that those same-x witnesses
survive, with all distances exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from . import finspace
# bits is no longer called here, but perfbench's tracer test reads gate.bits
from .finspace import DEFAULT_BUDGET, BudgetExceeded, Cell, DiscreteSpace, bits  # noqa: F401


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


# Geometry: vertex name -> coordinates, edge name -> its two end vertices.
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

EDGES = {
    "TL": ("I1", "A"),
    "TR": ("A", "C"),
    "BL": ("I2", "B"),
    "BR": ("B", "D"),
    "UL": ("A", "O"),
    "LL": ("B", "O"),
    "UR": ("O", "C"),
    "LR": ("O", "D"),
    "OS": ("O", "OUT"),
}

EDGE_ORDER = ("TL", "TR", "BL", "BR", "UL", "LL", "UR", "LR", "OS")
VERTEX_ORDER = ("I1", "I2", "A", "B", "C", "D", "O", "OUT")

TOP_LOBE_EDGES = ("TL", "TR", "UL", "UR")
BOTTOM_LOBE_EDGES = ("BL", "BR", "LL", "LR")


@dataclass(frozen=True)
class ComplexEdge:
    name: str
    closure_mask: int  # 1-cells, interior 0-cells, and both endpoint vertices
    endpoints: tuple[int, int]


@dataclass(frozen=True)
class DiscretizedComplex:
    """A discretized gate assembly: the space plus its saturated-family data.

    edges/vertices describe the original topological-graph structure after
    soldering, edges copy by copy under the template's edge names;
    terminals maps each terminal label to its (merged) cell.
    copies[g][i] is the cell that cell i of the one-gate template became in
    gate copy g: the copy's block of the soldering map, so the local
    numbering is the same for every copy and for a one-gate complex.
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


def _template(n: int):
    """One gate copy: its space, each cell's rep and its edge records.

    Geometry runs on the integer half-pitch grid X = 2n·x, Y = 2n·y, where
    every cell has integer coordinates; each edge is the straight segment
    between its endpoint vertices.  The vertices come first, in
    VERTEX_ORDER, then each edge's interior in EDGE_ORDER, alternating
    1-cells e0, e1, ... with 0-cells v0, v1, ..., names that every copy in
    a complex keeps.  Only the distances and the reps are Fractions, one per
    distinct value.  The space comes compiled: its offset rows are read off
    the incidences as they are made (a 0-cell opens into its flanks, a
    vertex into the end cell of each of its edges).
    """
    unit = 2 * n
    grid = [(int(x) * unit, int(y) * unit) for x, y in map(VERTICES.get, VERTEX_ORDER)]
    cells = [Cell(i, 0, v) for i, v in enumerate(VERTEX_ORDER)]
    min_open = [1 << i for i in range(len(cells))]
    rows: dict = {1: [], -1: []}  # offset k -> cells y with y + k in min_open(y)
    edge_records = []
    for ename in EDGE_ORDER:
        ends = tuple(VERTEX_ORDER.index(v) for v in EDGES[ename])
        (xa, ya), (xb, yb) = grid[ends[0]], grid[ends[1]]
        slope = (yb - ya) // (xb - xa)
        first = len(cells)  # interior cell j (1-based) is first + j - 1
        steps = range(1, xb - xa)
        block: list = [None] * len(steps)
        block[::2] = [Cell(first + j - 1, 1, f"{ename}.e{j // 2}") for j in steps[::2]]
        block[1::2] = [Cell(first + j - 1, 0, f"{ename}.v{j // 2 - 1}") for j in steps[1::2]]
        cells += block
        # a 0-cell opens into its flanking 1-cells
        min_open += [1 << c if (c - first) % 2 == 0 else 0b111 << c - 1
                     for c in range(first, len(cells))]
        rows[-1] += range(first + 1, len(cells), 2)
        rows[1] += range(first + 1, len(cells), 2)
        grid += [(xa + j, ya + slope * j) for j in steps]
        last = len(cells) - 1
        min_open[ends[0]] |= 1 << first
        min_open[ends[1]] |= 1 << last
        rows.setdefault(first - ends[0], []).append(ends[0])
        rows.setdefault(last - ends[1], []).append(ends[1])
        edge_records.append((ename, range(first, len(cells)), ends))

    # the horizontals (|y| = 1, x <= 1) and the outer output segment (y = 0,
    # x >= 1) carry the discrete metric; other same-x cells are metric
    # witnesses at the larger |y|
    by_x: dict = {}  # X -> (|Y|, cell) for the cells outside the crisp region
    for i, (x, y) in enumerate(grid):
        crisp = abs(y) == unit and x <= unit or y == 0 and x >= unit
        if not crisp:
            by_x.setdefault(x, []).append((abs(y), i))
    near: dict = {}  # (a, b) -> d(a, b) < 1 as a multiple of the half pitch
    for group in by_x.values():
        for at, (ya, a) in enumerate(group, 1):
            for yb, b in group[at:]:
                d = ya if ya > yb else yb
                if d < unit:
                    near[(a, b)] = d
    # every coordinate, and so every distance, is an integer in [-2 unit, 2 unit]
    frac = {v: Fraction(v, unit) for v in range(-2 * unit, 2 * unit + 1)}
    space = DiscreteSpace(
        tuple(cells), tuple(min_open), {key: frac[d] for key, d in near.items()},
        None, Fraction(1, n),
    )
    reps = tuple([(frac[x], frac[y]) for x, y in grid])
    return finspace.compiled(space, rows), reps, edge_records


_TERMINAL_VERTICES = tuple(VERTEX_ORDER.index(v) for v in ("I1", "I2", "OUT"))


def build_complex(gate_labels, n: int, terminal_order=None) -> DiscretizedComplex:
    """One gate copy per (in1, in2, out) label triple, soldered by label.

    All terminals sharing a label are identified into a single crisp cell.
    A gate whose two input labels coincide is the soldered-inputs variant; a
    triple with one label throughout collapses all three terminals.  Each
    terminal_order label that no gate names becomes an isolated crisp
    0-cell, a free point.  Raises ValueError when there is no gate.

    finspace.solder lays the copies of the one template side by side, each
    as one block, followed by the free points, and identifies the
    terminals; the template's compiled view is placed into the complex's on
    first use, so no full-width mask is walked.  Cells and edges keep the
    template's names (a soldered terminal its least member's, a free point
    point_space's): terminals and copies say which label and which copy a
    cell belongs to.
    """
    if n < 2:
        raise ValueError(f"subdivision n must be >= 2, got {n}")
    if not gate_labels:
        raise ValueError("a gate complex needs at least one gate")
    tmpl, reps, edge_records = _template(n)
    size = tmpl.n
    k = len(gate_labels)
    terminal_cells: dict = {}
    for g, labels in enumerate(gate_labels):
        for label, v in zip(labels, _TERMINAL_VERTICES):
            terminal_cells.setdefault(label, []).append(g * size + v)
    free = []
    for label in terminal_order or ():
        if label not in terminal_cells:
            terminal_cells[label] = [k * size + len(free)]
            free.append(label)

    # each (gate, terminal) is its own old id, so a label's ids are distinct
    groups = [ids for ids in terminal_cells.values() if len(ids) > 1]
    space, old_to_new = finspace.solder(
        [tmpl] * k + [finspace.point_space() for _ in free], groups
    )

    old_reps = reps * k + (None,) * len(free)
    new_reps: list = [None] * space.n
    for old, new in enumerate(old_to_new):
        new_reps[new] = old_reps[old]
    copies = tuple(old_to_new[g * size:(g + 1) * size] for g in range(k))
    edges = []
    for cells in copies:
        for name, interior, (va, vb) in edge_records:
            # no interior cell is soldered, so the interior stays one block
            ea, eb = cells[va], cells[vb]
            mask = (1 << len(interior)) - 1 << cells[interior[0]] | 1 << ea | 1 << eb
            edges.append(ComplexEdge(name, mask, (ea, eb)))
    terminals = {
        label: old_to_new[ids[0]] for label, ids in terminal_cells.items()
    }
    vertex_ids = {cells[v] for cells in copies for v in range(len(VERTEX_ORDER))}
    vertex_ids.update(terminals[label] for label in free)
    if terminal_order is None:
        terminal_order = tuple(sorted(terminals))
    return DiscretizedComplex(
        space,
        tuple(edges),
        tuple(sorted(vertex_ids)),
        terminals,
        tuple(terminal_order),
        tuple(new_reps),
        n,
        copies,
    )


def discretize(n: int) -> DiscretizedComplex:
    """The plain gate, with terminals in1, in2 and out."""
    return build_complex([("in1", "in2", "out")], n, ("in1", "in2", "out"))


def discretize_dagger(n: int) -> DiscretizedComplex:
    """The gate with both inputs soldered together into the terminal g."""
    return build_complex([("g", "g", "out")], n, ("g", "out"))


def edge_mask(dc: DiscretizedComplex, name: str) -> int:
    """The closure mask of the named template edge; in a multi-gate complex,
    the first copy's."""
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


def _doubled(seed: int, parts) -> list[int]:
    """All 2^k OR-combinations of parts, indexed by choice bitmask."""
    acc = [seed]
    for p in parts:
        acc += [a | p for a in acc]
    return acc


def _edge_table(dc: DiscretizedComplex, cap: int | None, *columns):
    """The saturated family edge subset by edge subset.

    Returns (size, pinned, *unions): the family's size, and lists indexed by
    choice bitmask over dc.edges.  pinned[i] holds the endpoints of subset i
    as a bitmask over vertex-list positions, and each union list holds, per
    subset, the OR of one column of per-edge masks.  The subset contributes
    2^(free vertices) candidates.  Raises BudgetExceeded, before any column
    is combined, when the family exceeds cap.
    """
    pos = {v: i for i, v in enumerate(dc.vertices)}
    pinned = [0]
    for e in dc.edges:
        ends = 1 << pos[e.endpoints[0]] | 1 << pos[e.endpoints[1]]
        pinned += [a | ends for a in pinned]
        if cap is not None and len(pinned) > cap:
            break  # each subset contributes at least one candidate
    # each subset contributes 2^(nv - its pinned count), summed at C speed
    size = sum(map((1 << len(dc.vertices)).__rshift__, map(int.bit_count, pinned)))
    if cap is not None and size > cap:
        raise BudgetExceeded(f"saturated family exceeds the budget of {cap}")
    return size, pinned, *(_doubled(0, col) for col in columns)


def saturated_count(dc: DiscretizedComplex) -> int:
    """Size of the saturated candidate family."""
    return _edge_table(dc, None)[0]


def saturated_candidates(dc: DiscretizedComplex, budget: int = DEFAULT_BUDGET):
    """Every union of whole-edge closures plus extra original vertices.

    The family holds one definable set per allowed terminal pattern, not
    every definable set: the plain gate has about 1,700 at every pitch
    measured, all showing allowed patterns, and the verdicts built on this
    search rest on that.  Candidates are closed by construction.  Returns
    an iterator over each edge subset's list of masks in turn.  Raises
    BudgetExceeded, before any mask is made, if the family is larger than
    the budget.
    """
    _, pinneds, bases = _edge_table(dc, budget, [e.closure_mask for e in dc.edges])
    verts = [1 << v for v in dc.vertices]
    return chain.from_iterable(
        _doubled(base, [m for i, m in enumerate(verts) if not pinned >> i & 1])
        for base, pinned in zip(bases, pinneds)
    )


@dataclass(frozen=True)
class OracleResult:
    definable: tuple[int, ...]
    patterns: tuple[tuple[int, ...], ...]
    candidates: int  # size of the saturated family searched

    @property
    def pattern_set(self) -> set:
        return set(self.patterns)


class NoThreshold(ValueError):
    """The floor r_min leaves no distance threshold in (r_min, 1]."""

    def __init__(self, r_min: Fraction):
        super().__init__(f"r_min = {r_min} leaves no distance threshold")
        self.r_min = r_min


def oracle(
    dc: DiscretizedComplex,
    r_min: Fraction | None = None,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Saturated-family search for definable sets, pruned edge subset by
    edge subset.

    Refuses the floor before the budget is charged: ValueError when it is
    negative, NoThreshold when it leaves no threshold (every closed set passes).

    finspace's test U(d) & ~(d | N(d)) == 0 at the binding threshold r0 is
    necessary, and U (the union of minimal opens, open_hull) and d | N (the
    cells within r0 of d, expand) of a union are the unions of its parts'.
    So each edge's U and expansion are combined next to the closures, an
    edge subset with union base survives when U & ~(base | N) == 0, and a
    free vertex v is addable to it when open_hull({v}) & ~(base | N | 1 << v)
    == 0: extra vertices are 0-cells, whose witness distances live on same-x
    1-cell pairs fixed by the edge choice.  Every union of a survivor with
    addable vertices is confirmed with is_definable.
    """
    if r_min is None:
        r_min = dc.r_min
    s = dc.space
    binding = finspace.thresholds(s, r_min)
    if not binding:
        raise NoThreshold(r_min)
    closures = [e.closure_mask for e in dc.edges]
    ups = [finspace.open_hull(s, c) for c in closures]
    grown = [finspace.expand(s, c, binding[0]) for c in closures]
    size, pinneds, bases, us, covers = _edge_table(dc, budget, closures, ups, grown)
    opens = [finspace.open_hull(s, 1 << v) for v in dc.vertices]
    definable = []
    for pinned, base, u, covered in zip(pinneds, bases, us, covers):
        if u & ~covered:
            continue
        addable = [
            1 << v
            for i, v in enumerate(dc.vertices)
            if not pinned >> i & 1 and not opens[i] & ~(covered | 1 << v)
        ]
        for d in _doubled(base, addable):
            if finspace.is_definable(s, d, r_min):
                definable.append(d)
    definable.sort()
    patterns = tuple(dc.pattern(d) for d in definable)
    return OracleResult(tuple(definable), patterns, size)


def expected_patterns(variant: str) -> set:
    """Terminal patterns realizable on the plain gate or the soldered variant."""
    if variant == "plain":
        return {tuple(s) for s in allowed_states()}
    if variant == "dagger":
        return {(0, 0), (1, 0), (1, 1)}
    raise ValueError(f"unknown gate variant {variant!r}")
