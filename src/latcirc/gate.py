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
from functools import cached_property, lru_cache, reduce
from itertools import chain
from operator import or_
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import finspace
from .finspace import DEFAULT_BUDGET, BudgetExceeded, Cell, DiscreteSpace, bits


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

EDGE_ORDER = tuple(EDGES)
VERTEX_ORDER = tuple(VERTICES)

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
    terminals maps each terminal label to its (merged) cell, read-only.
    copies[g][i] is the cell that cell i of the one-gate template became in
    gate copy g: the copy's block of the soldering map, so the local
    numbering is the same for every copy and for a one-gate complex.
    A node that no gate names is an isolated crisp 0-cell, tagged "pt".
    """

    space: DiscreteSpace
    edges: tuple[ComplexEdge, ...]
    vertices: tuple[int, ...]
    terminals: Mapping[str, int]
    terminal_order: tuple[str, ...]
    n: int
    copies: tuple[tuple[int, ...], ...]

    @cached_property
    def r_min(self) -> Fraction:
        """Default definability floor: twice the grid pitch."""
        return Fraction(2, self.n)

    def pattern(self, d: int) -> tuple[int, ...]:
        return tuple(
            1 if d >> self.terminals[t] & 1 else 0 for t in self.terminal_order
        )


_TERMINAL_VERTICES = tuple(VERTEX_ORDER.index(v) for v in ("I1", "I2", "OUT"))


# Every complex below is built from the plain gate at its pitch, so each
# pitch's gate is built once per process and then kept, along with its
# dagger variant: their views, each made on first use (thresholds, near
# tables, kernel entries), grow only by caching.  Sixteen pitches each; a
# kept complex holds tuples and read-only mappings, and nothing mutates it.
# Keeping pays only where one process meets a pitch again: circuit.oracle
# builds the template once instead of twice, and a process that runs many
# checks (the benchmark, the tests) builds each pitch once; a single
# gate-oracle run gains nothing.
@lru_cache(maxsize=16)
def discretize(n: int) -> DiscretizedComplex:
    """The plain gate, with terminals in1, in2 and out: the one-gate
    template that build_complex lays copies of.

    Geometry runs on the integer half-pitch grid X = 2n·x, Y = 2n·y, where
    every cell has integer coordinates; each edge is the straight segment
    between its endpoint vertices.  The vertices come first, in
    VERTEX_ORDER, then each edge's interior in EDGE_ORDER, alternating
    1-cells e0, e1, ... with 0-cells v0, v1, ..., names that every copy in
    a complex keeps.  Only the distances are Fractions, one per distinct
    value.  A 0-cell opens into its flanks, a vertex into the end cell of
    each of its edges; the space's view is walked off that min_open on
    first use, as any space's is.  Raises ValueError for n < 2.
    """
    if n < 2:
        raise ValueError(f"subdivision n must be >= 2, got {n}")
    unit = 2 * n
    grid = [(int(x) * unit, int(y) * unit) for x, y in map(VERTICES.get, VERTEX_ORDER)]
    cells = [Cell(i, 0, v) for i, v in enumerate(VERTEX_ORDER)]
    min_open = [1 << i for i in range(len(cells))]
    edges = []
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
        grid += [(xa + j, ya + slope * j) for j in steps]
        last = len(cells) - 1
        min_open[ends[0]] |= 1 << first
        min_open[ends[1]] |= 1 << last
        mask = (1 << last + 1) - (1 << first) | 1 << ends[0] | 1 << ends[1]
        edges.append(ComplexEdge(ename, mask, ends))

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
    frac = {d: Fraction(d, unit) for d in set(near.values())}  # one per distinct value
    space = DiscreteSpace(
        tuple(cells), tuple(min_open),
        MappingProxyType({key: frac[d] for key, d in near.items()}), None, Fraction(1, n),
    )
    labels = ("in1", "in2", "out")
    return DiscretizedComplex(
        space,
        tuple(edges),
        tuple(range(len(VERTEX_ORDER))),
        MappingProxyType(dict(zip(labels, _TERMINAL_VERTICES))),
        labels,
        n,
        (tuple(c.id for c in cells),),  # the cells' own ints, not a second set
    )


def build_complex(gate_labels, n: int, terminal_order=None) -> DiscretizedComplex:
    """One gate copy per (in1, in2, out) label triple, soldered by label.

    All terminals sharing a label are identified into a single crisp cell.
    A gate whose two input labels coincide is the soldered-inputs variant; a
    triple with one label throughout collapses all three terminals.  Each
    terminal_order label that no gate names becomes an isolated crisp
    0-cell, a free point.  Raises ValueError when n < 2 or there is no gate.

    The copies are of discretize(n), the template kept for the pitch:
    finspace.solder lays them side by side, each as one block, followed by
    the free points, and identifies the terminals; the template's view is
    placed into the complex's on first use, so no full-width mask is
    walked.  Cells and edges keep the template's names (a soldered
    terminal its least member's, a free point point_space's): terminals and
    copies say which label and which copy a cell belongs to.
    """
    tmpl = discretize(n)
    if not gate_labels:
        raise ValueError("a gate complex needs at least one gate")
    size = tmpl.space.n
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
        [tmpl.space] * k + [finspace.point_space() for _ in free], groups
    )

    copies = tuple(old_to_new[g * size:(g + 1) * size] for g in range(k))
    # each template edge's interior: its first cell and its mask shifted to bit 0
    spans = []
    first = len(VERTEX_ORDER)
    for e in tmpl.edges:
        length = e.closure_mask.bit_count() - 2
        spans.append((e.name, first, (1 << length) - 1, e.endpoints))
        first += length
    edges = []
    for cells in copies:
        for name, first, interior, (va, vb) in spans:
            # no interior cell is soldered, so the interior stays one block
            ea, eb = cells[va], cells[vb]
            edges.append(ComplexEdge(name, interior << cells[first] | 1 << ea | 1 << eb, (ea, eb)))
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
        MappingProxyType(terminals),
        tuple(terminal_order),
        n,
        copies,
    )


@lru_cache(maxsize=16)
def discretize_dagger(n: int) -> DiscretizedComplex:
    """The gate with both inputs soldered together into the terminal g,
    kept per pitch like discretize."""
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


def _family_size(dc: DiscretizedComplex, cap: int | None) -> int:
    """The saturated family's size.  An edge subset brings one candidate per
    set T of vertices that none of its edges touches, so the size is the
    sum over vertex sets T of 2^(edges touching no vertex of T).  Raises
    BudgetExceeded when the family exceeds cap."""
    touch = dict.fromkeys(dc.vertices, 0)  # vertex -> the edges at it
    for i, e in enumerate(dc.edges):
        for v in e.endpoints:
            touch[v] |= 1 << i
    avoid = [(1 << len(dc.edges)) - 1]  # per vertex set T: the edges touching none of T
    for t in touch.values():
        avoid += [a & ~t for a in avoid]
        if cap is not None and len(avoid) > cap:
            break  # each vertex set counts at least once
    size = sum(map((1).__lshift__, map(int.bit_count, avoid)))
    if cap is not None and size > cap:
        raise BudgetExceeded(f"saturated family exceeds the budget of {cap}")
    return size


def saturated_count(dc: DiscretizedComplex) -> int:
    """Size of the saturated candidate family."""
    return _family_size(dc, None)


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
    _family_size(dc, budget)
    verts = [1 << v for v in dc.vertices]  # the vertices in a base are its edges' endpoints
    return chain.from_iterable(
        _doubled(base, [m for m in verts if not base & m])
        for base in _doubled(0, [e.closure_mask for e in dc.edges])
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
    """Saturated-family search for definable sets, with every edge subset
    refuted or kept at once by clauses.

    Refuses the floor before the budget is charged: ValueError when it is
    negative, NoThreshold when it leaves no threshold (every closed set passes).

    finspace's test U(d) & ~(d | N(d)) == 0 at the binding threshold r0 is
    necessary, and U (the union of minimal opens) and d | N (expand) of a
    union are the unions of its parts'.  So an edge subset S passes exactly
    when each cell x of U(e) & ~(e | N(e)) for an edge e in S lies in the
    expansion of an edge in S: a clause per cell x, tested on all 2^m
    subsets at once with holds[e], whose bit S is set when S holds e.  An
    edge's U is its closure and its endpoints' minimal opens: an interior
    cell opens only into its own edge.  A free vertex v is addable to a
    survivor when open_hull({v}) & ~(base | N | 1 << v) == 0: extra vertices
    are 0-cells, whose witness distances live on same-x 1-cell pairs fixed
    by the edge choice.  is_definable confirms each union of a survivor
    with addable vertices.
    """
    if r_min is None:
        r_min = dc.r_min
    s = dc.space
    binding = finspace.thresholds(s, r_min)
    if not binding:
        raise NoThreshold(r_min)
    size = _family_size(dc, budget)
    opens = {v: finspace.open_hull(s, 1 << v) for v in dc.vertices}
    closures = [e.closure_mask for e in dc.edges]
    grown = [finspace.expand(s, c, binding[0]) for c in closures]
    holds, width = [], 1  # width: the edge subsets counted so far
    for _ in closures:
        holds, width = [h | h << width for h in holds] + [(1 << width) - 1 << width], 2 * width
    struck: dict = {}  # cell x -> subsets holding an edge that needs x, none covering x
    for e, c, g, h in zip(dc.edges, closures, grown, holds):
        for x in bits((c | opens[e.endpoints[0]] | opens[e.endpoints[1]]) & ~g):
            struck[x] = struck.get(x, 0) | h
    wanted = sum(1 << x for x in struck)
    for g, h in zip(grown, holds):
        for x in bits(g & wanted):
            struck[x] &= ~h
    definable = []
    for i in bits((1 << width) - 1 & ~reduce(or_, struck.values(), 0)):  # the survivors
        base = covered = 0
        for e in bits(i):
            base |= closures[e]
            covered |= grown[e]
        addable = [
            1 << v for v, o in opens.items() if not base >> v & 1 and not o & ~(covered | 1 << v)
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
