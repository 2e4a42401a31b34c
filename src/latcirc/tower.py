"""Finite truncations and symbolic limits of the infinite constructions.

Chains of soldered-input gates realize ordinal-shaped families of definable
sets; an extra three-gate gadget on top of a chain realizes an exact pair
with no meet.  Truncations are ordinary circuits; the limit families are
symbolic, answered by finite case analysis on one breakpoint, never by
infinite enumeration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import circuit as circuit_mod
from . import finspace
from .circuit import Circuit, definable_assignments
from .finspace import DiscreteSpace
from .order_core import MeetSemilattice


class TowerKind(enum.Enum):
    FORWARD_CHAIN = "forward"
    REVERSE_CHAIN = "reverse"
    EXACT_PAIR = "exact-pair"


EMPTY, E_STATE, FULL = "empty", "E", "full"


def _gates(kind: TowerKind, n: int) -> list[tuple[int, int, int]]:
    """The gate triples of the n-stage truncation; see ``truncate``."""
    if kind is TowerKind.FORWARD_CHAIN:
        return [(i, i, i + 1) for i in range(n)]
    if kind is TowerKind.REVERSE_CHAIN:
        return [(i + 1, i + 1, i) for i in range(n)]
    if kind is TowerKind.EXACT_PAIR:
        a, b, x = n + 1, n + 2, n
        return [(i, i, i + 1) for i in range(n)] + [(x, x, a), (x, x, b), (a, b, x)]
    raise ValueError(kind)


def truncate(kind: TowerKind, n: int) -> Circuit:
    """The n-stage truncation as a circuit.

    Forward: gate i reads node i and feeds node i+1.  Reverse: orientation
    flipped.  Exact pair: a forward chain plus the three-gate gadget pinned
    to the top node x_n, with side nodes a and b.
    """
    if n < 1:
        raise ValueError(f"truncation level must be >= 1, got {n}")
    gates = tuple(_gates(kind, n))
    nodes = [f"x{i}" for i in range(n + 1)]
    if kind is TowerKind.EXACT_PAIR:
        nodes += ["a", "b"]
    return Circuit(tuple(nodes), gates, ("tower", kind, n))


@dataclass(frozen=True)
class LimitSet:
    """A definable set of the symbolic limit, by its one breakpoint.

    Gate states are 'empty', 'E' (the one nonempty proper definable piece of
    a soldered-input gate: its g vertex without its out vertex) or 'full'.
    Adjacent gates share a vertex and must agree on its membership.  A
    forward chain solders gate i's out to gate i+1's g, so 'full' is
    followed by 'full' or 'E' and the other two only by 'empty'; a reverse
    chain solders the other way, so 'empty' is followed by 'empty' or 'E'
    and the other two only by 'full'.  Hence every soldered sequence is
    constant (beta None) or has one breakpoint: 'E' at gate beta, the other
    constant state before it and the tail after it, the tail being 'empty'
    on forward and exact-pair chains (D_beta), 'full' on reverse ones
    (D*_beta).  For the exact pair, gadget records membership of the two
    side pieces.
    """

    kind: TowerKind
    tail: str
    beta: int | None = None
    gadget: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.tail not in (EMPTY, FULL):
            raise ValueError("tail state must be 'empty' or 'full'")
        if self.beta is not None:
            if self.beta < 0:
                raise ValueError("breakpoint must be >= 0")
            after = FULL if self.kind is TowerKind.REVERSE_CHAIN else EMPTY
            if self.tail != after:
                raise ValueError(
                    f"a breakpoint on a {self.kind.value} chain needs tail '{after}'"
                )
        if self.kind is TowerKind.EXACT_PAIR:
            if self.gadget != (0, 0) and self.tail != FULL:
                raise ValueError("gadget pieces require the whole chain")
            if self.tail == FULL and self.gadget == (0, 0):
                raise ValueError("a full chain forces a nonempty gadget side")
        elif self.gadget != (0, 0):
            raise ValueError("only exact-pair sets carry a gadget")

    @property
    def contains_infinity(self) -> bool:
        """The compactification rule: co-compact sets hold the added point."""
        return self.tail == FULL


class LimitFamily:
    """Order and meet queries over a symbolic limit family.

    Chains are totally ordered; the exact pair adds two incomparable sets on
    top of the chain.  Everything reduces to a finite case analysis on
    (breakpoint, tail state, gadget flags).
    """

    def __init__(self, kind: TowerKind):
        self.kind = kind

    def bot(self) -> LimitSet:
        return LimitSet(self.kind, EMPTY)

    def top(self) -> LimitSet:
        if self.kind is TowerKind.EXACT_PAIR:
            return LimitSet(self.kind, FULL, gadget=(1, 1))
        return LimitSet(self.kind, FULL)

    def d(self, beta: int) -> LimitSet:
        """The beta-th proper set: forward D_beta, reverse D*_beta."""
        tail = FULL if self.kind is TowerKind.REVERSE_CHAIN else EMPTY
        return LimitSet(self.kind, tail, beta)

    def side(self, which: str) -> LimitSet:
        if self.kind is not TowerKind.EXACT_PAIR:
            raise ValueError("side pieces exist only for the exact pair")
        return LimitSet(self.kind, FULL, gadget=(1, 0) if which == "a" else (0, 1))

    def elements(self, depth: int) -> list[LimitSet]:
        out = [self.bot()] + [self.d(b) for b in range(depth)]
        if self.kind is TowerKind.EXACT_PAIR:
            out += [self.side("a"), self.side("b")]
        out.append(self.top())
        return out

    def _chain_level(self, u: LimitSet):
        """Position along the chain part; None for exact-pair tail-full sets."""
        if u.tail == FULL:
            if self.kind is TowerKind.EXACT_PAIR:
                return None
            if self.kind is TowerKind.REVERSE_CHAIN and u.beta is not None:
                return (1, -u.beta)  # D*_beta shrinks as beta grows
            return (2,)
        if u.beta is None:
            return (0,)
        return (1, u.beta)

    def leq(self, u: LimitSet, v: LimitSet) -> bool:
        lu, lv = self._chain_level(u), self._chain_level(v)
        if lu is not None and lv is not None:
            return lu <= lv
        if lu is None and lv is None:
            return all(x <= y for x, y in zip(u.gadget, v.gadget))
        # chain sets sit below every whole-chain set, never above
        return lv is None

    def meet_exists(self, u: LimitSet, v: LimitSet) -> LimitSet | None:
        """The greatest lower bound when it exists, else None.

        The one failure is the exact pair's two side sets: their common
        lower bounds are the chain sets, a strictly increasing family with
        no maximum.
        """
        if self.leq(u, v):
            return u
        if self.leq(v, u):
            return v
        g = (min(u.gadget[0], v.gadget[0]), min(u.gadget[1], v.gadget[1]))
        if g == (0, 0):
            return None
        return LimitSet(self.kind, FULL, gadget=g)

    def lower_bounds(self, u: LimitSet, v: LimitSet, depth: int) -> list[LimitSet]:
        return [
            w for w in self.elements(depth) if self.leq(w, u) and self.leq(w, v)
        ]

    def strictly_between(self, w: LimitSet, u: LimitSet, v: LimitSet) -> LimitSet | None:
        """Some common lower bound of u and v strictly above w, if any.

        Chain sets always have the next chain set above them, so when the
        meet is missing every lower bound is strictly dominated: the
        lower-bound family has no maximum.
        """
        # reach counts the gates up to and including w's breakpoint; on
        # forward chains d(reach + 1) lies strictly above w
        reach = 0 if w.beta is None else w.beta + 1
        candidates = [self.d(reach + 1), self.d(0), self.bot()]
        for c in candidates:
            if (
                self.leq(w, c)
                and not self.leq(c, w)
                and self.leq(c, u)
                and self.leq(c, v)
            ):
                return c
        return None

    def meet_analysis(self, u: LimitSet, v: LimitSet, depth: int):
        """(meet or None, sampled lower bounds, lower bounds have a maximum).

        The maximum flag is symbolic: the lower-bound family has a maximum
        exactly when the meet exists; when it does not, every sampled lower
        bound is exhibited strictly below another lower bound.
        """
        meet = self.meet_exists(u, v)
        lbs = self.lower_bounds(u, v, depth)
        if meet is None:
            for w in lbs:
                if self.strictly_between(w, u, v) is None:
                    raise AssertionError(
                        "missing meet but a lower bound looks maximal"
                    )
        return meet, lbs, meet is not None


def _obeys_gates(kind: TowerKind, n: int, mem: int) -> bool:
    """Whether membership mask ``mem`` obeys the n-stage truncation's gates:
    one shift tests the n chain gates (i, i, i ± 1), and the exact pair's
    gadget gates hold exactly when x_n is in iff side node a or b is."""
    gates = (1 << n) - 1  # chain gate i at bit i
    if kind is TowerKind.REVERSE_CHAIN:
        return not mem & ~(mem >> 1) & gates
    if mem >> 1 & ~mem & gates:
        return False
    return kind is TowerKind.FORWARD_CHAIN or mem >> n & 1 == (mem >> n + 1 | mem >> n + 2) & 1


def restrict(d: LimitSet, n: int) -> int:
    """The truncation of a limit set to the n-stage circuit, checked.

    A constant set holds all n + 1 chain nodes or none.  A breakpoint beta
    holds nodes 0..min(beta, n) on forward and exact-pair chains, and on
    reverse chains the mirror image, nodes beta+1..n.  The exact pair's top
    node stands in for the whole-chain limit point (the gadget hangs off it),
    so only sets containing the full chain occupy it.  The result is a
    membership mask, validated against the truncation's gate constraints.
    """
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    kind = d.kind
    chain = (1 << n + 1) - 1
    if d.beta is None:
        mem = chain if d.tail == FULL else 0
    else:
        low = (1 << min(d.beta + 1, n + 1)) - 1  # nodes 0..beta, cut at the truncation
        mem = chain ^ low if kind is TowerKind.REVERSE_CHAIN else low
    if kind is TowerKind.EXACT_PAIR:
        whole = d.tail == FULL
        mem = mem & ~(1 << n) | whole << n | d.gadget[0] << n + 1 | d.gadget[1] << n + 2
    if not _obeys_gates(kind, n, mem):
        width = n + 3 if kind is TowerKind.EXACT_PAIR else n + 1
        raise AssertionError(
            f"restriction {circuit_mod.spell(mem, width)} violates the truncation gates"
        )
    return mem


# ---------------------------------------------------------------------------
# Directed systems


@dataclass(frozen=True)
class DirectedSystemReport:
    crisp: bool
    eventually_open: bool
    crisp_violations: tuple[str, ...]
    embedding_violations: tuple[str, ...]
    open_stage: tuple[int, ...]  # per final-stage cell, first covering stage


def check_directed_system(stages, embeddings) -> DirectedSystemReport:
    """Crispness and eventual openness of a finite directed system.

    stages[i] embeds into stages[i+1] by embeddings[i] (old id -> new id).
    Crispness: the image of every earlier stage sits at distance 1 from all
    newer cells.  Eventual openness: each cell is interior to some stage's
    image inside the final stage; a finite system always has its last stage
    as a trivial witness, so the report records the first covering stage.
    An embedding whose length is not its source stage's cell count, or that
    sends a cell outside its target stage, raises ValueError.
    """
    if len(embeddings) != len(stages) - 1:
        raise ValueError("need exactly one embedding per adjacent stage pair")
    emb_viol = []
    for k, emb in enumerate(embeddings):
        a, b = stages[k], stages[k + 1]
        if len(emb) != a.n:
            raise ValueError(
                f"embedding {k} has {len(emb)} entries for the {a.n} cells "
                f"of stage {k}"
            )
        for i, x in enumerate(emb):
            if not 0 <= x < b.n:
                raise ValueError(
                    f"embedding {k} sends cell {i} to {x}, outside the "
                    f"{b.n} cells of stage {k + 1}"
                )
        for i, j in _suspect_pairs(a, b, emb):
            if a.distance(i, j) != b.distance(emb[i], emb[j]):
                emb_viol.append(f"embedding {k} distorts d({i},{j})")
    # compose forward maps into the final stage
    last = stages[-1]
    images = []
    for k in range(len(stages)):
        ids = list(range(stages[k].n))
        for emb in embeddings[k:]:
            ids = [emb[i] for i in ids]
        images.append(finspace.cellset(ids))
    crisp_viol = []
    for k in range(len(stages) - 1):
        img = images[k]
        for (x, y), dval in last.dist.items():
            if bool(img >> x & 1) != bool(img >> y & 1):
                crisp_viol.append(
                    f"stage {k} image not crisp: d({x},{y})={dval} crosses it"
                )
    interiors = [finspace.interior(last, img) for img in images]
    open_stage = []
    ok_open = True
    for cell in range(last.n):
        first = -1
        for k, inner in enumerate(interiors):
            if inner >> cell & 1:
                first = k
                break
        if first < 0:
            ok_open = False
        open_stage.append(first)
    return DirectedSystemReport(
        not crisp_viol,
        ok_open,
        tuple(crisp_viol),
        tuple(emb_viol),
        tuple(open_stage),
    )


def _suspect_pairs(a: DiscreteSpace, b: DiscreteSpace, emb) -> list:
    """The pairs i < j of a, ascending, that may lie below distance 1 in a or
    in b under emb: stored in a, sent onto a pair stored in b, or merged.
    Every other pair is at distance 1 on both sides."""
    pre: dict = {}
    for i, x in enumerate(emb):
        pre.setdefault(x, []).append(i)
    pairs = {(i, j) for i, j in a.dist if 0 <= i < j < a.n}
    for x, y in b.dist:
        if x < y:
            for i in pre.get(x, ()):
                for j in pre.get(y, ()):
                    pairs.add((i, j) if i < j else (j, i))
    for same in pre.values():
        pairs.update(combinations(same, 2))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# The "taking turns" metric


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Exact piecewise-linear function, constant beyond its end breakpoints,
    with values in (0, 1]."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("need at least one breakpoint")
        xs = [p[0] for p in self.points]
        if xs != sorted(set(xs)):
            raise ValueError("breakpoint x values must be strictly increasing")
        for _, v in self.points:
            if not 0 < v <= 1:
                raise ValueError(f"value {v} outside (0, 1]")

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1]
        if x >= pts[-1][0]:
            return pts[-1][1]
        for k in range(len(pts) - 1):
            (x0, y0), (x1, y1) = pts[k], pts[k + 1]
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise AssertionError


def default_turn_functions(x_max: int) -> tuple[PiecewiseLinearFn, PiecewiseLinearFn]:
    """The alternating pair: h1 is 1 at odd integers, h2 at even ones, and
    their min is 1/x at every integer slice from 1 up."""
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    p1 = [(Fraction(0), Fraction(1))]
    p2 = [(Fraction(0), Fraction(1))]
    for k in range(1, x_max + 1):
        if k % 2 == 1:
            p1.append((Fraction(k), Fraction(1)))
            p2.append((Fraction(k), Fraction(1, k)))
        else:
            p1.append((Fraction(k), Fraction(1, k)))
            p2.append((Fraction(k), Fraction(1)))
    return PiecewiseLinearFn(tuple(p1)), PiecewiseLinearFn(tuple(p2))


@dataclass(frozen=True)
class WSpace:
    space: DiscreteSpace
    copy_of: tuple[int, ...]
    base_cell: tuple[int, ...]


def build_W(
    s: DiscreteSpace, f1: PiecewiseLinearFn, f2: PiecewiseLinearFn
) -> WSpace:
    """Three copies of a sliced space under the taking-turns metric.

    Within a copy the metric is unchanged; same-slice cross-copy distances
    are max(d, f) with f = f1, f2, or min(f1+f2, 1) by copy pair; distinct
    slices stay at distance 1, so the extended slicing is still crisp.
    """
    if s.slices is None:
        raise ValueError("build_W needs a crisply sliced base space")
    n = s.n
    cells = tuple(finspace.Cell(i * n + a, c.dim, f"c{i}:{c.tag or c.id}")
                  for i in range(3) for a, c in enumerate(s.cells))
    min_open = tuple(m << i * n for i in range(3) for m in s.open_masks())
    dist = {(a + i * n, b + i * n): d for i in range(3) for (a, b), d in s.dist.items()}
    group: dict = {}  # slice value -> base cells on it, ascending
    for a, v in enumerate(s.slices):
        group.setdefault(v, []).append(a)
    turns = {}  # slice value -> cross-copy floor per copy pair
    for v in group:
        h1, h2 = f1(v), f2(v)
        turns[v] = {(0, 1): h1, (0, 2): h2, (1, 2): min(h1 + h2, Fraction(1))}
    for i in range(3):
        for j in range(i + 1, 3):
            for a in range(n):
                v = s.slices[a]
                f = turns[v][i, j]
                if f >= 1:
                    continue
                for b in group[v]:
                    d = max(s.distance(a, b), f)
                    if d < 1:
                        dist[(i * n + a, j * n + b)] = d
    copy_of = tuple(i for i in range(3) for _ in range(n))
    w = DiscreteSpace(cells, min_open, dist, s.slices * 3, s.resolution)
    return WSpace(w, copy_of, tuple(range(n)) * 3)


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    witnesses: tuple[tuple[int, Fraction], ...]  # uncovered copy-0 cells


def check_cover_radius(w: WSpace, r: Fraction) -> CoverReport:
    """Copy-0 cells on slices above 1/r must be strictly r-close to a side copy."""
    s = w.space
    near = s.neighbours()
    bad = []
    for c in range(s.n):
        if w.copy_of[c] != 0:
            continue
        v = s.slices[c]
        if v * r <= 1:
            continue
        best = Fraction(1)
        for other, d in near[c]:
            if w.copy_of[other] in (1, 2) and d < best:
                best = d
        if not best < r:
            bad.append((c, best))
    return CoverReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Soldered three-copy rail truncation


@dataclass(frozen=True)
class YTruncation:
    circuit: Circuit
    node_class: tuple[int, ...]  # per (copy, rail) flattened: class node index
    k: int

    def copy_nodes(self, copy: int) -> set[int]:
        return {self.node_class[copy * self.k + i] for i in range(self.k)}


def solder_Y_truncation(m: MeetSemilattice, enumeration, k: int) -> YTruncation:
    """Three rail-circuit copies with the turn-taking identifications.

    Odd stages up to k collapse copy 1's first rails together, even stages
    collapse copy 2's, and the three stage-0 rails merge; rails are
    all-or-nothing, so identified rails become a single circuit node.

    At every k they put every rail of copies 1 and 2 into the class of copy
    0's rail 0 (node_class is tuple(range(k)) + (0,) * 2k), so
    verify_short_circuit only checks that nonempty assignments hold rail 0.
    """
    base = circuit_mod.build_Y0(m, enumeration, k)
    total = 3 * k
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def node(copy: int, rail: int) -> int:
        return copy * k + rail

    for stage in range(1, k + 1):
        copy = 1 if stage % 2 == 1 else 2
        for rail in range(min(stage, k - 1)):
            union(node(copy, rail), node(copy, rail + 1))
    union(node(0, 0), node(1, 0))
    union(node(0, 0), node(2, 0))

    roots = sorted({find(x) for x in range(total)})
    root_index = {r: i for i, r in enumerate(roots)}
    node_class = tuple(root_index[find(x)] for x in range(total))
    labels = []
    for r in roots:
        copy, rail = divmod(r, k)
        labels.append(f"c{copy}:Xi({rail})")
    gates = []
    for copy in range(3):
        for i, j, g in base.gates:
            gates.append(
                (
                    node_class[node(copy, i)],
                    node_class[node(copy, j)],
                    node_class[node(copy, g)],
                )
            )
    gates = tuple(dict.fromkeys(gates))
    return YTruncation(
        Circuit(tuple(labels), gates, ("Y", m, tuple(enumeration), k)),
        node_class,
        k,
    )


@dataclass(frozen=True)
class ShortCircuitReport:
    ok: bool
    offending: tuple | None  # (assignment as a tuple, side node index) if any


def verify_short_circuit(yt: YTruncation) -> ShortCircuitReport:
    """Every nonempty definable assignment must fill both side copies; the
    first one that does not is reported with its lowest side node left out."""
    side = sum(1 << node for node in yt.copy_nodes(1) | yt.copy_nodes(2))
    for a in definable_assignments(yt.circuit):
        missing = side & ~a
        if a and missing:
            node = (missing & -missing).bit_length() - 1
            return ShortCircuitReport(False, (circuit_mod.spell(a, yt.circuit.n), node))
    return ShortCircuitReport(True, None)
