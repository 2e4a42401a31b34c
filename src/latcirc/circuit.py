"""Gate circuits over lattices and their definable-set assignments.

A circuit is a list of named nodes plus AND-gate triples (in1, in2, out).
An assignment is an int membership mask: bit i is set when node i lies in
the definable set.  Assignments must avoid the one forbidden local pattern:
both inputs out, output in.  Equivalently the complement sets are closed
under the Horn rules off(in1) & off(in2) => off(out), which is what every
enumeration here works with.  Lists of assignments come in the
lexicographic order of their 0/1 tuples read from node 0, and witnesses
print an assignment as that tuple (``spell``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from . import finspace
from . import gate as gate_mod
from .finspace import BudgetExceeded, bits
from .order_core import FiniteLattice, MeetSemilattice, closed_sets, filters, horn_closure


@dataclass(frozen=True)
class Circuit:
    nodes: tuple[str, ...]
    gates: tuple[tuple[int, int, int], ...]
    origin: tuple | None = None

    def __post_init__(self):
        if len(set(self.nodes)) != self.n:
            raise ValueError("node labels must be unique")
        used = set(chain.from_iterable(self.gates))
        if used and not (0 <= min(used) and max(used) < self.n):
            bad = next(g for g in self.gates if min(g) < 0 or max(g) >= self.n)
            raise ValueError(f"gate {bad} references an unknown node")

    @property
    def n(self) -> int:
        return len(self.nodes)


def spell(a: int, n: int) -> tuple[int, ...]:
    """The assignment ``a`` of an ``n``-node circuit as its 0/1 tuple."""
    return tuple(a >> i & 1 for i in range(n))


def definable_assignments(c: Circuit) -> list[int]:
    """All node membership masks satisfying every gate, canonically ordered.

    Off-sets (complements) are exactly the rule-closed subsets, so they come
    from a closure-system enumeration rather than a 2^nodes scan.  Its lectic
    order ascends in the off-set read with node 0 as the high bit, so the
    complements of the reversed list are in tuple order without a sort.
    """
    full = (1 << c.n) - 1
    close = horn_closure(c.n, [(i, j, 1 << k) for i, j, k in c.gates])
    return [full ^ off for off in reversed(closed_sets(c.n, close))]


# ---------------------------------------------------------------------------
# Lattice circuits


def qualifying_triples(l: FiniteLattice) -> list[tuple[int, int, int]]:
    """Ordered triples (a, b, c) of non-top elements with a ^ b <= c."""
    lm = l.nontop()
    nontop = ((1 << l.n) - 1) ^ (1 << l.top)
    above = [list(bits(up & nontop)) for up in l.poset.up]
    return [(a, b, c) for a in lm for b in lm for c in above[l.meet[a][b]]]


def _node_labels(l: FiniteLattice) -> tuple[str, ...]:
    return tuple(f"x_{l.elements[a]}" for a in l.nontop())


def _node_mask(l: FiniteLattice, mask: int) -> int:
    """An element bitmask without the top, as node positions."""
    return mask & (1 << l.top) - 1 | mask >> l.top + 1 << l.top


def _reindex(l: FiniteLattice, triples) -> tuple[tuple[int, int, int], ...]:
    pos = [a - (a > l.top) for a in range(l.n)]
    return tuple((pos[a], pos[b], pos[c]) for a, b, c in triples)


def build_full(l: FiniteLattice) -> Circuit:
    """One node per non-top element, one gate per qualifying triple.

    The gates are those of ``qualifying_triples`` in the same order, made
    directly in node positions from each element's non-top up-set.
    """
    if l.n < 2:
        raise ValueError("trivial lattice: circuits need at least two elements")
    lm = l.nontop()
    above = [tuple(bits(_node_mask(l, up))) for up in l.poset.up]
    gates = tuple([
        (i, j, k)
        for i, a in enumerate(lm)
        for j, b in enumerate(lm)
        for k in above[l.meet[a][b]]
    ])
    return Circuit(_node_labels(l), gates, ("full", l))


def _gap_finder(l: FiniteLattice):
    """The test ``first_gap(rules)`` of rules in node positions.

    ``first_gap`` walks the pairs {a, b} of non-top nodes in index order and
    returns, as a node-position bitmask, the closure under ``rules`` (as
    ``horn_closure`` takes them) of the first pair that misses a node
    c >= a ^ b, or None when forward chaining falls short nowhere.
    """
    lm = l.nontop()
    checks = [
        (1 << i | 1 << j, _node_mask(l, l.poset.up[l.meet[a][lm[j]]]))
        for i, a in enumerate(lm)
        for j in range(i, len(lm))
    ]

    def first_gap(rules) -> int | None:
        close = horn_closure(len(lm), rules)
        for start, need in checks:
            got = close(start)
            if need & ~got:
                return got
        return None

    return first_gap


def is_adequate(l: FiniteLattice, triples) -> bool:
    """Forward chaining on the chosen rules derives every qualifying rule.

    For each qualifying (a, b, c), chaining from {off(a), off(b)} must reach
    off(c); that is exactly what pins the filter correspondence.
    """
    pos = {a: i for i, a in enumerate(l.nontop())}
    rules = [(pos[a], pos[b], 1 << pos[c]) for a, b, c in triples]
    return _gap_finder(l)(rules) is None


def build_minimal(l: FiniteLattice) -> Circuit:
    """A minimum-cardinality adequate presentation.

    The search deepens the size limit from a sound lower bound: every node c
    that some qualifying (a, b, c) has outside {a, b} needs a rule with head
    c.  The first adequate set found is then a minimum.
    """
    if l.n < 2:
        raise ValueError("trivial lattice: circuits need at least two elements")
    all_triples = qualifying_triples(l)
    triples = _exact_minimal(l, all_triples)
    return Circuit(
        _node_labels(l), _reindex(l, triples), ("minimal", l, tuple(triples))
    )


def _exact_minimal(l, all_triples):
    """Iterative deepening over the rules that can close the first open gap.

    Any adequate superset of the chosen rules must use a rule whose premises
    lie in the gap's closure and whose head does not, so those rules are the
    branches; a rule tried in one branch is barred from its later siblings.
    (a, b, c) and (b, a, c) are the same rule, so only the first is kept.  A
    branch also stops once the required heads it has not covered, one rule
    each, no longer fit below the depth.
    """
    pos = {a: i for i, a in enumerate(l.nontop())}
    rules = [
        (t, 1 << pos[t[0]] | 1 << pos[t[1]], (pos[t[0]], pos[t[1]], 1 << pos[t[2]]))
        for t in all_triples
        if t[0] <= t[1]
    ]
    required = {c for a, b, c in all_triples if c not in (a, b)}
    first_gap = _gap_finder(l)

    def search(chosen: list, placed: list, barred: set, depth: int):
        gap = first_gap(placed)
        if gap is None:
            return chosen
        missing = len(required - {c for _, _, c in chosen})
        if len(chosen) + max(1, missing) > depth:
            return None
        barred = set(barred)
        for t, premises, rule in rules:
            head = rule[2]
            if t in barred or premises & ~gap or head & gap:
                continue
            found = search(chosen + [t], placed + [rule], barred, depth)
            if found is not None:
                return found
            barred.add(t)
        return None

    for depth in range(len(required), len(rules) + 1):
        found = search([], [], set(), depth)
        if found is not None:
            return tuple(t for t in all_triples if t in found)
    return tuple(all_triples)


def smaller_adequate_exists(l: FiniteLattice, size: int) -> bool:
    """Exhaustively test all subsets strictly below ``size`` for adequacy."""
    all_triples = qualifying_triples(l)
    for k in range(size):
        for subset in combinations(all_triples, k):
            if is_adequate(l, subset):
                return True
    return False


# ---------------------------------------------------------------------------
# Semilattice of assignments


@dataclass(frozen=True)
class IsoResult:
    ok: bool
    witness: str | None
    assignments: tuple[int, ...]  # the circuit's, canonically ordered


def lattice_assignment(l: FiniteLattice, a: int) -> int:
    """The assignment of D_a: node x_b is outside exactly when b >= a."""
    return (1 << l.n - 1) - 1 & ~_node_mask(l, l.poset.up[a])


def verify_iso(l: FiniteLattice, c: Circuit) -> IsoResult:
    """Check a -> D_a is a bijection onto assignments preserving join and bounds.

    The result carries the circuit's assignments, so callers need not
    enumerate them again.
    """
    got = tuple(definable_assignments(c))

    def fail(witness: str) -> IsoResult:
        return IsoResult(False, witness, got)

    width = l.n - 1
    mapping = [lattice_assignment(l, a) for a in range(l.n)]
    values = set(mapping)
    if len(values) != l.n:
        return fail("a -> D_a is not injective")
    got_set = set(got)
    for a, asg in enumerate(mapping):
        # a mask has no width: D_a is no assignment of a wrong-sized circuit
        if c.n != width or asg not in got_set:
            return fail(f"D_{l.elements[a]} = {spell(asg, width)} is not an assignment")
    extra = next((a for a in got if a not in values), None)
    if extra is not None:
        return fail(f"extra assignment {spell(extra, c.n)} matches no lattice element")
    for a in range(l.n):
        for b in range(l.n):
            if mapping[l.join[a][b]] != mapping[a] | mapping[b]:
                return fail(
                    f"join not preserved on ({l.elements[a]}, {l.elements[b]})"
                )
    if mapping[l.bottom] != 0:
        return fail("bottom does not map to the empty set")
    if mapping[l.top] != (1 << c.n) - 1:
        return fail("top does not map to the whole space")
    return IsoResult(True, None, got)


# ---------------------------------------------------------------------------
# Discretization and truncated rail circuits


def discretize(c: Circuit, n: int):
    """Realize the circuit as soldered gate copies; see gate.build_complex.

    Space construction is cheap; only the oracle's exhaustive family search
    is budget-guarded, at search time.
    """
    labels = [
        (c.nodes[i], c.nodes[j], c.nodes[k]) for i, j, k in c.gates
    ]
    if not labels:
        raise ValueError("cannot discretize a circuit with no gates")
    return gate_mod.build_complex(labels, n, terminal_order=c.nodes)


# Spot checks of the factorized oracle: seeded random closed sets of the
# assembled complex that the glue leaves out must not be definable.
SPOT_PROBES = 20
SPOT_SEED = 0


def glue(c: Circuit, patterns, budget: int) -> list[tuple[int, int]]:
    """Node assignments whose every gate (i, j, k) shows a pattern
    (x_i, x_j, x_k) among the plain gate's ``patterns``, in tuple order,
    each with its number of glued sets: the product over gates of the plain
    gate's definable sets with that pattern.

    A gate that names a node twice reads that node's membership at both
    terminals, so it only ever sees patterns that agree on its soldered
    terminals.  Backtracks over node memberships in index order and checks
    each gate as soon as its last node is set; a node that lies in no gate
    is a free point, so both of its values pass.  Every membership tried is
    charged to the budget.  Uses neither horn_closure nor closed_sets, so it
    stays independent of the symbolic side.
    """
    counts: dict = {}
    for p in patterns:
        counts[p] = counts.get(p, 0) + 1
    if not c.n:
        return [(0, 1)]
    closing = [[] for _ in range(c.n)]
    for g in c.gates:
        closing[max(g)].append(g)
    out = []
    x = [-1] * c.n
    ways = [1] * (c.n + 1)
    tried = 0
    v = 0
    while v >= 0:
        x[v] += 1
        if x[v] > 1:
            x[v] = -1
            v -= 1
            continue
        tried += 1
        if tried > budget:
            raise BudgetExceeded(f"glue search exceeds the budget of {budget}")
        w = ways[v]
        for i, j, k in closing[v]:
            w *= counts.get((x[i], x[j], x[k]), 0)
            if not w:
                break
        if not w:
            continue
        if v == c.n - 1:
            out.append((sum(b << i for i, b in enumerate(x)), w))
        else:
            ways[v + 1] = w
            v += 1
    return out


def check_factorization(dc, one_gate, r_min: Fraction) -> None:
    """Raise AssertionError unless the complex splits into its gate copies.

    Checks what the factorized oracle relies on: no stored distance joins
    cells of two copies, every terminal is a crisp 0-cell, and the one-gate
    complex has the complex's thresholds above r_min.
    """
    s = dc.space
    terminal_mask = 0
    for label, t in dc.terminals.items():
        if s.cells[t].dim != 0:
            raise AssertionError(f"terminal {label!r} is not a 0-cell")
        terminal_mask |= 1 << t
    copy_of = [0] * s.n
    for g, cells in enumerate(dc.copies):
        for cell in cells:
            copy_of[cell] |= 1 << g
    for a, b in s.dist:
        if (terminal_mask >> a | terminal_mask >> b) & 1:
            raise AssertionError(f"stored distance d({a},{b}) makes a terminal not crisp")
        if copy_of[a] != copy_of[b] or copy_of[a].bit_count() != 1:
            raise AssertionError(f"stored distance d({a},{b}) crosses gate copies")
    if finspace.thresholds(one_gate.space, r_min) != finspace.thresholds(s, r_min):
        raise AssertionError("the one-gate complex's thresholds differ from the complex's")


@dataclass(frozen=True)
class CircuitOracle:
    patterns: tuple[int, ...]  # in tuple order, one per glued node assignment
    definables: int  # glued sets: one saturated definable set chosen per gate copy
    refuted: tuple[int, ...]  # rejected glued sets; definable probes with no glued pattern


def oracle(c: Circuit, n: int, budget: int) -> CircuitOracle:
    """Node assignments of the discretized circuit's definable sets, glued
    from the plain gate's terminal patterns.

    Why gluing is sound: build_complex lays its gate copies side by side
    with finspace.solder, which puts every pair of cells from different
    copies at distance 1 and identifies only terminals, which are crisp
    0-cells.  A set is closed exactly when its
    part in each copy is.  A terminal's minimal open set is the union of its
    flanks in each copy, so the definability test U(d) & ~(d | N_r0(d)) == 0
    of finspace splits copy by copy, and every copy has the same distance
    values and so the same threshold r0 as the plain gate.  A copy that
    names a node twice is the plain gate with those terminals soldered, so
    its definable sets are the plain gate's sets that agree on them.  Hence
    the definable sets of the complex are the consistent choices of one
    plain-gate definable set per copy, and a node in no gate is a free point
    with patterns {0, 1}.  gate.oracle runs once, on gate.discretize(n), and
    raises gate.NoThreshold when the floor 2/n leaves no threshold.  It
    searches only the saturated family, which holds one definable set per
    allowed pattern but misses most of the plain gate's definable sets, so
    ``definables`` counts choices of saturated sets.  The glued patterns are
    the complex's as long as every definable set of the plain gate shows an
    allowed terminal pattern: the verdicts rest on that.

    check_factorization asserts these preconditions on the assembled
    complex.  Each glued set is then mapped onto the complex's cells through
    the copies' shared pre-solder numbering and confirmed with full
    is_definable, and SPOT_PROBES seeded random closed sets that it accepts
    must show a glued node assignment; disagreements are returned in
    ``refuted``.  A circuit with no gates needs no complex: each of its
    nodes is a free point.
    """
    if n < 2:
        raise ValueError(f"subdivision n must be >= 2, got {n}")
    if not c.gates:
        glued = glue(c, (), budget)
        return CircuitOracle(tuple(a for a, _ in glued), len(glued), ())
    one = gate_mod.discretize(n)
    res = gate_mod.oracle(one, budget=budget)
    glued = glue(c, res.patterns, budget)
    patterns = tuple(a for a, _ in glued)
    definables = sum(w for _, w in glued)
    dc = discretize(c, n)
    r_min = dc.r_min
    check_factorization(dc, one, r_min)
    # each plain-gate set as pre-solder local indices, then per gate as its cells
    local_sets = [
        (p, [i for i, cell in enumerate(one.copies[0]) if d >> cell & 1])
        for d, p in zip(res.definable, res.patterns)
    ]
    lifted = []
    for g, cells in zip(c.gates, dc.copies):
        by_pattern: dict = {}
        for p, locals_ in local_sets:
            mask = 0
            for i in locals_:
                mask |= 1 << cells[i]
            by_pattern.setdefault(p, []).append(mask)
        lifted.append((g, by_pattern))
    gated = {v for g in c.gates for v in g}
    free = [
        (i, dc.terminals[node]) for i, node in enumerate(c.nodes) if i not in gated
    ]
    refuted = []
    for a in patterns:
        partial = [sum(1 << cell for i, cell in free if a >> i & 1)]
        for (i, j, k), by_pattern in lifted:
            options = by_pattern[a >> i & 1, a >> j & 1, a >> k & 1]
            partial = [m | o for m in partial for o in options]
        for d in partial:
            if not finspace.is_definable(dc.space, d, r_min):
                refuted.append(d)
    shown = {spell(a, c.n) for a in patterns}
    for d in finspace.random_closed_sets(dc.space, SPOT_PROBES, SPOT_SEED):
        if finspace.is_definable(dc.space, d, r_min) and dc.pattern(d) not in shown:
            refuted.append(d)
    return CircuitOracle(patterns, definables, tuple(refuted))


def build_Y0(m: MeetSemilattice, enumeration, k: int) -> Circuit:
    """Truncated rail circuit: one all-or-nothing rail per enumerated element.

    enumeration lists element indices with the bottom first; rails cover the
    first k of them, gates cover index triples (a, b, c) below k whose
    elements satisfy l_a ^ l_b <= l_c.
    """
    enumeration = tuple(enumeration)
    if sorted(enumeration) != list(range(m.n)):
        raise ValueError("enumeration must list every element index exactly once")
    if enumeration[0] != m.bottom:
        raise ValueError("enumeration must start at the bottom element")
    if not 1 <= k <= m.n:
        raise ValueError(f"truncation level k={k} out of range")
    nodes = tuple(f"Xi({i})" for i in range(k))
    gates = []
    for a in range(k):
        for b in range(k):
            for c in range(k):
                ea, eb, ec = enumeration[a], enumeration[b], enumeration[c]
                if m.leq(m.meet[ea][eb], ec):
                    gates.append((a, b, c))
    return Circuit(nodes, tuple(gates), ("Y0", m, enumeration, k))


def truncated_filters(m: MeetSemilattice, enumeration, k: int) -> set[int]:
    """Images of all filters (empty included) under restriction to the rails,
    as rail masks."""
    rails = tuple(enumeration)[:k]
    return {
        sum(1 << i for i, e in enumerate(rails) if e in f)
        for f in filters(m, include_empty=True)
    }


def y0_assignment_offsets(c: Circuit) -> set[int]:
    """Off-set masks (rails outside the definable set) of the assignments."""
    full = (1 << c.n) - 1
    return {full ^ a for a in definable_assignments(c)}
