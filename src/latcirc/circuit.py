"""Gate circuits over lattices and their definable-set assignments.

A circuit is a list of named nodes plus AND-gate triples (in1, in2, out).
Membership assignments (1 = node lies in the definable set) must avoid the
one forbidden local pattern: both inputs out, output in.  Equivalently the
complement sets are closed under the Horn rules off(in1) & off(in2) =>
off(out), which is what every enumeration here works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import gate as gate_mod
from .order_core import FiniteLattice, MeetSemilattice, closed_sets, filters, horn_closure


@dataclass(frozen=True)
class Circuit:
    nodes: tuple[str, ...]
    gates: tuple[tuple[int, int, int], ...]
    origin: tuple | None = None

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("node labels must be unique")
        for g in self.gates:
            if any(not 0 <= i < len(self.nodes) for i in g):
                raise ValueError(f"gate {g} references an unknown node")

    @property
    def n(self) -> int:
        return len(self.nodes)


Assignment = tuple  # 0/1 membership per node index


def satisfies(gates, a: Assignment) -> bool:
    """Whether ``a`` obeys every gate triple (i, j, k): x_i, x_j off => x_k off."""
    return all(
        not (a[i] == 0 and a[j] == 0 and a[k] == 1) for i, j, k in gates
    )


def definable_assignments(c: Circuit) -> list[Assignment]:
    """All node membership maps satisfying every gate, canonically ordered.

    Off-sets (complements) are exactly the rule-closed subsets, so they come
    from a closure-system enumeration rather than a 2^nodes scan.
    """
    full = (1 << c.n) - 1
    close = horn_closure(c.n, [(i, j, 1 << k) for i, j, k in c.gates])
    offs = closed_sets(c.n, close)
    assignments = []
    for off in offs:
        mem = full & ~off
        assignments.append(tuple(1 if mem >> i & 1 else 0 for i in range(c.n)))
    assignments.sort()
    return assignments


# ---------------------------------------------------------------------------
# Lattice circuits


def circuit_to_json(c: Circuit) -> str:
    import json

    return json.dumps(
        {"nodes": list(c.nodes), "gates": [list(g) for g in c.gates]},
        sort_keys=True,
    )


def circuit_from_json(text: str) -> Circuit:
    import json

    data = json.loads(text)
    return Circuit(tuple(data["nodes"]), tuple(tuple(g) for g in data["gates"]))


def qualifying_triples(l: FiniteLattice) -> list[tuple[int, int, int]]:
    """Ordered triples (a, b, c) of non-top elements with a ^ b <= c."""
    lm = l.nontop()
    return [
        (a, b, c)
        for a in lm
        for b in lm
        for c in lm
        if l.leq(l.meet[a][b], c)
    ]


def _node_labels(l: FiniteLattice) -> tuple[str, ...]:
    return tuple(f"x_{l.elements[a]}" for a in l.nontop())


def _reindex(l: FiniteLattice, triples) -> tuple[tuple[int, int, int], ...]:
    pos = {a: i for i, a in enumerate(l.nontop())}
    return tuple((pos[a], pos[b], pos[c]) for a, b, c in triples)


def build_full(l: FiniteLattice) -> Circuit:
    """One node per non-top element, one gate per qualifying triple."""
    if l.n < 2:
        raise ValueError("trivial lattice: circuits need at least two elements")
    triples = qualifying_triples(l)
    return Circuit(_node_labels(l), _reindex(l, triples), ("full", l, tuple(triples)))


def _first_gap(l: FiniteLattice, triples) -> int | None:
    """Where forward chaining on the chosen rules falls short, or None.

    Walks the pairs {a, b} of non-top nodes in index order and returns, as a
    node-position bitmask, the closure of the first pair that misses a node
    c >= a ^ b.
    """
    lm = l.nontop()
    pos = {a: i for i, a in enumerate(lm)}
    close = horn_closure(
        len(lm), [(pos[a], pos[b], 1 << pos[c]) for a, b, c in triples]
    )
    low = (1 << l.top) - 1
    for i, a in enumerate(lm):
        for j in range(i, len(lm)):
            up = l.poset.up[l.meet[a][lm[j]]]
            need = up & low | up >> l.top + 1 << l.top  # as node positions
            got = close(1 << i | 1 << j)
            if need & ~got:
                return got
    return None


def is_adequate(l: FiniteLattice, triples) -> bool:
    """Forward chaining on the chosen rules derives every qualifying rule.

    For each qualifying (a, b, c), chaining from {off(a), off(b)} must reach
    off(c); that is exactly what pins the filter correspondence.
    """
    return _first_gap(l, triples) is None


def build_minimal(l: FiniteLattice, mode: str = "exact") -> Circuit:
    """An adequate presentation; exact mode returns a minimum-cardinality one.

    Exact search deepens the size limit from a sound lower bound: every node
    c that some qualifying (a, b, c) has outside {a, b} needs a rule with head
    c.  The first adequate set found is then a minimum.
    """
    if l.n < 2:
        raise ValueError("trivial lattice: circuits need at least two elements")
    all_triples = qualifying_triples(l)
    if mode == "greedy":
        chosen = list(all_triples)
        for t in list(chosen):
            trial = [u for u in chosen if u != t]
            if is_adequate(l, trial):
                chosen = trial
        triples = tuple(chosen)
    elif mode == "exact":
        triples = _exact_minimal(l, all_triples)
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
        (t, 1 << pos[t[0]] | 1 << pos[t[1]], 1 << pos[t[2]])
        for t in all_triples
        if t[0] <= t[1]
    ]
    required = {c for a, b, c in all_triples if c not in (a, b)}

    def search(chosen: list, barred: set, depth: int):
        gap = _first_gap(l, chosen)
        if gap is None:
            return chosen
        missing = len(required - {c for _, _, c in chosen})
        if len(chosen) + max(1, missing) > depth:
            return None
        barred = set(barred)
        for t, premises, head in rules:
            if t in barred or premises & ~gap or head & gap:
                continue
            found = search(chosen + [t], barred, depth)
            if found is not None:
                return found
            barred.add(t)
        return None

    for depth in range(len(required), len(rules) + 1):
        found = search([], set(), depth)
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
class SemilatticeReport:
    assignments: tuple[Assignment, ...]
    join_table: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    def leq(self, i: int, j: int) -> bool:
        return all(x <= y for x, y in zip(self.assignments[i], self.assignments[j]))

    def as_lattice(self) -> FiniteLattice:
        from .order_core import as_lattice, poset_from_pairs

        labels = ["".join(map(str, a)) for a in self.assignments]
        pairs = [
            (i, j)
            for i in range(len(labels))
            for j in range(len(labels))
            if i != j and self.leq(i, j)
        ]
        return as_lattice(poset_from_pairs(labels, pairs, labels=False))


def semilattice(c: Circuit) -> SemilatticeReport:
    """Assignments under pointwise order; join is pointwise max."""
    assignments = definable_assignments(c)
    index = {a: i for i, a in enumerate(assignments)}
    join = []
    for a in assignments:
        row = []
        for b in assignments:
            j = tuple(max(x, y) for x, y in zip(a, b))
            row.append(index[j])  # Horn-closedness keeps the join inside
        join.append(tuple(row))
    bottom = index[tuple([0] * c.n)]
    top = index[tuple([1] * c.n)]
    return SemilatticeReport(tuple(assignments), tuple(join), bottom, top)


@dataclass(frozen=True)
class IsoResult:
    ok: bool
    mapping: dict | None
    witness: str | None


def lattice_assignment(l: FiniteLattice, a: int) -> Assignment:
    """The assignment of D_a: node x_b is outside exactly when b >= a."""
    lm = l.nontop()
    return tuple(0 if l.leq(a, b) else 1 for b in lm)


def verify_iso(l: FiniteLattice, c: Circuit) -> IsoResult:
    """Check a -> D_a is a bijection onto assignments preserving join and bounds."""
    got = definable_assignments(c)
    mapping = {a: lattice_assignment(l, a) for a in range(l.n)}
    values = set(mapping.values())
    if len(values) != l.n:
        return IsoResult(False, None, "a -> D_a is not injective")
    got_set = set(got)
    for a, asg in mapping.items():
        if asg not in got_set:
            return IsoResult(
                False, None, f"D_{l.elements[a]} = {asg} is not an assignment"
            )
    extra = [a for a in got if a not in values]
    if extra:
        return IsoResult(
            False, None, f"extra assignment {extra[0]} matches no lattice element"
        )
    for a in range(l.n):
        for b in range(l.n):
            j = l.join[a][b]
            pointwise = tuple(max(x, y) for x, y in zip(mapping[a], mapping[b]))
            if mapping[j] != pointwise:
                return IsoResult(
                    False,
                    None,
                    f"join not preserved on ({l.elements[a]}, {l.elements[b]})",
                )
    if mapping[l.bottom] != tuple([0] * c.n):
        return IsoResult(False, None, "bottom does not map to the empty set")
    if mapping[l.top] != tuple([1] * c.n):
        return IsoResult(False, None, "top does not map to the whole space")
    return IsoResult(True, mapping, None)


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


def build_Y0(m: MeetSemilattice, enumeration, k: int) -> Circuit:
    """Truncated rail circuit: one all-or-nothing rail per enumerated element.

    enumeration lists element indices with the bottom first; rails cover the
    first k of them, gates cover index triples (a, b, c) below k whose
    elements satisfy l_a ^ l_b <= l_c.
    """
    enumeration = tuple(enumeration)
    if sorted(enumeration) != list(range(m.n)):
        raise ValueError("enumeration must list every element index exactly once")
    if m.bottom is None or enumeration[0] != m.bottom:
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


def truncated_filters(m: MeetSemilattice, enumeration, k: int) -> set:
    """Images of all filters (empty included) under restriction to the rails."""
    enumeration = tuple(enumeration)
    out = set()
    for f in filters(m, include_empty=True):
        out.add(frozenset(i for i in range(k) if enumeration[i] in f))
    return out


def y0_assignment_offsets(c: Circuit) -> set:
    """Off-sets (rail indices outside the definable set) of the assignments."""
    return {
        frozenset(i for i in range(c.n) if a[i] == 0)
        for a in definable_assignments(c)
    }
