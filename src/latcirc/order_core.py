"""Finite posets, lattices, meet-semilattices, filters, and isomorphism search."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .finspace import _mask, bits


class OrderError(ValueError):
    """Bad order-theoretic input: duplicate labels, cycles, missing bounds."""


class LatticeError(OrderError):
    """A poset lacks the meets or joins needed for the requested structure."""


@dataclass(frozen=True)
class Poset:
    """A finite partial order over opaque element labels.

    ``up[i]`` is a bitmask whose bit ``j`` is set iff element ``i <= j``.
    Construction validates distinct labels, reflexivity, transitivity and
    antisymmetry, so a ``Poset`` in hand is always a genuine partial order.
    It is the one validator: the builders below only close and index.
    """

    elements: tuple[str, ...]
    up: tuple[int, ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(set(self.elements)) != n:
            dup = next(e for i, e in enumerate(self.elements) if e in self.elements[:i])
            raise OrderError(f"duplicate label {dup!r}")
        if len(self.up) != n:
            raise OrderError("up-mask table size mismatch")
        for i in range(n):
            if not self.up[i] >> i & 1:
                raise OrderError(f"missing reflexive pair for {self.elements[i]!r}")
            if self.up[i] >> n:
                raise OrderError("up mask references unknown element")
        for i in range(n):
            if any(self.up[j] & ~self.up[i] for j in bits(self.up[i])):
                raise OrderError(f"leq not transitive at {self.elements[i]!r}")
        # transitive and reflexive, i <= j <= i exactly when up[i] == up[j]
        first: dict = {}
        cycles = [(i, j) for j, m in enumerate(self.up)
                  if (i := first.setdefault(m, j)) != j]
        if cycles:
            i, j = min(cycles)
            raise OrderError(
                "antisymmetry violation (cycle) between "
                f"{self.elements[i]!r} and {self.elements[j]!r}"
            )

    @property
    def n(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def down_masks(self) -> tuple[int, ...]:
        """Bitmask per element j of everything below-or-equal j."""
        down = [0] * self.n
        for i in range(self.n):
            for j in bits(self.up[i]):
                down[j] |= 1 << i
        return tuple(down)

    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram edges (i, j) with j covering i, by i then j.

        j covers i when it is strictly above i and not strictly above any
        element strictly above i.
        """
        out = []
        for i in range(self.n):
            above = self.up[i] & ~(1 << i)
            beyond = 0
            for k in bits(above):
                beyond |= self.up[k] & ~(1 << k)
            out.extend((i, j) for j in bits(above & ~beyond))
        return out


def poset_from_pairs(elements, pairs) -> Poset:
    """Build a poset as the reflexive-transitive closure of the given label pairs.

    ``pairs`` may be cover pairs or arbitrary leq pairs; each is the Horn rule
    a => b, and the up-set of i is the closure of {i}.  ``Poset`` validates
    the result.
    """
    elements = tuple(elements)
    idx = {lbl: i for i, lbl in enumerate(elements)}
    rules = []
    for a, b in pairs:
        for lbl in (a, b):
            if lbl not in idx:
                raise OrderError(f"unknown element {lbl!r} in pair")
        rules.append((idx[a], idx[a], 1 << idx[b]))
    close = horn_closure(len(elements), rules)
    return Poset(elements, tuple(close(1 << i) for i in range(len(elements))))


def parse_poset(text) -> Poset:
    """Parse a poset from JSON text (or an already-decoded dict).

    Expected shape: ``{"elements": [...], "covers": [[a, b], ...]}`` or the
    same with a ``"leq"`` key listing arbitrary order pairs, never both.
    """
    data = json.loads(text) if isinstance(text, (str, bytes)) else text
    if not isinstance(data, dict) or "elements" not in data:
        raise OrderError("input must be a JSON object with an 'elements' list")
    unknown = ", ".join(map(repr, sorted(set(data) - {"elements", "covers", "leq"})))
    if unknown:
        raise OrderError(f"unknown key(s) {unknown}; expected 'covers' or 'leq'")
    elements = data["elements"]
    if not isinstance(elements, list) or not all(
        isinstance(e, str) for e in elements
    ):
        raise OrderError("'elements' must be a list of string labels")
    if "covers" in data and "leq" in data:
        raise OrderError("give either 'covers' or 'leq', not both")
    key = "covers" if "covers" in data else "leq"
    pairs = data.get(key, [])
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(e, str) for e in p)
        for p in pairs
    ):
        raise OrderError(f"'{key}' must be a list of [label, label] pairs")
    return poset_from_pairs(elements, pairs)


@dataclass(frozen=True)
class MeetSemilattice:
    """A finite meet-semilattice: poset plus a total meet table and the bottom."""

    poset: Poset
    meet: tuple[tuple[int, ...], ...]
    bottom: int

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    @property
    def n(self) -> int:
        return self.poset.n

    def leq(self, i: int, j: int) -> bool:
        return self.poset.leq(i, j)


@dataclass(frozen=True)
class FiniteLattice(MeetSemilattice):
    """A finite lattice: a meet-semilattice plus the join table and the top."""

    join: tuple[tuple[int, ...], ...]
    top: int
    # iso's per-element profiles, filled on first use; no part of the value
    _iso_profiles: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def nontop(self) -> list[int]:
        """Indices of the coatom-and-below part: everything except the top."""
        return [i for i in range(self.n) if i != self.top]


def _bounds(p: Poset, masks, kind: str):
    """The table of pairwise bounds and the bound of all elements.

    The bound of i and j is the member of ``masks[i] & masks[j]`` whose own
    mask holds all of them: on down masks their meet, on up masks their join.
    It holds every other member's mask, so with elements ranked by mask size
    it is the top bit of the ranked common part, checked to hold that part.
    Raises ``LatticeError`` naming the first pair, in index order, that has none.
    """
    n = p.n
    order = sorted(range(n), key=lambda k: masks[k].bit_count())
    rank = {k: r for r, k in enumerate(order)}
    ranked = [_mask((rank[k] for k in bits(m)), n) for m in masks]  # masks over ranks
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            common = ranked[i] & ranked[j]
            k = order[common.bit_length() - 1]
            if not common or common & ~ranked[k]:
                raise LatticeError(
                    f"no {kind} for pair ({p.elements[i]!r}, {p.elements[j]!r})"
                )
            table[i][j] = table[j][i] = k
    overall = 0
    for i in range(1, n):
        overall = table[overall][i]
    return tuple(map(tuple, table)), overall


def as_meet_semilattice(p: Poset) -> MeetSemilattice:
    """Build a meet-semilattice from a poset in which every pair has a glb."""
    if p.n == 0:
        raise LatticeError(
            "a meet-semilattice needs at least one element; 'elements' is empty"
        )
    return MeetSemilattice(p, *_bounds(p, p.down_masks(), "meet"))


def as_lattice(p: Poset) -> FiniteLattice:
    """``as_meet_semilattice`` plus the join table and the top.

    Raises ``LatticeError`` naming the first pair (in index order) that lacks
    a greatest lower bound, or failing that a least upper bound.
    """
    if p.n == 0:
        raise LatticeError("a lattice needs at least one element; 'elements' is empty")
    m = as_meet_semilattice(p)
    return FiniteLattice(p, m.meet, m.bottom, *_bounds(p, p.up, "join"))


def inclusion_lattice(labels, masks) -> FiniteLattice:
    """The distinct sets ``masks`` (bitmasks) ordered by inclusion, as a lattice.

    ``labels[i]`` names ``masks[i]``; raises ``LatticeError`` when some pair
    of sets has no greatest lower or least upper bound in the family.
    """
    up = tuple(
        sum(1 << j for j, b in enumerate(masks) if a & ~b == 0) for a in masks
    )
    return as_lattice(Poset(tuple(labels), up))


# ---------------------------------------------------------------------------
# Horn closure systems


def _walk(x: int, single: list[int], two: int, walked: int) -> int:
    """Replace ``single[x]`` by the reach of the lone element x, and likewise
    for every lone element the walk finishes; return the new walked mask.

    A successor of v is a lone element of ``single[v]`` other than v.  A
    walked one has its reach ORed in.  One whose heads already lie in v's
    reach so far is skipped: every lone element whose bit enters a reach
    has its own heads added by the time the walk finishes, so the skipped
    element's reach is inside v's.  The rest are walked depth first with
    Tarjan's (1972) low links, so that every member of a one-premise cycle
    gets the reach of the whole cycle, and each finished element keeps its
    reach.
    """
    # Tarjan's stack is the dict of visited elements that no finished cycle
    # holds yet, in visit order; an element's index is its place in it
    index = {x: 0}
    stack = []
    v, own, low = x, 0, 0
    acc = single[x] | 1 << x
    succ = acc & ~two & ~(1 << x)
    while True:
        if succ:
            bit = succ & -succ
            succ ^= bit
            w = bit.bit_length() - 1
            if bit & walked:
                acc |= single[w]
            elif w in index:
                if index[w] < low:
                    low = index[w]
            elif single[w] & ~acc:
                stack.append((v, succ, acc, low, own))
                index[w] = own = low = len(index)
                v, acc = w, single[w] | bit
                succ = acc & ~two & ~bit
            continue
        if low == own:
            while True:
                w = index.popitem()[0]
                single[w] = acc
                walked |= 1 << w
                if w == v:
                    break
        if not stack:
            return walked
        v, succ, above, up_low, own = stack.pop()
        acc |= above
        if up_low < low:
            low = up_low


def horn_closure(n: int, rules):
    """The closure operator of Horn rules over elements 0..n-1, on bitmasks.

    A rule ``(a, b, heads)`` adds the ``heads`` mask once ``a`` and ``b`` are
    both in the set; ``a == b`` makes it a one-premise rule.  Rules are indexed
    under their premises once, and the returned closure runs a worklist: each
    element that enters the set looks only at its own rules.  The heads of
    the two-premise rules are merged per unordered premise pair, and each
    element's partners are grouped by the merged heads of their pair, as
    ``(heads, partner mask)``: an entering element adds each distinct head
    mask whose partner mask meets the set, so it makes one test per
    distinct head rather than one per partner.  In a full lattice
    presentation a pair's heads are the up-set of the pair's meet, so an
    element has as many groups as distinct meets with its partners.  ``close(s,
    todo)`` starts the worklist at ``todo`` instead of all of ``s``, which is
    sound when every rule whose premises lie in ``s & ~todo`` already holds:
    for a closed ``a``, ``close(a | bit, bit)`` looks at the new element only.

    An element is *lone* when it is a premise of no two-premise rule, so all
    it ever adds are its one-premise heads.  Its *reach* is the closure of
    {x} under the one-premise rules, followed through lone elements only.
    Once walking has begun, the first time the worklist takes a lone
    element with heads, ``_walk`` stores its reach in place of its heads,
    and the reach of every lone element the walk finishes.  A walked
    element then adds its reach in one OR, and of the new elements only the
    premises of two-premise rules go on the worklist.  That is sound
    because every rule whose premises are lone elements of the reach is a
    one-premise rule whose heads are in the reach already.  Dowling &
    Gallier (1984, "Linear-time algorithms for testing the satisfiability
    of propositional Horn formulae") make forward chaining linear by
    following each implication once; here each distinct two-premise head
    is followed once per entering element, and each one-premise implication
    between lone elements once per closure rather than once
    per call, so the 2n or so calls that ``closed_sets`` makes on a chain
    of n one-premise rules cost O(n) steps in all instead of O(n) each.

    Walking begins once lone elements have taken 4n plain steps, as in ski
    rental: a walk costs about four plain steps per element it visits, so
    a closure whose calls stay short (a small poset, a minimal-presentation
    candidate) never pays for one, and a closure on a long chain walks
    after O(n) plain steps.  The reach table belongs to the closure and
    starts empty.
    """
    single = [0] * n
    pairs: dict[int, int] = {}  # a * n + b with a < b -> heads
    for a, b, heads in rules:
        if a == b:
            single[a] |= heads
        else:
            key = a * n + b if a < b else b * n + a
            pairs[key] = pairs.get(key, 0) | heads
    groups: list[dict[int, int]] = [{} for _ in range(n)]
    for key, heads in pairs.items():
        a, b = divmod(key, n)
        group = groups[a]
        group[heads] = group.get(heads, 0) | 1 << b
        group = groups[b]
        group[heads] = group.get(heads, 0) | 1 << a
    paired_items = [tuple(group.items()) for group in groups]
    two = -1  # the premises of two-premise rules as a mask, made at the first walk
    walked = 0  # lone elements whose single[] entry is now their reach
    plain = 4 * n  # plain steps of lone elements left before walking begins

    def close(s: int, todo: int | None = None) -> int:
        nonlocal two, walked, plain
        if todo is None:
            todo = s
        while todo:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            items = paired_items[x]
            if items:
                new = single[x]
                for heads, partners in items:
                    if s & partners:
                        new |= heads
                new &= ~s
                s |= new
                todo |= new
                continue
            if plain:
                plain -= 1
                new = single[x] & ~s
                s |= new
                todo |= new
                continue
            if not low & walked:
                if not single[x] & ~low:
                    continue
                if two < 0:
                    two = sum(1 << y for y, its in enumerate(paired_items) if its)
                walked = _walk(x, single, two, walked)
            new = single[x] & ~s
            s |= new
            todo |= new & two
        return s

    return close


def closed_sets(n: int, close) -> list[int]:
    """Every closed subset of 0..n-1 in lectic order: where two sets first
    differ, counting from element 0, the later one holds the element.

    Close-by-One (Kuznetsov 1993) with the inherited failures of FCbO
    (Outrata & Vychodil 2012).  A closed set ``a`` reached by adding ``j``
    tries each ``k > j`` outside it: ``close(a | 1 << k, 1 << k)`` is a child
    when it adds nothing below ``k``.  Otherwise the elements it adds below
    ``k`` are kept as the failure for ``k``, and every superset of ``a``
    that misses one of them skips ``k`` without a closure.  The failures are
    shared by ``a``'s children, whose own failures go to a copy.

    A child at ``k`` and all its descendants agree with ``a`` below ``k``
    and hold ``k``, so in lectic order they follow ``a`` and every subtree
    of a child at a larger ``k``.  Children are pushed in increasing ``k``,
    so the stack pops the largest first and the preorder is the lectic order
    with no sort.  The stack is explicit because a chain of n elements makes
    a tree n levels deep.
    """
    full = (1 << n) - 1
    out = []
    stack = [(close(0), 0, {})]
    while stack:
        a, start, fails = stack.pop()
        out.append(a)
        shared = fails
        children = []
        outside = ~a
        free = full & outside & -(1 << start)
        while free:
            bit = free & -free
            free ^= bit
            k = bit.bit_length() - 1
            if fails.get(k, 0) & outside:
                continue
            b = close(a | bit, bit)
            added = b & outside & (bit - 1)
            if added:
                if fails is shared:
                    fails = dict(shared)
                fails[k] = added
            else:
                children.append((b, k + 1))
        stack.extend((b, nxt, fails) for b, nxt in children)
    return out


# ---------------------------------------------------------------------------
# Filters


def _filter_closure(m: MeetSemilattice):
    """Filter generation as a Horn closure: a => up(a), and a, b => a ^ b.

    Meets of comparable pairs are already in the up-set, so only incomparable
    pairs get a rule.
    """
    up = m.poset.up
    rules = [(a, a, up[a]) for a in range(m.n)]
    rules += [
        (a, b, 1 << m.meet[a][b])
        for a in range(m.n)
        for b in range(a + 1, m.n)
        if not (up[a] >> b & 1 or up[b] >> a & 1)
    ]
    return horn_closure(m.n, rules)


def filters(m: MeetSemilattice, include_empty: bool = False) -> list[frozenset[int]]:
    """All filters of ``m``, in ascending element-index-bitmask order."""
    masks = sorted(closed_sets(m.n, _filter_closure(m)))
    return [frozenset(bits(mask)) for mask in masks if mask or include_empty]


def filter_label(m: MeetSemilattice, members: frozenset[int]) -> str:
    inner = ",".join(sorted(m.elements[i] for i in members))
    return "{" + inner + "}"


def filter_lattice(m: MeetSemilattice, fs) -> FiniteLattice:
    """The filters ``fs`` of ``m`` (as from ``filters``) ordered by inclusion.

    Meets are intersections and joins are generated filters; both fall out of
    ``as_lattice`` on the inclusion order.
    """
    return inclusion_lattice(
        [filter_label(m, f) for f in fs], [sum(1 << i for i in f) for f in fs]
    )


# ---------------------------------------------------------------------------
# Isomorphism search


def _profiles(l: FiniteLattice) -> tuple[tuple, ...]:
    """Per element: down-set and up-set sizes, upper and lower cover counts,
    and whether it is the bottom or the top.  Computed once per lattice."""
    if l._iso_profiles is not None:
        return l._iso_profiles
    down = l.poset.down_masks()
    covers = l.poset.covers()
    up_cov = [0] * l.n
    dn_cov = [0] * l.n
    for i, j in covers:
        up_cov[i] += 1
        dn_cov[j] += 1
    profiles = tuple(
        (
            down[i].bit_count(),
            l.poset.up[i].bit_count(),
            up_cov[i],
            dn_cov[i],
            i == l.bottom,
            i == l.top,
        )
        for i in range(l.n)
    )
    object.__setattr__(l, "_iso_profiles", profiles)
    return profiles


def iso(a: FiniteLattice, b: FiniteLattice) -> dict[int, int] | None:
    """A bijection preserving leq, join, bottom, and top, or None.

    Plain backtracking in element-index order with degree/height profile
    pruning; instances stay small so no fancier canonical form is needed.
    """
    if a.n != b.n:
        return None
    pa, pb = _profiles(a), _profiles(b)
    if sorted(pa) != sorted(pb):
        return None
    mapping: dict[int, int] = {}
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == a.n:
            return True
        for j in range(b.n):
            if used[j] or pa[i] != pb[j]:
                continue
            ok = True
            for i2, j2 in mapping.items():
                if a.leq(i, i2) != b.leq(j, j2) or a.leq(i2, i) != b.leq(j2, j):
                    ok = False
                    break
            if not ok:
                continue
            mapping[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            del mapping[i]
            used[j] = False
        return False

    if not extend(0):
        return None
    # a profile-and-order-preserving bijection of finite lattices preserves
    # meets and joins, but verify join and bounds anyway before reporting
    for i in range(a.n):
        for j in range(a.n):
            if mapping[a.join[i][j]] != b.join[mapping[i]][mapping[j]]:
                return None
    if mapping[a.bottom] != b.bottom or mapping[a.top] != b.top:
        return None
    return dict(mapping)


# ---------------------------------------------------------------------------
# House lattices used throughout the tests and CLI docs


def chain(k: int) -> FiniteLattice:
    """The k-element chain c0 < c1 < ... (k >= 1)."""
    labels = [f"c{i}" for i in range(k)]
    pairs = [(labels[i], labels[i + 1]) for i in range(k - 1)]
    return as_lattice(poset_from_pairs(labels, pairs))


def n5() -> FiniteLattice:
    """The pentagon: 0 < a < 1 and 0 < b < c < 1 with a incomparable to b, c."""
    return as_lattice(
        poset_from_pairs(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")],
        )
    )


def v_semilattice() -> MeetSemilattice:
    """The meet-semilattice {0, a, b} with a ^ b = 0 (no top)."""
    return as_meet_semilattice(
        poset_from_pairs(["0", "a", "b"], [("0", "a"), ("0", "b")])
    )


# ---------------------------------------------------------------------------
# Exhaustive small-lattice generation (verification corpus)


def all_lattices_up_to_iso(n: int) -> list[FiniteLattice]:
    """Every n-element lattice, one per isomorphism class, by one-atom extension.

    Removing an atom a from a lattice of at least 3 elements leaves a lattice:
    only the bottom lies below a, so no join of two other elements is a, and a
    finite join-semilattice with a bottom is a lattice.  So each class of
    k + 1 >= 3 elements is a class of k elements plus an atom ``e{k}`` above
    the bottom whose strict up-set is a nonempty up-set without the bottom.
    ``as_lattice`` rejects the extensions that are not lattices, and one is
    kept unless ``iso`` matches it to an earlier one with the same sorted
    profiles.  Sizes 1 and 2 are the chains ``e0`` and ``e0 < e1``.
    """
    if n < 1:
        return []
    labels = tuple(f"e{i}" for i in range(n))
    level = [as_lattice(poset_from_pairs(labels[:2], zip(labels[:1], labels[1:2])))]
    for k in range(2, n):
        buckets: dict[tuple, list[FiniteLattice]] = {}
        grown = []
        for lat in level:
            up = lat.poset.up
            for u in closed_sets(k, horn_closure(k, [(a, a, up[a]) for a in range(k)])):
                if not u or u >> lat.bottom & 1:
                    continue
                ext = list(up) + [1 << k | u]
                ext[lat.bottom] |= 1 << k
                try:
                    cand = as_lattice(Poset(labels[: k + 1], tuple(ext)))
                except LatticeError:
                    continue
                bucket = buckets.setdefault(tuple(sorted(_profiles(cand))), [])
                if all(iso(cand, other) is None for other in bucket):
                    bucket.append(cand)
                    grown.append(cand)
        level = grown
    return level
