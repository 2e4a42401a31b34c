"""Finite posets, lattices, meet-semilattices, filters, and isomorphism search."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .finspace import bits


class OrderError(ValueError):
    """Bad order-theoretic input: duplicate labels, cycles, missing bounds."""


class LatticeError(OrderError):
    """A poset lacks the meets or joins needed for the requested structure."""


@dataclass(frozen=True)
class Poset:
    """A finite partial order over opaque element labels.

    ``up[i]`` is a bitmask whose bit ``j`` is set iff element ``i <= j``.
    Construction validates distinct labels, reflexivity, antisymmetry, and
    transitivity, so a ``Poset`` in hand is always a genuine partial order.
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
            for j in range(i + 1, n):
                if self.up[i] >> j & 1 and self.up[j] >> i & 1:
                    raise OrderError(
                        "antisymmetry violation (cycle) between "
                        f"{self.elements[i]!r} and {self.elements[j]!r}"
                    )
        for i in range(n):
            if any(self.up[j] & ~self.up[i] for j in bits(self.up[i])):
                raise OrderError(f"leq not transitive at {self.elements[i]!r}")

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
    Raises ``LatticeError`` naming the first pair, in index order, that has
    none.
    """
    n = p.n
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            common = masks[i] & masks[j]
            for k in bits(common):
                if common & ~masks[k] == 0:
                    table[i][j] = table[j][i] = k
                    break
            else:
                raise LatticeError(
                    f"no {kind} for pair ({p.elements[i]!r}, {p.elements[j]!r})"
                )
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


def horn_closure(n: int, rules):
    """The closure operator of Horn rules over elements 0..n-1, on bitmasks.

    A rule ``(a, b, heads)`` adds the ``heads`` mask once ``a`` and ``b`` are
    both in the set; ``a == b`` makes it a one-premise rule.  Rules are indexed
    under their premises once, and the returned closure runs a worklist: each
    element that enters the set looks only at its own rules.
    """
    single = [0] * n
    paired: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b, heads in rules:
        if a == b:
            single[a] |= heads
        else:
            paired[a][b] = paired[a].get(b, 0) | heads
            paired[b][a] = paired[b].get(a, 0) | heads
    paired_items = [tuple(d.items()) for d in paired]

    def close(s: int) -> int:
        todo = s
        while todo:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            new = single[x]
            for y, heads in paired_items[x]:
                if s >> y & 1:
                    new |= heads
            new &= ~s
            s |= new
            todo |= new
        return s

    return close


def closed_sets(n: int, close) -> list[int]:
    """Every closed subset of 0..n-1, by Next-Closure (Ganter) in lectic order."""
    a = close(0)
    out = [a]
    while True:
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if a & bit:
                a &= ~bit
                continue
            b = close(a | bit)
            if not (b & ~a) & (bit - 1):
                a = b
                out.append(a)
                break
        else:
            return out


# ---------------------------------------------------------------------------
# Filters


def is_filter(m: MeetSemilattice, members: frozenset[int]) -> bool:
    """Up-closed and meet-closed; the empty set counts (vacuously)."""
    for a in members:
        if any(b not in members for b in bits(m.poset.up[a])):
            return False
    for a in members:
        for b in members:
            if m.meet[a][b] not in members:
                return False
    return True


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


def principal_filter(m: MeetSemilattice, a: int) -> frozenset[int]:
    return frozenset(bits(m.poset.up[a]))


def generated_filter(m: MeetSemilattice, seed) -> frozenset[int]:
    """Smallest filter containing ``seed``."""
    mask = 0
    for a in seed:
        mask |= 1 << a
    return frozenset(bits(_filter_closure(m)(mask)))


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


def m3() -> FiniteLattice:
    """The diamond with three atoms."""
    return as_lattice(
        poset_from_pairs(
            ["0", "p", "q", "r", "1"],
            [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
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
