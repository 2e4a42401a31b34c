"""Finite discretized topometric spaces.

A space couples a finite Alexandrov topology (minimal-open-neighborhood map
over cells) with an exact rational [0,1] metric.  Cell sets are plain int
bitmasks throughout; the exhaustive oracles depend on that staying cheap.

Distance storage is sparse: only pairs at distance < 1 are recorded, every
other distinct pair is at distance exactly 1.

Each space is compiled once, on first use, into a private view held on the
instance (it takes no part in the repr): the offset masks of closure
and minimal opens (below), the sorted distance values, and, each built
lazily, the per-cell list of stored neighbours with their distances and, per
radius r, the offset masks of the near relation (the cells strictly within
r).  Every relation between cells that closure, interior, open_hull,
expansion, definability and the closed-set generators read comes from those
offset masks; interior is the complement of the closure of the complement.
The metric checks (validate here; the directed-system, three-copy and
cover-radius checks in tower) walk only the stored distances, validate and
the cover radius through the neighbour lists, so they cost O(stored pairs)
rather than O(cells²).

A view is made in one of two ways.  A space built directly from min_open
(the one-gate template gate.discretize(n), build_W, tests) is walked cell by
cell; gate keeps the template and its dagger variant per pitch, so each view
is made once per process and every later check at that pitch reads the
tables it has already built.  And solder (with coproduct, its group-free
case) leaves its parts behind, and the view is placed from theirs on first
use: a run of cells that the soldering map moves by one shift keeps its
rows, which land at every copy's shift at once as the product with a mask
holding one bit per copy; only the rows that cross runs, at the soldered
terminals, are mapped one by one.  Such an assembled space has min_open
None, so no full-width mask is made: the view is the only store of its
topology, and open_masks() reads the minimal opens off it.  Only a solder
of one part with no groups shares a view, its part's if the part has made
one by then; dataclasses.replace drops the view, as it must when min_open
or dist change.  A solder's distances are a read-only mapping, like the
template's.

Definability needs only the smallest threshold r0 above the floor.  The
expansion of d grows with r and interior is monotone, so d inside
int(expand(d, r0)) puts d inside int(expand(d, r)) for every larger r.  And d
lies inside int(E) exactly when every minimal open of a cell of d lies inside
E, so with U(d) the union of those minimal opens and N(d) the cells within r0
of d, the whole test is U(d) & ~(d | N(d)) == 0.

The kernel computes cl(d), U(d) and N(d) at once, by offset rather than by
cell.  For a relation R and an offset k != 0, M_k is the mask of cells x with
x + k in R(x); then R(d) is the union over k of (d & M_k) shifted by k.  The
three relations sit side by side as blocks of one 3n-bit mask per offset, so
with d3 = d | d << n | d << 2n one shift and OR per offset gives all three.
Cells of a gate complex are numbered copy by copy, so its neighbourhoods use
few offsets (40 for one gate at every pitch, 6 to 7 per gate once soldered):
a check costs O(offsets * n / 64) words however many cells d holds.  The
closure and minimal-open masks are built with the view; the near block is
the near relation at r0, the same offset masks that expand reads.

enumerate_definable judges its pool in packs: G = _PACK_BITS // stride slots
of stride bits (3n rounded up to whole bytes) in one int, judged by one kernel
pass over masks tiled into G slots once per call.  No bit crosses a slot: M_k
holds only cells x with x + k in the same n-bit block, so (d3 & M_k) << k stays
in its block, and acc >> n and acc >> 2n carry the next slot's bits only to
offsets of at least stride - 2n >= n, which the tiled full mask drops.  A slot
passes when its bytes of missing | bad are zero.  Single sets (is_definable,
so gate.oracle, the probes and circuit.oracle) neither pack nor tile.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat, starmap
from math import gcd, lcm
from operator import lt
from types import MappingProxyType

DEFAULT_BUDGET = 1 << 20  # candidates an exhaustive search may draw
_PACK_BITS = 1 << 16  # bits of one pack of candidates in enumerate_definable
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # drawn flags as binary digits


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured candidate bound."""


def bits(mask: int):
    """Indices of the set bits, lowest first; cost grows with the set bits."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cellset(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def members(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


@dataclass(frozen=True, slots=True)
class Cell:
    id: int
    dim: int
    tag: str | None = None


@dataclass(frozen=True, eq=False)
class DiscreteSpace:
    """Cells with an Alexandrov base and a sparse exact metric.

    min_open[i] is the bitmask of cell i's minimal open neighborhood, or None
    when the view holds the topology (solder).  Spaces compare by identity.
    dist holds Fraction distances strictly below 1 keyed by (i, j), i < j.
    slices, when present, is the crisp slicing value per cell.
    resolution is the threshold pitch used by the openness checks.
    """

    cells: tuple[Cell, ...]
    min_open: tuple[int, ...] | None
    dist: dict
    slices: tuple[Fraction, ...] | None = None
    resolution: Fraction = Fraction(1)
    # the view, or until its first use what solder left to place it from
    _compiled: "_View | tuple | None" = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def distance(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        return self.dist.get((i, j) if i < j else (j, i), Fraction(1))

    def closure_masks(self) -> tuple[int, ...]:
        """cl({x}) per cell: everything whose minimal open contains x, read
        off the closure block of the view's offset masks.

        The tuple is rebuilt on every call, walking every offset mask, so a
        caller that indexes it in a loop takes it once before the loop.
        """
        return self._per_cell(0)

    def open_masks(self) -> tuple[int, ...]:
        """min_open, or without the table each cell's minimal open read off
        the view's minimal-open block, rebuilt on every call as above."""
        if self.min_open is not None:
            return self.min_open
        return self._per_cell(self.n)

    def _per_cell(self, at: int) -> tuple[int, ...]:
        """Per cell x, x and each x + k with x in M_k's block at bit `at`."""
        full = self.full_mask
        out = [1 << x for x in range(self.n)]
        for k, up, down in _view(self).pairs:
            for x in bits(up >> at & full):
                out[x] |= 1 << x + k
            for x in bits(down >> at & full):
                out[x] |= 1 << x - k
        return tuple(out)

    def neighbours(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Per cell i, ((j, d), ...) for every stored distance d(i, j) = d."""
        return _view(self).neighbours(self)


class _View:
    """The compiled tables of one space (see the module docstring)."""

    __slots__ = (
        "offsets", "pairs", "values", "_adj", "_near", "_floors", "_floor",
        "_entry", "_radius", "_last",
    )

    def __init__(self, s: DiscreteSpace, rows: dict):
        """rows: offset k -> the mask of the cells y with y + k in
        min_open(y), for every k != 0 that has one."""
        n = s.n
        self.offsets: dict = {}  # offset k -> its cl | min_open << n mask
        for k, m in rows.items():
            _add_both_ways(self.offsets, k, m, n, 0)
        self.pairs = _pairs(self.offsets)
        # distances share their Fractions: take each object once, and key it
        # exactly by its numerator over the lcm of the denominators
        vals = [*{id(d): d for d in s.dist.values()}.values()]
        if len(s.dist) < n * (n - 1) // 2:
            vals.append(Fraction(1))
        one = lcm(*(d.denominator for d in vals))
        keyed: dict = {}
        for d in vals:
            keyed.setdefault(d.numerator * (one // d.denominator), d)
        self.values = tuple(keyed[k] for k in sorted(keyed))
        self._adj = None  # per-cell stored neighbours, built on first use
        self._near: dict = {}  # count of distance values below r -> near pairs
        self._floors: dict = {}  # count of values <= r_min -> kernel entry
        self._floor = self._entry = None  # the last floor asked for, and its entry
        self._radius = self._last = None  # the last radius asked for, and its pairs

    def neighbours(self, s: DiscreteSpace) -> tuple:
        """Per cell, its (other cell, distance) pairs in the order of s.dist."""
        if self._adj is None:
            adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(s.n)]
            for (a, b), d in s.dist.items():
                adj[a].append((b, d))
                adj[b].append((a, d))
            self._adj = tuple(map(tuple, adj))
        return self._adj

    def near(self, s: DiscreteSpace, r: Fraction) -> tuple:
        """The cells strictly within r of each other as offset pairs (see
        _pairs: M_k holds a when a + k is within r), the last r by identity."""
        if r is self._radius:
            return self._last
        key = bisect_left(self.values, r)
        pairs = self._near.get(key)
        if pairs is None:
            # distances share their Fractions, so each object is compared once
            below = {id(d) for d in {id(d): d for d in s.dist.values()}.values() if d < r}
            table: dict = {}
            for k, m in _rows((p for p, d in s.dist.items() if id(d) in below), s.n).items():
                _add_both_ways(table, k, m, 0, 0)
            pairs = self._near[key] = _pairs(table)
        self._radius, self._last = r, pairs
        return pairs

    def kernel(self, s: DiscreteSpace, r_min) -> tuple:
        """The smallest threshold r0 above r_min, and the offset masks of
        cl | min_open << n | near_r0 << 2n as pairs (see _pairs).

        The last floor is found by identity; a new one is checked for sign
        once and keyed by how many distance values it reaches.
        """
        if r_min is self._floor:
            return self._entry
        if r_min < 0:
            raise ValueError("r_min must be nonnegative")
        vals = self.values
        i = bisect_right(vals, r_min)
        entry = self._floors.get(i)
        if entry is None:
            r0 = vals[i] if i < len(vals) and vals[i] <= 1 else None
            table = dict(self.offsets)
            if r0 is not None:
                at = 2 * s.n
                for k, up, down in self.near(s, r0):
                    table[k] = table.get(k, 0) | up << at
                    table[-k] = table.get(-k, 0) | down << at
            entry = self._floors[i] = (r0, _pairs(table))
        self._floor, self._entry = r_min, entry
        return entry


def _mask(positions, width: int) -> int:
    """The int with the given bits set, built in one pass over a byte buffer."""
    buf = bytearray((width + 7) >> 3)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _add_both_ways(table: dict, k: int, m: int, at: int, back: int) -> None:
    """OR into the table the cells m of a relation at offset k, in the block
    starting at bit `at`, and its converse at offset -k (the cells x + k for
    x in m) in the block starting at bit `back`."""
    table[k] = table.get(k, 0) | m << at
    m = m << k if k > 0 else m >> -k
    table[-k] = table.get(-k, 0) | m << back


def _pairs(table: dict) -> tuple:
    """Offset masks as (k, M_k, M_-k) for each k > 0; _add_both_ways puts
    every offset in the table together with its negative."""
    return tuple((k, table[k], table[-k]) for k in sorted(table) if k > 0)


def _spread(d: int, pairs: tuple) -> int:
    """The union over offsets k of (d & M_k) moved by k: the cells reached
    from d by each relation whose block the masks carry."""
    acc = 0
    for k, up, down in pairs:
        acc |= (d & up) << k | (d & down) >> k
    return acc


def _view(s: DiscreteSpace) -> _View:
    """The view of s, compiled on first use: placed from the parts a solder
    left in its place, else read cell by cell off min_open."""
    v = s._compiled
    if not isinstance(v, _View):
        if v is None and s.min_open is None:
            raise ValueError("no min_open and no view: dataclasses.replace drops the view")
        v = _View(s, _walked_rows(s) if v is None else _placed_rows(s.n, *v))
        object.__setattr__(s, "_compiled", v)
    return v


def _rows(pairs, n: int) -> dict:
    """Offset k -> the mask of the cells y with (y, y + k) among pairs, k != 0."""
    rows = defaultdict(list)
    for y, x in pairs:
        if x != y:
            rows[x - y].append(y)
    return {k: _mask(ys, n) for k, ys in rows.items()}


def _walked_rows(s: DiscreteSpace) -> dict:
    """The minimal-open relation by offset (see _View), cell by cell."""
    return _rows(((y, x) for y in range(s.n) for x in bits(s.min_open[y])), s.n)


def validate(s: DiscreteSpace) -> list[str]:
    """Invariant diagnostics; empty list means the space is well formed.

    The triangle check runs over pairs of stored neighbours of each middle
    cell, on exact integers: every stored distance as a numerator over the
    lcm of the stored denominators, an unstored pair at that lcm.
    """
    diags = []
    ids = [c.id for c in s.cells]
    if ids != list(range(s.n)):
        diags.append("cell ids are not dense 0..n-1")
    if s.resolution <= 0:
        diags.append(f"resolution {s.resolution} is not positive")
    # a minimal-open table or a key naming no cell stops the walks below,
    # which index the minimal opens (the neighbour lists through the view)
    opens = s.open_masks()
    stray = [i for i, m in enumerate(opens) if m >> s.n]  # negative masks too
    unindexable = len(opens) != s.n or bool(stray)
    if len(opens) != s.n:
        diags.append("min_open table size mismatch")
    else:
        diags += [f"min_open({i}) names a cell outside 0..{s.n - 1}" for i in stray]
    for i in range(s.n) if not unindexable else ():
        if not opens[i] >> i & 1:
            diags.append(f"min_open({i}) does not contain {i}")
        for y in bits(opens[i]):
            if opens[y] & ~opens[i]:
                diags.append(
                    f"Alexandrov base violated: {y} in min_open({i}) but "
                    f"min_open({y}) is not contained in it"
                )
    for (a, b), d in s.dist.items():
        if not (0 <= a < b < s.n):
            diags.append(f"bad distance key ({a},{b})")
            unindexable |= not (0 <= a < s.n and 0 <= b < s.n)
        if not (0 < d < 1):
            diags.append(f"stored distance d({a},{b})={d} outside (0,1)")
    if unindexable:
        return diags
    one = lcm(*(d.denominator for d in s.dist.values()))
    above: dict = {}  # x -> {z: scaled d(x, z)} for the stored keys (x, z)
    for (a, b), d in s.dist.items():
        above.setdefault(a, {})[b] = d.numerator * (one // d.denominator)
    for y, row in enumerate(s.neighbours()):
        scaled = [(x, d.numerator * (one // d.denominator), d) for x, d in row]
        for x, nxy, dxy in scaled:
            far = above.get(x, {})
            for z, nyz, dyz in scaled:
                if x < z and far.get(z, one) > nxy + nyz:
                    diags.append(
                        f"triangle inequality violated on ({x},{y},{z}): "
                        f"{s.distance(x, z)} > {dxy} + {dyz}"
                    )
    if s.slices is not None:
        if len(s.slices) != s.n:
            diags.append("slice table size mismatch")
        else:
            for (a, b), d in s.dist.items():
                if s.slices[a] != s.slices[b]:
                    diags.append(
                        f"crisp slicing violated: slice({a})={s.slices[a]} != "
                        f"slice({b})={s.slices[b]} but d={d} < 1"
                    )
    return diags


def _in_space(s: DiscreteSpace, a: int) -> int:
    """a, once it is known to be a mask of cells of s; else ValueError."""
    if a >> s.n:  # also nonzero for a negative mask
        raise ValueError(f"cell mask out of range: need 0 <= mask < 2**{s.n}")
    return a


def closure(s: DiscreteSpace, a: int) -> int:
    """The cells whose minimal open meets a."""
    return a | _spread(_in_space(s, a), _view(s).pairs)


def interior(s: DiscreteSpace, a: int) -> int:
    """The cells whose minimal open lies inside a: int A = X - cl(X - A)."""
    return a & ~closure(s, _in_space(s, a) ^ s.full_mask)


def open_hull(s: DiscreteSpace, a: int) -> int:
    """The union of the minimal opens of the cells of a, the smallest open
    set holding a, read off the minimal-open block of the offset masks."""
    n = s.n
    return a | _spread(_in_space(s, a) << n, _view(s).pairs) >> n


def is_closed(s: DiscreteSpace, a: int) -> bool:
    return closure(s, a) == a


def is_open(s: DiscreteSpace, a: int) -> bool:
    return open_hull(s, a) == a


def expand(s: DiscreteSpace, a: int, r: Fraction) -> int:
    """The open r-expansion: cells strictly within r of the set.  Distances
    are at most 1, so past 1 a nonempty set reaches everything; the empty
    set stays empty at every radius."""
    if r <= 0:
        raise ValueError("expansion radius must be positive")
    _in_space(s, a)
    if r > 1:
        return s.full_mask if a else 0
    return a | _spread(a, _view(s).near(s, r))


def thresholds(s: DiscreteSpace, r_min: Fraction) -> list[Fraction]:
    if r_min < 0:
        raise ValueError("r_min must be nonnegative")
    vals = _view(s).values
    return list(vals[bisect_right(vals, r_min):bisect_right(vals, 1)])


def _failure(s: DiscreteSpace, d: int, r_min: Fraction):
    """None when d is definable; otherwise (None, missing cells) when d is not
    closed, or (r0, bad) when d fails containment at the smallest threshold
    r0: bad holds the cells of U(d) outside d | N(d)."""
    r0, pairs = _view(s).kernel(s, r_min)
    _in_space(s, d)
    n = s.n
    full = (1 << n) - 1
    if d == 0 or d == full:
        return None
    missing, bad = _judge(d, pairs, n, full, r0)
    if missing:
        return None, missing
    return (r0, bad) if bad else None


def _judge(d: int, pairs: tuple, n: int, full: int, r0) -> tuple[int, int]:
    """The cells missing from cl(d) and those of U(d) outside d | N(d) (none
    when r0 is None), slot by slot when d, the pairs and full are packs."""
    acc = _spread(d | d << n | d << 2 * n, pairs)
    missing = acc & full & ~d
    if r0 is None:
        return missing, 0
    return missing, acc >> n & full & ~(d | acc >> 2 * n)


def why_not_definable(s: DiscreteSpace, d: int, r_min: Fraction) -> str | None:
    """None when definable; otherwise a reason, distinguishing non-closedness.

    A containment failure names the lowest cell of d outside
    int(expand(d, r0)): the cells of d whose minimal open meets bad are
    d & cl(bad).
    """
    fail = _failure(s, d, r_min)
    if fail is None:
        return None
    r, where = fail
    if r is None:
        return f"not closed: missing cells {members(where)}"
    hit = d & closure(s, where)
    cell = (hit & -hit).bit_length() - 1
    return f"fails containment in int(expand) at threshold {r} (cell {cell})"


def is_definable(s: DiscreteSpace, d: int, r_min: Fraction) -> bool:
    """Closed and contained in the interior of each of its expansions.

    Thresholds run over the space's distance values in (r_min, 1]; the empty
    set and the whole space pass outright.
    """
    return _failure(s, d, r_min) is None


def openness_thresholds(s: DiscreteSpace, r_min: Fraction) -> list[Fraction]:
    """Multiples of the resolution pitch in (r_min, 1].

    Openness of expansions is only meaningful on the coarse grid: a cut
    between a 0-cell and its flanking 1-cell (a half-pitch threshold) leaves
    a dangling closed point that no discretization at this pitch can avoid.
    """
    h = s.resolution
    if h <= 0:
        raise ValueError(f"resolution must be positive, got {h}")
    out = []
    k = 1
    while k * h <= 1:
        if k * h > r_min:
            out.append(k * h)
        k += 1
    if not out or out[-1] != 1:
        if 1 > r_min:
            out.append(Fraction(1))
    return out


def is_open_metric(s: DiscreteSpace, r_min: Fraction) -> bool:
    """Expansions of minimal opens are open at every resolution-grid threshold.

    Unions reduce the general open-set case to minimal opens.
    """
    opens = s.open_masks()
    for r in openness_thresholds(s, r_min):
        for m in opens:
            if not is_open(s, expand(s, m, r)):
                return False
    return True


def coproduct(*spaces: DiscreteSpace) -> DiscreteSpace:
    """Disjoint union, numbering each space as one block in argument order.

    All cross distances are 1 and the topology is the disjoint sum.  The
    resolution is the gcd of the parts' (1 for no parts).  This is solder
    with no groups, so slices are dropped unless there is one part.
    """
    return solder(spaces, ())[0]


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def solder(parts, groups) -> tuple[DiscreteSpace, tuple[int, ...]]:
    """The coproduct of parts with each group of crisply embedded 0-cells
    identified to one cell.

    Old ids number the parts block by block, as coproduct does; groups and
    the returned old-id -> new-id map use them.  New ids follow first
    occurrence, a group materializing at its least member and keeping its
    tag.  The merged cell's minimal open is the union of the members'; no
    stored distance touches a member, by crispness, so it is at 1 from
    every other cell, and the stored distances carry over one for one.

    Each part is cut into runs: the stretches of its cells that the map
    moves by one shift, a soldered cell being a run of its own.  The
    quotient keeps no minimal-open table and no slices: its view, placed
    from the parts' views and runs on first use (_placed_rows), is the only
    store of its topology, so no full-width mask is made.  One part with no
    groups is laid as it is and keeps its own table, view and slices.
    """
    parts = tuple(parts)
    starts = []  # old id of each part's first cell
    total = 0
    for p in parts:
        starts.append(total)
        total += p.n
    groups = [tuple(g) for g in groups]
    seen: set[int] = set()
    # a single cell is crisply embedded iff no stored distance touches it
    touched: dict = {}  # id of a part's dist -> the cells its keys name
    where: dict = {}  # part index -> its soldered cells, local
    for g in groups:
        if len(g) != len(set(g)):
            raise ValueError(f"group {g} repeats a cell")
        for c in g:
            if c in seen:
                raise ValueError(f"cell {c} appears in two solder groups")
            seen.add(c)
            if not 0 <= c < total:
                raise ValueError(f"cannot solder cell {c}: no such cell")
            pi = bisect_right(starts, c) - 1
            p, local = parts[pi], c - starts[pi]
            if p.cells[local].dim != 0:
                raise ValueError(f"cannot solder cell {c}: not a 0-cell")
            t = touched.get(id(p.dist))
            if t is None:
                t = touched[id(p.dist)] = {x for key in p.dist for x in key}
            if local in t:
                raise ValueError(f"cannot solder cell {c}: not crisply embedded")
            where.setdefault(pi, []).append(local)
    group_of = {c: gi for gi, g in enumerate(groups) for c in g}
    group_new: dict[int, int] = {}
    cells: list[Cell] = []
    old_to_new: list[int] = []
    dist: dict = {}
    res = Fraction(0)  # gcd(0, r) = r
    placed = []  # (part, old id of its first cell, its runs (a, b, shift))
    for pi, (p, start) in enumerate(zip(parts, starts)):
        runs = []
        at = 0
        for local in sorted(where.get(pi, ())) + [p.n]:
            if at < local:
                nid = len(cells)
                runs.append((at, local, nid - at))
                block = p.cells[at:local]
                if any(c.id != i for i, c in enumerate(block, nid)):  # else keep them
                    block = [Cell(i, c.dim, c.tag) for i, c in enumerate(block, nid)]
                cells += block
                old_to_new += [c.id for c in block]  # the cells' own ints, not a second set
            if local == p.n:
                break
            gi = group_of[start + local]
            nid = group_new.get(gi)
            if nid is None:
                nid = group_new[gi] = len(cells)
                cells.append(Cell(nid, 0, p.cells[local].tag))
            old_to_new.append(nid)
            runs.append((local, local + 1, nid - local))
            at = local + 1
        loc = old_to_new[start:]
        for (a, b), d in p.dist.items():
            na, nb = loc[a], loc[b]
            dist[(na, nb) if na < nb else (nb, na)] = d
        res = _frac_gcd(res, p.resolution)
        placed.append((p, start, runs))
    old_to_new = tuple(old_to_new)
    alone = len(parts) == 1 and not groups  # the part as it is, and so is its view
    out = DiscreteSpace(
        tuple(cells), parts[0].min_open if alone else None, MappingProxyType(dist),
        parts[0].slices if alone else None, res or Fraction(1),
    )
    object.__setattr__(out, "_compiled", parts[0]._compiled if alone else (old_to_new, placed))
    return out, old_to_new


def _placed_rows(n: int, old_to_new, placed) -> dict:
    """The minimal-open relation by offset (see _View) of a soldered space,
    placed from its parts' views.

    Parts with one view and the same runs form a class.  Within a class, a
    run's row at offset k (the pairs with both cells in the run) lands at
    every member's shift of that run at once: the placement mask holds one
    bit per member, and its product with the row ORs the shifted copies,
    which never overlap since the members' runs are disjoint.  The pairs
    that cross runs are mapped one by one.
    """
    classes: dict = {}  # (id of the view, run bounds) -> (view, part size, members)
    for p, start, runs in placed:
        v = _view(p)
        key = (id(v), tuple((a, b) for a, b, _ in runs))
        cls = classes.get(key)
        if cls is None:
            cls = classes[key] = (v, p.n, [])
        cls[2].append((start, [sh for _, _, sh in runs]))
    rows: dict = defaultdict(int)  # offset k -> placed mask
    loose = []  # the crossing pairs (y, x), in new ids
    for (_, bounds), (v, size, members) in classes.items():
        spots = []  # per run: the least shift, and one bit per member's shift above it
        for shifts in zip(*(shs for _, shs in members)):
            least = min(shifts)
            spots.append((least, _mask([sh - least for sh in shifts], max(shifts) - least + 1)))
        crossing = []  # local (y, y + k) pairs whose cells lie in two runs
        for k, m in v.offsets.items():
            row = m >> size  # the minimal-open block: y with y + k in min_open(y)
            if not row:
                continue
            inside = 0
            for (a, b), (least, place) in zip(bounds, spots):
                lo, hi = max(a, a - k), min(b, b - k)
                part = row & (1 << hi) - (1 << lo) if lo < hi else 0
                if part:
                    inside |= part
                    spread = place * part
                    rows[k] |= spread << least if least >= 0 else spread >> -least
            crossing += [(y, y + k) for y in bits(row & ~inside)]
        for start, _ in members:
            loose += [(old_to_new[start + y], old_to_new[start + x]) for y, x in crossing]
    for k, m in _rows(loose, n).items():
        rows[k] |= m
    return rows


def enumerate_definable(
    s: DiscreteSpace,
    r_min: Fraction,
    candidates,
    budget: int = DEFAULT_BUDGET,
) -> list[int]:
    """Members of the candidate family passing is_definable, ascending by mask.

    Draws at most budget + 1 candidates, so an over-long or unbounded
    iterable raises BudgetExceeded without being read to its end.  The floor
    is checked first; the pool is judged in packs (see the module docstring).
    """
    r0, pairs = _view(s).kernel(s, r_min)
    pool = list(islice(candidates, budget + 1))
    if len(pool) > budget:
        raise BudgetExceeded(f"candidates exceed the budget of {budget}")
    _in_space(s, min(pool, default=0) | max(pool, default=0))  # both in s iff their OR is
    n = s.n
    size = (3 * n + 7) // 8 or 1  # bytes per slot; a 0-cell space still gets one
    stride = 8 * size
    g = max(1, min(_PACK_BITS // stride, len(pool)))  # slots per pack
    full = _tile((1 << n) - 1, stride, g)
    pairs = tuple((k, _tile(up, stride, g), _tile(down, stride, g)) for k, up, down in pairs)
    zero = bytes(size)
    out = []
    for at in range(0, len(pool), g):
        chunk = pool[at:at + g]
        d = int.from_bytes(b"".join(c.to_bytes(size, "little") for c in chunk), "little")
        missing, bad = _judge(d, pairs, n, full, r0)
        fail = (missing | bad).to_bytes(g * size, "little")
        out += [c for i, c in enumerate(chunk) if fail[i * size:(i + 1) * size] == zero]
    out.sort()
    return out


def _tile(m: int, stride: int, g: int) -> int:
    """m repeated in g slots of stride bits, by doubling shifts."""
    out, have = m, 1
    while have < g:
        out |= out << have * stride
        have *= 2
    return out & ((1 << g * stride) - 1)


def random_closed_sets(s: DiscreteSpace, count: int, seed: int) -> list[int]:
    """Seeded down-closures of random cell subsets (definability probes)."""
    import random

    rng = random.Random(seed)
    pairs = _view(s).pairs
    probs = [0.15, 0.3, 0.5, 0.7, 0.85]
    out = []
    for k in range(count):
        p = probs[k % len(probs)]
        # cell i is drawn when the i-th random() is below p, one byte per cell
        drawn = bytes(map(lt, starmap(rng.random, repeat((), s.n)), repeat(p)))
        c = int(drawn[::-1].translate(_DIGITS) or b"0", 2)
        out.append(c | _spread(c, pairs))
    return out


def point_space(tag: str = "pt") -> DiscreteSpace:
    return DiscreteSpace((Cell(0, 0, tag),), (1,), {})
