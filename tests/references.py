"""Referees and fixtures shared by the test modules.

Each referee restates plainly, and slowly, something the library does fast,
or keeps a function the library no longer carries because only tests called
it.  The test modules import from here and never from one another, so each
of them runs alone.
"""

import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction as F

from latcirc import finspace as fs
from latcirc import gate, tower
from latcirc import order_core as oc
from latcirc.finspace import Cell, DiscreteSpace

# ---------------------------------------------------------------------------
# Order and gate semantics


def m3():
    """The diamond with three atoms."""
    return oc.as_lattice(oc.poset_from_pairs(
        ["0", "p", "q", "r", "1"],
        [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
    ))


def state_join(s, t):
    """Terminal patterns joined coordinate by coordinate: the pattern of a union."""
    return gate.GateState(*map(max, s, t))


def in_crisp_region(x, y):
    """The horizontals and the outer output segment carry the discrete metric."""
    return -2 <= x <= 1 and y in (1, -1) or 1 <= x <= 2 and y == 0


def limit_state(d, i):
    """The gate state of a tower LimitSet at gate i: its tail after the
    breakpoint, 'E' at it, and the other constant state before it."""
    if d.beta is None or i > d.beta:
        return d.tail
    if i == d.beta:
        return tower.E_STATE
    return tower.EMPTY if d.tail == tower.FULL else tower.FULL


def closure_system_lattice(seed, ground: int, size: int):
    """A seeded random lattice of exactly ``size`` elements: an
    intersection-closed family of subsets of ``ground`` points with the full
    set, ordered by inclusion (every finite lattice is one).  A draw that
    overshoots the size starts again."""
    rng = random.Random(seed)
    full = (1 << ground) - 1
    while True:
        fam = {full}
        while len(fam) < size:
            new = rng.randrange(full)
            fam |= {new} | {new & x for x in fam}
        if len(fam) == size:
            masks = sorted(fam)
            return oc.inclusion_lattice([f"s{x}" for x in masks], masks)


def partner_horn_closure(n: int, rules):
    """``horn_closure`` as it was before it grouped partners by head mask,
    kept as the referee: each element's two-premise rules are indexed per
    partner, and an entering element tests one partner bit at a time.  The
    one-premise reach, ``_walk`` and the plain-step budget are the library's."""
    single = [0] * n
    paired: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b, heads in rules:
        if a == b:
            single[a] |= heads
        else:
            paired[a][b] = paired[a].get(b, 0) | heads
            paired[b][a] = paired[b].get(a, 0) | heads
    paired_items = [tuple(d.items()) for d in paired]
    two = -1
    walked = 0
    plain = 4 * n

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
                for y, heads in items:
                    if s >> y & 1:
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
                walked = oc._walk(x, single, two, walked)
            new = single[x] & ~s
            s |= new
            todo |= new & two
        return s

    return close


# ---------------------------------------------------------------------------
# Spaces


def is_crisp(s, a):
    """Everything in the set is at distance exactly 1 from everything outside."""
    return all(bool(a >> i & 1) == bool(a >> j & 1) for i, j in s.dist)


def all_closed_sets(s):
    """Every closed set of s, by a scan of all 2^n masks."""
    return [m for m in range(1 << s.n) if fs.is_closed(s, m)]


def same_space(a, b):
    """Equal cells, minimal opens, distances, slices and pitch."""
    return (a.cells, a.open_masks(), a.dist, a.slices, a.resolution) == (
        b.cells, b.open_masks(), b.dist, b.slices, b.resolution)


def seeded_masks(s, count, seed):
    """Raw cell masks, closed or not, drawn uniformly from the space's subsets."""
    rng = random.Random(seed)
    return [rng.getrandbits(s.n) for _ in range(count)]


def sliced_base(pairs_per_slice=2, top_slice=5):
    """Discrete-topology sliced test space: per slice, a pair at distance 1/2."""
    cells, min_open, dist, slices = [], [], {}, []
    i = 0
    for s in range(top_slice + 1):
        ids = []
        for j in range(pairs_per_slice):
            cells.append(Cell(i, 0, f"s{s}p{j}"))
            min_open.append(1 << i)
            slices.append(F(s))
            ids.append(i)
            i += 1
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                dist[(ids[a], ids[b])] = F(1, 2)
    return DiscreteSpace(tuple(cells), tuple(min_open), dist, tuple(slices), F(1, 2))


def template_table(dc):
    """The minimal-open table of a complex, built without its view: the
    one-gate template's own table mapped through dc.copies, and each cell
    that no copy names (a free point) a singleton."""
    one = gate._template(dc.n)[0].min_open
    table = [0] * dc.space.n
    for cells in dc.copies:
        for i, m in enumerate(one):
            table[cells[i]] |= fs.cellset(cells[x] for x in fs.bits(m))
    return tuple(m or 1 << c for c, m in enumerate(table))


def reference_solder(parts, groups):
    """coproduct and then solder as they were before solder took the parts,
    kept as the referee: every minimal open shifted to its block, then
    remapped bit by bit through the old-id -> new-id map."""
    cells, min_open, dist = [], [], {}
    for s in parts:
        off = len(cells)
        cells += [Cell(off + c.id, c.dim, c.tag) for c in s.cells]
        min_open += [m << off for m in s.min_open]
        for (a, b), d in s.dist.items():
            dist[(a + off, b + off)] = d
    group_of = {c: gi for gi, g in enumerate(groups) for c in g}
    old_to_new, new_cells, group_new = [-1] * len(cells), [], {}
    for i, c in enumerate(cells):
        gi = group_of.get(i)
        if gi is not None and gi in group_new:
            old_to_new[i] = group_new[gi]
            continue
        if gi is not None:
            group_new[gi] = len(new_cells)
        old_to_new[i] = len(new_cells)
        new_cells.append(Cell(len(new_cells), c.dim, c.tag))
    new_open = [0] * len(new_cells)
    for i, m in enumerate(min_open):
        for y in fs.bits(m):
            new_open[old_to_new[i]] |= 1 << old_to_new[y]
    new_dist = {}
    for (a, b), d in dist.items():
        na, nb = old_to_new[a], old_to_new[b]
        new_dist[(na, nb) if na < nb else (nb, na)] = d
    return tuple(new_cells), tuple(new_open), list(new_dist.items()), tuple(old_to_new)


def all_pairs_build_W(s, f1, f2):
    """build_W as it was, a coproduct of three retagged copies, with the
    coproduct by reference_solder and every cross pair tried."""
    n = s.n
    cells, opens, dist, _ = reference_solder([
        replace(s, cells=tuple(
            Cell(c.id, c.dim, f"c{i}:{c.tag or c.id}") for c in s.cells
        ))
        for i in range(3)
    ], ())
    dist = dict(dist)

    def cross(i, j, v):
        if (i, j) in ((0, 1), (1, 0)):
            return f1(v)
        if (i, j) in ((0, 2), (2, 0)):
            return f2(v)
        return min(f1(v) + f2(v), F(1))

    for i in range(3):
        for j in range(i + 1, 3):
            for a in range(n):
                for b in range(n):
                    if s.slices[a] != s.slices[b]:
                        continue
                    f = cross(i, j, s.slices[a])
                    d = max(s.distance(a, b), f)
                    if d < 1:
                        dist[(i * n + a, j * n + b)] = d
    copy_of = tuple(i for i in range(3) for _ in range(n))
    w = DiscreteSpace(cells, opens, dist, s.slices * 3, s.resolution)
    return tower.WSpace(w, copy_of, tuple(range(n)) * 3)


# ---------------------------------------------------------------------------
# Compiled views


def reference_view(s, opens):
    """_View.__init__ as it was before views were placed from their parts,
    kept as the referee: one walk over opens, a full-width minimal-open
    table built without the view, gives the closure tuple and the offset
    masks; then the sorted distance values."""
    n = s.n
    cl = [1 << i for i in range(n)]
    rows = defaultdict(list)  # offset k -> cells y with y + k in min_open(y)
    for y in range(n):
        for x in fs.bits(opens[y]):
            if x != y:
                cl[x] |= 1 << y
                rows[x - y].append(y)
    closure = tuple(cl)
    offsets = {}  # offset k -> its cl | min_open << n mask
    for k, ys in rows.items():
        fs._add_both_ways(offsets, k, fs._mask(ys, n), n, 0)
    vals = set(s.dist.values())
    if len(s.dist) < n * (n - 1) // 2:
        vals.add(F(1))
    return closure, offsets, tuple(sorted(vals))


def reference_kernel(s, offsets, values, r_min):
    """_View.kernel's entry as it was, from the reference offsets: the near
    block at the smallest threshold above r_min, read off every stored pair."""
    i = bisect_right(values, r_min)
    r0 = values[i] if i < len(values) and values[i] <= 1 else None
    table = dict(offsets)
    if r0 is not None:
        rows = defaultdict(list)  # offset k -> cells a with a + k near a
        for (a, b), d in s.dist.items():
            if d < r0 and a != b:
                rows[b - a].append(a)
        for k, xs in rows.items():
            fs._add_both_ways(table, k, fs._mask(xs, s.n), 2 * s.n, 2 * s.n)
    return r0, fs._pairs(table)


def assert_view_is_reference(s, floor, opens, walked=False):
    """The view of s equals the reference walked from the minimal-open table
    opens in offset pairs, values, kernel entries at the floor, at 0 and at
    1, closure_masks() and open_masks().  Unless walked, s must already hold
    its view or what solder left to place it from, so the view checked is
    not one walked from min_open."""
    assert (s._compiled is None) == walked
    closure, offsets, values = reference_view(s, opens)
    view = fs._view(s)
    assert view.pairs == fs._pairs(offsets)
    assert view.values == values
    for r in (floor, F(0), F(1)):
        assert view.kernel(s, r) == reference_kernel(s, offsets, values, r), r
    assert s.closure_masks() == closure
    assert s.open_masks() == tuple(opens)
    for d in seeded_masks(s, 5, seed=s.n):
        want = d
        for x in fs.bits(d):
            want |= closure[x]
        assert fs.closure(s, d) == want
