import itertools
import random
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc import circuit as cc
from latcirc import finspace as fs
from latcirc import gate
from latcirc import order_core as oc
from latcirc.finspace import Cell, DiscreteSpace
from references import (
    all_closed_sets, all_pairs_build_W, assert_view_is_reference, is_crisp,
    positions, reference_solder, same_space, seeded_masks, sliced_base, template_table,
)


def edge_with_ends():
    """Three cells: vertex u - edge e - vertex v."""
    cells = (Cell(0, 0, "u"), Cell(1, 1, "e"), Cell(2, 0, "v"))
    min_open = (0b011, 0b010, 0b110)
    return DiscreteSpace(cells, min_open, {})


def crisp_points(k):
    cells = tuple(Cell(i, 0, f"p{i}") for i in range(k))
    return DiscreteSpace(cells, tuple(1 << i for i in range(k)), {})


class TestValidate:
    def test_one_point_ok(self):
        assert fs.validate(fs.point_space()) == []

    def test_triangle_violation_reported(self):
        cells = tuple(Cell(i, 0) for i in range(3))
        dist = {(0, 1): F(3, 10), (1, 2): F(3, 10)}
        # d(0,2) defaults to 1 > 3/10 + 3/10
        s = DiscreteSpace(cells, (1, 2, 4), dist)
        diags = fs.validate(s)
        assert any("triangle" in d for d in diags)

    def test_slicing_violation_reported(self):
        cells = (Cell(0, 0), Cell(1, 0))
        s = DiscreteSpace(cells, (1, 2), {(0, 1): F(1, 2)}, (F(0), F(1)))
        diags = fs.validate(s)
        assert any("slicing" in d for d in diags)

    def test_bad_alexandrov_base(self):
        cells = (Cell(0, 0), Cell(1, 1))
        s = DiscreteSpace(cells, (0b11, 0b11), {})
        # 0 in min_open(1) but min_open(0) holds 1 as well: nesting fine; break it
        s2 = DiscreteSpace(cells, (0b01, 0b11), {})
        assert fs.validate(s2) == []
        s3 = DiscreteSpace((Cell(0, 0), Cell(1, 1), Cell(2, 0)), (0b011, 0b010, 0b110), {})
        assert fs.validate(s3) == []
        s4 = DiscreteSpace((Cell(0, 0), Cell(1, 1), Cell(2, 0)), (0b011, 0b110, 0b100), {})
        assert any("Alexandrov" in d for d in fs.validate(s4))


    @pytest.mark.parametrize("key", [(0, 5), (-1, 1)])
    def test_distance_key_outside_cells_reported(self, key):
        # the diagnostics so far come back before any walk indexes a cell,
        # so the slicing check never reads the out-of-range key
        cells = (Cell(0, 0), Cell(1, 0))
        dist = {key: F(1, 2), (0, 1): F(3, 2)}
        s = DiscreteSpace(cells, (1, 2), dist, (F(0), F(1)))
        assert fs.validate(s) == [
            f"bad distance key ({key[0]},{key[1]})",
            "stored distance d(0,1)=3/2 outside (0,1)",
        ]


class TestMinOpenTableChecked:
    """validate reports a minimal-open table it cannot index, and walks
    neither it nor, through the view, the neighbour lists."""

    @pytest.mark.parametrize("min_open", [(1, 2, 4), (1,)], ids=["longer", "shorter"])
    def test_size_mismatch(self, min_open):
        s = DiscreteSpace((Cell(0, 0), Cell(1, 0)), min_open, {(0, 1): F(1, 2)})
        assert fs.validate(s) == ["min_open table size mismatch"]
        assert s._compiled is None

    @pytest.mark.parametrize("mask", [0b11, -1], ids=["above", "negative"])
    def test_minimal_open_outside_cells(self, mask):
        s = DiscreteSpace((Cell(0, 0),), (mask,), {})
        assert fs.validate(s) == ["min_open(0) names a cell outside 0..0"]
        s = DiscreteSpace((Cell(0, 0), Cell(1, 0)), (1, mask << 1), {(0, 1): F(1, 2)})
        assert fs.validate(s) == ["min_open(1) names a cell outside 0..1"]
        assert s._compiled is None


class TestClosureInterior:
    def test_whole_space(self):
        s = edge_with_ends()
        assert fs.closure(s, 0b111) == 0b111
        assert fs.interior(s, 0b111) == 0b111

    def test_edge_cell(self):
        s = edge_with_ends()
        assert fs.closure(s, 0b010) == 0b111
        assert fs.interior(s, 0b010) == 0b010

    def test_interior_vertex_is_empty(self):
        s = edge_with_ends()
        assert fs.interior(s, 0b001) == 0
        assert fs.closure(s, 0b001) == 0b001


class TestExpand:
    def test_radius_above_one_is_everything(self):
        s = crisp_points(3)
        assert fs.expand(s, 0b001, F(3, 2)) == 0b111

    def test_empty_set_stays_empty_past_one(self):
        # past radius 1 a nonempty set reaches every cell, the empty set none
        s = fs.coproduct(fs.point_space(), fs.point_space())
        assert fs.expand(s, 0, F(1)) == 0
        assert fs.expand(s, 0, F(3, 2)) == 0
        assert fs.expand(crisp_points(3), 0, F(7)) == 0

    def test_diamond_partner_strictness(self):
        dg = gate.discretize(2)
        ur_half = next(
            i for i, c in enumerate(dg.space.cells) if c.tag == "UR.v0"
        )
        a = 1 << ur_half
        assert fs.expand(dg.space, a, F(1, 2)) == a
        grown = fs.expand(dg.space, a, F(3, 4))
        assert bin(grown).count("1") == 3  # the two same-x partners join

    def test_matches_metric_formula(self):
        dg = gate.discretize(4)
        s = dg.space
        pos = positions(dg)
        for (i, j), d in s.dist.items():
            (x1, y1), (x2, y2) = pos[i], pos[j]
            assert x1 == x2
            assert d == max(abs(y1), abs(y2))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            fs.expand(crisp_points(2), 1, F(0))

    @pytest.mark.parametrize("build", [gate.discretize, gate.discretize_dagger])
    def test_alternating_radii(self, build):
        # the view keeps the last radius's pairs: a switch back and forth, and
        # an equal radius that is another object, must each read their own
        s = build(4).space
        masks = fs.random_closed_sets(s, 12, seed=3)
        radii = (F(1, 4), F(3, 4), F(1, 4), F(2, 8), F(3, 4), F(3, 4), F(1, 8))
        want = {}
        for r in set(radii):
            near = literal_near(s, r)
            want[r] = [fs.cellset(y for x in fs.bits(d) for y in fs.bits(near[x])) for d in masks]
        for r in radii:
            assert [fs.expand(s, d, r) for d in masks] == want[r], r
        grown = [fs.expand(s, d, F(1, 4)) for d in masks]
        assert grown != [fs.expand(s, d, F(3, 4)) for d in masks]


class TestDistanceValues:
    def test_crisp_space(self):
        assert fs.thresholds(crisp_points(3), F(0)) == [F(1)]

    def test_gate_n4(self):
        dg = gate.discretize(4)
        assert fs.thresholds(dg.space, F(0)) == [F(j, 8) for j in range(1, 9)]

    def test_point(self):
        assert fs.thresholds(fs.point_space(), F(0)) == []

    @staticmethod
    def filtered(s, r_min):
        """The values in (r_min, 1] by a filter over every value above the
        floor, as thresholds read before its two bisects."""
        vals = fs._view(s).values
        return [v for v in vals[bisect_right(vals, r_min):] if v <= 1]

    @staticmethod
    def floors(s):
        """0, each value, a floor between each two and past the last, and 1."""
        vals = fs._view(s).values
        between = [(p + q) / 2 for p, q in zip(vals, vals[1:])]
        return [F(0), F(1), *vals, *between, vals[-1] + 1] if vals else [F(0), F(1)]

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_bisects_match_the_filter_on_gates(self, n):
        for dc in (gate.discretize(n), gate.discretize_dagger(n),
                   gate.build_complex([("a", "b", "c"), ("c", "c", "d")], n)):
            for r_min in self.floors(dc.space):
                got = fs.thresholds(dc.space, r_min)
                assert type(got) is list
                assert got == self.filtered(dc.space, r_min), (n, r_min)

    @pytest.mark.parametrize("complete", [True, False])
    def test_bisects_match_the_filter_past_one(self, complete):
        # stored distances of 1 and more, which validate rejects: the bisect
        # at 1 must stop where the filter does
        dist = {(0, 1): F(1, 2), (0, 2): F(3, 2), (1, 3): F(1), (2, 3): F(5, 4)}
        if complete:
            dist.update({(0, 3): F(1, 3), (1, 2): F(2)})
        s = DiscreteSpace(tuple(Cell(i, 0) for i in range(4)), (1, 2, 4, 8), dist)
        assert any("outside (0,1)" in d for d in fs.validate(s))
        assert (F(1) in fs._view(s).values) and fs._view(s).values[-1] > 1
        for r_min in self.floors(s):
            assert fs.thresholds(s, r_min) == self.filtered(s, r_min), r_min
        assert fs.thresholds(s, F(0)) == ([F(1, 3)] if complete else []) + [F(1, 2), F(1)]


class TestIsDefinable:
    def test_empty_and_whole(self):
        dg = gate.discretize(3)
        assert fs.is_definable(dg.space, 0, F(0))
        assert fs.is_definable(dg.space, dg.space.full_mask, F(0))

    def test_top_lobe_definable_n8(self):
        dg = gate.discretize(8)
        lobe = gate.state_to_cells(dg, gate.GateState(1, 0, 0))
        assert fs.is_definable(dg.space, lobe, F(2, 8))

    def test_out_segment_fails(self):
        dg = gate.discretize(8)
        os_closure = gate.edge_mask(dg, "OS")
        assert not fs.is_definable(dg.space, os_closure, F(2, 8))
        assert "threshold" in fs.why_not_definable(dg.space, os_closure, F(2, 8))

    def test_non_closed_reported_distinctly(self):
        dg = gate.discretize(3)
        # a whole edge closure with one endpoint dropped is not closed
        chopped = gate.edge_mask(dg, "TL") & ~(1 << dg.terminals["in1"])
        reason = fs.why_not_definable(dg.space, chopped, F(0))
        assert reason is not None and "not closed" in reason
        assert not fs.is_definable(dg.space, chopped, F(0))

    def test_negative_floor_refused_by_both(self):
        dg = gate.discretize(4)
        os_closure = gate.edge_mask(dg, "OS")
        for check in (fs.is_definable, fs.why_not_definable):
            with pytest.raises(ValueError, match="r_min must be nonnegative"):
                check(dg.space, os_closure, F(-1))

    def test_monotone_in_threshold(self):
        dg = gate.discretize(4)
        s = dg.space
        lobe = gate.state_to_cells(dg, gate.GateState(0, 1, 0))
        vals = fs.thresholds(s, F(0))
        passing = [
            r for r in vals if not lobe & ~fs.interior(s, fs.expand(s, lobe, r))
        ]
        # once a threshold passes, every larger one passes
        if passing:
            first = vals.index(passing[0])
            assert passing == vals[first:]


@st.composite
def small_spaces(draw):
    """A random preorder as the Alexandrov base and a truncated line metric.

    Cells sit at distinct points k/8 of one of two lines; a pair on one line
    is at min(1, |p - q|), every other pair at 1, which is always a metric.
    """
    n = draw(st.integers(1, 6))
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans()) and draw(st.booleans()):
                up[i] |= 1 << j
    for k in range(n):  # transitive closure
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    line = [draw(st.integers(0, 1)) for _ in range(n)]
    pos = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n, unique=True))
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = F(abs(pos[i] - pos[j]), 8)
            if line[i] == line[j] and d < 1:
                dist[(i, j)] = d
    cells = tuple(Cell(i, 0) for i in range(n))
    return DiscreteSpace(cells, tuple(up), dist)


def naive_why_not(s, d, r_min):
    """The definition read literally: closed, and inside int(expand(d, r)) for
    every distance value r in (r_min, 1], each recomputed from dist."""
    if d == 0 or d == s.full_mask:
        return None
    inside = [x for x in range(s.n) if d >> x & 1]
    closure = d
    for y in range(s.n):
        if any(s.min_open[y] >> x & 1 for x in inside):
            closure |= 1 << y
    if closure != d:
        missing = tuple(y for y in range(s.n) if closure >> y & 1 and not d >> y & 1)
        return f"not closed: missing cells {missing}"
    values = sorted({s.distance(i, j) for i in range(s.n) for j in range(i + 1, s.n)})
    for r in values:
        if not r_min < r <= 1:
            continue
        grown = d
        for y in range(s.n):
            if any(s.distance(x, y) < r for x in inside):
                grown |= 1 << y
        for x in inside:
            if s.min_open[x] & ~grown:
                return f"fails containment in int(expand) at threshold {r} (cell {x})"
    return None


class TestKernelMatchesDefinition:
    @settings(max_examples=80, deadline=None)
    @given(small_spaces(), st.integers(0, 16))
    def test_every_mask(self, s, r16):
        assert fs.validate(s) == []
        r_min = F(r16, 16)
        for d in range(1 << s.n):
            want = naive_why_not(s, d, r_min)
            assert fs.why_not_definable(s, d, r_min) == want
            assert fs.is_definable(s, d, r_min) == (want is None)


def cells_within(s, r):
    """Per cell, the other cells strictly within r, asked of s.distance: an
    unstored pair is at distance 1, so the stored keys name every candidate."""
    near = [0] * s.n
    for a, b in s.dist:
        if s.distance(a, b) < r:
            near[a] |= 1 << b
            near[b] |= 1 << a
    return near


def closures_of(opens):
    """cl({x}) per cell of a minimal-open table: x and every y whose
    minimal open holds x."""
    cl = [1 << x for x in range(len(opens))]
    for y, m in enumerate(opens):
        for x in fs.bits(m):
            cl[x] |= 1 << y
    return tuple(cl)


def packed_kernel(s, r_min, opens):
    """The packed kernel table as it was before the offset masks, uncached,
    from the minimal-open table opens: the smallest threshold above r_min,
    and per cell the packed mask cl(x) | min_open(x) << n | near_r0(x) << 2n."""
    vals = fs._view(s).values
    i = bisect_right(vals, r_min)
    r0 = vals[i] if i < len(vals) and vals[i] <= 1 else None
    near = cells_within(s, r0) if r0 is not None else (0,) * s.n
    n = s.n
    table = tuple(
        c | m << n | a << 2 * n
        for c, m, a in zip(closures_of(opens), opens, near)
    )
    return r0, table


def packed_failure(s, d, r_min, opens):
    """_failure as it was before the offset masks, kept as a reference: one
    packed table entry ORed per cell of d."""
    if r_min < 0:
        raise ValueError("r_min must be nonnegative")
    if d == 0 or d == s.full_mask:
        return None
    r0, table = packed_kernel(s, r_min, opens)
    acc = 0
    m = d
    while m:
        low = m & -m
        acc |= table[low.bit_length() - 1]
        m ^= low
    n = s.n
    full = (1 << n) - 1
    missing = acc & full & ~d
    if missing:
        return None, missing
    if r0 is None:
        return None
    bad = acc >> n & full & ~(d | acc >> 2 * n)
    if not bad:
        return None
    # the cells of d whose minimal open meets `bad` are d & cl(bad)
    hit = 0
    cl = closures_of(opens)
    for y in fs.bits(bad):
        hit |= cl[y]
    hit &= d
    return r0, (hit & -hit).bit_length() - 1


def packed_why_not(s, d, r_min, opens):
    fail = packed_failure(s, d, r_min, opens)
    if fail is None:
        return None
    r, where = fail
    if r is None:
        return f"not closed: missing cells {fs.members(where)}"
    return f"fails containment in int(expand) at threshold {r} (cell {where})"


def parent_random_closed_sets(s, count, seed):
    """random_closed_sets as it was before the offset masks: one full-width
    closure mask ORed per drawn cell."""
    rng = random.Random(seed)
    cl = s.closure_masks()
    probs = [0.15, 0.3, 0.5, 0.7, 0.85]
    out = []
    for k in range(count):
        p = probs[k % len(probs)]
        c = 0
        for x in [i for i in range(s.n) if rng.random() < p]:
            c |= cl[x]  # cl[x] holds x itself
        out.append(c)
    return out


class TestOffsetKernelMatchesPackedTable:
    """The offset kernel gives the packed table's verdict and witness, the
    table built from template_table's minimal opens."""

    def _same(self, dc, pool, r_min):
        s, opens = dc.space, template_table(dc)
        for d in pool:
            assert fs.why_not_definable(s, d, r_min) == packed_why_not(s, d, r_min, opens), bin(d)

    @pytest.mark.parametrize("build", [gate.discretize, gate.discretize_dagger],
                             ids=["plain", "dagger"])
    def test_saturated_candidates_n4(self, build):
        dc = build(4)
        pool = list(gate.saturated_candidates(dc))
        for r_min in (dc.r_min, F(0)):
            self._same(dc, pool, r_min)

    def test_chain4_minimal_n8(self):
        dc = cc.discretize(cc.build_minimal(oc.chain(4)), 8)
        s = dc.space
        pool = fs.random_closed_sets(s, 200, seed=1) + seeded_masks(s, 200, seed=2)
        self._same(dc, pool, dc.r_min)

    def test_n5_full_n4(self):
        # 52 soldered gate copies, 4,788 cells: the solder renumbers the
        # merged terminals, so neighbourhoods span more than one copy's block
        dc = cc.discretize(cc.build_full(oc.n5()), 4)
        s = dc.space
        pool = fs.random_closed_sets(s, 50, seed=3) + seeded_masks(s, 50, seed=4)
        self._same(dc, pool, dc.r_min)

    def test_floor_cache(self):
        dc = gate.discretize(4)
        s = dc.space
        pool = fs.random_closed_sets(s, 30, seed=6) + seeded_masks(s, 30, seed=7)
        pool += list(gate.saturated_candidates(dc))[::50]
        # equal floors as distinct objects, interleaved with another floor
        for r_min in (F(1, 2), F(0), F(2, 4), F(0, 7), F(1, 2)):
            self._same(dc, pool, r_min)
        with pytest.raises(ValueError, match="r_min must be nonnegative"):
            fs.is_definable(s, pool[0], F(-1, 2))
        with pytest.raises(ValueError, match="r_min must be nonnegative"):
            fs.why_not_definable(s, pool[0], F(-1, 2))
        # a floor at the largest distance leaves no threshold: closedness only
        assert fs.thresholds(s, F(1)) == []
        self._same(dc, pool, F(1))
        self._same(dc, pool, F(0))


class TestMaskOutsideSpaceRefused:
    @pytest.mark.parametrize("which", ["above", "negative", "above-and-inside"])
    def test_both_functions(self, which):
        s = gate.discretize(4).space
        d = {"above": 1 << s.n, "negative": -1, "above-and-inside": 1 << s.n | 1}[which]
        for check in (fs.is_definable, fs.why_not_definable):
            with pytest.raises(ValueError, match=rf"0 <= mask < 2\*\*{s.n}"):
                check(s, d, F(1, 2))

    @pytest.mark.parametrize("which", ["above", "negative", "above-and-inside"])
    def test_relations(self, which):
        # closure once gave bits above the space (so is_closed said False)
        # and -1 for -1; interior and expand raised IndexError
        s = gate.discretize(3).space
        d = {"above": 1 << s.n, "negative": -1, "above-and-inside": 1 << s.n | 1}[which]
        relations = (
            fs.closure, fs.interior, fs.open_hull, fs.is_closed, fs.is_open,
            lambda s, d: fs.expand(s, d, F(1, 3)),
            lambda s, d: fs.expand(s, d, F(3, 2)),
        )
        for relation in relations:
            with pytest.raises(ValueError, match=rf"0 <= mask < 2\*\*{s.n}"):
                relation(s, d)

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    @pytest.mark.parametrize("which", ["above", "negative"])
    def test_refused_from_a_pool(self, which, at):
        dc = gate.discretize(4)
        s = dc.space
        pool = list(gate.saturated_candidates(dc))
        d = {"above": 1 << s.n, "negative": -1}[which]
        pool.insert({"first": 0, "middle": len(pool) // 2, "last": len(pool)}[at], d)
        with pytest.raises(ValueError, match=rf"0 <= mask < 2\*\*{s.n}"):
            fs.enumerate_definable(s, dc.r_min, pool)


class TestRandomClosedSets:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize(
        "build",
        [lambda: gate.discretize(8), lambda: cc.discretize(cc.build_full(oc.chain(4)), 4)],
        ids=["gate", "soldered"],
    )
    def test_same_sets_as_cell_by_cell_closure(self, build, seed):
        s = build().space
        got = fs.random_closed_sets(s, 25, seed)
        assert got == parent_random_closed_sets(s, 25, seed)
        assert all(fs.is_closed(s, d) for d in got)


def literal_near(s, r):
    """Per cell, the cells strictly within r of it (itself included), asking
    s.distance of every pair."""
    return [fs.cellset(y for y in range(s.n) if s.distance(x, y) < r) for x in range(s.n)]


def cell_by_cell(s, opens, d, near):
    """closure, interior, open_hull and expand of d from their per-cell
    definitions, given the minimal-open table opens: near maps each radius
    to its cells_within table."""
    closure = fs.cellset(y for y in range(s.n) if opens[y] & d)
    interior = fs.cellset(x for x in fs.bits(d) if not opens[x] & ~d)
    hull = d
    grown = dict.fromkeys(near, d)
    for x in fs.bits(d):
        hull |= opens[x]
        for r, table in near.items():
            grown[r] |= table[x]
    return closure, interior, hull, grown


def relations_of(s, d, radii):
    return (fs.closure(s, d), fs.interior(s, d), fs.open_hull(s, d),
            {r: fs.expand(s, d, r) for r in radii})


def radii_of(values):
    """Each distance value in (0, 1], and one radius between each two and
    below the least, given the sorted values with 0 and 1 among them."""
    return [r for p, q in zip(values, values[1:]) for r in ((p + q) / 2, q)]


def complex_case(dc):
    """A complex's space and template_table's table for it."""
    return dc.space, template_table(dc)


class TestRelationsMatchCellByCell:
    """closure, interior, open_hull and expand, read off the offset masks,
    against their per-cell definitions from a minimal-open table built
    without the view, and s.distance."""

    @settings(max_examples=100, deadline=None)
    @given(small_spaces())
    def test_every_mask(self, s):
        pairs = itertools.product(range(s.n), repeat=2)
        radii = radii_of(sorted({s.distance(x, y) for x, y in pairs} | {F(1)}))
        near = {r: cells_within(s, r) for r in radii}
        for r, table in near.items():
            assert [m | 1 << x for x, m in enumerate(table)] == literal_near(s, r)
        for d in range(1 << s.n):
            assert relations_of(s, d, radii) == cell_by_cell(s, s.min_open, d, near), bin(d)

    @pytest.mark.parametrize("build", [
        *(lambda n=n, b=b: complex_case(b(n)) for b in (gate.discretize, gate.discretize_dagger)
          for n in (2, 3, 8, 32)),
        lambda: complex_case(cc.discretize(cc.build_minimal(oc.n5()), 4)),  # four gates
        lambda: (w_case()[0], w_table()),
    ], ids=[*(f"{v}{n}" for v in ("plain", "dagger") for n in (2, 3, 8, 32)),
            "n5-minimal", "W"])
    def test_seeded_masks(self, build):
        s, opens = build()
        radii = radii_of(sorted({F(0), F(1), *s.dist.values()}))
        near = {r: cells_within(s, r) for r in radii}
        pool = [0, s.full_mask, *seeded_masks(s, 12, seed=s.n)]
        pool += fs.random_closed_sets(s, 4, seed=s.n)
        for d in pool:
            assert relations_of(s, d, radii) == cell_by_cell(s, opens, d, near), bin(d)


def all_pairs_validate(s, opens):
    """validate as it was before the neighbour lists, kept as a reference,
    reading the minimal-open table opens."""
    diags = []
    ids = [c.id for c in s.cells]
    if ids != list(range(s.n)):
        diags.append("cell ids are not dense 0..n-1")
    for i in range(s.n):
        if not opens[i] >> i & 1:
            diags.append(f"min_open({i}) does not contain {i}")
        for y in fs.bits(opens[i]):
            if opens[y] & ~opens[i]:
                diags.append(
                    f"Alexandrov base violated: {y} in min_open({i}) but "
                    f"min_open({y}) is not contained in it"
                )
    for (a, b), d in s.dist.items():
        if not (a < b < s.n):
            diags.append(f"bad distance key ({a},{b})")
        if not (0 < d < 1):
            diags.append(f"stored distance d({a},{b})={d} outside (0,1)")
    near = [[] for _ in range(s.n)]
    for (a, b), d in s.dist.items():
        near[a].append((b, d))
        near[b].append((a, d))
    for y in range(s.n):
        for x, dxy in near[y]:
            for z, dyz in near[y]:
                if x >= z:
                    continue
                if s.distance(x, z) > dxy + dyz:
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


@st.composite
def messy_spaces(draw):
    """Spaces that break any invariant: stray minimal opens, reversed and
    diagonal keys, distances outside (0, 1), triangle and slicing violations."""
    n = draw(st.integers(1, 7))
    ids = list(range(n))
    if draw(st.integers(0, 5)) == 0:
        ids[-1] += 1
    min_open = tuple(draw(st.integers(0, (1 << n) - 1)) | (1 << i) * draw(st.booleans())
                     for i in range(n))
    values = [F(-1, 2), F(0), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(2, 3), F(1), F(3, 2)]
    dist = {}
    for _ in range(draw(st.integers(0, n * n))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a > b and draw(st.integers(0, 4)):
            a, b = b, a
        dist[(a, b)] = draw(st.sampled_from(values))
    slices = draw(st.one_of(
        st.none(), st.lists(st.sampled_from([F(0), F(1)]), min_size=n, max_size=n + 1)
    ))
    cells = tuple(Cell(i, 0) for i in ids)
    return DiscreteSpace(cells, min_open, dist, None if slices is None else tuple(slices))


class TestValidateMatchesAllPairsReference:
    @settings(max_examples=300, deadline=None)
    @given(messy_spaces())
    def test_messy_spaces(self, s):
        assert fs.validate(s) == all_pairs_validate(s, s.min_open)

    @settings(max_examples=100, deadline=None)
    @given(small_spaces())
    def test_metric_spaces(self, s):
        assert fs.validate(s) == all_pairs_validate(s, s.min_open) == []

    def test_gate_and_triangle_fixture(self):
        dg = gate.discretize_dagger(3)
        assert fs.validate(dg.space) == all_pairs_validate(*complex_case(dg)) == []
        cells = tuple(Cell(i, 0) for i in range(4))
        dist = {(0, 1): F(1, 3), (1, 2): F(1, 4), (2, 3): F(1, 5), (0, 3): F(9, 10)}
        s = DiscreteSpace(cells, (1, 2, 4, 8), dist)
        want = all_pairs_validate(s, s.min_open)
        assert len(want) == 2 and fs.validate(s) == want


class TestCompiledViewIsInvisible:
    def test_equality_repr_and_round_trip(self):
        s = gate.discretize_dagger(3).space
        fresh = gate.discretize_dagger(3).space
        before = repr(s)
        for d in fs.random_closed_sets(s, 20, seed=2):
            fs.is_definable(s, d, F(2, 3))
        assert same_space(s, fresh)
        assert repr(s) == before and "View" not in before
        assert repr(s) == repr(fresh)

    def test_assembled_spaces_compare_topology(self):
        # no table on either side, so the minimal opens are read off the views
        other = DiscreteSpace(edge_with_ends().cells, (0b001, 0b010, 0b110), {})
        a = fs.coproduct(edge_with_ends(), crisp_points(1))
        b = fs.coproduct(other, crisp_points(1))
        assert a.min_open is None and b.min_open is None
        assert not same_space(a, b)
        assert same_space(a, fs.coproduct(edge_with_ends(), crisp_points(1)))

    def test_two_floors_on_one_space(self):
        dg = gate.discretize(4)
        pool = [gate.state_to_cells(dg, state) for state in gate.allowed_states()]
        pool += fs.random_closed_sets(dg.space, 40, seed=5)
        floors = (F(0), F(1, 4))
        want = {
            r: [fs.is_definable(gate.discretize(4).space, d, r) for d in pool]
            for r in floors
        }
        assert want[floors[0]] != want[floors[1]]
        shared = dg.space
        for _ in range(2):
            for r in floors:
                assert [fs.is_definable(shared, d, r) for d in pool] == want[r]


class TestPlacedViewMatchesReference:
    """Views placed from parts by solder against the reference walk (the
    gate complexes themselves are in test_gate.py)."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_free_points(self, n):
        for labels, order in (([("a", "b", "c")], ("a", "b", "c", "z")),
                              ([("a", "a", "b")], ("y", "a", "b", "z"))):
            dc = gate.build_complex(labels, n, order)
            assert_view_is_reference(dc.space, dc.r_min, template_table(dc))

    def test_coproducts(self):
        # a fresh template, so the one-part coproduct shares no view yet
        parts = [gate.discretize.__wrapped__(3).space, edge_with_ends(), crisp_points(2)]
        for k in (0, 1, 3):
            s = fs.coproduct(*parts[:k])
            assert_view_is_reference(s, F(2, 3), reference_solder(parts[:k], ())[1], walked=k == 1)
        dd = gate.discretize_dagger(4)
        dg = dd.space
        opens = reference_solder([replace(dg, min_open=template_table(dd))] * 3, ())[1]
        assert_view_is_reference(fs.coproduct(dg, dg, dg), F(1, 2), opens)

    def test_solder_of_plain_spaces(self):
        parts, groups = [crisp_points(3), edge_with_ends(), edge_with_ends()], [(0, 3), (5, 8, 1)]
        s, mapping = fs.solder(parts, groups)
        assert mapping == (0, 1, 2, 0, 3, 1, 4, 5, 1)
        assert_view_is_reference(s, F(0), reference_solder(parts, groups)[1])

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_build_W(self, pairs):
        from latcirc import tower

        turns = tower.default_turn_functions(5)
        w = tower.build_W(sliced_base(pairs), *turns).space
        opens = all_pairs_build_W(sliced_base(pairs), *turns).space.min_open
        assert_view_is_reference(w, F(1, 4), opens, walked=True)

    def test_replace_dist_never_keeps_a_stale_view(self):
        dc = gate.discretize(4)
        s = dc.space
        fs._view(s).kernel(s, dc.r_min)  # compiled, with a kernel entry
        a, b = next(iter(s.dist))
        for dist in ({**s.dist, (a, b): F(1, 16)}, {}):
            t = replace(s, dist=dist)
            assert t._compiled is None
            assert_view_is_reference(t, dc.r_min, template_table(dc), walked=True)
            assert fs._view(t).values != fs._view(s).values
        assert fs.thresholds(replace(s, dist={}), dc.r_min) == [F(1)]

    def test_replace_on_an_assembled_space_is_refused(self):
        # the view is an assembled space's only topology, and replace drops it
        s = gate.discretize_dagger(4).space
        assert s.min_open is None
        t = replace(s, dist={})
        for use in (fs._view, fs.validate, lambda t: fs.closure(t, 1)):
            with pytest.raises(ValueError, match="dataclasses.replace"):
                use(t)
        assert fs.thresholds(replace(s, min_open=s.open_masks(), dist={}), F(0)) == [F(1)]


@st.composite
def solderings(draw):
    """One to four small spaces, some of them the same object, with groups
    of their crisp cells (every cell of small_spaces is a 0-cell)."""
    pool = draw(st.lists(small_spaces(), min_size=1, max_size=3))
    parts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    crisp, off = [], 0
    for p in parts:
        touched = {x for key in p.dist for x in key}
        crisp += [off + i for i in range(p.n) if i not in touched]
        off += p.n
    crisp = draw(st.permutations(crisp))
    groups, at = [], 0
    while at < len(crisp) and draw(st.booleans()):
        size = draw(st.integers(1, min(3, len(crisp) - at)))
        groups.append(tuple(crisp[at:at + size]))
        at += size
    return parts, groups


class TestSolderMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(solderings())
    def test_random_solderings(self, case):
        parts, groups = case
        s, mapping = fs.solder(parts, groups)
        cells, opens, dist, want = reference_solder(parts, groups)
        assert (s.cells, list(s.dist.items()), mapping) == (cells, dist, want)
        alone = len(parts) == 1 and not groups
        # only a part laid as it is keeps a full-width table, its own
        assert s.min_open is (parts[0].min_open if alone else None)
        assert_view_is_reference(s, F(1, 4), opens, walked=alone)
        walked = DiscreteSpace(cells, opens, dict(dist), None, s.resolution)
        assert same_space(s, walked)


class TestNonPositiveResolution:
    def test_validate_reports_it(self):
        for res in (F(0), F(-1, 2)):
            s = DiscreteSpace((Cell(0, 0),), (1,), {}, None, res)
            assert fs.validate(s) == [f"resolution {res} is not positive"]

    def test_openness_thresholds_refuse_it(self):
        s = DiscreteSpace((Cell(0, 0),), (1,), {}, None, F(0))
        with pytest.raises(ValueError, match="resolution must be positive"):
            fs.openness_thresholds(s, F(0))
        with pytest.raises(ValueError, match="resolution must be positive"):
            fs.is_open_metric(s, F(0))


class TestIsOpenMetric:
    def test_crisp_space(self):
        assert fs.is_open_metric(crisp_points(4), F(0))

    def test_gate_default_floor(self):
        for n in (3, 4, 6):
            dg = gate.discretize(n)
            assert fs.is_open_metric(dg.space, dg.r_min)

    def test_constructed_failure(self):
        # an edge-cell ball picks up a lone 0-cell whose own flank stays out
        cells = (Cell(0, 1, "e"), Cell(1, 0, "u"), Cell(2, 1, "f"))
        min_open = (0b001, 0b111, 0b100)
        s = DiscreteSpace(cells, min_open, {(0, 1): F(1, 2)}, None, F(1, 2))
        assert fs.validate(s) == []
        assert not fs.is_open_metric(s, F(0))


class TestCoproduct:
    def test_two_points(self):
        s = fs.coproduct(fs.point_space("x"), fs.point_space("y"))
        assert s.n == 2 and fs.validate(s) == []
        assert s.distance(0, 1) == 1
        assert is_crisp(s, 0b01)

    def test_point_plus_gate_family(self):
        dg = gate.discretize(3)
        s = fs.coproduct(fs.point_space(), dg.space)
        fam = fs.enumerate_definable(
            s,
            F(2, 3),
            candidates=[
                (d << 1) | p
                for d in gate.oracle(dg).definable
                for p in (0, 1)
            ],
        )
        assert len(fam) == 14

    def test_gate_pair_decomposition(self):
        dg = gate.discretize(3)
        a = dg.space
        s = fs.coproduct(a, a)
        defs = gate.oracle(dg).definable
        for d1 in defs:
            for d2 in defs:
                assert fs.is_definable(s, d1 | (d2 << a.n), F(2, 3))
        bad = gate.edge_mask(dg, "OS")
        assert not fs.is_definable(s, defs[1] | (bad << a.n), F(2, 3))

    def test_random_sets_decompose(self):
        dg = gate.discretize(3)
        a = dg.space
        s = fs.coproduct(a, a)
        for d in fs.random_closed_sets(s, 60, seed=7):
            left = d & a.full_mask
            right = d >> a.n
            assert fs.is_definable(s, d, F(2, 3)) == (
                fs.is_definable(a, left, F(2, 3))
                and fs.is_definable(a, right, F(2, 3))
            )


class TestSolder:
    def test_two_crisp_points(self):
        s = fs.coproduct(fs.point_space("x"), fs.point_space("y"))
        out, mapping = fs.solder([s], [(0, 1)])
        assert out.n == 1 and mapping == (0, 0)
        assert is_crisp(out, 0b1)
        assert fs.validate(out) == []

    def test_dagger_has_three_definable_sets(self):
        dd = gate.discretize_dagger(8)
        res = gate.oracle(dd)
        assert len(res.definable) == 3

    def test_only_a_lone_part_keeps_its_table(self):
        e = edge_with_ends()
        sliced = DiscreteSpace((Cell(0, 0),), (1,), {}, (F(2),))
        assert fs.solder([e], [])[0].min_open is e.min_open
        assert fs.coproduct(sliced).slices == (F(2),)
        for s in (fs.solder([e], [(0,)])[0], fs.coproduct(e, e), fs.coproduct(),
                  fs.coproduct(sliced, sliced)):
            assert s.min_open is None and s.slices is None

    def test_non_crisp_rejected(self):
        dg = gate.discretize(2)
        mid = next(i for i, c in enumerate(dg.space.cells) if c.tag == "UR.v0")
        v = dg.terminals["in1"]
        with pytest.raises(ValueError, match="crisply"):
            fs.solder([dg.space], [(mid, v)])

    def test_cell_outside_the_parts_rejected(self):
        with pytest.raises(ValueError, match="no such cell"):
            fs.solder([crisp_points(2), crisp_points(1)], [(0, 3)])

    def test_one_cell_rejected(self):
        dg = gate.discretize(2)
        e = next(i for i, c in enumerate(dg.space.cells) if c.dim == 1)
        v = dg.terminals["in1"]
        with pytest.raises(ValueError, match="0-cell"):
            fs.solder([dg.space], [(e, v)])

    def test_preserves_open_metric(self):
        n = 4
        dg = gate.discretize(n)
        dd = gate.discretize_dagger(n)
        assert fs.is_open_metric(dg.space, dg.r_min) == fs.is_open_metric(
            dd.space, dd.r_min
        )


class TestEnumerateDefinable:
    def test_one_crisp_point(self):
        s = fs.point_space()
        assert fs.enumerate_definable(s, F(0), all_closed_sets(s)) == [0, 1]

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda: gate.discretize(8), 7),
            (lambda: gate.discretize_dagger(8), 3),
            # the only fixture with an addable extra vertex, the free point z
            (lambda: gate.build_complex([("a", "b", "c")], 3, ("a", "b", "c", "z")), 14),
        ],
        ids=["plain", "dagger", "free-point"],
    )
    def test_gate_saturated_seven(self, build, count):
        dc = build()
        fam = fs.enumerate_definable(
            dc.space, dc.r_min, candidates=gate.saturated_candidates(dc)
        )
        assert len(fam) == count
        assert list(gate.oracle(dc).definable) == fam

    def test_budget_error(self):
        s = crisp_points(8)
        with pytest.raises(fs.BudgetExceeded, match="budget"):
            fs.enumerate_definable(s, F(0), range(1 << s.n), budget=16)

    def test_negative_floor_refused_before_any_work(self):
        s = gate.discretize(4).space
        with pytest.raises(ValueError, match="r_min must be nonnegative"):
            fs.thresholds(s, F(-1, 4))
        for pool in ([], range(1 << 20)):
            with pytest.raises(ValueError, match="r_min must be nonnegative"):
                fs.enumerate_definable(s, F(-1, 2), pool, budget=16)

    def test_budget_stops_unbounded_iterable(self):
        with pytest.raises(fs.BudgetExceeded, match="budget of 16"):
            fs.enumerate_definable(fs.point_space(), F(0), itertools.count(), budget=16)


def one_at_a_time(s, pool, r):
    """enumerate_definable's judging before packs, kept as the reference."""
    return sorted([d for d in pool if fs.is_definable(s, d, r)])


def gate_case(dc):
    """The space, its default floor, and its definable and saturated sets."""
    known = list(gate.oracle(dc).definable) * 4 + list(gate.saturated_candidates(dc))[::37]
    return dc.space, dc.r_min, known


def chain4_case():
    """The chain4 minimal complex with the plain gate's definable sets placed
    in each gate copy, alone and in every copy at once."""
    dc = cc.discretize(cc.build_minimal(oc.chain(4)), 4)
    one = gate.discretize(4)
    known = []
    for d in gate.oracle(one).definable:
        local = [i for i, cell in enumerate(one.copies[0]) if d >> cell & 1]
        known += [fs.cellset(cop[i] for i in local) for cop in dc.copies]
        known.append(fs.cellset(cop[i] for cop in dc.copies for i in local))
    return dc.space, dc.r_min, known


def gate_pair_case():
    dc = gate.discretize(3)
    defs = gate.oracle(dc).definable
    known = [d1 | d2 << dc.space.n for d1 in defs for d2 in defs]
    return fs.coproduct(dc.space, dc.space), dc.r_min, known


def w_case():
    from latcirc import tower

    return tower.build_W(sliced_base(), *tower.default_turn_functions(5)).space, F(1, 4), []


def w_table():
    """The minimal-open table of w_case's space, from the reference build of W."""
    from latcirc import tower

    return all_pairs_build_W(sliced_base(), *tower.default_turn_functions(5)).space.min_open


PACKED_CASES = {
    "plain3": lambda: gate_case(gate.discretize(3)),
    "plain4": lambda: gate_case(gate.discretize(4)),
    "plain8": lambda: gate_case(gate.discretize(8)),
    "dagger3": lambda: gate_case(gate.discretize_dagger(3)),
    "dagger4": lambda: gate_case(gate.discretize_dagger(4)),
    "dagger8": lambda: gate_case(gate.discretize_dagger(8)),
    "free-point": lambda: gate_case(
        gate.build_complex([("a", "b", "c")], 3, ("a", "b", "c", "z"))
    ),
    "chain4-minimal": chain4_case,
    "gate-pair": gate_pair_case,
    "W": w_case,
    "point": lambda: (fs.point_space(), F(1, 4), []),
    "no-cells": lambda: (fs.coproduct(), F(1, 4), []),
}


def slots_per_pack(n):
    """G: candidates in one pack, each in a slot of 3n bits rounded up to bytes."""
    return max(1, fs._PACK_BITS // (8 * max(1, -(-3 * n // 8))))


class TestPackedPools:
    """enumerate_definable over packs against one is_definable call per set."""

    @pytest.mark.parametrize("floor", ["default", "zero", "no-threshold"])
    @pytest.mark.parametrize("name", list(PACKED_CASES))
    def test_same_as_one_at_a_time(self, name, floor):
        s, default, known = PACKED_CASES[name]()
        r = {"default": default, "zero": F(0), "no-threshold": F(1)}[floor]
        n = s.n
        full = (1 << n) - 1
        top = 1 << n - 1 if n else 0
        masks = [0, full, 1 & full, top, top | 1 & full, fs.closure(s, top | 1 & full)]
        masks += known + fs.random_closed_sets(s, 40, seed=n) + seeded_masks(s, 40, seed=n)
        rng = random.Random(n)
        g = slots_per_pack(n)
        for size in (0, 1, g - 1, g, g + 1, 2 * g + 3):
            pool = [rng.choice(masks) for _ in range(size)]
            # the special masks at either end and across the first slot boundary
            for at, d in zip((0, size - 1, g - 1, g), masks[:4]):
                if 0 <= at < size:
                    pool[at] = d
            want = one_at_a_time(s, pool, r)
            assert fs.enumerate_definable(s, r, iter(pool)) == want
            if floor == "no-threshold":  # then definable means closed
                assert fs.thresholds(s, r) == []
                assert want == sorted(d for d in pool if fs.is_closed(s, d))


class TestWireRule:
    def _isolated_components(self, s, r_min):
        """Connected cell groups all metrically isolated above r_min."""
        iso = []
        near = {i: [] for i in range(s.n)}
        for (a, b), d in s.dist.items():
            near[a].append(d)
            near[b].append(d)
        for i in range(s.n):
            if all(d > r_min for d in near[i]):
                iso.append(i)
        isoset = set(iso)
        seen = set()
        comps = []
        for start in iso:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in fs.bits(s.min_open[x]):
                    if y in isoset and y not in comp:
                        comp.add(y)
                        stack.append(y)
                for y in range(s.n):
                    if x in fs.members(s.min_open[y]) and y in isoset and y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            comps.append(comp)
        return comps

    def test_definable_sets_respect_wires(self):
        dg = gate.discretize(4)
        comps = self._isolated_components(dg.space, dg.r_min)
        assert comps
        for d in gate.oracle(dg).definable:
            for comp in comps:
                inside = sum(1 for c in comp if d >> c & 1)
                assert inside in (0, len(comp))


class TestUnionClosure:
    def test_unions_of_definable_are_definable(self):
        dg = gate.discretize(4)
        defs = gate.oracle(dg).definable
        for d1 in defs:
            for d2 in defs:
                assert fs.is_definable(dg.space, d1 | d2, dg.r_min)


class TestFact21Coherence:
    # discrete shadows of the continuum equivalence on open-metric spaces:
    # each direction keeps its natural threshold grid

    @pytest.mark.parametrize("n", [3, 4])
    def test_definable_implies_open_expansions_on_grid(self, n):
        dg = gate.discretize(n)
        s = dg.space
        assert fs.is_open_metric(s, dg.r_min)
        for d in gate.oracle(dg).definable:
            for r in fs.openness_thresholds(s, dg.r_min):
                assert fs.is_open(s, fs.expand(s, d, r)), (n, r, bin(d))

    @pytest.mark.parametrize("n", [3, 4])
    def test_open_expansions_at_all_values_implies_definable(self, n):
        dg = gate.discretize(n)
        s = dg.space
        pool = list(gate.saturated_candidates(dg))[:300]
        pool += fs.random_closed_sets(s, 100, seed=3)
        for d in pool:
            if d in (0, s.full_mask) or not fs.is_closed(s, d):
                continue
            if all(
                fs.is_open(s, fs.expand(s, d, r))
                for r in fs.thresholds(s, dg.r_min)
            ):
                assert fs.is_definable(s, d, dg.r_min), (n, bin(d))
