from collections import Counter
from fractions import Fraction as F
from itertools import chain, islice, product

import pytest

from latcirc import finspace as fs
from latcirc import gate
from latcirc.gate import GateState
from references import (
    assert_view_is_reference, in_crisp_region, is_crisp, positions, state_join,
    template_table,
)


class TestStates:
    def test_allowed_states(self):
        states = gate.allowed_states()
        assert len(states) == 7
        assert GateState(0, 0, 0) in states and GateState(1, 1, 1) in states
        assert GateState(1, 1, 0) in states
        assert GateState(0, 0, 1) not in states

    def test_allowed_iff_constraint(self):
        allowed = set(gate.allowed_states())
        for t in product((0, 1), repeat=3):
            want = not (t[0] == 0 and t[1] == 0 and t[2] == 1)
            assert (GateState(*t) in allowed) == want

    def test_join_closed(self):
        allowed = set(gate.allowed_states())
        for s in allowed:
            for t in allowed:
                assert state_join(s, t) in allowed


class TestDiscretize:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gate.discretize(1)

    def test_partner_distance_half_at_n2(self):
        dg = gate.discretize(2)
        ur = next(i for i, c in enumerate(dg.space.cells) if c.tag == "UR.v0")
        lr = next(i for i, c in enumerate(dg.space.cells) if c.tag == "LR.v0")
        assert positions(dg)[ur] == (F(1, 2), F(1, 2))
        assert dg.space.distance(ur, lr) == F(1, 2)

    def test_input_vertex_crisp_every_n(self):
        for n in (2, 3, 5):
            dg = gate.discretize(n)
            i1 = dg.terminals["in1"]
            for j in range(dg.space.n):
                if j != i1:
                    assert dg.space.distance(i1, j) == 1

    def test_metric_formula_n4(self):
        dg = gate.discretize(4)
        ur = positions(dg).index((F(3, 8), F(3, 8)))
        os_ = positions(dg).index((F(3, 8), F(0)))
        assert dg.space.distance(ur, os_) == F(3, 8)

    def test_validates_and_counts(self):
        for n in (2, 4):
            dg = gate.discretize(n)
            assert fs.validate(dg.space) == []
            assert dg.space.n == 24 * n - 1
            assert len(dg.edges) == 9
            assert len(dg.vertices) == 8
            assert dg.space.resolution == F(1, n)
            assert dg.r_min == F(2, n)
            assert dg.r_min is dg.r_min  # one Fraction: the kernel finds its floor by identity

    def test_independent_distance_oracle(self):
        # recompute every pairwise distance straight from the metric clauses;
        # cells that share no gate copy are never metric witnesses
        cases = [
            [("in1", "in2", "out")],
            [("a", "a", "c")],
            [("a", "b", "c"), ("c", "b", "d")],
        ]
        for labels in cases:
            dg = gate.build_complex(labels, 3)
            s = dg.space
            pos = positions(dg)
            owners = [0] * s.n
            for g, cells in enumerate(dg.copies):
                for cell in cells:
                    owners[cell] |= 1 << g
            for i in range(s.n):
                for j in range(i + 1, s.n):
                    (x1, y1), (x2, y2) = pos[i], pos[j]
                    if not owners[i] & owners[j]:
                        want = F(1)
                    elif in_crisp_region(x1, y1) or in_crisp_region(x2, y2):
                        want = F(1)
                    elif x1 != x2:
                        want = F(1)
                    else:
                        want = max(abs(y1), abs(y2))
                    assert s.distance(i, j) == want, (labels, pos[i], pos[j])


class TestDagger:
    def test_one_fewer_cell(self):
        for n in (2, 4):
            assert gate.discretize_dagger(n).space.n == gate.discretize(n).space.n - 1

    def test_oracle_three_sets(self):
        res = gate.oracle(gate.discretize_dagger(8))
        assert len(res.definable) == 3
        assert res.pattern_set == {(0, 0), (1, 0), (1, 1)}

    def test_middle_set_holds_g_not_out(self):
        dd = gate.discretize_dagger(6)
        res = gate.oracle(dd)
        middle = [d for d, p in zip(res.definable, res.patterns) if p == (1, 0)]
        assert len(middle) == 1
        e = middle[0]
        assert e >> dd.terminals["g"] & 1
        assert not e >> dd.terminals["out"] & 1
        lobes = 0
        for name in gate.TOP_LOBE_EDGES + gate.BOTTOM_LOBE_EDGES:
            lobes |= gate.edge_mask(dd, name)
        assert e == lobes

    def test_g_tag_present(self):
        dd = gate.discretize_dagger(2)
        # the soldered inputs keep the tag of the lesser, I1
        assert dd.space.cells[dd.terminals["g"]].tag == "I1"


class TestStateToCells:
    def test_empty_and_full(self):
        dg = gate.discretize(4)
        assert gate.state_to_cells(dg, GateState(0, 0, 0)) == 0
        assert gate.state_to_cells(dg, GateState(1, 1, 1)) == dg.space.full_mask

    def test_top_lobe_matches_geometry(self):
        # independent check: the lobe is everything with y > 0, plus the origin
        dg = gate.discretize(5)
        lobe = gate.state_to_cells(dg, GateState(1, 0, 0))
        for i, (x, y) in enumerate(positions(dg)):
            want = y > 0 or (x, y) == (0, 0)
            assert bool(lobe >> i & 1) == want, (x, y)

    def test_state_001_rejected(self):
        dg = gate.discretize(2)
        with pytest.raises(ValueError):
            gate.state_to_cells(dg, GateState(0, 0, 1))

    def test_join_is_union(self):
        dg = gate.discretize(3)
        for s in gate.allowed_states():
            for t in gate.allowed_states():
                u = state_join(s, t)
                assert gate.state_to_cells(dg, u) == gate.state_to_cells(
                    dg, s
                ) | gate.state_to_cells(dg, t)


class TestAssembly:
    def test_gate_free_label_is_an_isolated_point(self):
        dc = gate.build_complex([("a", "b", "c")], 3, ("a", "b", "c", "z"))
        z = dc.terminals["z"]
        assert dc.space.cells[z] == fs.Cell(z, 0, "pt")
        assert z in dc.vertices and positions(dc)[z] is None
        assert dc.space.min_open is None
        assert fs.open_hull(dc.space, 1 << z) == fs.closure(dc.space, 1 << z) == 1 << z
        assert is_crisp(dc.space, 1 << z)
        assert dc.pattern(1 << z) == (0, 0, 0, 1)
        res = gate.oracle(dc)
        assert res.pattern_set == {
            p + (z_in,) for p in gate.expected_patterns("plain") for z_in in (0, 1)
        }
        assert len(res.definable) == 14

    def test_copies_share_the_one_gate_numbering(self):
        one = gate.build_complex([("a", "b", "c")], 3)
        two = gate.build_complex([("a", "b", "c"), ("c", "d", "e")], 3)
        assert one.copies == (tuple(range(one.space.n)),)
        assert [len(cells) for cells in two.copies] == [one.space.n] * 2
        out0 = two.copies[0][one.terminals["c"]]
        in1 = two.copies[1][one.terminals["a"]]
        assert out0 == in1 == two.terminals["c"]
        assert set(two.copies[0]) & set(two.copies[1]) == {two.terminals["c"]}
        # the soldered terminal keeps copy 0's tag, so its point is OUT's
        at, at_one = positions(two), positions(one)
        for local, cell in enumerate(two.copies[1]):
            assert at[cell] == (gate.VERTICES["OUT"] if cell == in1 else at_one[local])

    def test_copies_keep_the_template_cells(self):
        from latcirc import circuit as cc
        from latcirc import order_core as oc

        dc = cc.discretize(cc.build_full(oc.chain(4)), 4)
        assert len(dc.copies) > 1
        template = gate.discretize(4).space.cells
        uses = Counter(chain.from_iterable(dc.copies))
        for cells in dc.copies:
            for local, cell in enumerate(cells):
                if uses[cell] == 1:  # not a soldered terminal
                    want = template[local]
                    assert dc.space.cells[cell] == fs.Cell(cell, want.dim, want.tag)

    def test_no_gates_refused(self):
        with pytest.raises(ValueError, match="at least one gate"):
            gate.build_complex([], 3, ("x", "y"))


# the five ways one gate's terminals can be soldered: all distinct, in1 = in2,
# in1 = out, in2 = out, all equal
SHAPES = {
    "plain": ("a", "b", "c"),
    "inputs": ("a", "a", "c"),
    "in1-out": ("a", "b", "a"),
    "in2-out": ("a", "b", "b"),
    "all": ("a", "a", "a"),
}


class TestPlacedViewMatchesReference:
    """Complex views placed from the one-gate template, and the template's
    own view walked off its min_open, against the walk over template_table's
    full-width minimal opens (reference_view in references.py).  Each
    complex is built from a fresh template, so whether its view is walked
    does not hang on what ran before."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 32])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_five_solderings(self, shape, n, monkeypatch):
        dc = _fresh(monkeypatch, gate.build_complex, [SHAPES[shape]], n)
        # only the plain shape solders nothing: it keeps the template's table
        # and, the template having no view yet, walks its own
        plain = shape == "plain"
        assert (dc.space.min_open is None) == (not plain)
        assert_view_is_reference(dc.space, dc.r_min, template_table(dc), walked=plain)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 32])
    def test_retagged_gates(self, n, monkeypatch):
        for build, walked in ((gate.discretize, True), (gate.discretize_dagger, False)):
            dc = _fresh(monkeypatch, build, n)
            assert_view_is_reference(dc.space, dc.r_min, template_table(dc), walked=walked)

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_full_presentations_n4(self, size):
        from latcirc import circuit as cc
        from latcirc import order_core as oc

        for lat in oc.all_lattices_up_to_iso(size):
            dc = cc.discretize(cc.build_full(lat), 4)
            assert_view_is_reference(dc.space, dc.r_min, template_table(dc))


class TestOracle:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_exactly_seven(self, n):
        res = gate.oracle(gate.discretize(n))
        assert len(res.definable) == 7
        assert res.pattern_set == gate.expected_patterns("plain")

    def test_patterns_unique(self):
        res = gate.oracle(gate.discretize(4))
        assert len(res.patterns) == len(res.pattern_set)

    def test_sets_are_the_symbolic_ones(self):
        dg = gate.discretize(4)
        res = gate.oracle(dg)
        symbolic = {
            gate.state_to_cells(dg, s) for s in gate.allowed_states()
        }
        assert set(res.definable) == symbolic

    def test_resolution_stability(self):
        p4 = gate.oracle(gate.discretize(4)).pattern_set
        p8 = gate.oracle(gate.discretize(8)).pattern_set
        assert p4 == p8

    def test_no_threshold_refused_before_budget(self):
        with pytest.raises(gate.NoThreshold):
            gate.oracle(gate.discretize(2), budget=1)
        with pytest.raises(gate.NoThreshold):
            gate.oracle(gate.discretize(4), F(1), budget=1)

    def test_negative_floor_refused_before_budget(self):
        with pytest.raises(ValueError, match="r_min must be nonnegative"):
            gate.oracle(gate.discretize(8), F(-1, 4), budget=10)

    def test_budget_guard(self):
        # n = 4: at n = 2 the floor 2/2 leaves no threshold, refused first
        dg = gate.discretize(4)
        with pytest.raises(fs.BudgetExceeded):
            gate.oracle(dg, budget=100)


def brute_force(dc, r_min, budget):
    """The saturated family scanned whole by enumerate_definable, in packs of
    2^16 candidates so the two-gate family is never held at once, and how
    many candidates it drew."""
    pool = gate.saturated_candidates(dc, budget)
    found, drawn = [], 0
    while chunk := list(islice(pool, 1 << 16)):
        found += fs.enumerate_definable(dc.space, r_min, chunk)
        drawn += len(chunk)
    return sorted(found), drawn


def passed_by_subset(dc, r_min):
    """The candidates that the pruning test passes, edge subset by edge
    subset: a subset passes when U & ~(base | N) == 0 for its union's
    open_hull U and expansion base | N at the binding threshold, and brings
    every union of its base with addable free vertices."""
    s = dc.space
    r0 = fs.thresholds(s, r_min)[0]
    hulls = [fs.open_hull(s, e.closure_mask) for e in dc.edges]
    grown = [fs.expand(s, e.closure_mask, r0) for e in dc.edges]
    out = []
    for subset in range(1 << len(dc.edges)):
        chosen = [i for i in range(len(dc.edges)) if subset >> i & 1]
        base = hull = cover = 0
        for i in chosen:
            base |= dc.edges[i].closure_mask
            hull |= hulls[i]
            cover |= grown[i]
        if hull & ~cover:
            continue
        pinned = {v for i in chosen for v in dc.edges[i].endpoints}
        free = [v for v in dc.vertices
                if v not in pinned and not fs.open_hull(s, 1 << v) & ~(cover | 1 << v)]
        for k in range(1 << len(free)):
            out.append(base | sum(1 << v for j, v in enumerate(free) if k >> j & 1))
    return sorted(out)


class TestOracleMatchesBruteForce:
    """gate.oracle refutes edge subsets by clauses before is_definable sees
    them: it must find what the scan of the whole saturated family finds,
    and on one gate judge exactly the candidates that the pruning test
    passes subset by subset."""

    def check(self, monkeypatch, dc, r_min, budget=fs.DEFAULT_BUDGET):
        judged = []
        definable = fs.is_definable

        def judge(s, d, r):
            judged.append(d)
            return definable(s, d, r)

        with monkeypatch.context() as m:
            m.setattr(fs, "is_definable", judge)
            res = gate.oracle(dc, r_min, budget)
        floor = dc.r_min if r_min is None else r_min
        found, drawn = brute_force(dc, floor, budget)
        assert list(res.definable) == found
        assert res.patterns == tuple(dc.pattern(d) for d in found)
        assert res.candidates == drawn == gate.saturated_count(dc)
        if len(dc.copies) == 1:
            assert sorted(judged) == passed_by_subset(dc, floor)
        return res

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12, 16])
    @pytest.mark.parametrize("build", [gate.discretize, gate.discretize_dagger])
    def test_one_gate(self, monkeypatch, build, n):
        for r_min in (None, F(0), F(1, 3 * n), F(1, 4)):
            res = self.check(monkeypatch, build(n), r_min)
            assert res.definable, r_min

    @pytest.mark.slow
    def test_two_gate_chain(self, monkeypatch):
        dc = gate.build_complex([("a", "b", "c"), ("c", "c", "d")], 3)
        res = self.check(monkeypatch, dc, None, 6 * 10**6)
        assert len(res.definable) == 10


class TestNegativeControls:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_out_segment_candidate_fails(self, n):
        dg = gate.discretize(n)
        candidate = gate.edge_mask(dg, "OS")  # closure holds O and OUT
        assert not fs.is_definable(dg.space, candidate, F(0))

    @pytest.mark.parametrize("n", [2, 4])
    def test_every_single_edge_fails(self, n):
        dg = gate.discretize(n)
        for name in gate.EDGE_ORDER:
            assert not fs.is_definable(dg.space, gate.edge_mask(dg, name), F(0))

    def test_lone_vertices_fail(self):
        dg = gate.discretize(4)
        for v in dg.vertices:
            assert not fs.is_definable(dg.space, 1 << v, dg.r_min)


def _fields(dc):
    """Everything a complex holds, as plain values."""
    s = dc.space
    return (
        s.cells, s.open_masks(), dict(s.dist), s.slices, s.resolution,
        dc.edges, dc.vertices, dict(dc.terminals), dc.terminal_order, dc.n, dc.copies,
    )


def _fresh(monkeypatch, build, *args):
    """build(*args) with every kept gate rebuilt, build itself too when it
    is discretize or discretize_dagger: the template too, so a dagger or
    multi-gate complex is placed from a template with no view yet."""
    with monkeypatch.context() as m:
        m.setattr(gate, "discretize", gate.discretize.__wrapped__)
        m.setattr(gate, "discretize_dagger", gate.discretize_dagger.__wrapped__)
        return getattr(build, "__wrapped__", build)(*args)


def _outcome(call, *args):
    """call's result, or the type and message of what it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestKeptGates:
    """discretize and discretize_dagger keep one complex per pitch; nothing
    a caller sees may depend on whether it was kept or built afresh."""

    PITCHES = (2, 3, 4, 8, 16)

    def test_kept_per_pitch(self):
        assert gate.discretize(5) is gate.discretize(5)
        assert gate.discretize_dagger(5) is gate.discretize_dagger(5)
        # other complexes are built per call, from the kept template
        assert gate.build_complex([("a", "b", "c")], 5) is not gate.build_complex(
            [("a", "b", "c")], 5)

    def test_kept_complexes_are_read_only(self):
        dc = gate.discretize(4)
        with pytest.raises(TypeError):
            dc.terminals["x"] = 0
        with pytest.raises(TypeError):
            dc.space.dist[(0, 1)] = F(1, 2)
        with pytest.raises(TypeError):
            gate.discretize_dagger(4).space.dist[(0, 1)] = F(1, 2)
        assert all(isinstance(f, tuple) for f in (dc.edges, dc.vertices, dc.copies))

    def test_interleaved_uses_match_fresh_builds(self, monkeypatch):
        from latcirc import circuit as cc
        from latcirc import order_core as oc

        circ = cc.build_full(oc.chain(3))
        builds = {
            "plain": (gate.discretize,),
            "dagger": (gate.discretize_dagger,),
            "two": (gate.build_complex, [("a", "b", "c"), ("c", "c", "d")]),
        }
        for n in self.PITCHES:
            for name, (build, *args) in builds.items():
                kept = build(*args, n)
                fresh = _fresh(monkeypatch, build, *args, n)
                assert _fields(kept) == _fields(fresh), (name, n)
                # a floor other than the default, then the default, and again
                for r_min in (F(1, n), None, F(1, 2 * n), None) if len(kept.copies) == 1 else ():
                    got = _outcome(gate.oracle, kept, r_min)
                    assert got == _outcome(gate.oracle, fresh, r_min), (name, n, r_min)
                probes = fs.random_closed_sets(kept.space, 30, n)
                assert probes == fs.random_closed_sets(fresh.space, 30, n)
                assert [fs.is_definable(kept.space, d, kept.r_min) for d in probes] == [
                    fs.is_definable(fresh.space, d, fresh.r_min) for d in probes
                ]
            got = _outcome(cc.oracle, circ, n, 10**6)
            assert got == _fresh(monkeypatch, _outcome, cc.oracle, circ, n, 10**6), n
            assert got == _outcome(cc.oracle, circ, n, 10**6)
        # nothing above changed what is kept
        for n in self.PITCHES:
            for build in (gate.discretize, gate.discretize_dagger):
                assert _fields(build(n)) == _fields(_fresh(monkeypatch, build, n))
            assert gate.discretize(n).space.min_open is not None
            assert fs.validate(gate.discretize_dagger(n).space) == []

    def test_eviction_past_the_bound(self, monkeypatch):
        first = gate.discretize(2)
        pitches = range(2, 2 + gate.discretize.cache_info().maxsize + 3)
        for n in pitches:
            gate.discretize(n)
        assert gate.discretize.cache_info().currsize <= gate.discretize.cache_info().maxsize
        again = gate.discretize(2)
        assert again is not first  # evicted, so rebuilt
        for n in pitches:
            dc = gate.discretize(n)
            assert _fields(dc) == _fields(_fresh(monkeypatch, gate.discretize, n))
            assert _outcome(gate.oracle, dc) == _outcome(
                gate.oracle, _fresh(monkeypatch, gate.discretize, n))
