from collections import Counter
from fractions import Fraction as F
from itertools import chain, product

import pytest

from latcirc import finspace as fs
from latcirc import gate
from latcirc.gate import GateState
from references import (
    assert_view_is_reference, in_crisp_region, is_crisp, state_join, template_table,
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
        assert dg.reps[ur] == (F(1, 2), F(1, 2))
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
        ur = next(
            i for i, c in enumerate(dg.space.cells) if dg.reps[i] == (F(3, 8), F(3, 8))
        )
        os_ = next(
            i for i, c in enumerate(dg.space.cells) if dg.reps[i] == (F(3, 8), F(0))
        )
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
            owners = [0] * s.n
            for g, cells in enumerate(dg.copies):
                for cell in cells:
                    owners[cell] |= 1 << g
            for i in range(s.n):
                for j in range(i + 1, s.n):
                    (x1, y1), (x2, y2) = dg.reps[i], dg.reps[j]
                    if not owners[i] & owners[j]:
                        want = F(1)
                    elif in_crisp_region(x1, y1) or in_crisp_region(x2, y2):
                        want = F(1)
                    elif x1 != x2:
                        want = F(1)
                    else:
                        want = max(abs(y1), abs(y2))
                    assert s.distance(i, j) == want, (labels, dg.reps[i], dg.reps[j])


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
        for i in range(dg.space.n):
            x, y = dg.reps[i]
            want = y > 0 or (x, y) == (0, 0)
            assert bool(lobe >> i & 1) == want, dg.reps[i]

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
        assert z in dc.vertices and dc.reps[z] is None
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
        for local, cell in enumerate(two.copies[1]):
            assert two.reps[cell] == one.reps[local]

    def test_copies_keep_the_template_cells(self):
        from latcirc import circuit as cc
        from latcirc import order_core as oc

        dc = cc.discretize(cc.build_full(oc.chain(4)), 4)
        assert len(dc.copies) > 1
        template = gate._template(4)[0].cells
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
    """Complex views placed from the one-gate template against the walk over
    template_table's full-width minimal opens (reference_view in
    references.py)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 32])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_five_solderings(self, shape, n):
        dc = gate.build_complex([SHAPES[shape]], n)
        # only the plain shape solders nothing, and keeps the template's table
        assert (dc.space.min_open is None) == (shape != "plain")
        assert_view_is_reference(dc.space, dc.r_min, template_table(dc))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_retagged_gates(self, n):
        for dc in (gate.discretize(n), gate.discretize_dagger(n)):
            assert_view_is_reference(dc.space, dc.r_min, template_table(dc))

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
