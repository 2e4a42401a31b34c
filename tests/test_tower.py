from fractions import Fraction as F
from itertools import product

import pytest

from latcirc import circuit as cc
from latcirc import finspace as fs
from latcirc import gate
from latcirc import order_core as oc
from latcirc import tower
from latcirc.finspace import Cell, DiscreteSpace
from latcirc.tower import TowerKind

FC = TowerKind.FORWARD_CHAIN
RC = TowerKind.REVERSE_CHAIN
EP = TowerKind.EXACT_PAIR


def brute_assignments(c):
    return sorted(
        bits
        for bits in product((0, 1), repeat=c.n)
        if all(not (bits[i] == 0 and bits[j] == 0 and bits[k] == 1) for i, j, k in c.gates)
    )


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


class TestTruncate:
    def test_forward_one(self):
        c = tower.truncate(FC, 1)
        assert c.n == 2 and c.gates == ((0, 0, 1),)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chain_counts(self, n):
        for kind in (FC, RC):
            c = tower.truncate(kind, n)
            got = cc.definable_assignments(c)
            assert got == brute_assignments(c)
            assert len(got) == n + 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_pair_counts(self, n):
        c = tower.truncate(EP, n)
        got = cc.definable_assignments(c)
        assert got == brute_assignments(c)
        assert len(got) == n + 4

    def test_chain_assignments_form_a_chain(self):
        for kind in (FC, RC):
            asgs = cc.definable_assignments(tower.truncate(kind, 5))
            for a in asgs:
                for b in asgs:
                    assert all(x <= y for x, y in zip(a, b)) or all(
                        y <= x for x, y in zip(a, b)
                    )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tower.truncate(FC, 0)


class TestGadget:
    def test_four_assignments_every_nonempty_holds_apex(self):
        c = cc.Circuit(("x", "a", "b"), ((0, 0, 1), (0, 0, 2), (1, 2, 0)))
        asgs = cc.definable_assignments(c)
        assert len(asgs) == 4
        for a in asgs:
            if any(a):
                assert a[0] == 1  # apex x
        sides = {a[1:] for a in asgs if any(a)}
        assert sides == {(1, 0), (0, 1), (1, 1)}


class TestLimitSets:
    def test_forward_order(self):
        fam = tower.LimitFamily(FC)
        assert fam.leq(fam.d(2), fam.d(5))
        assert not fam.leq(fam.d(5), fam.d(2))
        assert fam.leq(fam.d(5), fam.top())
        assert fam.leq(fam.bot(), fam.d(0))

    def test_reverse_order_descending(self):
        fam = tower.LimitFamily(RC)
        assert fam.leq(fam.d(5), fam.d(2))
        assert fam.leq(fam.d(0), fam.top())
        assert fam.leq(fam.bot(), fam.d(7))

    def test_infinity_membership(self):
        fam = tower.LimitFamily(FC)
        assert not fam.d(3).contains_infinity
        assert fam.top().contains_infinity
        famr = tower.LimitFamily(RC)
        assert famr.d(3).contains_infinity
        assert not famr.bot().contains_infinity

    def test_tail_empty_has_finite_support(self):
        d = tower.LimitFamily(FC).d(4)
        assert d.tail == tower.EMPTY
        assert all(d.state(i) == tower.EMPTY for i in range(5, 40))

    def test_invalid_sequences_rejected(self):
        with pytest.raises(ValueError):
            tower.LimitSet(FC, (tower.FULL, tower.EMPTY), tower.EMPTY)
        with pytest.raises(ValueError):
            tower.LimitSet(RC, (tower.EMPTY,), tower.FULL)
        with pytest.raises(ValueError):
            tower.LimitSet(FC, (tower.E_STATE,), tower.FULL)

    def test_redundant_prefixes_canonicalize(self):
        fam = tower.LimitFamily(FC)
        assert tower.LimitSet(FC, (tower.EMPTY, tower.EMPTY), tower.EMPTY) == fam.bot()
        assert tower.LimitSet(FC, (tower.FULL,), tower.FULL) == fam.top()
        famr = tower.LimitFamily(RC)
        spelled_out = tower.LimitSet(
            RC, (tower.EMPTY, tower.E_STATE, tower.FULL), tower.FULL
        )
        assert spelled_out == famr.d(1)
        assert famr.leq(spelled_out, famr.d(0))

    def test_joins_and_meets_on_chains(self):
        fam = tower.LimitFamily(FC)
        assert fam.join(fam.d(2), fam.d(5)) == fam.d(5)
        assert fam.meet_exists(fam.d(2), fam.d(5)) == fam.d(2)
        assert fam.join(fam.d(2), fam.top()) == fam.top()
        assert fam.meet_exists(fam.bot(), fam.d(1)) == fam.bot()


class TestExactPairFamily:
    def test_no_meet(self):
        fam = tower.LimitFamily(EP)
        xa, xb = fam.side("a"), fam.side("b")
        assert fam.meet_exists(xa, xb) is None

    def test_meet_analysis(self):
        fam = tower.LimitFamily(EP)
        meet, lbs, has_max = fam.meet_analysis(fam.side("a"), fam.side("b"), 8)
        assert meet is None and not has_max
        assert len(lbs) == 9  # bottom plus eight chain sets
        for w in lbs:
            assert fam.strictly_between(w, fam.side("a"), fam.side("b")) is not None

    def test_join_of_sides_is_top(self):
        fam = tower.LimitFamily(EP)
        assert fam.join(fam.side("a"), fam.side("b")) == fam.top()

    def test_sides_incomparable_above_chain(self):
        fam = tower.LimitFamily(EP)
        xa, xb = fam.side("a"), fam.side("b")
        assert not fam.leq(xa, xb) and not fam.leq(xb, xa)
        for beta in range(4):
            assert fam.leq(fam.d(beta), xa) and fam.leq(fam.d(beta), xb)


class TestRestrict:
    def test_forward_d2_at_5(self):
        fam = tower.LimitFamily(FC)
        assert tower.restrict(fam.d(2), 5) == (1, 1, 1, 0, 0, 0)

    def test_top_bottom(self):
        for kind in (FC, RC, EP):
            fam = tower.LimitFamily(kind)
            n = 4
            top = tower.restrict(fam.top(), n)
            bot = tower.restrict(fam.bot(), n)
            assert all(x == 1 for x in top)
            assert all(x == 0 for x in bot)

    @pytest.mark.parametrize("kind", [FC, RC, EP])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_coherence(self, kind, n):
        fam = tower.LimitFamily(kind)
        asgs = set(cc.definable_assignments(tower.truncate(kind, n)))
        for d in fam.elements(10):
            assert tower.restrict(d, n) in asgs

    @pytest.mark.parametrize("kind", [FC, RC, EP])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_assignment_extends(self, kind, n):
        fam = tower.LimitFamily(kind)
        asgs = set(cc.definable_assignments(tower.truncate(kind, n)))
        assert {tower.restrict(d, n) for d in fam.elements(n + 2)} == asgs


class TestDirectedSystems:
    @staticmethod
    def _chain_stages(up_to, n=2):
        stages = []
        for k in range(1, up_to + 1):
            stages.append(cc.discretize(tower.truncate(FC, k), n).space)
        embeddings = []
        for k in range(len(stages) - 1):
            embeddings.append(tuple(range(stages[k].n)))
        return stages, embeddings

    def test_chain_stages_crisp_and_open(self):
        stages, embeddings = self._chain_stages(3)
        rep = tower.check_directed_system(stages, embeddings)
        assert rep.crisp and rep.eventually_open
        assert not rep.embedding_violations

    def test_prefix_ids_stable(self):
        stages, _ = self._chain_stages(3)
        for a, b in zip(stages, stages[1:]):
            for i in range(a.n):
                assert a.cells[i].dim == b.cells[i].dim

    def test_crisp_violation_witnessed(self):
        p1 = fs.point_space("x")
        cells = (Cell(0, 0, "x"), Cell(1, 0, "y"))
        bad = DiscreteSpace(cells, (1, 2), {(0, 1): F(1, 2)})
        rep = tower.check_directed_system([p1, bad], [(0,)])
        assert not rep.crisp
        assert rep.crisp_violations

    def test_open_stage_is_first_covering_stage(self):
        # b and x arrive at stage 1, but x's minimal open reaches y, which
        # only stage 2 adds
        cells = (Cell(0, 0, "a"), Cell(1, 0, "b"), Cell(2, 0, "x"), Cell(3, 1, "y"))
        stages = [
            fs.point_space("a"),
            DiscreteSpace(cells[:3], (0b1, 0b10, 0b100), {}),
            DiscreteSpace(cells, (0b1, 0b10, 0b1100, 0b1000), {}),
        ]
        rep = tower.check_directed_system(stages, [(0,), (0, 1, 2)])
        assert rep.crisp and rep.eventually_open
        assert rep.open_stage == (0, 1, 2, 2)

    def test_single_stage_vacuous(self):
        rep = tower.check_directed_system([fs.point_space()], [])
        assert rep.crisp and rep.eventually_open


class TestTurnFunctions:
    def test_bullets_at_integer_slices(self):
        h1, h2 = tower.default_turn_functions(8)
        assert h1(0) == 1
        for k in range(1, 9):
            if k % 2 == 1:
                assert h1(k) == 1
            else:
                assert h2(k) == 1
            assert min(h1(k), h2(k)) == F(1, k)

    def test_spec_points(self):
        h1, h2 = tower.default_turn_functions(5)
        assert h1(3) == 1 and h2(4) == 1
        assert min(h1(2), h2(2)) == F(1, 2)

    def test_positive_everywhere(self):
        h1, h2 = tower.default_turn_functions(6)
        for k in range(0, 61):
            x = F(k, 10)
            assert 0 < h1(x) <= 1 and 0 < h2(x) <= 1

    def test_breakpoint_validation(self):
        with pytest.raises(ValueError):
            tower.PiecewiseLinearFn(((F(0), F(0)),))
        with pytest.raises(ValueError):
            tower.PiecewiseLinearFn(((F(1), F(1)), (F(0), F(1))))


class TestBuildW:
    def test_constant_one_gives_crisp_copies(self):
        ones = tower.PiecewiseLinearFn(((F(0), F(1)), (F(5), F(1))))
        w = tower.build_W(sliced_base(), ones, ones)
        for (a, b), d in w.space.dist.items():
            assert w.copy_of[a] == w.copy_of[b]

    def test_third_bullet_substitution(self):
        base = sliced_base()
        h1, h2 = tower.default_turn_functions(5)
        w = tower.build_W(base, h1, h2)
        cell = next(
            i
            for i in range(w.space.n)
            if w.copy_of[i] == 0 and w.space.slices[i] == 2
        )
        partner = next(
            i
            for i in range(w.space.n)
            if w.copy_of[i] == 1 and w.base_cell[i] == w.base_cell[cell]
        )
        assert w.space.distance(cell, partner) == h1(2) == F(1, 2)

    def test_fifth_bullet_capped_sum(self):
        half = tower.PiecewiseLinearFn(((F(0), F(1, 2)), (F(5), F(1, 2))))
        w = tower.build_W(sliced_base(), half, half)
        c1 = next(i for i in range(w.space.n) if w.copy_of[i] == 1)
        c2 = next(
            i
            for i in range(w.space.n)
            if w.copy_of[i] == 2 and w.base_cell[i] == w.base_cell[c1]
        )
        assert w.space.distance(c1, c2) == 1  # min(1/2 + 1/2, 1)

    def test_validates_with_turn_functions(self):
        h1, h2 = tower.default_turn_functions(5)
        w = tower.build_W(sliced_base(), h1, h2)
        assert fs.validate(w.space) == []
        assert w.space.slices is not None

    def test_requires_slicing(self):
        ones = tower.PiecewiseLinearFn(((F(0), F(1)),))
        with pytest.raises(ValueError):
            tower.build_W(fs.point_space(), ones, ones)

    def test_definable_sets_decompose_per_copy(self):
        base = sliced_base(pairs_per_slice=1, top_slice=2)
        h1, h2 = tower.default_turn_functions(2)
        w = tower.build_W(base, h1, h2)
        n = base.n
        base_defs = fs.enumerate_definable(
            base, F(1, 4), fs.all_closed_sets(base, 1 << 20)
        )
        w_defs = fs.enumerate_definable(
            w.space, F(1, 4), fs.all_closed_sets(w.space, 1 << 20)
        )
        products = {
            d0 | (d1 << n) | (d2 << 2 * n)
            for d0 in base_defs
            for d1 in base_defs
            for d2 in base_defs
        }
        assert set(w_defs) == products


class TestCoverRadius:
    def test_default_functions_cover(self):
        h1, h2 = tower.default_turn_functions(5)
        w = tower.build_W(sliced_base(), h1, h2)
        for r in (F(1, 2), F(1, 3)):
            assert tower.check_cover_radius(w, r).ok

    def test_vacuous_when_no_high_slices(self):
        h1, h2 = tower.default_turn_functions(5)
        w = tower.build_W(sliced_base(top_slice=3), h1, h2)
        assert tower.check_cover_radius(w, F(1, 5)).ok

    def test_constant_one_fails_with_witness(self):
        ones = tower.PiecewiseLinearFn(((F(0), F(1)), (F(5), F(1))))
        w = tower.build_W(sliced_base(), ones, ones)
        rep = tower.check_cover_radius(w, F(1, 2))
        assert not rep.ok and rep.witnesses


class TestYTruncation:
    def test_two_chain_k2(self):
        m = oc.chain(2)
        yt = tower.solder_Y_truncation(m, (0, 1), 2)
        rep = tower.verify_short_circuit(yt)
        assert rep.ok
        for a in cc.definable_assignments(yt.circuit):
            if any(a):
                for node in yt.copy_nodes(1) | yt.copy_nodes(2):
                    assert a[node] == 1

    def test_v_semilattice_k3_matches_filters(self):
        m = oc.v_semilattice()
        yt = tower.solder_Y_truncation(m, (0, 1, 2), 3)
        assert tower.verify_short_circuit(yt).ok
        asgs = cc.definable_assignments(yt.circuit)
        assert len(asgs) == len(oc.filters(m, include_empty=True))

    def test_bottom_assignment_all_empty(self):
        m = oc.v_semilattice()
        yt = tower.solder_Y_truncation(m, (0, 1, 2), 3)
        assert tuple([0] * yt.circuit.n) in cc.definable_assignments(yt.circuit)


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def random_sliced_spaces(draw):
    n_slices = draw(st.integers(min_value=1, max_value=4))
    per = draw(st.integers(min_value=1, max_value=3))
    cells, min_open, dist, slices = [], [], {}, []
    i = 0
    for s in range(n_slices):
        ids = []
        for _ in range(per):
            cells.append(Cell(i, 0, f"s{s}c{i}"))
            min_open.append(1 << i)
            slices.append(F(s))
            ids.append(i)
            i += 1
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                d = draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1)]))
                if d < 1:
                    dist[(ids[a], ids[b])] = d
    return DiscreteSpace(tuple(cells), tuple(min_open), dist, tuple(slices), F(1, 4))


@settings(max_examples=60, deadline=None)
@given(random_sliced_spaces(), st.integers(0, 3), st.integers(0, 3))
def test_build_w_preserves_metric_laws(base, i1, i2):
    # the turn-taking metric keeps the triangle inequality and crisp slicing
    # whenever the base is itself a valid sliced space
    if fs.validate(base):
        return
    pool = [
        tower.PiecewiseLinearFn(((F(0), F(1)),)),
        tower.PiecewiseLinearFn(((F(0), F(1, 2)), (F(3), F(1, 2)))),
        tower.PiecewiseLinearFn(((F(0), F(1)), (F(1), F(1, 4)), (F(3), F(1)))),
        tower.default_turn_functions(4)[0],
    ]
    w = tower.build_W(base, pool[i1], pool[i2])
    assert fs.validate(w.space) == []
