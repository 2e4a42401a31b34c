from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from latcirc import circuit as cc
from latcirc import finspace as fs
from latcirc import order_core as oc
from latcirc import tower
from latcirc.finspace import Cell, DiscreteSpace
from latcirc.tower import TowerKind
from references import all_closed_sets, all_pairs_build_W, limit_state, same_space, sliced_base

FC = TowerKind.FORWARD_CHAIN
RC = TowerKind.REVERSE_CHAIN
EP = TowerKind.EXACT_PAIR


def brute_assignments(c):
    return sorted(
        bits
        for bits in product((0, 1), repeat=c.n)
        if all(not (bits[i] == 0 and bits[j] == 0 and bits[k] == 1) for i, j, k in c.gates)
    )


def spelled(c):
    return [cc.spell(a, c.n) for a in cc.definable_assignments(c)]


# The tuple gate check restrict used before assignments became masks, kept
# as the reference for its shift check.
def satisfies(gates, a) -> bool:
    """Whether ``a`` obeys every gate triple (i, j, k): x_i, x_j off => x_k off."""
    return all(
        not (a[i] == 0 and a[j] == 0 and a[k] == 1) for i, j, k in gates
    )


def least_upper_bound(fam, u, v, depth=8):
    """The join of u and v read off the order: the one sampled upper bound
    of both that lies below every other."""
    ups = [w for w in fam.elements(depth) if fam.leq(u, w) and fam.leq(v, w)]
    [least] = [w for w in ups if all(fam.leq(w, x) for x in ups)]
    return least


class TestTruncate:
    def test_forward_one(self):
        c = tower.truncate(FC, 1)
        assert c.n == 2 and c.gates == ((0, 0, 1),)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chain_counts(self, n):
        for kind in (FC, RC):
            c = tower.truncate(kind, n)
            got = spelled(c)
            assert got == brute_assignments(c)
            assert len(got) == n + 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_pair_counts(self, n):
        c = tower.truncate(EP, n)
        got = spelled(c)
        assert got == brute_assignments(c)
        assert len(got) == n + 4

    def test_chain_assignments_form_a_chain(self):
        for kind in (FC, RC):
            asgs = cc.definable_assignments(tower.truncate(kind, 5))
            for a in asgs:
                for b in asgs:
                    assert a | b in (a, b)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tower.truncate(FC, 0)


class TestGadget:
    def test_four_assignments_every_nonempty_holds_apex(self):
        c = cc.Circuit(("x", "a", "b"), ((0, 0, 1), (0, 0, 2), (1, 2, 0)))
        asgs = spelled(c)
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
        assert all(limit_state(d, i) == tower.EMPTY for i in range(5, 40))

    def test_invalid_sequences_rejected(self):
        with pytest.raises(ValueError, match="tail state"):
            tower.LimitSet(FC, tower.E_STATE)
        # a breakpoint with the wrong tail for its chain
        with pytest.raises(ValueError, match="needs tail 'empty'"):
            tower.LimitSet(FC, tower.FULL, 2)
        with pytest.raises(ValueError, match="needs tail 'full'"):
            tower.LimitSet(RC, tower.EMPTY, 0)
        with pytest.raises(ValueError, match="needs tail 'empty'"):
            tower.LimitSet(EP, tower.FULL, 1, (1, 1))
        for kind in (FC, RC, EP):
            with pytest.raises(ValueError, match="breakpoint must be >= 0"):
                tower.LimitFamily(kind).d(-1)
        with pytest.raises(ValueError, match="require the whole chain"):
            tower.LimitSet(EP, tower.EMPTY, 3, (1, 0))
        with pytest.raises(ValueError, match="nonempty gadget side"):
            tower.LimitSet(EP, tower.FULL)
        with pytest.raises(ValueError, match="only exact-pair sets"):
            tower.LimitSet(FC, tower.FULL, gadget=(0, 1))

    def test_redundant_prefixes_canonicalize(self):
        fam = tower.LimitFamily(FC)
        assert tower.LimitSet(FC, tower.EMPTY) == fam.bot()
        assert tower.LimitSet(FC, tower.FULL) == fam.top()
        assert tower.LimitSet(FC, tower.EMPTY, 4) == fam.d(4) != fam.d(3)
        famr = tower.LimitFamily(RC)
        spelled_out = tower.LimitSet(RC, tower.FULL, 1)
        assert spelled_out == famr.d(1) and hash(spelled_out) == hash(famr.d(1))
        assert famr.leq(spelled_out, famr.d(0))
        assert not famr.leq(famr.d(0), spelled_out)

    def test_joins_and_meets_on_chains(self):
        fam = tower.LimitFamily(FC)
        assert least_upper_bound(fam, fam.d(2), fam.d(5)) == fam.d(5)
        assert fam.meet_exists(fam.d(2), fam.d(5)) == fam.d(2)
        assert least_upper_bound(fam, fam.d(2), fam.top()) == fam.top()
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
        assert least_upper_bound(fam, fam.side("a"), fam.side("b")) == fam.top()

    def test_sides_incomparable_above_chain(self):
        fam = tower.LimitFamily(EP)
        xa, xb = fam.side("a"), fam.side("b")
        assert not fam.leq(xa, xb) and not fam.leq(xb, xa)
        for beta in range(4):
            assert fam.leq(fam.d(beta), xa) and fam.leq(fam.d(beta), xb)


class TestRestrict:
    def test_forward_d2_at_5(self):
        fam = tower.LimitFamily(FC)
        assert cc.spell(tower.restrict(fam.d(2), 5), 6) == (1, 1, 1, 0, 0, 0)

    def test_top_bottom(self):
        for kind in (FC, RC, EP):
            fam = tower.LimitFamily(kind)
            n = 4
            nodes = tower.truncate(kind, n).n
            assert tower.restrict(fam.top(), n) == (1 << nodes) - 1
            assert tower.restrict(fam.bot(), n) == 0

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

    @pytest.mark.parametrize("kind", [FC, RC, EP])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_gate_check_matches_satisfies(self, kind, n):
        c = tower.truncate(kind, n)
        for mem in range(1 << c.n):
            assert tower._obeys_gates(kind, n, mem) == satisfies(c.gates, cc.spell(mem, c.n))

    def test_violation_spelled_as_tuple(self, monkeypatch):
        monkeypatch.setattr(tower, "_obeys_gates", lambda kind, n, mem: False)
        with pytest.raises(AssertionError) as exc:
            tower.restrict(tower.LimitFamily(EP).d(1), 2)
        assert str(exc.value) == "restriction (1, 1, 0, 0, 0) violates the truncation gates"


# The state-by-state restriction the breakpoint form replaced, kept verbatim
# with its per-gate terminal tables as a reference.
_G_IN = {tower.FULL: 1, tower.E_STATE: 1, tower.EMPTY: 0}
_OUT_IN = {tower.FULL: 1, tower.E_STATE: 0, tower.EMPTY: 0}


def state_walk_restrict(d, n):
    kind = d.kind
    if kind is TowerKind.FORWARD_CHAIN:
        mem = [_G_IN[limit_state(d, i)] for i in range(n)]
        mem.append(_OUT_IN[limit_state(d, n - 1)])
    elif kind is TowerKind.REVERSE_CHAIN:
        mem = [_OUT_IN[limit_state(d, i)] for i in range(n)]
        mem.append(_G_IN[limit_state(d, n - 1)])
    else:
        chain_full = d.tail == tower.FULL
        mem = [_G_IN[limit_state(d, i)] if not chain_full else 1 for i in range(n)]
        mem.append(1 if chain_full else 0)
        mem += [d.gadget[0], d.gadget[1]]
    return tuple(mem)


def soldered(kind, seq):
    """Whether adjacent gate states agree on their shared vertex."""
    for s, t in zip(seq, seq[1:]):
        if kind is TowerKind.REVERSE_CHAIN:
            ok = _G_IN[s] == _OUT_IN[t]  # gate i's g is gate i+1's out
        else:
            ok = _OUT_IN[s] == _G_IN[t]  # gate i's out is gate i+1's g
        if not ok:
            return False
    return True


class TestBreakpointForm:
    @pytest.mark.parametrize("kind", [FC, RC, EP])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_restrict_matches_state_walk(self, kind, n):
        for d in tower.LimitFamily(kind).elements(n + 3):
            want = state_walk_restrict(d, n)
            assert cc.spell(tower.restrict(d, n), len(want)) == want

    @pytest.mark.parametrize("kind", [FC, RC, EP])
    def test_soldered_sequences_are_limit_sets(self, kind):
        # a prefix of up to six states, then the tail forever: soldered
        # exactly when some LimitSet (constant or one breakpoint) has them
        states = (tower.EMPTY, tower.E_STATE, tower.FULL)
        for length in range(7):
            for prefix in product(states, repeat=length):
                for tail in (tower.EMPTY, tower.FULL):
                    seq = list(prefix) + [tail, tail]
                    gadget = (1, 1) if kind is EP and tail == tower.FULL else (0, 0)
                    shapes = []
                    for beta in [None, *range(length + 1)]:
                        try:
                            shapes.append(tower.LimitSet(kind, tail, beta, gadget))
                        except ValueError:
                            pass
                    has = any(
                        all(limit_state(u, i) == x for i, x in enumerate(seq))
                        for u in shapes
                    )
                    assert has == soldered(kind, seq), (kind, seq)


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
            base, F(1, 4), all_closed_sets(base)
        )
        w_defs = fs.enumerate_definable(
            w.space, F(1, 4), all_closed_sets(w.space)
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
        for a in spelled(yt.circuit):
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
        assert 0 in cc.definable_assignments(yt.circuit)

    def test_offending_assignment_spelled_as_tuple(self):
        # two free nodes, node 1 the one side node of both side copies
        yt = tower.YTruncation(cc.Circuit(("p", "q"), ()), (0, 1, 1), 1)
        rep = tower.verify_short_circuit(yt)
        assert not rep.ok and rep.offending == ((1, 0), 1)


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


class TestDirectedSystemEmbeddingRange:
    def test_out_of_range_id_raises_value_error(self):
        two = DiscreteSpace((Cell(0, 0), Cell(1, 0)), (1, 2), {})
        with pytest.raises(ValueError, match=r"embedding 0 sends cell 0 to 5"):
            tower.check_directed_system([fs.point_space(), two], [(5,)])

    def test_negative_id_raises_value_error(self):
        two = DiscreteSpace((Cell(0, 0), Cell(1, 0)), (1, 2), {})
        point = fs.point_space()
        with pytest.raises(ValueError, match=r"embedding 1 sends cell 1 to -1"):
            tower.check_directed_system([point, two, two], [(0,), (0, -1)])

    def test_short_embedding_raises_value_error(self):
        two = DiscreteSpace((Cell(0, 0), Cell(1, 0)), (1, 2), {})
        with pytest.raises(ValueError, match=r"embedding 0 has 1 entries for the 2 cells"):
            tower.check_directed_system([two, two], [(0,)])

    def test_long_embedding_raises_value_error(self):
        two = DiscreteSpace((Cell(0, 0), Cell(1, 0)), (1, 2), {})
        point = fs.point_space()
        with pytest.raises(ValueError, match=r"embedding 1 has 2 entries for the 1 cells"):
            tower.check_directed_system([point, point, two], [(0,), (0, 1)])


# The all-pairs loops the sparse metric checks replaced, kept verbatim as
# references: every report must stay the same on every input.


def all_pairs_directed_system(stages, embeddings):
    emb_viol = []
    for k, emb in enumerate(embeddings):
        a, b = stages[k], stages[k + 1]
        if len(emb) != a.n:
            emb_viol.append(f"embedding {k} has wrong domain size")
            continue
        for i in range(a.n):
            for j in range(i + 1, a.n):
                if a.distance(i, j) != b.distance(emb[i], emb[j]):
                    emb_viol.append(f"embedding {k} distorts d({i},{j})")
    last = stages[-1]
    images = []
    for k in range(len(stages)):
        ids = list(range(stages[k].n))
        for emb in embeddings[k:]:
            ids = [emb[i] for i in ids]
        images.append(fs.cellset(ids))
    crisp_viol = []
    for k in range(len(stages) - 1):
        img = images[k]
        for (x, y), dval in last.dist.items():
            if bool(img >> x & 1) != bool(img >> y & 1):
                crisp_viol.append(
                    f"stage {k} image not crisp: d({x},{y})={dval} crosses it"
                )
    interiors = [fs.interior(last, img) for img in images]
    open_stage = []
    ok_open = True
    for cell in range(last.n):
        first = -1
        for k, inner in enumerate(interiors):
            if inner >> cell & 1:
                first = k
                break
        if first < 0:
            ok_open = False
        open_stage.append(first)
    return tower.DirectedSystemReport(
        not crisp_viol, ok_open, tuple(crisp_viol), tuple(emb_viol), tuple(open_stage)
    )


def all_pairs_cover_radius(w, r):
    s = w.space
    bad = []
    for c in range(s.n):
        if w.copy_of[c] != 0:
            continue
        v = s.slices[c]
        if v * r <= 1:
            continue
        best = F(1)
        for other in range(s.n):
            if w.copy_of[other] in (1, 2):
                d = s.distance(c, other)
                if d < best:
                    best = d
        if not best < r:
            bad.append((c, best))
    return tower.CoverReport(not bad, tuple(bad))


DISTANCES = [None, F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]


@st.composite
def random_stage(draw, n):
    """n cells with a random preorder base and any stored distances in (0, 1]."""
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.integers(0, 3)) == 0:
                up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = draw(st.sampled_from(DISTANCES))
            if d is not None:
                dist[(i, j)] = d
    return DiscreteSpace(tuple(Cell(i, 0) for i in range(n)), tuple(up), dist)


@st.composite
def directed_systems(draw):
    """Stages joined by random, shuffled or non-injective embeddings.

    A transported stage copies the earlier stage's distances along an
    injective embedding, then overwrites a few pairs, so both clean and
    distorted embeddings occur, among them pairs stored in the later stage
    whose preimage is at distance 1.
    """
    sizes = [draw(st.integers(1, 5))]
    for _ in range(draw(st.integers(0, 3))):
        sizes.append(draw(st.integers(1, 6)))
    stages = [draw(random_stage(sizes[0]))]
    embeddings = []
    for k in range(1, len(sizes)):
        a, m = stages[-1], sizes[k]
        b = draw(random_stage(m))
        if m >= a.n and draw(st.booleans()):
            emb = tuple(draw(st.permutations(range(m)))[: a.n])
            if draw(st.booleans()):
                dist = {}
                for (i, j), d in a.dist.items():
                    x, y = sorted((emb[i], emb[j]))
                    dist[(x, y)] = d
                for (x, y), d in b.dist.items():
                    if draw(st.integers(0, 3)) == 0:
                        dist[(x, y)] = d
                b = replace(b, dist=dict(sorted(dist.items())))
        else:
            emb = tuple(draw(st.lists(st.integers(0, m - 1), min_size=a.n, max_size=a.n)))
        stages.append(b)
        embeddings.append(emb)
    return stages, embeddings


@settings(max_examples=200, deadline=None)
@given(directed_systems())
def test_directed_system_matches_all_pairs_reference(system):
    stages, embeddings = system
    got = tower.check_directed_system(stages, embeddings)
    assert got == all_pairs_directed_system(stages, embeddings)


@st.composite
def loose_sliced_spaces(draw):
    """Sliced spaces whose stored distances may cross slices or reach 1."""
    n = draw(st.integers(1, 8))
    top = draw(st.integers(0, 3))
    slices = tuple(F(draw(st.integers(0, top))) for _ in range(n))
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            same = slices[i] == slices[j]
            if draw(st.integers(0, 2 if same else 8)) == 0:
                continue
            if same or draw(st.integers(0, 5)) == 0:
                dist[(i, j)] = draw(st.sampled_from(DISTANCES[1:]))
    cells = tuple(Cell(i, 0, None if i % 2 else f"t{i}") for i in range(n))
    return DiscreteSpace(cells, tuple(1 << i for i in range(n)), dist, slices, F(1, 4))


TURN_POOL = [
    tower.PiecewiseLinearFn(((F(0), F(1)),)),
    tower.PiecewiseLinearFn(((F(0), F(1, 2)), (F(3), F(1, 2)))),
    tower.PiecewiseLinearFn(((F(0), F(1)), (F(1), F(1, 4)), (F(3), F(1)))),
    tower.default_turn_functions(4)[0],
    tower.default_turn_functions(4)[1],
]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(random_sliced_spaces(), loose_sliced_spaces()),
    st.sampled_from(TURN_POOL),
    st.sampled_from(TURN_POOL),
    st.sampled_from([F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]),
)
def test_build_w_and_cover_match_all_pairs_reference(base, f1, f2, r):
    w = tower.build_W(base, f1, f2)
    ref = all_pairs_build_W(base, f1, f2)
    assert list(w.space.dist.items()) == list(ref.space.dist.items())
    assert same_space(w.space, ref.space)
    assert (w.copy_of, w.base_cell) == (ref.copy_of, ref.base_cell)
    assert tower.check_cover_radius(w, r) == all_pairs_cover_radius(ref, r)
