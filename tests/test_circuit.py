from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc import circuit as cc
from latcirc import finspace as fs
from latcirc import gate
from latcirc import order_core as oc


def brute_assignments(c):
    """Independent oracle: scan every 0/1 map against every gate."""
    out = []
    for bits in product((0, 1), repeat=c.n):
        if all(not (bits[i] == 0 and bits[j] == 0 and bits[k] == 1) for i, j, k in c.gates):
            out.append(bits)
    return sorted(out)


def count_triples(lat):
    lm = lat.nontop()
    return sum(
        1
        for a in lm
        for b in lm
        for c in lm
        if lat.leq(lat.meet[a][b], c)
    )


class TestBuildFull:
    def test_two_element(self):
        c = cc.build_full(oc.chain(2))
        assert c.n == 1 and c.gates == ((0, 0, 0),)

    def test_three_chain_seven_gates(self):
        lat = oc.chain(3)
        c = cc.build_full(lat)
        assert c.n == 2 and len(c.gates) == 7
        # all 8 index triples except (m, m, 0)
        assert (1, 1, 0) not in c.gates

    def test_n5_matches_independent_count(self):
        lat = oc.n5()
        c = cc.build_full(lat)
        assert c.n == 4
        assert len(c.gates) == count_triples(lat)

    def test_trivial_lattice_rejected(self):
        with pytest.raises(ValueError):
            cc.build_full(oc.chain(1))


class TestIsAdequate:
    def test_all_triples_adequate(self):
        lat = oc.n5()
        assert cc.is_adequate(lat, cc.qualifying_triples(lat))

    def test_four_triple_presentation(self):
        lat = oc.n5()
        idx = {e: i for i, e in enumerate(lat.elements)}
        four = [
            (idx["0"], idx["0"], idx["a"]),
            (idx["0"], idx["0"], idx["b"]),
            (idx["b"], idx["b"], idx["c"]),
            (idx["a"], idx["c"], idx["0"]),
        ]
        assert cc.is_adequate(lat, four)

    def test_empty_not_adequate_for_chain(self):
        assert not cc.is_adequate(oc.chain(3), [])

    def test_adequate_iff_same_assignments(self):
        # brute-force cross-check of the adequacy notion on the 3-chain
        lat = oc.chain(3)
        all_triples = cc.qualifying_triples(lat)
        full = set(brute_assignments(cc.build_full(lat)))
        for mask in range(1 << len(all_triples)):
            subset = [all_triples[k] for k in range(len(all_triples)) if mask >> k & 1]
            sub_circuit = cc.Circuit(
                ("x0", "x1"), tuple(subset)
            )
            same = set(brute_assignments(sub_circuit)) == full
            assert cc.is_adequate(lat, subset) == same


class TestBuildMinimal:
    def test_n5_exact_is_four(self):
        c = cc.build_minimal(oc.n5(), "exact")
        assert len(c.gates) == 4

    def test_n5_nothing_smaller(self):
        assert not cc.smaller_adequate_exists(oc.n5(), 4)

    def test_three_chain(self):
        c = cc.build_minimal(oc.chain(3), "exact")
        assert c.gates == ((0, 0, 1),)

    def test_two_element_needs_nothing(self):
        c = cc.build_minimal(oc.chain(2), "exact")
        assert c.gates == ()

    def test_greedy_is_adequate(self):
        lat = oc.n5()
        c = cc.build_minimal(lat, "greedy")
        triples = c.origin[2]
        assert cc.is_adequate(lat, triples)


def _lattice(elements, covers):
    return oc.as_lattice(
        oc.poset_from_pairs(list(elements), [tuple(c) for c in covers.split()])
    )


# One lattice per isomorphism class of 2 to 5 elements, with the minimum
# presentation size an exhaustive subset search gives for it.
MINIMUM_SIZES = [
    ("chain2", oc.chain(2), 0),
    ("chain3", oc.chain(3), 1),
    ("chain4", oc.chain(4), 2),
    ("b2", _lattice("0ab1", "0a 0b a1 b1"), 3),
    ("chain5", oc.chain(5), 3),
    ("m3", oc.m3(), 5),
    ("n5", oc.n5(), 4),
    ("b2_low", _lattice("0tab1", "0t ta tb a1 b1"), 4),
    ("b2_high", _lattice("0abt1", "0a 0b at bt t1"), 5),
]
# the exhaustive check below size 5 takes well over a second on these two
EXHAUSTIVE_TOO_SLOW = {"m3", "b2_high"}


class TestExactMinimal:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_corpus_sizes(self, k):
        for lat in oc.all_lattices_up_to_iso(k):
            [(name, size)] = [
                (name, size)
                for name, ref, size in MINIMUM_SIZES
                if oc.iso(lat, ref) is not None
            ]
            c = cc.build_minimal(lat, "exact")
            assert len(c.gates) == size, name
            assert cc.is_adequate(lat, c.origin[2])
            if name not in EXHAUSTIVE_TOO_SLOW:
                assert not cc.smaller_adequate_exists(lat, size)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_chain_is_one_rule_per_cover(self, k):
        # the only minimum, so discretized chain circuits keep their gates
        c = cc.build_minimal(oc.chain(k), "exact")
        assert c.origin[2] == tuple((i, i, i + 1) for i in range(k - 2))

    def test_triples_in_qualifying_order(self):
        lat = oc.m3()
        triples = cc.build_minimal(lat, "exact").origin[2]
        order = cc.qualifying_triples(lat)
        assert list(triples) == sorted(triples, key=order.index)


class TestDefinableAssignments:
    @pytest.mark.parametrize(
        "lat,count", [(oc.chain(2), 2), (oc.chain(3), 3), (oc.n5(), 5), (oc.m3(), 5)]
    )
    def test_counts(self, lat, count):
        c = cc.build_full(lat)
        got = cc.definable_assignments(c)
        assert got == brute_assignments(c)
        assert len(got) == count

    @pytest.mark.parametrize("lat", [oc.chain(2), oc.chain(4), oc.n5(), oc.m3()])
    def test_off_sets_biject_with_filters(self, lat):
        m = lat.as_meet_semilattice()
        c = cc.build_full(lat)
        lm = lat.nontop()
        off_sets = {
            frozenset(lm[i] for i in range(c.n) if a[i] == 0) | {lat.top}
            for a in cc.definable_assignments(c)
        }
        assert off_sets == set(oc.filters(m))

    def test_adequacy_invariance(self):
        lat = oc.n5()
        assert cc.definable_assignments(cc.build_full(lat)) == cc.definable_assignments(
            cc.build_minimal(lat, "exact")
        )


class TestSemilattice:
    def test_two_element_chain(self):
        rep = cc.semilattice(cc.build_full(oc.chain(2)))
        assert len(rep.assignments) == 2
        assert rep.leq(rep.bottom, rep.top)

    def test_n5_report_iso_to_n5(self):
        rep = cc.semilattice(cc.build_full(oc.n5()))
        assert oc.iso(rep.as_lattice(), oc.n5()) is not None

    def test_minimal_report_identical(self):
        lat = oc.n5()
        assert cc.semilattice(cc.build_full(lat)) == cc.semilattice(
            cc.build_minimal(lat, "exact")
        )

    def test_join_is_pointwise_max(self):
        rep = cc.semilattice(cc.build_full(oc.m3()))
        for i, a in enumerate(rep.assignments):
            for j, b in enumerate(rep.assignments):
                k = rep.join_table[i][j]
                assert rep.assignments[k] == tuple(
                    max(x, y) for x, y in zip(a, b)
                )


class TestVerifyIso:
    def test_n5(self):
        lat = oc.n5()
        assert cc.verify_iso(lat, cc.build_full(lat)).ok

    def test_all_small_lattices(self):
        for n in range(2, 8):
            for lat in oc.all_lattices_up_to_iso(n):
                res = cc.verify_iso(lat, cc.build_full(lat))
                assert res.ok, res.witness

    def test_inadequate_circuit_witness(self):
        lat = oc.chain(3)
        bare = cc.Circuit(("x0", "x1"), ())
        res = cc.verify_iso(lat, bare)
        assert not res.ok
        assert "extra assignment" in res.witness


class TestDiscretize:
    def test_two_element_merges_all_terminals(self):
        dc = cc.discretize(cc.build_full(oc.chain(2)), 4)
        assert dc.space.n == gate.discretize(4).space.n - 2
        assert len(dc.terminals) == 1
        res = gate.oracle(dc)
        assert res.pattern_set == {(0,), (1,)}

    def test_three_chain_minimal_oracle(self):
        c = cc.build_minimal(oc.chain(3), "exact")
        dc = cc.discretize(c, 8)
        res = gate.oracle(dc)
        assert len(res.definable) == 3
        assert res.pattern_set == set(cc.definable_assignments(c))

    def test_gateless_circuit_rejected(self):
        with pytest.raises(ValueError):
            cc.discretize(cc.Circuit(("x",), ()), 4)

    def test_two_gate_chain_oracle_matches_symbolic(self):
        # a full cross-check of the soldered two-gate space
        two = cc.Circuit(("p", "q", "r", "s", "t"), ((0, 1, 2), (2, 3, 4)))
        dc = cc.discretize(two, 3)
        res = gate.oracle(dc, budget=1 << 24)
        symbolic = set(cc.definable_assignments(two))
        assert res.pattern_set == symbolic
        assert len(res.definable) == len(symbolic) == 24

    def test_budget_guard(self):
        two = cc.Circuit(("p", "q", "r", "s", "t"), ((0, 1, 2), (2, 3, 4)))
        with pytest.raises(fs.BudgetExceeded):
            gate.oracle(cc.discretize(two, 3))

    def test_assignment_join_is_set_union_downstairs(self):
        # pointwise max of assignments realizes the union of the cell sets
        c = cc.build_minimal(oc.chain(3), "exact")
        dc = cc.discretize(c, 6)
        res = gate.oracle(dc)
        by_pattern = dict(zip(res.patterns, res.definable))
        for p, dp in by_pattern.items():
            for q, dq in by_pattern.items():
                j = tuple(max(x, y) for x, y in zip(p, q))
                assert by_pattern[j] == dp | dq


class TestCircuitJson:
    def test_round_trip(self):
        c = cc.build_minimal(oc.n5(), "exact")
        back = cc.circuit_from_json(cc.circuit_to_json(c))
        assert back.nodes == c.nodes and back.gates == c.gates


class TestBuildY0:
    def test_three_chain_k2(self):
        m = oc.chain(3).as_meet_semilattice()
        c = cc.build_Y0(m, (0, 1, 2), 2)
        assert c.n == 2
        assert set(c.gates) == {
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)
        }

    def test_k1_single_rail(self):
        m = oc.v_semilattice()
        c = cc.build_Y0(m, (0, 1, 2), 1)
        assert c.n == 1 and c.gates == ((0, 0, 0),)

    def test_v_semilattice_k3_matches_filters(self):
        m = oc.v_semilattice()
        c = cc.build_Y0(m, (0, 1, 2), 3)
        assert cc.y0_assignment_offsets(c) == cc.truncated_filters(m, (0, 1, 2), 3)
        assert len(cc.definable_assignments(c)) == 4

    def test_enumeration_must_start_at_bottom(self):
        m = oc.v_semilattice()
        with pytest.raises(ValueError, match="bottom"):
            cc.build_Y0(m, (1, 0, 2), 2)

    def test_filter_monotone_and_joins(self):
        m = oc.v_semilattice()
        enumeration = (0, 1, 2)
        k = 3
        c = cc.build_Y0(m, enumeration, k)

        def assignment_of(f):
            return tuple(0 if enumeration[i] in f else 1 for i in range(k))

        fls = oc.filters(m, include_empty=True)
        for f in fls:
            for g in fls:
                if f <= g:
                    af, ag = assignment_of(f), assignment_of(g)
                    assert all(x >= y for x, y in zip(af, ag))
        asgs = set(cc.definable_assignments(c))
        for f in fls:
            assert assignment_of(f) in asgs
        for a in asgs:
            for b in asgs:
                assert tuple(max(x, y) for x, y in zip(a, b)) in asgs


@st.composite
def random_circuits(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    n_gates = draw(st.integers(min_value=0, max_value=8))
    gates = tuple(
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
        )
        for _ in range(n_gates)
    )
    return cc.Circuit(tuple(f"n{i}" for i in range(n)), gates)


@settings(max_examples=80, deadline=None)
@given(random_circuits())
def test_closure_enumeration_matches_brute_force(c):
    assert cc.definable_assignments(c) == brute_assignments(c)


@settings(max_examples=80, deadline=None)
@given(random_circuits())
def test_assignments_closed_under_pointwise_max(c):
    asgs = set(cc.definable_assignments(c))
    for a in asgs:
        for b in asgs:
            assert tuple(max(x, y) for x, y in zip(a, b)) in asgs
