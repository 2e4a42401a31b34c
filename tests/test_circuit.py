from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc import circuit as cc
from latcirc import finspace as fs
from latcirc import gate
from latcirc import order_core as oc
from references import closure_system_lattice, m3, partner_horn_closure, template_table


def brute_assignments(c):
    """Independent oracle: scan every 0/1 map against every gate."""
    out = []
    for bits in product((0, 1), repeat=c.n):
        if all(not (bits[i] == 0 and bits[j] == 0 and bits[k] == 1) for i, j, k in c.gates):
            out.append(bits)
    return sorted(out)


def spelled(c):
    """The circuit's definable assignments, each spelled as its 0/1 tuple."""
    return [cc.spell(a, c.n) for a in cc.definable_assignments(c)]


def assignment_lattice(c):
    """The circuit's definable assignments ordered by inclusion."""
    asgs = cc.definable_assignments(c)
    return oc.inclusion_lattice(["".join(map(str, cc.spell(a, c.n))) for a in asgs], asgs)


def count_triples(lat):
    lm = lat.nontop()
    return sum(
        1
        for a in lm
        for b in lm
        for c in lm
        if lat.leq(lat.meet[a][b], c)
    )


class TestCircuit:
    @pytest.mark.parametrize(
        "gates,bad", [(((0, 1, 2), (0, -1, 1)), "(0, 1, 2)"), (((0, -1, 1), (0, 1, 2)), "(0, -1, 1)")]
    )
    def test_first_bad_gate_named(self, gates, bad):
        with pytest.raises(ValueError) as exc:
            cc.Circuit(("a", "b"), gates)
        assert str(exc.value) == f"gate {bad} references an unknown node"


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

    @pytest.mark.parametrize("k", range(2, 8))
    def test_gates_are_the_reindexed_qualifying_triples(self, k):
        for lat in oc.all_lattices_up_to_iso(k):
            want = cc._reindex(lat, cc.qualifying_triples(lat))
            assert cc.build_full(lat).gates == want

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_16_element_gates(self, seed):
        lat = closure_system_lattice(seed, 6, 16)
        assert cc.build_full(lat).gates == cc._reindex(lat, cc.qualifying_triples(lat))

    @pytest.mark.slow
    def test_40_element_closure_system_verifies(self):
        lat = closure_system_lattice(40, 10, 40)
        c = cc.build_full(lat)
        res = cc.verify_iso(lat, c)
        assert res.ok, res.witness
        assert len(res.assignments) == 40
        rules = [(i, j, 1 << k) for i, j, k in c.gates]
        want = oc.closed_sets(c.n, partner_horn_closure(c.n, rules))
        assert oc.closed_sets(c.n, oc.horn_closure(c.n, rules)) == want


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
        c = cc.build_minimal(oc.n5())
        assert len(c.gates) == 4

    def test_n5_nothing_smaller(self):
        assert not cc.smaller_adequate_exists(oc.n5(), 4)

    def test_three_chain(self):
        c = cc.build_minimal(oc.chain(3))
        assert c.gates == ((0, 0, 1),)

    def test_two_element_needs_nothing(self):
        c = cc.build_minimal(oc.chain(2))
        assert c.gates == ()


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
    ("m3", m3(), 5),
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
            c = cc.build_minimal(lat)
            assert len(c.gates) == size, name
            assert cc.is_adequate(lat, c.origin[2])
            if name not in EXHAUSTIVE_TOO_SLOW:
                assert not cc.smaller_adequate_exists(lat, size)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_chain_is_one_rule_per_cover(self, k):
        # the only minimum, so discretized chain circuits keep their gates
        c = cc.build_minimal(oc.chain(k))
        assert c.origin[2] == tuple((i, i, i + 1) for i in range(k - 2))

    def test_triples_in_qualifying_order(self):
        lat = m3()
        triples = cc.build_minimal(lat).origin[2]
        order = cc.qualifying_triples(lat)
        assert list(triples) == sorted(triples, key=order.index)


class TestDefinableAssignments:
    @pytest.mark.parametrize(
        "lat,count", [(oc.chain(2), 2), (oc.chain(3), 3), (oc.n5(), 5), (m3(), 5)]
    )
    def test_counts(self, lat, count):
        c = cc.build_full(lat)
        got = spelled(c)
        assert got == brute_assignments(c)
        assert len(got) == count

    @pytest.mark.parametrize("k", range(2, 7))
    def test_full_presentations_match_brute_force(self, k):
        for lat in oc.all_lattices_up_to_iso(k):
            c = cc.build_full(lat)
            assert spelled(c) == brute_assignments(c)

    @pytest.mark.parametrize("lat", [oc.chain(2), oc.chain(4), oc.n5(), m3()])
    def test_off_sets_biject_with_filters(self, lat):
        m = lat
        c = cc.build_full(lat)
        lm = lat.nontop()
        off_sets = {
            frozenset(lm[i] for i in range(c.n) if not a >> i & 1) | {lat.top}
            for a in cc.definable_assignments(c)
        }
        assert off_sets == set(oc.filters(m))

    def test_adequacy_invariance(self):
        lat = oc.n5()
        assert cc.definable_assignments(cc.build_full(lat)) == cc.definable_assignments(
            cc.build_minimal(lat)
        )


class TestSemilattice:
    def test_two_element_chain(self):
        lat = assignment_lattice(cc.build_full(oc.chain(2)))
        assert lat.n == 2
        assert lat.leq(lat.bottom, lat.top)

    def test_n5_report_iso_to_n5(self):
        lat = assignment_lattice(cc.build_full(oc.n5()))
        assert oc.iso(lat, oc.n5()) is not None

    @pytest.mark.parametrize("k", range(2, 7))
    def test_corpus_reports_iso_to_their_lattice(self, k):
        for lat in oc.all_lattices_up_to_iso(k):
            assert oc.iso(assignment_lattice(cc.build_full(lat)), lat) is not None

    def test_join_is_pointwise_max(self):
        asgs = set(cc.definable_assignments(cc.build_full(m3())))
        for a in asgs:
            for b in asgs:
                assert a | b in asgs


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
        assert res.witness == "extra assignment (0, 1) matches no lattice element"

    @pytest.mark.parametrize(
        "lat,c,witness",
        [
            # a mask does not say how many nodes it spans: D_c0 is 0 for
            # every circuit, and still no assignment of a wrong-sized one
            (oc.chain(3), cc.Circuit(("x0", "x1", "x2"), ()),
             "D_c0 = (0, 0) is not an assignment"),
            (oc.chain(3), cc.Circuit(("x0",), ()), "D_c0 = (0, 0) is not an assignment"),
            (oc.n5(), cc.Circuit(tuple("abcd"), ((0, 1, 2),)),
             "extra assignment (0, 0, 0, 1) matches no lattice element"),
        ],
    )
    def test_witness_spells_assignments_as_tuples(self, lat, c, witness):
        res = cc.verify_iso(lat, c)
        assert not res.ok and res.witness == witness


class TestDiscretize:
    def test_two_element_merges_all_terminals(self):
        dc = cc.discretize(cc.build_full(oc.chain(2)), 4)
        assert dc.space.n == gate.discretize(4).space.n - 2
        assert len(dc.terminals) == 1
        res = gate.oracle(dc)
        assert res.pattern_set == {(0,), (1,)}

    def test_three_chain_minimal_oracle(self):
        c = cc.build_minimal(oc.chain(3))
        dc = cc.discretize(c, 8)
        res = gate.oracle(dc)
        assert len(res.definable) == 3
        assert res.pattern_set == set(spelled(c))

    def test_gateless_circuit_rejected(self):
        with pytest.raises(ValueError):
            cc.discretize(cc.Circuit(("x",), ()), 4)

    def test_two_gate_chain_oracle_matches_symbolic(self):
        # a full cross-check of the soldered two-gate space
        two = cc.Circuit(("p", "q", "r", "s", "t"), ((0, 1, 2), (2, 3, 4)))
        dc = cc.discretize(two, 3)
        res = gate.oracle(dc, budget=1 << 24)
        symbolic = set(spelled(two))
        assert res.pattern_set == symbolic
        assert len(res.definable) == len(symbolic) == 24
        glued = cc.oracle(two, 3, 1 << 20)
        assert [cc.spell(a, 5) for a in glued.patterns] == sorted(res.pattern_set)
        assert glued.definables == 24 and glued.refuted == ()

    def test_budget_guard(self):
        two = cc.Circuit(("p", "q", "r", "s", "t"), ((0, 1, 2), (2, 3, 4)))
        with pytest.raises(fs.BudgetExceeded):
            gate.oracle(cc.discretize(two, 3))

    def test_assignment_join_is_set_union_downstairs(self):
        # pointwise max of assignments realizes the union of the cell sets
        c = cc.build_minimal(oc.chain(3))
        dc = cc.discretize(c, 6)
        res = gate.oracle(dc)
        by_pattern = dict(zip(res.patterns, res.definable))
        for p, dp in by_pattern.items():
            for q, dq in by_pattern.items():
                j = tuple(max(x, y) for x, y in zip(p, q))
                assert by_pattern[j] == dp | dq


def _two_gate_classes():
    """Every pair of gates over three nodes, one per class under node
    relabelling, gate order and swapping a gate's inputs (repeats allowed)."""
    from itertools import permutations

    triples = list(product(range(3), repeat=3))
    classes = set()
    for pair in product(triples, repeat=2):
        variants = []
        for perm in permutations(range(3)):
            for swaps in product((0, 1), repeat=2):
                gates = []
                for (i, j, k), sw in zip(pair, swaps):
                    i, j, k = perm[i], perm[j], perm[k]
                    gates.append((j, i, k) if sw else (i, j, k))
                variants.append(tuple(sorted(gates)))
        classes.add(min(variants))
    return sorted(classes)


@pytest.fixture(scope="module")
def patterns_n4():
    return gate.oracle(gate.discretize(4)).patterns


# Every way one gate can name its nodes, as (in1, in2, out) labels: all
# distinct, in1 = in2, in1 = out, in2 = out, all equal.
SOLDERINGS = [("a", "b", "c"), ("a", "a", "c"), ("a", "b", "a"), ("a", "b", "b"), ("a", "a", "a")]


class TestFactorizedOracle:
    @pytest.mark.parametrize("n", [3, 4, 8])
    @pytest.mark.parametrize("labels", SOLDERINGS, ids="".join)
    def test_soldered_gate_is_plain_gate_restricted(self, n, labels):
        # the exhaustive reference for the glue: a gate that names a node
        # twice has exactly the plain gate's sets that agree on those terminals
        one = gate.build_complex([labels], n)
        plain = gate.discretize(n)
        res = gate.oracle(plain)
        want = set()
        for d, p in zip(res.definable, res.patterns):
            if all(p[labels.index(v)] == x for v, x in zip(labels, p)):
                mask = 0  # soldered terminals share one cell
                for i, cell in enumerate(plain.copies[0]):
                    if d >> cell & 1:
                        mask |= 1 << one.copies[0][i]
                want.add(mask)
        assert set(gate.oracle(one).definable) == want

    @pytest.mark.parametrize("k", range(2, 8))
    def test_glue_matches_symbolic_on_corpus(self, patterns_n4, k):
        # the glue alone: no complex, no spot checks
        for lat in oc.all_lattices_up_to_iso(k):
            c = cc.build_full(lat)
            glued = cc.glue(c, patterns_n4, 1 << 20)
            assert [a for a, _ in glued] == cc.definable_assignments(c)
            assert all(w == 1 for _, w in glued)

    def test_glue_free_nodes_and_empty_circuit(self, patterns_n4):
        c = cc.Circuit(("p", "q", "r"), ((0, 0, 1),))
        glued = cc.glue(c, patterns_n4, 1 << 20)
        assert [cc.spell(a, 3) for a, _ in glued] == brute_assignments(c)
        assert len(glued) == 6
        gateless = cc.glue(cc.Circuit(("x", "y"), ()), (), 1 << 20)
        assert [a for a, _ in gateless] == [0b00, 0b10, 0b01, 0b11]  # x is bit 0
        assert cc.glue(cc.Circuit((), ()), (), 1 << 20) == [(0, 1)]

    def test_glue_budget(self, patterns_n4):
        c = cc.build_full(oc.n5())
        with pytest.raises(fs.BudgetExceeded):
            cc.glue(c, patterns_n4, 10)

    def test_gateless_circuit_needs_no_complex(self):
        res = cc.oracle(cc.build_minimal(oc.chain(2)), 4, 1 << 20)
        assert res == cc.CircuitOracle((0, 1), 2, ())

    def test_free_node_beside_gates(self):
        c = cc.Circuit(("p", "q", "r", "z"), ((0, 1, 2),))
        res = cc.oracle(c, 3, 1 << 20)
        assert [cc.spell(a, 4) for a in res.patterns] == brute_assignments(c)
        assert res.definables == 14 and res.refuted == ()

    def test_no_threshold(self):
        with pytest.raises(gate.NoThreshold):
            cc.oracle(cc.build_full(oc.chain(3)), 2, 1 << 20)
        with pytest.raises(ValueError, match="n must be >= 2"):
            cc.oracle(cc.build_full(oc.chain(3)), 1, 1 << 20)

    def test_spot_checks_catch_a_wrong_shape_set(self, monkeypatch):
        # swap the plain gate's (1, 1, 0) set for a closed set that is not
        # definable: patterns and counts still match, the spot check does not
        real = gate.oracle

        def doctored(dc, *args, **kwargs):
            res = real(dc, *args, **kwargs)
            bad = gate.edge_mask(dc, "OS")
            definable = tuple(
                bad if p == (1, 1, 0) else d for d, p in zip(res.definable, res.patterns)
            )
            assert not fs.is_definable(dc.space, bad, dc.r_min)
            return replace(res, definable=definable)

        monkeypatch.setattr(gate, "oracle", doctored)
        c = cc.build_minimal(oc.chain(4))
        res = cc.oracle(c, 4, 1 << 20)
        assert res.patterns == tuple(cc.definable_assignments(c))
        # the glued sets of (1, 1, 0) and (1, 1, 1) use the doctored set
        assert res.definables == 4 and len(res.refuted) == 2

    def test_unsaturated_definable_probe_is_not_refuted(self, monkeypatch):
        # a definable set outside the saturated family: the top lobe plus
        # the lone 0-cell LL.v1, whose node assignment (1, 0, 0) is glued
        c = cc.Circuit(("p", "q", "r"), ((0, 1, 2),))
        dc = cc.discretize(c, 3)
        lobe = gate.state_to_cells(dc, gate.GateState(1, 0, 0))
        [ll] = [i for i, cell in enumerate(dc.space.cells) if cell.tag == "LL.v1"]
        witness = lobe | 1 << ll
        assert fs.is_definable(dc.space, witness, dc.r_min)
        monkeypatch.setattr(fs, "random_closed_sets", lambda s, count, seed: [witness])
        res = cc.oracle(c, 3, 1 << 20)
        assert res.refuted == ()

    def test_spot_probe_with_a_foreign_pattern_is_refuted(self, monkeypatch):
        # drop the (1, 1, 1) assignment from the glue: the definable full
        # set now shows a node assignment the glue lacks
        c = cc.Circuit(("p", "q", "r"), ((0, 1, 2),))
        dc = cc.discretize(c, 3)
        real = cc.glue
        monkeypatch.setattr(cc, "glue", lambda *args: real(*args)[:-1])
        full = (1 << dc.space.n) - 1
        monkeypatch.setattr(fs, "random_closed_sets", lambda s, count, seed: [full])
        res = cc.oracle(c, 3, 1 << 20)
        assert res.refuted == (full,)

    @pytest.mark.slow
    @pytest.mark.parametrize("gates", _two_gate_classes())
    def test_glue_matches_brute_force(self, gates):
        c = cc.Circuit(("p", "q", "r"), gates)
        brute = gate.oracle(cc.discretize(c, 3), budget=1 << 24)
        res = cc.oracle(c, 3, 1 << 20)
        assert [cc.spell(a, 3) for a in res.patterns] == sorted(brute.pattern_set)
        assert res.definables == len(brute.definable)
        assert res.refuted == ()
        assert set(res.patterns) == set(cc.definable_assignments(c))

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
    def test_every_full_presentation_n8(self, size):
        # the oracle at pitch 8 on every full presentation of `size` elements
        for lat in oc.all_lattices_up_to_iso(size):
            c = cc.build_full(lat)
            want = tuple(cc.definable_assignments(c))
            res = cc.oracle(c, 8, 4_000_000)
            assert res.patterns == want
            assert res.definables == len(want)
            assert res.refuted == ()

    def test_two_gate_classes(self):
        classes = _two_gate_classes()
        assert len(classes) == 34
        assert sum(len({v for g in c for v in g}) == 3 for c in classes) == 22


class TestFactorizationPreconditions:
    """check_factorization on a two-gate complex broken by hand."""

    @pytest.fixture
    def parts(self):
        c = cc.Circuit(("p", "q", "r", "s", "t"), ((0, 1, 2), (2, 3, 4)))
        dc = cc.discretize(c, 3)
        return dc, gate.discretize(3)

    def _with_dist(self, dc, a, b, d):
        dist = dict(dc.space.dist)
        dist[(a, b) if a < b else (b, a)] = d
        # replace drops the view, the complex's only topology: give it a table
        return replace(dc, space=replace(dc.space, min_open=template_table(dc), dist=dist))

    def test_intact_complex_passes(self, parts):
        dc, one = parts
        cc.check_factorization(dc, one, dc.r_min)

    def test_distance_across_copies(self, parts):
        dc, one = parts
        d = next(iter(dc.space.dist.values()))
        a = dc.copies[0][dc.reps.index((F(-1, 2), F(1, 2)))]
        b = dc.copies[1][dc.reps.index((F(-1, 2), F(1, 2)))]
        with pytest.raises(AssertionError, match="crosses gate copies"):
            cc.check_factorization(self._with_dist(dc, a, b, d), one, dc.r_min)

    def test_terminal_not_crisp(self, parts):
        dc, one = parts
        d = next(iter(dc.space.dist.values()))
        t = dc.terminals["r"]
        inner = dc.copies[0][dc.reps.index((F(-1, 2), F(1, 2)))]
        with pytest.raises(AssertionError, match="terminal not crisp"):
            cc.check_factorization(self._with_dist(dc, t, inner, d), one, dc.r_min)

    def test_terminal_not_a_point(self, parts):
        dc, one = parts
        t = dc.terminals["r"]
        cells = list(dc.space.cells)
        cells[t] = fs.Cell(t, 1, cells[t].tag)
        s = dc.space
        broken = replace(dc, space=fs.DiscreteSpace(
            tuple(cells), s.open_masks(), s.dist, None, s.resolution))
        with pytest.raises(AssertionError, match="not a 0-cell"):
            cc.check_factorization(broken, one, dc.r_min)

    def test_shape_thresholds_differ(self, parts):
        dc, _ = parts
        other = gate.build_complex([("a", "b", "c")], 5)
        with pytest.raises(AssertionError, match="thresholds differ"):
            cc.check_factorization(dc, other, dc.r_min)


class TestBuildY0:
    def test_three_chain_k2(self):
        m = oc.chain(3)
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
            return sum(1 << i for i in range(k) if enumeration[i] not in f)

        fls = oc.filters(m, include_empty=True)
        for f in fls:
            for g in fls:
                if f <= g:
                    af, ag = assignment_of(f), assignment_of(g)
                    assert ag & ~af == 0
        asgs = set(cc.definable_assignments(c))
        for f in fls:
            assert assignment_of(f) in asgs
        for a in asgs:
            for b in asgs:
                assert a | b in asgs


@st.composite
def random_circuits(draw):
    # gates may repeat a node: in1 = in2 makes a one-premise rule
    n = draw(st.integers(min_value=1, max_value=10))
    n_gates = draw(st.integers(min_value=0, max_value=12))
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
    assert spelled(c) == brute_assignments(c)


@settings(max_examples=80, deadline=None)
@given(random_circuits())
def test_assignments_closed_under_pointwise_max(c):
    asgs = set(cc.definable_assignments(c))
    for a in asgs:
        for b in asgs:
            assert a | b in asgs
