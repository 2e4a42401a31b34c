"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 1 pins an expected N5 gate count of 42.  Exhaustive enumeration
of the ordered triples (a, b, c) over the pentagon minus its top with
a ^ b <= c yields 52, and the same enumeration reproduces the documented
3-chain count of 7, so the 42 is not reachable under the stated rule; the
test asserts the pinned value anyway and fails honestly.  See the companion
test asserting the enumerated value.
"""

import time
from fractions import Fraction as F

from latcirc import circuit as cc
from latcirc import finspace as fs
from latcirc import gate
from latcirc import order_core as oc
from latcirc import tower
from latcirc.tower import TowerKind
from references import sliced_base


def _verdict(num: int, ok: bool, detail: str, started: float, limit: float):
    elapsed = time.time() - started
    print(
        f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail}) "
        f"[{elapsed:.1f}s / limit {limit:.0f}s]"
    )
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.1f}s"


def test_criterion_01_n5_triple_count():
    started = time.time()
    circ = cc.build_full(oc.n5())
    got = len(circ.gates)
    _verdict(1, got == 42, f"N5 build_full gates = {got}, pinned 42", started, 10)


def test_criterion_01_companion_enumerated_count():
    # independent enumeration; also reproduces the documented 3-chain 7
    lat = oc.n5()
    lm = lat.nontop()
    count = sum(
        1 for a in lm for b in lm for c in lm if lat.leq(lat.meet[a][b], c)
    )
    assert len(cc.build_full(lat).gates) == count == 52
    c3 = oc.chain(3)
    cm = c3.nontop()
    assert (
        sum(1 for a in cm for b in cm for c in cm if c3.leq(c3.meet[a][b], c)) == 7
    )


def test_criterion_02_n5_minimal_presentation():
    started = time.time()
    lat = oc.n5()
    minimal = cc.build_minimal(lat)
    ok = len(minimal.gates) == 4
    ok = ok and cc.is_adequate(lat, minimal.origin[2])
    ok = ok and not cc.smaller_adequate_exists(lat, 4)
    _verdict(2, ok, f"exact minimum = {len(minimal.gates)}, none smaller", started, 10)


def test_criterion_03_gate_oracle():
    started = time.time()
    ok = True
    detail = []
    for n in (4, 6, 8):
        dg = gate.discretize(n)
        res = gate.oracle(dg, F(2, n))
        good = len(res.definable) == 7 and res.pattern_set == gate.expected_patterns(
            "plain"
        )
        ok = ok and good
        detail.append(f"n={n}:{len(res.definable)}")
    _verdict(3, ok, "7 sets, 7 allowed patterns at " + ", ".join(detail), started, 60)


def test_criterion_04_dagger_oracle():
    started = time.time()
    res = gate.oracle(gate.discretize_dagger(8))
    ok = len(res.definable) == 3 and res.pattern_set == gate.expected_patterns(
        "dagger"
    )
    _verdict(4, ok, f"soldered-input gate definables = {len(res.definable)}", started, 60)


def test_criterion_05_negative_controls():
    started = time.time()
    ok = True
    for n in (4, 6, 8):
        dg = gate.discretize(n)
        ok = ok and not fs.is_definable(dg.space, gate.edge_mask(dg, "OS"), dg.r_min)
        for name in gate.EDGE_ORDER:
            ok = ok and not fs.is_definable(
                dg.space, gate.edge_mask(dg, name), dg.r_min
            )
    # a definable probe counts only when its terminal pattern is not an
    # allowed one: the gate has definable sets outside the saturated family
    dg = gate.discretize(6)
    allowed = gate.expected_patterns("plain")
    probes = fs.random_closed_sets(dg.space, 1000, seed=0)
    bad = [
        d
        for d in probes
        if fs.is_definable(dg.space, d, dg.r_min) and dg.pattern(d) not in allowed
    ]
    ok = ok and not bad
    _verdict(5, ok, f"{len(probes)} probes, {len(bad)} unexpected definable", started, 120)


def test_criterion_05_passes_an_unsaturated_definable_probe(monkeypatch):
    # the top lobe plus the lone 0-cell LL.v4: definable, not in the
    # saturated family, and showing the allowed pattern (1, 0, 0)
    dg = gate.discretize(6)
    lobe = gate.state_to_cells(dg, gate.GateState(1, 0, 0))
    [ll] = [i for i, cell in enumerate(dg.space.cells) if cell.tag == "LL.v4"]
    witness = lobe | 1 << ll
    assert fs.is_definable(dg.space, witness, dg.r_min)
    assert witness not in gate.oracle(dg).definable
    assert dg.pattern(witness) == (1, 0, 0)
    monkeypatch.setattr(fs, "random_closed_sets", lambda s, count, seed: [witness])
    test_criterion_05_negative_controls()


def test_criterion_06_filter_correspondence():
    started = time.time()
    checked = 0
    ok = True
    for n in (2, 3, 4, 5):
        for lat in oc.all_lattices_up_to_iso(n):
            circ = cc.build_full(lat)
            asgs = cc.definable_assignments(circ)
            res = cc.verify_iso(lat, circ)
            ok = ok and res.ok and len(asgs) == lat.n
            checked += 1
    ok = ok and checked == 1 + 1 + 2 + 5
    _verdict(6, ok, f"{checked} lattices of size 2-5 verified", started, 300)


def test_criterion_07_tower_counts():
    started = time.time()
    ok = True
    for n in range(1, 9):
        for kind, want in (
            (TowerKind.FORWARD_CHAIN, n + 2),
            (TowerKind.REVERSE_CHAIN, n + 2),
            (TowerKind.EXACT_PAIR, n + 4),
        ):
            asgs = cc.definable_assignments(tower.truncate(kind, n))
            ok = ok and len(asgs) == want
            if kind is not TowerKind.EXACT_PAIR:
                chain_ok = all(a | b in (a, b) for a in asgs for b in asgs)
                ok = ok and chain_ok
            fam = tower.LimitFamily(kind)
            members = set(asgs)
            ok = ok and all(
                tower.restrict(d, n) in members for d in fam.elements(10)
            )
            ok = ok and {
                tower.restrict(d, n) for d in fam.elements(n + 2)
            } == members
    _verdict(7, ok, "n+2 / n+2 / n+4 for n=1..8 with coherent restrictions", started, 60)


def test_criterion_08_exact_pair():
    started = time.time()
    fam = tower.LimitFamily(TowerKind.EXACT_PAIR)
    meet, lbs, has_max = fam.meet_analysis(fam.side("a"), fam.side("b"), 8)
    ok = meet is None and not has_max and len(lbs) == 9
    ok = ok and all(w.tail == tower.EMPTY for w in lbs)
    _verdict(8, ok, "no meet; sampled lower-bound ideal has no maximum", started, 10)


def test_criterion_09_y0_truncations():
    started = time.time()
    ok = True
    cases = [
        (oc.chain(3), (0, 1, 2)),
        (oc.v_semilattice(), (0, 1, 2)),
    ]
    for m, enumeration in cases:
        for k in range(1, min(4, m.n) + 1):
            if k > m.n:
                continue
            circ = cc.build_Y0(m, enumeration, k)
            offs = cc.y0_assignment_offsets(circ)
            ok = ok and offs == cc.truncated_filters(m, enumeration, k)
            asgs = set(cc.definable_assignments(circ))
            ok = ok and all(a | b in asgs for a in asgs for b in asgs)
            # antitone: bigger filters carve away more
            fls = oc.filters(m, include_empty=True)
            for f in fls:
                for g in fls:
                    if f <= g:
                        af = tuple(
                            0 if enumeration[i] in f else 1 for i in range(k)
                        )
                        ag = tuple(
                            0 if enumeration[i] in g else 1 for i in range(k)
                        )
                        ok = ok and all(x >= y for x, y in zip(af, ag))
    _verdict(9, ok, "assignments are exactly the truncated filters", started, 60)


def test_criterion_10_w_construction():
    started = time.time()
    base = sliced_base(pairs_per_slice=2, top_slice=4)  # 10 cells -> 30 in W
    h1, h2 = tower.default_turn_functions(6)
    w = tower.build_W(base, h1, h2)
    ok = w.space.n == 30 and fs.validate(w.space) == []
    ok = ok and h1(0) == 1
    for k in range(1, 7):
        if k % 2 == 1:
            ok = ok and h1(k) == 1
        else:
            ok = ok and h2(k) == 1
        ok = ok and min(h1(k), h2(k)) == F(1, k)
    for r in (F(1, 2), F(1, 3)):
        ok = ok and tower.check_cover_radius(w, r).ok
    _verdict(10, ok, "30-cell W validates; turn bullets hold; covered", started, 60)


def test_criterion_11_soldered_y_short_circuit():
    started = time.time()
    ok = True
    cases = [
        (oc.chain(2), (0, 1), 2),
        (oc.chain(3), (0, 1, 2), 3),
        (oc.v_semilattice(), (0, 1, 2), 3),
    ]
    for m, enumeration, k in cases:
        yt = tower.solder_Y_truncation(m, enumeration, k)
        ok = ok and tower.verify_short_circuit(yt).ok
    _verdict(11, ok, "nonempty assignments fill both side copies", started, 60)


def test_criterion_12_property_suites():
    started = time.time()
    ok = True

    # open-metric equivalence, in its two discrete shadows: definable sets
    # have open expansions on the resolution grid, and sets whose expansions
    # are open at every distance-value threshold are definable (on spaces
    # whose metric is open)
    for n in (3, 4):
        dg = gate.discretize(n)
        s = dg.space
        ok = ok and fs.is_open_metric(s, dg.r_min)
        pool = list(gate.saturated_candidates(dg))
        pool = pool[:: max(1, len(pool) // 400)]
        pool += fs.random_closed_sets(s, 150, seed=12)
        for d in pool:
            if d in (0, s.full_mask) or not fs.is_closed(s, d):
                continue
            definable = fs.is_definable(s, d, dg.r_min)
            open_on_grid = all(
                fs.is_open(s, fs.expand(s, d, r))
                for r in fs.openness_thresholds(s, dg.r_min)
            )
            open_on_values = all(
                fs.is_open(s, fs.expand(s, d, r))
                for r in fs.thresholds(s, dg.r_min)
            )
            if definable:
                ok = ok and open_on_grid
            if open_on_values:
                ok = ok and definable

    # wire rule: definable sets take each isolated connected run whole
    dg = gate.discretize(4)
    comps = []
    near_d = {i: [] for i in range(dg.space.n)}
    for (a, b), d in dg.space.dist.items():
        near_d[a].append(d)
        near_d[b].append(d)
    isolated = {
        i for i in range(dg.space.n) if all(d > dg.r_min for d in near_d[i])
    }
    seen = set()
    for start in isolated:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in range(dg.space.n):
                if y in comp or y not in isolated:
                    continue
                if dg.space.min_open[x] >> y & 1 or dg.space.min_open[y] >> x & 1:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    oracle_sets = gate.oracle(dg).definable
    for d in oracle_sets:
        for comp in comps:
            inside = sum(1 for c in comp if d >> c & 1)
            ok = ok and inside in (0, len(comp))

    # union closure with checker witness
    for d1 in oracle_sets:
        for d2 in oracle_sets:
            ok = ok and fs.is_definable(dg.space, d1 | d2, dg.r_min)

    # soldering preservation: open metric survives the input identification,
    # and definable sets upstairs match gate sets agreeing on both inputs
    for n in (3, 4):
        g_ = gate.discretize(n)
        dd = gate.discretize_dagger(n)
        ok = ok and fs.is_open_metric(g_.space, g_.r_min) == fs.is_open_metric(
            dd.space, dd.r_min
        )
        gate_patterns = gate.oracle(g_).pattern_set
        upstairs = {
            (p[0], p[2]) for p in gate_patterns if p[0] == p[1]
        }
        ok = ok and gate.oracle(dd).pattern_set == upstairs

    # coproduct: definability decomposes per part (sampled both ways)
    dg3 = gate.discretize(3)
    cop = fs.coproduct(dg3.space, dg3.space)
    defs3 = gate.oracle(dg3).definable
    for d1 in defs3:
        for d2 in defs3:
            ok = ok and fs.is_definable(cop, d1 | (d2 << dg3.space.n), F(2, 3))
    for d in fs.random_closed_sets(cop, 80, seed=5):
        lhs = fs.is_definable(cop, d, F(2, 3))
        rhs = fs.is_definable(dg3.space, d & dg3.space.full_mask, F(2, 3)) and (
            fs.is_definable(dg3.space, d >> dg3.space.n, F(2, 3))
        )
        ok = ok and lhs == rhs

    _verdict(12, ok, "open-metric, wire, union, soldering suites", started, 300)
