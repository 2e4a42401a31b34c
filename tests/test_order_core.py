import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc import order_core as oc
from latcirc import tower
from latcirc.finspace import bits
from references import m3, partner_horn_closure


def brute_filters(m, include_empty=False):
    """Independent oracle: scan all subsets for both closure properties."""
    n = m.n
    out = []
    for mask in range(1 << n):
        s = {i for i in range(n) if mask >> i & 1}
        if not s and not include_empty:
            continue
        up_ok = all(b in s for a in s for b in range(n) if m.leq(a, b))
        meet_ok = all(m.meet[a][b] in s for a in s for b in s)
        if up_ok and meet_ok:
            out.append(frozenset(s))
    return out


def brute_iso(a, b):
    """Independent oracle: try every bijection outright."""
    from itertools import permutations

    if a.n != b.n:
        return None
    for perm in permutations(range(b.n)):
        if all(
            a.leq(i, j) == b.leq(perm[i], perm[j])
            for i in range(a.n)
            for j in range(a.n)
        ):
            if all(
                perm[a.join[i][j]] == b.join[perm[i]][perm[j]]
                for i in range(a.n)
                for j in range(a.n)
            ) and perm[a.bottom] == b.bottom and perm[a.top] == b.top:
                return dict(enumerate(perm))
    return None


class TestParsePoset:
    def test_singleton(self):
        p = oc.parse_poset(json.dumps({"elements": ["x"], "covers": []}))
        assert p.n == 1 and p.leq(0, 0)

    def test_n5_covers(self):
        p = oc.parse_poset(
            json.dumps(
                {
                    "elements": ["0", "a", "b", "c", "1"],
                    "covers": [["0", "a"], ["a", "1"], ["0", "b"], ["b", "c"], ["c", "1"]],
                }
            )
        )
        a, b = p.elements.index("a"), p.elements.index("b")
        assert not p.leq(a, b) and not p.leq(b, a)
        assert p.leq(p.elements.index("0"), p.elements.index("1"))

    def test_cycle_rejected(self):
        with pytest.raises(oc.OrderError, match="cycle"):
            oc.parse_poset({"elements": ["x", "y"], "covers": [["x", "y"], ["y", "x"]]})

    def test_duplicate_label_rejected(self):
        with pytest.raises(oc.OrderError, match="duplicate"):
            oc.parse_poset({"elements": ["x", "x"], "covers": []})

    def test_unknown_element_in_pair(self):
        with pytest.raises(oc.OrderError, match="unknown"):
            oc.parse_poset({"elements": ["x"], "covers": [["x", "z"]]})

    def test_leq_key_accepted(self):
        p = oc.parse_poset({"elements": ["x", "y"], "leq": [["x", "y"]]})
        assert p.leq(0, 1)

    def test_covers_and_leq_together_rejected(self):
        with pytest.raises(oc.OrderError, match="not both"):
            oc.parse_poset({"elements": ["a", "b"], "covers": [], "leq": [["a", "b"]]})

    def test_unknown_key_rejected(self):
        # a misspelled "covers" must not read as an antichain
        with pytest.raises(oc.OrderError, match="unknown key.*'cover'"):
            oc.parse_poset({"elements": ["a", "b"], "cover": [["a", "b"]]})

    @pytest.mark.parametrize(
        "elements,up,match",
        [(("x", "y"), (0b11, 0b11), "cycle"), (("x", "x"), (0b01, 0b10), "duplicate")],
    )
    def test_poset_validates_when_built_directly(self, elements, up, match):
        with pytest.raises(oc.OrderError, match=match):
            oc.Poset(elements, up)

    def test_cycle_names_the_least_pair(self):
        # a = d and b = c: of the pairs (a, d) and (b, c), (a, d) comes first
        with pytest.raises(oc.OrderError, match="between 'a' and 'd'"):
            oc.Poset(("a", "b", "c", "d"), (0b1001, 0b0110, 0b0110, 0b1001))


class TestAsLattice:
    def test_n5_meets_by_brute_force(self):
        lat = oc.n5()
        p = lat.poset
        down = p.down_masks()
        for i in range(5):
            for j in range(5):
                lower = [k for k in range(5) if down[i] >> k & 1 and down[j] >> k & 1]
                glbs = [k for k in lower if all(p.leq(x, k) for x in lower)]
                assert glbs == [lat.meet[i][j]]
        a, b = p.elements.index("a"), p.elements.index("b")
        assert lat.elements[lat.meet[a][b]] == "0"
        assert lat.elements[lat.join[a][b]] == "1"

    def test_antichain_lacks_meet(self):
        p = oc.poset_from_pairs(["x", "y"], [])
        with pytest.raises(oc.LatticeError, match="meet"):
            oc.as_lattice(p)

    @pytest.mark.parametrize("size", range(1, 7))
    def test_bounds_by_brute_force(self, size):
        # each lattice relabelled by a seeded shuffle, so index order and
        # mask-size rank disagree
        rng = random.Random(size)
        for lat in oc.all_lattices_up_to_iso(size):
            order = rng.sample(range(size), size)
            labels = [lat.elements[i] for i in order]
            p = oc.poset_from_pairs(labels, [
                (lat.elements[i], lat.elements[j])
                for i in range(size) for j in range(size) if lat.leq(i, j)
            ])
            got = oc.as_lattice(p)
            everything = range(size)
            for i in everything:
                for j in everything:
                    lower = [k for k in everything if p.leq(k, i) and p.leq(k, j)]
                    upper = [k for k in everything if p.leq(i, k) and p.leq(j, k)]
                    assert [k for k in lower if all(p.leq(x, k) for x in lower)] == [got.meet[i][j]]
                    assert [k for k in upper if all(p.leq(k, x) for x in upper)] == [got.join[i][j]]
            assert all(p.leq(got.bottom, k) and p.leq(k, got.top) for k in everything)

    def test_first_pair_without_a_meet_is_named(self):
        # two bowties over 0: x, y < a, b and u, v < c, d; only (a, b) and
        # (c, d) lack a meet, and (c, d) = (3, 8) comes first in index order
        labels = ["0", "u", "v", "c", "x", "y", "a", "b", "d"]
        covers = [("0", x) for x in "xyuv"]
        covers += [(x, a) for x in "xy" for a in "ab"] + [(x, c) for x in "uv" for c in "cd"]
        p = oc.poset_from_pairs(labels, covers)
        for build in (oc.as_meet_semilattice, oc.as_lattice):
            with pytest.raises(oc.LatticeError) as err:
                build(p)
            assert str(err.value) == "no meet for pair ('c', 'd')"

    def test_chain_min_max(self):
        lat = oc.chain(3)
        for i in range(3):
            for j in range(3):
                assert lat.meet[i][j] == min(i, j)
                assert lat.join[i][j] == max(i, j)


class TestFilters:
    def test_n5_all_principal(self):
        lat = oc.n5()
        m = lat
        fs = oc.filters(m)
        assert fs == brute_filters(m)
        assert len(fs) == 5
        principals = {frozenset(bits(m.poset.up[a])) for a in range(5)}
        assert set(fs) == principals

    def test_two_chain(self):
        m = oc.chain(2)
        assert oc.filters(m) == [frozenset({1}), frozenset({0, 1})]

    def test_v_with_empty(self):
        m = oc.v_semilattice()
        fs = oc.filters(m, include_empty=True)
        assert fs == brute_filters(m, include_empty=True)
        assert len(fs) == 4
        assert frozenset() in fs

    def test_count_equals_lattice_size(self):
        for lat in (oc.chain(2), oc.chain(4), oc.n5(), m3()):
            assert len(oc.filters(lat)) == lat.n

    def test_closed_under_intersection(self):
        for lat in (oc.n5(), m3()):
            m = lat
            fs = oc.filters(m)
            for f, g in combinations(fs, 2):
                assert f & g in fs

    def test_principal_filter_antitone(self):
        lat = oc.n5()
        m = lat
        for a in range(5):
            for b in range(5):
                up_a, up_b = m.poset.up[a], m.poset.up[b]
                assert lat.leq(a, b) == (up_a | up_b == up_a)


def drop_top(lat):
    """The meet-semilattice left when the top of ``lat`` is removed."""
    e = lat.elements
    return oc.as_meet_semilattice(
        oc.poset_from_pairs(
            [e[i] for i in lat.nontop()],
            [(e[i], e[j]) for i, j in lat.poset.covers() if j != lat.top],
        )
    )


CORPUS_UP_TO_6 = [lat for n in range(1, 7) for lat in oc.all_lattices_up_to_iso(n)]
SEMILATTICES_UP_TO_6 = [
    pytest.param(lat, id=f"lattice{k}")
    for k, lat in enumerate(CORPUS_UP_TO_6)
] + [
    pytest.param(drop_top(lat), id=f"lattice{k}-top")
    for k, lat in enumerate(CORPUS_UP_TO_6)
    if lat.n > 1
]


class TestFilterLattice:
    @pytest.mark.parametrize("include_empty", [False, True])
    @pytest.mark.parametrize("m", SEMILATTICES_UP_TO_6)
    def test_order_is_filter_inclusion(self, m, include_empty):
        fs = oc.filters(m, include_empty)
        maximal = [i for i in range(m.n) if m.poset.up[i] == 1 << i]
        if not include_empty and len(maximal) > 1:
            # the principal filters of two maximal elements meet only in {}
            with pytest.raises(oc.LatticeError, match="no meet"):
                oc.filter_lattice(m, fs)
            return
        fl = oc.filter_lattice(m, fs)
        assert fl.elements == tuple(oc.filter_label(m, f) for f in fs)
        for i, f in enumerate(fs):
            for j, g in enumerate(fs):
                assert fl.leq(i, j) == (f <= g)

    def test_v_diamond(self):
        m = oc.v_semilattice()
        fl = oc.filter_lattice(m, oc.filters(m, include_empty=True))
        assert fl.n == 4
        mids = [i for i in range(4) if i not in (fl.bottom, fl.top)]
        assert len(mids) == 2
        i, j = mids
        assert not fl.leq(i, j) and not fl.leq(j, i)
        assert fl.elements[fl.bottom] == "{}"

    def test_two_chain(self):
        m = oc.chain(2)
        fl = oc.filter_lattice(m, oc.filters(m))
        assert fl.n == 2 and fl.leq(fl.bottom, fl.top)

    def test_n5_filter_lattice_iso_to_n5(self):
        lat = oc.n5()
        fl = oc.filter_lattice(lat, oc.filters(lat))
        mapping = oc.iso(fl, lat)
        assert mapping is not None
        assert brute_iso(fl, lat) is not None


class TestIso:
    def test_n5_self(self):
        lat = oc.n5()
        assert oc.iso(lat, lat) is not None

    def test_n5_vs_m3_none(self):
        assert oc.iso(oc.n5(), m3()) is None
        assert brute_iso(oc.n5(), m3()) is None

    def test_chain_vs_relabeled_chain(self):
        a = oc.chain(3)
        b = oc.as_lattice(
            oc.poset_from_pairs(["top", "mid", "low"], [["low", "mid"], ["mid", "top"]])
        )
        assert oc.iso(a, b) is not None

    def test_mapping_preserves_structure(self):
        a = oc.n5()
        b = oc.as_lattice(
            oc.poset_from_pairs(
                ["z", "p", "q", "r", "u"],
                [["z", "p"], ["p", "u"], ["z", "q"], ["q", "r"], ["r", "u"]],
            )
        )
        f = oc.iso(a, b)
        assert f is not None
        for i in range(a.n):
            for j in range(a.n):
                assert a.leq(i, j) == b.leq(f[i], f[j])
                assert f[a.join[i][j]] == b.join[f[i]][f[j]]
        assert f[a.bottom] == b.bottom and f[a.top] == b.top

    def test_size_mismatch(self):
        assert oc.iso(oc.chain(2), oc.chain(3)) is None

    def test_profile_cache_is_invisible(self):
        warm, cold = oc.n5(), oc.n5()
        assert oc.iso(warm, oc.n5()) is not None
        assert warm._iso_profiles is not None and cold._iso_profiles is None
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert oc.iso(warm, warm) == oc.iso(cold, oc.n5())


class TestSmallCorpus:
    def test_lattice_counts(self):
        assert [len(oc.all_lattices_up_to_iso(n)) for n in range(2, 6)] == [1, 1, 2, 5]

    def test_every_lattice_validates(self):
        for n in range(1, 8):
            for lat in oc.all_lattices_up_to_iso(n):
                # re-validation must not raise and must rebuild the same tables
                assert oc.as_lattice(oc.Poset(lat.elements, lat.poset.up)) == lat

    @pytest.mark.parametrize(
        "n,count",
        [(1, 1), (2, 1), (3, 1), (4, 2), (5, 5), (6, 15), (7, 53), (8, 222)]
        + [
            pytest.param(9, 1078, marks=pytest.mark.slow),
            pytest.param(10, 5994, marks=pytest.mark.slow),
        ],
    )
    def test_counts_follow_a006966(self, n, count):
        assert len(oc.all_lattices_up_to_iso(n)) == count

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_lattice_without_elements(self, n):
        assert oc.all_lattices_up_to_iso(n) == []

    @pytest.mark.parametrize(
        "n", [*range(2, 8), pytest.param(8, marks=pytest.mark.slow)]
    )
    def test_pairwise_non_isomorphic(self, n):
        corpus = oc.all_lattices_up_to_iso(n)
        for i, a in enumerate(corpus):
            for b in corpus[i + 1:]:
                assert oc.iso(a, b) is None

    def test_removing_an_atom_leaves_a_smaller_class(self):
        # the lemma behind the generator, checked from the 8-element side
        smaller = oc.all_lattices_up_to_iso(7)
        reached = set()
        for lat in oc.all_lattices_up_to_iso(8):
            atoms = [j for i, j in lat.poset.covers() if i == lat.bottom]
            for atom in atoms:
                keep = [i for i in range(lat.n) if i != atom]
                up = tuple(
                    sum(1 << k for k, j in enumerate(keep) if lat.leq(i, j))
                    for i in keep
                )
                sub = oc.as_lattice(oc.Poset(tuple(lat.elements[i] for i in keep), up))
                [match] = [
                    k for k, other in enumerate(smaller)
                    if oc.iso(sub, other) is not None
                ]
                reached.add(match)
        assert reached == set(range(len(smaller)))


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pair_bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [f"e{i}" for i in range(n)]
    rel = [
        (labels[i], labels[j]) for k, (i, j) in enumerate(upper) if pair_bits >> k & 1
    ]
    return oc.poset_from_pairs(labels, rel)


@settings(max_examples=100, deadline=None)
@given(small_posets())
def test_covers_match_the_definition(p):
    n = p.n
    literal = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and p.leq(i, j)
        and not any(k not in (i, j) and p.leq(i, k) and p.leq(k, j) for k in range(n))
    ]
    assert p.covers() == literal


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_filters_always_filters(p):
    try:
        m = oc.as_meet_semilattice(p)
    except oc.LatticeError:
        return
    assert oc.filters(m, include_empty=True) == brute_filters(m, include_empty=True)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_generated_filter_is_smallest(p):
    try:
        m = oc.as_meet_semilattice(p)
    except oc.LatticeError:
        return
    fs = oc.filters(m, include_empty=True)
    close = oc._filter_closure(m)
    for f in fs:
        for g in fs:
            gen = frozenset(bits(close(sum(1 << a for a in f | g))))
            assert gen in fs
            assert all(gen <= h for h in fs if f | g <= h)


@st.composite
def horn_systems(draw, max_n=8):
    """Random rule sets over up to ``max_n`` elements: one- and two-premise
    rules (a == b or not), multi-bit heads, and the empty rule set."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return 0, []
    elem = st.integers(min_value=0, max_value=n - 1)
    rule = st.tuples(elem, elem, st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, draw(st.lists(rule, max_size=12))


@settings(max_examples=150, deadline=None)
@given(horn_systems())
def test_closed_sets_match_a_full_scan(system):
    n, rules = system

    def closed(s):
        return all(
            heads & ~s == 0 for a, b, heads in rules if s >> a & 1 and s >> b & 1
        )

    scan = [s for s in range(1 << n) if closed(s)]
    close = oc.horn_closure(n, rules)
    got = oc.closed_sets(n, close)
    assert sorted(got) == scan
    # lectic order: the smallest element where two sets differ is in the later one
    assert got == sorted(got, key=lambda s: [s >> i & 1 for i in range(n)])
    for s in range(0, 1 << n, max(1, (1 << n) // 16)):
        least = (1 << n) - 1
        for t in scan:
            if s & ~t == 0:
                least &= t
        assert close(s) == least


def next_closure(n, close):
    """Reference: Ganter's Next-Closure, as ``closed_sets`` was before FCbO."""
    a = close(0)
    out = [a]
    while True:
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if a & bit:
                a &= ~bit
                continue
            b = close(a | bit)
            if not (b & ~a) & (bit - 1):
                a = b
                out.append(a)
                break
        else:
            return out


def gate_closure(c):
    return oc.horn_closure(c.n, [(i, j, 1 << k) for i, j, k in c.gates])


def seeded_semilattices():
    """Meet-semilattices of 16 to 24 elements: random intersection-closed
    families of subsets of ten points ordered by inclusion, each with and
    without the full set."""
    rng = random.Random(29)
    full = (1 << 10) - 1
    out = []
    for size in (17, 19, 21, 24):
        while True:
            fam = {full}
            while len(fam) < size:
                new = rng.randrange(full)
                fam |= {new} | {new & x for x in fam}
            if len(fam) == size:
                break
        masks = sorted(fam)
        lat = oc.inclusion_lattice([f"s{x}" for x in masks], masks)
        out.append(pytest.param(lat, id=f"lattice{size}"))
        rest = masks[:-1]
        up = tuple(sum(1 << j for j, b in enumerate(rest) if a & ~b == 0) for a in rest)
        semi = oc.as_meet_semilattice(oc.Poset(tuple(f"s{x}" for x in rest), up))
        out.append(pytest.param(semi, id=f"semilattice{size - 1}"))
    return out


class TestClosedSetsMatchNextClosure:
    """``closed_sets`` returns Next-Closure's list, in its order, on every
    kind of closure system its callers build."""

    @settings(max_examples=300, deadline=None)
    @given(horn_systems(max_n=12))
    def test_random_horn_systems(self, system):
        n, rules = system
        close = oc.horn_closure(n, rules)
        assert oc.closed_sets(n, close) == next_closure(n, close)

    @pytest.mark.parametrize("n", [1, 3, 5, 100, 400])
    @pytest.mark.parametrize("kind", list(tower.TowerKind), ids=lambda k: k.name)
    def test_tower_truncations(self, kind, n):
        c = tower.truncate(kind, n)
        close = gate_closure(c)
        assert oc.closed_sets(c.n, close) == next_closure(c.n, close)

    @pytest.mark.parametrize("m", seeded_semilattices())
    def test_filter_closures(self, m):
        assert 16 <= m.n <= 24
        close = oc._filter_closure(m)
        assert oc.closed_sets(m.n, close) == next_closure(m.n, close)

    def test_lattice_corpus(self, monkeypatch):
        # the corpus keeps the first lattice of each class it meets, so its
        # labels follow the enumeration order
        real = oc.all_lattices_up_to_iso(7)
        monkeypatch.setattr(oc, "closed_sets", next_closure)
        reference = oc.all_lattices_up_to_iso(7)
        assert len(real) == len(reference) == 53
        for got, want in zip(real, reference):
            assert got == want


@st.composite
def chain_systems(draw, max_n=60):
    """Rule sets built around one-premise chains, where ``horn_closure``
    walks lone elements: chains running up or down the indices or in a
    shuffled order, some closed into a cycle, self-loops, multi-bit heads,
    and a few two-premise rules whose premises often lie on the chains."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    elem = st.integers(min_value=0, max_value=n - 1)
    rules = []
    on_chains = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        order = draw(st.sampled_from(["up", "down", "shuffled"]))
        start = draw(elem)
        length = draw(st.integers(min_value=1, max_value=n))
        if order == "shuffled":
            run = draw(st.permutations(range(n)))[:length]
        else:
            step = 1 if order == "up" else -1
            run = [start + step * i for i in range(length) if 0 <= start + step * i < n]
        rules += [(a, a, 1 << b) for a, b in zip(run, run[1:])]
        if len(run) > 1 and draw(st.booleans()):
            back = draw(st.sampled_from(run[:-1]))
            rules.append((run[-1], run[-1], 1 << back))
        on_chains += run
    premise = st.sampled_from(on_chains) if on_chains else elem
    heads = st.integers(min_value=0, max_value=(1 << n) - 1)
    rules += [(a, a, 1 << a) for a in draw(st.lists(elem, max_size=3))]
    rules += [(a, a, h) for a, h in draw(st.lists(st.tuples(elem, heads), max_size=3))]
    rules += draw(st.lists(st.tuples(premise, premise, heads), max_size=3))
    return n, draw(st.permutations(rules))


def fixpoint(rules, s):
    """Reference: apply every rule to the whole set until nothing changes."""
    while True:
        t = s
        for a, b, heads in rules:
            if s >> a & 1 and s >> b & 1:
                t |= heads
        if t == s:
            return s
        s = t


class TestChainClosure:
    """``horn_closure`` against a plain fixpoint on chain-heavy systems.  Each
    closure is queried many times in a row, so that its lone elements use up
    their plain steps and later calls read the reach that earlier calls'
    walks left behind."""

    @settings(max_examples=200, deadline=None)
    @given(chain_systems(), st.randoms(use_true_random=False))
    def test_close_is_the_fixpoint(self, system, rng):
        n, rules = system
        close = oc.horn_closure(n, rules)
        starts = [1 << i for i in rng.sample(range(n), n)]
        starts += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(10)]
        for s in starts:
            assert close(s) == fixpoint(rules, s)

    @settings(max_examples=200, deadline=None)
    @given(chain_systems(), st.randoms(use_true_random=False))
    def test_incremental_close_is_the_fixpoint(self, system, rng):
        n, rules = system
        close = oc.horn_closure(n, rules)
        for _ in range(4):
            a = fixpoint(rules, rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n))
            for k in rng.sample(range(n), n):
                bit = 1 << k
                if not a & bit:
                    assert close(a | bit, bit) == fixpoint(rules, a | bit)

    @settings(max_examples=200, deadline=None)
    @given(chain_systems(max_n=14))
    def test_closed_sets_match_next_closure(self, system):
        n, rules = system
        want = next_closure(n, lambda s: fixpoint(rules, s))
        assert oc.closed_sets(n, oc.horn_closure(n, rules)) == want


@st.composite
def grouped_systems(draw, max_n=12):
    """Rule sets whose two-premise rules share premise pairs and heads:
    a few pairs, each given many rules in either premise order, heads of
    one or more bits drawn from a small shared pool or fresh, and
    one-premise chains mixed in."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    elem = st.integers(min_value=0, max_value=n - 1)
    mask = st.integers(min_value=0, max_value=(1 << n) - 1)
    pairs = draw(st.lists(
        st.tuples(elem, elem).filter(lambda p: p[0] != p[1]), min_size=1, max_size=6))
    pool = draw(st.lists(mask, min_size=1, max_size=4))
    head = st.one_of(st.sampled_from(pool), mask)
    rules = [
        (b, a, h) if swap else (a, b, h)
        for (a, b), h, swap in draw(st.lists(
            st.tuples(st.sampled_from(pairs), head, st.booleans()), max_size=24))
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        run = draw(st.permutations(range(n)))[:draw(st.integers(min_value=2, max_value=n))]
        rules += [(a, a, 1 << b) for a, b in zip(run, run[1:])]
    rules += [(a, a, h) for a, h in draw(st.lists(st.tuples(elem, mask), max_size=3))]
    return n, draw(st.permutations(rules))


class TestGroupedPartners:
    """``horn_closure`` groups each element's partners by head mask; the
    per-partner kernel it replaced is the referee."""

    @settings(max_examples=300, deadline=None)
    @given(grouped_systems(), st.randoms(use_true_random=False))
    def test_close_matches_the_per_partner_kernel(self, system, rng):
        n, rules = system
        close, ref = oc.horn_closure(n, rules), partner_horn_closure(n, rules)
        starts = [0] + [1 << i for i in rng.sample(range(n), n)]
        starts += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(10)]
        for s in starts:
            assert close(s) == ref(s)
        for s in starts:
            a = ref(s)
            for k in range(n):
                bit = 1 << k
                if not a & bit:
                    assert close(a | bit, bit) == ref(a | bit, bit)

    @settings(max_examples=300, deadline=None)
    @given(grouped_systems())
    def test_closed_sets_match_the_per_partner_kernel(self, system):
        n, rules = system
        got = oc.closed_sets(n, oc.horn_closure(n, rules))
        assert got == oc.closed_sets(n, partner_horn_closure(n, rules))


@pytest.mark.parametrize("kind", list(tower.TowerKind), ids=lambda k: k.name)
def test_closed_sets_work_is_linear_on_towers(kind):
    # on the towers the walk makes at most two closures per closed set
    c = tower.truncate(kind, 400)
    close = gate_closure(c)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return close(*args)

    found = oc.closed_sets(c.n, counted)
    assert len(found) == c.n + 1
    assert calls <= 2 * c.n
