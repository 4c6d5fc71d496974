"""Order layer vs brute-force oracles: meet, median, join, boundary, cells."""

import random
from itertools import combinations_with_replacement, product

import pytest

from conftest import KERNEL_GRAPHS
from oracles_bf import brute_interval, brute_median, brute_prefixes, ref_join, ref_meet
from raagkit.checks import check_agroup_axioms, check_median_axioms, orth_codes_definitional
from raagkit.elements import SPLICE_MAX, canon_codes, element, identity, inv_codes, mul_codes
from raagkit.errors import InvariantViolationError, ResourceCapError
from raagkit.order import (
    _reduced_product,
    ball,
    ball_codes,
    boundary,
    interval,
    interval_codes,
    is_orthogonal,
    is_prefix,
    join,
    join_codes,
    median,
    median_codes,
    meet,
    meet_codes,
    oracle_qdir,
    orth_codes,
    prefix_codes,
)
from raagkit.presentation import parse_graph

FIXTURES = ["free2", "z2", "f2xz"]


class TestPrefixFrozen:
    def test_identity_below_everything(self, f2xz, balls):
        e = identity(f2xz)
        for x in balls("f2xz", 3):
            assert is_prefix(e, x)
            assert is_prefix(x, x)

    def test_examples(self, f2xz, free2):
        assert is_prefix(element(f2xz, "c"), element(f2xz, "a c"))
        assert not is_prefix(element(free2, "b"), element(free2, "a b"))

    def test_antisymmetry(self, f2xz, balls):
        for x in balls("f2xz", 3):
            for y in balls("f2xz", 3):
                if is_prefix(x, y) and is_prefix(y, x):
                    assert x == y


class TestReducedProduct:
    def test_frozen(self, free2, f2xz):
        def reduced(g, x, y):
            return _reduced_product(g, element(g, x).codes, element(g, y).codes)

        assert reduced(free2, "a", "b")
        assert not reduced(free2, "a b", "b^-1 a")
        # b hides every generator before a^-1 arrives, so nothing cancels.
        assert reduced(free2, "a", "b a^-1")
        assert not reduced(f2xz, "a c", "a^-1")
        assert reduced(f2xz, "a c", "b a^-1")
        assert reduced(f2xz, "1", "a") and reduced(f2xz, "a", "1")

    def test_matches_length_of_product(self, kernel_graphs):
        # Long random pairs on G(20, 0.3), half of them with b starting by
        # the inverse of a suffix of a, so both answers occur and the sweep
        # often stops early once b's letters hide every generator.
        g = kernel_graphs["G20"]
        rng = random.Random("reduced-product")

        def word(n):
            return canon_codes(g, [rng.randrange(2 * g.ngens) for _ in range(n)])

        seen = set()
        for _ in range(200):
            a = word(rng.randint(0, 256))
            b = word(rng.randint(0, 256))
            if rng.random() < 0.5:
                b = canon_codes(g, inv_codes(g, a[rng.randint(0, len(a)):]) + b)
            got = _reduced_product(g, a, b)
            assert got == (len(mul_codes(g, a, b)) == len(a) + len(b))
            seen.add(got)
        assert seen == {True, False}


class TestMeet:
    def test_frozen(self, f2xz):
        e = identity(f2xz)
        x = element(f2xz, "a b")
        assert meet(x, e) == e and meet(e, x) == e
        assert meet(x, x) == x
        assert meet(element(f2xz, "a b"), element(f2xz, "a c")) == element(f2xz, "a")

    @pytest.mark.parametrize("name", FIXTURES)
    def test_brute_on_ball4_pairs(self, graphs, balls, name):
        # Oracle: the meet is the unique max-length common prefix, and its
        # prefix set is exactly the intersection of the two prefix sets.
        g = graphs[name]
        elems = sorted((x.codes for x in balls(name, 4)))
        prefs = {t: frozenset(brute_prefixes(g, t)) for t in elems}
        for x in elems:
            px = prefs[x]
            for y in elems:
                common = px & prefs[y]
                m = meet_codes(g, x, y)
                assert m in common
                assert prefs[m] == common

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_matches_reference_meet(self, kernel_graphs, name):
        # Pairs grown from a shared random prefix, so the meet is long and
        # the pile sweep is used; then pairs with both sides of at most
        # SPLICE_MAX letters (the short scan), and pairs with one side just
        # over it (the piles again).
        g = kernel_graphs[name]
        rng = random.Random(f"ref-meet:{name}")

        def word(n):
            return canon_codes(g, [rng.randrange(2 * g.ngens) for _ in range(n)])

        def grown(p, n):
            # p extended by letters that do not cancel, cut to n letters.
            x = p
            while len(x) < n:
                y = mul_codes(g, x, (rng.randrange(2 * g.ngens),))
                if len(y) > len(x):
                    x = y
            return x[:n]

        pairs = []
        for _ in range(300):
            p = word(rng.randint(0, 48))
            pairs.append((mul_codes(g, p, word(rng.randint(0, 24))), mul_codes(g, p, word(rng.randint(0, 24)))))
        for over in (False, True):
            for _ in range(300):
                p = word(rng.randint(0, SPLICE_MAX))
                x = grown(p, rng.randint(0, SPLICE_MAX))
                y = grown(p, SPLICE_MAX + 1 if over else rng.randint(0, SPLICE_MAX))
                pairs.append((x, y))
        for x, y in pairs:
            assert meet_codes(g, x, y) == ref_meet(g, x, y)
            assert meet_codes(g, y, x) == ref_meet(g, x, y)

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_stream_matches_reference_meet(self, kernel_graphs, name):
        # a ∩ b·c·c·… for a cyclically reduced c and b·cᴹ reduced, against
        # the meet with b·cᴹ built at M = l(a) + 2 copies.  a is a prefix of
        # that word plus noise, so the meet is long; a and b range across
        # SPLICE_MAX, so both the short scan and the piles are used.
        g = kernel_graphs[name]
        rng = random.Random(f"ref-stream:{name}")

        def word(n):
            return canon_codes(g, [rng.randrange(2 * g.ngens) for _ in range(n)])

        done = 0
        while done < 300:
            c = word(rng.randint(1, 8))
            b = word(rng.randint(0, 2 * SPLICE_MAX)) if rng.random() < 0.7 else ()
            head = mul_codes(g, b, c * 3)
            if len(mul_codes(g, c, c)) != 2 * len(c) or len(head) != len(b) + 3 * len(c):
                continue
            a = mul_codes(g, head[: rng.randint(0, len(head))], word(rng.randint(0, 6)))
            m = len(a) + 2
            full = canon_codes(g, b + c * m)
            assert len(full) == len(b) + m * len(c)
            assert meet_codes(g, a, b, c) == ref_meet(g, a, full)
            done += 1

    def test_factorization(self, f2xz, balls):
        # x = (x∩y)·m⁻¹x with no cancellation.
        g = f2xz
        elems = [x.codes for x in balls("f2xz", 3)]
        for x in elems:
            for y in elems:
                m = meet_codes(g, x, y)
                rest = mul_codes(g, inv_codes(g, m), x)
                assert len(m) + len(rest) == len(x)


class TestMedian:
    def test_frozen(self, z2, f2xz):
        a, b, ab = element(z2, "a"), element(z2, "b"), element(z2, "a b")
        assert median(a, b, ab) == ab
        x, y = element(f2xz, "a b"), element(f2xz, "b a")
        assert median(x, y, x) == x
        assert median(identity(f2xz), x, y) == meet(x, y)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_brute_on_ball3_triples(self, graphs, balls, name):
        # The median must be the unique common point of the three pairwise
        # cells, for every unordered triple (symmetry is tested separately).
        g = graphs[name]
        elems = sorted(x.codes for x in balls(name, 3))
        cells: dict = {}
        for x, y, z in combinations_with_replacement(elems, 3):
            assert median_codes(g, x, y, z) == brute_median(g, x, y, z, cells)


class TestJoinAndOrthogonality:
    def test_frozen(self, free2, f2xz):
        x = element(free2, "a b")
        assert join(x, identity(free2)) == x
        assert join(element(free2, "a"), element(free2, "b")) is None
        assert join(element(f2xz, "a"), element(f2xz, "c")) == element(f2xz, "a c")
        assert is_orthogonal(identity(f2xz), element(f2xz, "a b"))
        assert not is_orthogonal(element(f2xz, "a"), element(f2xz, "a^-1"))
        assert is_orthogonal(element(f2xz, "a"), element(f2xz, "c"))
        assert not is_orthogonal(element(f2xz, "a"), element(f2xz, "b"))

    def test_join_dominates_both(self, f2xz, balls):
        g = f2xz
        for x in balls("f2xz", 3):
            for y in balls("f2xz", 3):
                j = join_codes(g, x.codes, y.codes)
                if j is not None:
                    assert prefix_codes(g, x.codes, j) and prefix_codes(g, y.codes, j)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fast_path_matches_definitional(self, graphs, balls, name):
        g = graphs[name]
        elems = [x.codes for x in balls(name, 3)]
        for x in elems:
            for y in elems:
                assert orth_codes(g, x, y) == orth_codes_definitional(g, x, y)

    @pytest.mark.parametrize("name", ["C5", "K8", "G20"])
    def test_matches_reference_join_on_ball2(self, kernel_graphs, balls, name):
        # Every pair of ball(2) on C5 and K_8; on G(20, 0.3), whose ball(2)
        # has ~1.95M pairs, a seeded sample of them.
        g = kernel_graphs[name]
        elems = sorted(x.codes for x in balls(name, 2))
        if name == "G20":
            rng = random.Random("ref-join")
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(20_000)]
        else:
            pairs = product(elems, repeat=2)
        seen = set()
        for x, y in pairs:
            got = join_codes(g, x, y)
            assert got == ref_join(g, x, y), (x, y)
            seen.add(got is None)
        assert seen == {True, False}

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_matches_reference_join_on_long_words(self, kernel_graphs, name):
        # x of 64-256 letters against a prefix p of x, against p·t with t
        # orthogonal to x's tail p⁻¹x and x·t reduced (the join is then
        # x·t), and against p·t for a random t.
        g = kernel_graphs[name]
        rng = random.Random(f"ref-join-long:{name}")
        seen = set()
        for _ in range(30):
            x = canon_codes(g, [rng.randrange(2 * g.ngens) for _ in range(rng.randint(64, 256))])
            p = x[: rng.randint(max(0, len(x) - 8), len(x))]
            tail = mul_codes(g, inv_codes(g, p), x)
            t: tuple[int, ...] = ()
            for s in rng.sample(range(2 * g.ngens), 2 * g.ngens):
                if orth_codes(g, tail, (s,)) and len(mul_codes(g, x, t + (s,))) == len(x) + len(t) + 1:
                    t = canon_codes(g, t + (s,))
            noise = canon_codes(g, [rng.randrange(2 * g.ngens) for _ in range(4)])
            for y in (p, mul_codes(g, p, t), mul_codes(g, p, noise)):
                got = join_codes(g, x, y)
                assert got == ref_join(g, x, y), (x, y)
                seen.add(got is None)
            assert join_codes(g, x, mul_codes(g, p, t)) == mul_codes(g, x, t)
        assert seen == {True, False}

    def test_orthogonal_product_law(self, f2xz, balls):
        # x ⊥ y forces xy = yx = x ∪ y.
        g = f2xz
        elems = [x.codes for x in balls("f2xz", 3)]
        for x in elems:
            for y in elems:
                if orth_codes(g, x, y):
                    xy = mul_codes(g, x, y)
                    assert xy == mul_codes(g, y, x)
                    assert join_codes(g, x, y) == xy


class TestInterval:
    def test_frozen(self, z2, free2, f2xz):
        got = interval(identity(z2), element(z2, "a b"))
        assert got == {element(z2, t) for t in ("1", "a", "b", "a b")}
        got = interval(identity(free2), element(free2, "a b"))
        assert got == {element(free2, t) for t in ("1", "a", "a b")}
        x = element(f2xz, "b c")
        assert interval(x, x) == {x}

    def test_membership_is_geodesic(self, f2xz, balls):
        # z ∈ [x, y] ⟺ l(x⁻¹z) + l(z⁻¹y) = l(x⁻¹y), spot-checked by definition.
        g = f2xz
        x = element(g, "a^-1")
        y = element(g, "a c b")
        cell = interval(x, y)
        for z in balls("f2xz", 3):
            expected = len((~x * z).codes) + len((~z * y).codes) == len((~x * y).codes)
            assert (z in cell) == expected

    def test_translation(self, f2xz):
        rng = random.Random("interval-translate")
        g = f2xz
        for _ in range(50):
            raw1 = tuple(rng.randrange(6) for _ in range(rng.randint(0, 4)))
            raw2 = tuple(rng.randrange(6) for _ in range(rng.randint(0, 4)))
            x, y = canon_codes(g, raw1), canon_codes(g, raw2)
            cell = interval(elem(g, x), elem(g, y))
            assert {e.codes for e in cell} == brute_interval(g, x, y)

    def test_cap(self, f2xz):
        with pytest.raises(ResourceCapError) as e:
            interval(identity(f2xz), element(f2xz, "a c b a c b"), cap=3)
        assert "3" in str(e.value)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_graded_chains(self, graphs, balls, name):
        # Every maximal chain in [1, v] is saturated of length l(v): each
        # non-top element has an upper cover in the cell, each non-bottom
        # element a lower cover.
        g = graphs[name]
        for v in balls(name, 3):
            cell = interval_codes(g, v.codes)
            by_len: dict[int, list] = {}
            for t in cell:
                by_len.setdefault(len(t), []).append(t)
            assert sorted(by_len) == list(range(len(v.codes) + 1))
            for t in cell:
                if len(t) < len(v.codes):
                    assert any(
                        prefix_codes(g, t, u) for u in by_len.get(len(t) + 1, [])
                    )
                if len(t) > 0:
                    assert any(
                        prefix_codes(g, u, t) for u in by_len.get(len(t) - 1, [])
                    )


class TestBoundary:
    def test_frozen(self, f2xz, free2):
        g = f2xz
        assert boundary(element(g, "a")) == {identity(g), element(g, "a")}
        assert boundary(element(g, "a c")) == {element(g, t) for t in ("1", "a", "c", "a c")}
        assert boundary(element(free2, "a b")) == {element(free2, t) for t in ("1", "a b")}

    def test_cap(self, f2xz):
        with pytest.raises(ResourceCapError):
            boundary(element(f2xz, "a c b a c b"), cap=3)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_power_of_two_and_complement_closure(self, graphs, balls, name):
        g = graphs[name]
        for v in balls(name, 3):
            bd = boundary(v)
            assert identity(g) in bd and v in bd
            n = len(bd)
            assert n & (n - 1) == 0, f"|boundary| = {n} is not a power of 2"
            for a in bd:
                comp = ~a * v
                assert comp in bd
                assert a * comp == v


class TestBall:
    @pytest.mark.parametrize(
        "name,sizes",
        [
            ("f2xz", [1, 7, 29, 99, 313]),
            ("free2", [1, 5, 17, 53, 161]),
            ("z2", [1, 5, 13, 25, 41]),
        ],
    )
    def test_sizes_match_exhaustive_enumeration(self, graphs, name, sizes):
        g = graphs[name]
        n2 = 2 * g.ngens
        for r, expect in enumerate(sizes):
            exhaustive = set()
            for k in range(r + 1):
                for raw in product(range(n2), repeat=k):
                    exhaustive.add(canon_codes(g, raw))
            got = set(ball_codes(g, r))
            assert got == exhaustive
            assert len(got) == expect

    def test_rank_one(self):
        g = parse_graph("gens: a\n")
        assert len(ball(g, 2)) == 5

    def test_rank_two_radius_one(self, free2):
        assert len(ball(free2, 1)) == 5

    def test_cap(self, f2xz):
        with pytest.raises(ResourceCapError):
            ball(f2xz, 4, cap=100)


class TestOracleQdir:
    def test_equal_endpoints(self, free2):
        a = element(free2, "a b")
        assert oracle_qdir(a, a, lambda x, y: True) == a

    def test_always_true_returns_near_end(self, free2):
        # With every element admitted, the fold toward the first argument
        # returns the first argument itself.
        a, b = element(free2, "a"), element(free2, "a b")
        assert oracle_qdir(a, b, lambda x, y: True) == a

    def test_preorder_example(self, free2):
        w = element(free2, "b")

        def pre(x, y):
            return is_prefix(~x * y, ~x * w * y)

        assert oracle_qdir(identity(free2), element(free2, "a"), pre) == identity(free2)

    def test_discriminating_case(self, f2xz):
        # Commuting direction: both cell elements sit above both endpoints,
        # and the fold lands on the first argument's side.
        w = element(f2xz, "c")

        def pre(x, y):
            return is_prefix(~x * y, ~x * w * y)

        assert oracle_qdir(identity(f2xz), element(f2xz, "a"), pre) == identity(f2xz)

    def test_broken_predicate_raises(self, free2):
        with pytest.raises(InvariantViolationError):
            oracle_qdir(
                identity(free2), element(free2, "a"), lambda x, y: False
            )


EXPECTED_MEDIAN_AXIOMS = [
    "median-symmetry",
    "median-absorption",
    "median-selfdistributivity",
]
EXPECTED_AGROUP_AXIOMS = [
    "orthogonal-product-law",
    "inverse-prefix-transfer",
    "meet-triviality-transfer",
    "no-inverse-join",
]


class TestCheckRunners:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_median_axioms_pass(self, graphs, name):
        report = check_median_axioms(graphs[name], samples=400, seed=11)
        assert [r["axiom"] for r in report] == EXPECTED_MEDIAN_AXIOMS
        for r in report:
            assert r["samples"] == 400
            assert r["failures"] == []

    @pytest.mark.parametrize("name", FIXTURES)
    def test_agroup_axioms_pass(self, graphs, name):
        report = check_agroup_axioms(graphs[name], samples=300, seed=7)
        assert [r["axiom"] for r in report] == EXPECTED_AGROUP_AXIOMS
        for r in report:
            assert r["samples"] == 300
            assert r["failures"] == []

    def test_deterministic(self, f2xz):
        r1 = check_median_axioms(f2xz, samples=100, seed=3)
        r2 = check_median_axioms(f2xz, samples=100, seed=3)
        assert r1 == r2
        r3 = check_agroup_axioms(f2xz, samples=100, seed=3)
        r4 = check_agroup_axioms(f2xz, samples=100, seed=3)
        assert r3 == r4


def elem(g, codes):
    from raagkit.elements import GroupElement

    return GroupElement(g, codes)
