"""Cyclic reduction and conjugacy vs brute-force conjugator search."""

import random
from collections import Counter
from math import gcd

import pytest

from conftest import KERNEL_GRAPHS
from oracles_bf import ref_root_candidates
from raagkit import conjugacy
from raagkit.conjugacy import (
    are_conjugate,
    conjugacy_witness,
    cyclic_reduce,
    cyclically_reduced_conjugates,
    is_cyclically_reduced,
    max_root,
    mth_root,
)
from raagkit.elements import GroupElement, canon_codes, element, identity, pow_codes, power
from raagkit.errors import InvariantViolationError, ResourceCapError
from raagkit.order import meet
from raagkit.presentation import CommutationGraph
from raagkit.sampling import random_codes, stream

FIXTURES = ["free2", "z2", "f2xz"]


def _random_elem(rng, g, max_len):
    from raagkit.elements import GroupElement

    return GroupElement(g, random_codes(rng, g, max_len))


class TestCyclicallyReduced:
    def test_frozen(self, free2, f2xz):
        assert is_cyclically_reduced(identity(free2))
        assert not is_cyclically_reduced(element(free2, "a b a^-1"))
        # a c shares no first letter with its inverse, despite the commutation
        assert is_cyclically_reduced(element(f2xz, "a c"))

    def test_definitional(self, f2xz, balls):
        for w in balls("f2xz", 3):
            assert is_cyclically_reduced(w) == meet(w, ~w).is_identity()


class TestCyclicReduce:
    def test_frozen(self, free2, f2xz):
        r = cyclic_reduce(element(free2, "a b a^-1"))
        assert r.conjugator == element(free2, "a")
        assert r.core == element(free2, "b")
        r = cyclic_reduce(element(f2xz, "c a c^-1"))
        assert r.conjugator == identity(f2xz)
        assert r.core == element(f2xz, "a")

    def test_already_reduced(self, free2):
        w = element(free2, "a b")
        r = cyclic_reduce(w)
        assert r.conjugator.is_identity() and r.core == w

    @pytest.mark.parametrize("name", FIXTURES)
    def test_invariants(self, graphs, name):
        g = graphs[name]
        rng = stream(5, f"cycred:{name}")
        for _ in range(1000):
            w = _random_elem(rng, g, 8)
            r = cyclic_reduce(w)
            u, v = r.conjugator, r.core
            assert is_cyclically_reduced(v)
            assert u == meet(w, ~w)
            assert u * v * ~u == w
            assert len(w) == 2 * len(u) + len(v)
            assert r.whole() == w


class TestPowerLaws:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_meet_of_powers_is_conjugator(self, graphs, name):
        # meet(w^n, w^-m) equals meet(w, w^-1) for n, m >= 1
        g = graphs[name]
        rng = stream(6, f"powmeet:{name}")
        for _ in range(1000):
            w = _random_elem(rng, g, 6)
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            assert meet(power(w, n), power(w, -m)) == meet(w, ~w)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_power_preserves_cyclic_reducedness(self, graphs, name):
        g = graphs[name]
        rng = stream(7, f"powred:{name}")
        for _ in range(500):
            w = _random_elem(rng, g, 6)
            base = is_cyclically_reduced(w)
            for n in (-3, -2, -1, 1, 2, 3):
                if w.is_identity():
                    assert is_cyclically_reduced(power(w, n))
                else:
                    assert is_cyclically_reduced(power(w, n)) == base

    @pytest.mark.parametrize("name", FIXTURES)
    def test_torsion_free(self, graphs, name):
        g = graphs[name]
        rng = stream(8, f"torsion:{name}")
        for _ in range(500):
            w = _random_elem(rng, g, 6)
            if w.is_identity():
                continue
            for n in (2, 3, 4):
                assert not power(w, n).is_identity()

    @pytest.mark.parametrize("name", FIXTURES)
    def test_power_length_formula(self, graphs, name):
        g = graphs[name]
        rng = stream(9, f"powlen:{name}")
        for _ in range(500):
            w = _random_elem(rng, g, 6)
            r = cyclic_reduce(w)
            for n in range(1, 6):
                assert len(power(w, n)) == 2 * len(r.conjugator) + n * len(r.core)


class TestConjugateSet:
    def test_frozen(self, free2, z2, f2xz):
        assert cyclically_reduced_conjugates(identity(free2)) == {identity(free2)}
        assert cyclically_reduced_conjugates(element(free2, "a b")) == {
            element(free2, "a b"),
            element(free2, "b a"),
        }
        assert cyclically_reduced_conjugates(element(z2, "a b")) == {element(z2, "a b")}

    def test_rejects_unreduced(self, free2):
        with pytest.raises(ValueError):
            cyclically_reduced_conjugates(element(free2, "a b a^-1"))

    def test_cap(self, free2):
        with pytest.raises(ResourceCapError):
            cyclically_reduced_conjugates(element(free2, "a b"), cap=1)

    def test_members_are_cyclically_reduced_conjugates(self, f2xz):
        rng = stream(10, "ccset")
        for _ in range(200):
            w = _random_elem(rng, f2xz, 6)
            v = cyclic_reduce(w).core
            for t in cyclically_reduced_conjugates(v):
                assert len(t) == len(v)
                assert is_cyclically_reduced(t)
                assert are_conjugate(t, v)


class TestAreConjugate:
    def test_frozen(self, free2):
        w = element(free2, "a b")
        assert are_conjugate(w, w)
        assert are_conjugate(w, element(free2, "b a"))
        assert not are_conjugate(w, element(free2, "a b^-1"))

    def test_witness_frozen(self, free2):
        c = conjugacy_witness(element(free2, "a b"), element(free2, "b a"))
        assert c == element(free2, "a")

    def test_wrong_certificate_is_an_invariant_error(self, free2, monkeypatch):
        # The certificate check must survive `python -O`, so it raises
        # instead of asserting. A closure that maps the core to a wrong
        # conjugator (a) must be caught.
        monkeypatch.setattr(conjugacy, "_conjugate_closure", lambda graph, v, cap: {v: (0,)})
        w = element(free2, "a b")
        with pytest.raises(InvariantViolationError):
            conjugacy_witness(w, w)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_against_brute_force(self, graphs, balls, name):
        # Brute force is one-sided complete here: any conjugator of ball(3)
        # elements that exists within ball(4) must be found by the procedure,
        # and every procedure "true" must produce a verifying witness.
        g = graphs[name]
        b3 = sorted(balls(name, 3), key=lambda e: (len(e.codes), e.codes))
        b4 = balls(name, 4)
        brute = {x: frozenset(c * x * ~c for c in b4) for x in b3}
        for x in b3:
            for y in b3:
                proc = are_conjugate(x, y)
                if y in brute[x]:
                    assert proc, f"missed conjugacy {x!r} ~ {y!r}"
                if proc:
                    c = conjugacy_witness(x, y)
                    assert c is not None and ~c * x * c == y
                else:
                    assert conjugacy_witness(x, y) is None

    def test_random_conjugates_detected(self, f2xz):
        rng = stream(11, "randconj")
        for _ in range(300):
            w = _random_elem(rng, f2xz, 6)
            c = _random_elem(rng, f2xz, 4)
            assert are_conjugate(w, ~c * w * c)


class TestMthRoot:
    def test_frozen(self, z2, free2):
        assert mth_root(element(z2, "a^2 b^2"), 2) == element(z2, "a b")
        assert mth_root(element(free2, "a b"), 2) is None

    def test_degree_one_and_identity(self, free2):
        w = element(free2, "a b^-1")
        assert mth_root(w, 1) == w
        for m in (1, 2, 5):
            assert mth_root(identity(free2), m) == identity(free2)
        with pytest.raises(ValueError):
            mth_root(w, 0)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_recovers_constructed_powers(self, graphs, name):
        g = graphs[name]
        rng = stream(12, f"root:{name}")
        for _ in range(300):
            x = _random_elem(rng, g, 5)
            m = rng.randint(2, 4)
            w = power(x, m)
            got = mth_root(w, m)
            if x.is_identity():
                assert got == x
            else:
                assert got is not None and power(got, m) == w

    @pytest.mark.parametrize("name", FIXTURES)
    def test_roots_unique_on_ball(self, graphs, balls, name):
        # x^m = y^m forces x = y: the power map is injective.
        for m in (2, 3):
            seen = {}
            for x in balls(name, 2):
                w = power(x, m)
                assert seen.setdefault(w, x) == x
            # and mth_root inverts it wherever it was hit
            for w, x in seen.items():
                assert mth_root(w, m) == x


class TestMaxRoot:
    def test_frozen(self, free2):
        a = element(free2, "a")
        assert max_root(a) == (a, 1)
        assert max_root(element(free2, "a^6")) == (a, 6)
        assert max_root(element(free2, "a b a b")) == (element(free2, "a b"), 2)

    def test_identity_rejected(self, free2):
        with pytest.raises(ValueError):
            max_root(identity(free2))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_maximality(self, graphs, name):
        g = graphs[name]
        rng = stream(13, f"maxroot:{name}")
        for _ in range(200):
            x = _random_elem(rng, g, 4)
            if x.is_identity():
                continue
            n = rng.randint(1, 4)
            w = power(x, n)
            p, m = max_root(w)
            assert power(p, m) == w
            assert m >= n
            assert max_root(p) == (p, 1)


def _ref_max_root_degree(g, v):
    """The largest m dividing every letter count of v with a root by the DFS."""
    d = gcd(*Counter(v).values())
    return next(m for m in range(d, 0, -1) if d % m == 0 and ref_root_candidates(g, v, m) is not None)


class TestRootsMatchReference:
    """The occurrence-block root against the depth-first prefix search."""

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_cores_and_their_powers(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = stream(15, f"rootref:{name}")
        for _ in range(150):
            v = cyclic_reduce(_random_elem(rng, g, 6)).core.codes
            if not v:
                continue
            for k in (1, 2, 3):
                vk = pow_codes(g, v, k)
                w = GroupElement(g, vk)
                for m in (1, 2, 3, 4, 6):
                    got = mth_root(w, m)
                    assert (None if got is None else got.codes) == ref_root_candidates(g, vk, m)
                p, m = max_root(w)
                assert m == _ref_max_root_degree(g, vk)
                assert p.codes == ref_root_candidates(g, vk, m)

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_conjugated_powers(self, kernel_graphs, name):
        # roots of u·vᵏ·u⁻¹ are u·(root of the core)·u⁻¹
        g = kernel_graphs[name]
        rng = stream(16, f"rootconj:{name}")
        for _ in range(200):
            u, x = _random_elem(rng, g, 4), _random_elem(rng, g, 5)
            if x.is_identity():
                continue
            k = rng.randint(1, 3)
            w = u * power(x, k) * ~u
            r = cyclic_reduce(w)
            p, m = max_root(w)
            assert m == _ref_max_root_degree(g, r.core.codes)
            assert p == r.conjugator * GroupElement(g, ref_root_candidates(g, r.core.codes, m)) * ~r.conjugator


def test_no_root_of_long_core_is_decided_at_once():
    # (F2)^6, each factor a²b²a⁴b⁴: every letter count is 6, yet no proper
    # root exists; the prefix search had to exhaust every candidate (~20 s).
    k = 6
    names = [f"{c}{i}" for i in range(k) for c in "ab"]
    edges = {frozenset((2 * i + p, 2 * j + q)) for i in range(k) for j in range(i + 1, k) for p in (0, 1) for q in (0, 1)}
    g = CommutationGraph(names, edges)
    w = element(g, " ".join(f"a{i}^2 b{i}^2 a{i}^4 b{i}^4" for i in range(k)))
    assert len(w.codes) == 72
    assert mth_root(w, 2) is None
    assert max_root(w) == (w, 1)
