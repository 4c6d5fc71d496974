"""Canonical forms validated against the exhaustive rewriting closure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KERNEL_GRAPHS
from oracles_bf import brute_canonical, minimal_multiset, rewriting_closure
from raagkit.checks import outside_span
from raagkit.elements import (
    SPLICE_MAX,
    _shortlex_heap,
    _splice,
    canon_codes,
    element,
    first_letters,
    identity,
    inv_codes,
    mul_codes,
    normalize,
    pow_codes,
    reduce_codes,
    render,
    support,
)
from raagkit.errors import GraphMismatchError
from raagkit.presentation import CommutationGraph, SignedLetter, Word, code_letter, parse_word
from raagkit.structure import centralizer, in_centralizer

ORACLE_SAMPLES = 10_000
ORACLE_MAX_LEN = 6


def _random_raw(rng: random.Random, ngens: int, max_len: int) -> tuple[int, ...]:
    """Uniform raw (possibly unreduced) word: length first, then letters."""
    n = rng.randint(0, max_len)
    return tuple(rng.randrange(2 * ngens) for _ in range(n))


def _random_reduced(rng: random.Random, g, length: int) -> list[int]:
    """A reduced word of the given length, letters in random (not canonical)
    order: a random letter is kept whenever it does not cancel."""
    w: list[int] = []
    while len(w) < length:
        w2 = reduce_codes(g, w + [rng.randrange(2 * g.ngens)])
        if len(w2) > len(w):
            w = w2
    return w


def _ref_canon(g, raw) -> tuple[int, ...]:
    """The two-pass canonical form, independent of the splice at any length."""
    return _shortlex_heap(g, reduce_codes(g, raw))


class TestCanonicalOracle:
    """normalize must pick the shortlex-least minimal-length closure word."""

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_matches_rewriting_closure(self, kernel_graphs, name):
        # Both shortlex paths, whatever the length switch picks at this size.
        g = kernel_graphs[name]
        rng = random.Random(f"canon-oracle:{name}")
        for _ in range(ORACLE_SAMPLES):
            raw = _random_raw(rng, g.ngens, ORACLE_MAX_LEN)
            want = brute_canonical(g, raw)
            assert canon_codes(g, raw) == want
            assert _ref_canon(g, raw) == want

    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz"])
    def test_minimal_length_letter_multiset_is_unique(self, graphs, name):
        # All minimal-length words equal to a given one share one letter multiset.
        g = graphs[name]
        rng = random.Random(f"multiset:{name}")
        for _ in range(500):
            raw = _random_raw(rng, g.ngens, ORACLE_MAX_LEN)
            assert len(minimal_multiset(g, raw)) == 1

    def test_canonical_form_is_closure_member(self, f2xz):
        rng = random.Random("member")
        for _ in range(300):
            raw = _random_raw(rng, 3, 5)
            assert canon_codes(f2xz, raw) in rewriting_closure(f2xz, raw)


class TestShortlexSwitch:
    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_heap_equals_scan_on_both_sides(self, kernel_graphs, name):
        # Every prefix of a raw word, lengths 0..3·SPLICE_MAX, which straddle
        # the switch; the splice itself is compared at every length too.
        g = kernel_graphs[name]
        rng = random.Random(f"splice-switch:{name}")
        for _ in range(3):
            raw = [rng.randrange(2 * g.ngens) for _ in range(3 * SPLICE_MAX)]
            for n in range(len(raw) + 1):
                want = _ref_canon(g, raw[:n])
                assert canon_codes(g, raw[:n]) == want
                assert _splice(g.block_mask, [], raw[:n]) == want

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_inverse_and_product_match_heap_on_both_sides(self, kernel_graphs, name):
        # A reduced word w of 3·SPLICE_MAX letters split as w = a·b at every
        # point, so l(a) and l(b) both cross the switch.
        g = kernel_graphs[name]
        rng = random.Random(f"splice-inv-mul:{name}")
        for _ in range(3):
            w = _random_reduced(rng, g, 3 * SPLICE_MAX)
            whole = _ref_canon(g, w)
            for n in range(len(w) + 1):
                a = _ref_canon(g, w[:n])
                b = _ref_canon(g, w[n:])
                assert inv_codes(g, a) == _ref_canon(g, [l ^ 1 for l in reversed(w[:n])])
                assert mul_codes(g, a, b) == whole


class TestMulLetter:
    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_every_letter_matches_canon(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = random.Random(f"mul-letter:{name}")
        for length in range(49):
            a = _ref_canon(g, _random_reduced(rng, g, length))
            for s in range(2 * g.ngens):
                assert mul_codes(g, a, (s,)) == _ref_canon(g, a + (s,))

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_short_and_long_right_factors_match_canon(self, kernel_graphs, name):
        # Both sides of SPLICE_MAX, with factors that partly cancel.
        g = kernel_graphs[name]
        rng = random.Random(f"mul-short:{name}")
        for _ in range(300):
            a = _ref_canon(g, _random_reduced(rng, g, rng.randint(0, 40)))
            b = _ref_canon(g, _random_reduced(rng, g, rng.randint(0, SPLICE_MAX + 4)))
            if rng.random() < 0.5:
                b = _ref_canon(g, [l ^ 1 for l in reversed(a[-rng.randint(0, len(a)):])] + list(b))
            assert mul_codes(g, a, b) == _ref_canon(g, a + b)

    def test_cancels_a_last_letter(self, f2xz):
        a = element(f2xz, "a b c^5")
        assert render(a * element(f2xz, "b^-1")) == "a c^5"
        assert render(a * element(f2xz, "c^-1")) == "a b c^4"

    def test_commutes_with_a_long_tail(self, f2xz, z2):
        assert render(element(f2xz, "a b c^5") * element(f2xz, "a")) == "a b a c^5"
        assert render(element(z2, "b^10") * element(z2, "a")) == "a b^10"
        assert render(element(z2, "a^3 b^10") * element(z2, "a^-1")) == "a^2 b^10"


class TestFrozenForms:
    def test_conjugate_collapses(self, f2xz):
        assert render(element(f2xz, "c a c^-1")) == "a"

    def test_commuting_letters_sort(self, f2xz):
        # c commutes with a and b, so a may float left past it.
        assert render(element(f2xz, "a b c")) == "a b c"
        assert render(element(f2xz, "b c a")) == "b a c"
        assert render(element(f2xz, "c b")) == "b c"

    def test_free_group_no_reordering(self, free2):
        assert render(element(free2, "b a")) == "b a"

    def test_z2_sorts(self, z2):
        assert render(element(z2, "b a")) == "a b"
        assert render(element(z2, "b^2 a^-1 b")) == "a^-1 b^3"

    def test_cancellation_through_commuting_letter(self, f2xz):
        assert element(f2xz, "a c a^-1") == element(f2xz, "c")

    def test_identity_forms(self, f2xz):
        e = identity(f2xz)
        assert e.is_identity() and len(e) == 0 and render(e) == "1"
        assert element(f2xz, "a a^-1") == e
        assert element(f2xz, "1") == e


class TestGroupLaws:
    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz"])
    def test_random_identities(self, graphs, name):
        g = graphs[name]
        rng = random.Random(f"laws:{name}")
        e: tuple[int, ...] = ()
        for _ in range(2000):
            x = canon_codes(g, _random_raw(rng, g.ngens, 8))
            y = canon_codes(g, _random_raw(rng, g.ngens, 8))
            z = canon_codes(g, _random_raw(rng, g.ngens, 8))
            xy = mul_codes(g, x, y)
            # associativity, identity, inverses
            assert mul_codes(g, xy, z) == mul_codes(g, x, mul_codes(g, y, z))
            assert mul_codes(g, x, e) == x and mul_codes(g, e, x) == x
            assert mul_codes(g, x, inv_codes(g, x)) == e
            assert inv_codes(g, inv_codes(g, x)) == x
            # length laws
            assert len(xy) <= len(x) + len(y)
            assert (len(xy) - len(x) - len(y)) % 2 == 0
            assert len(inv_codes(g, x)) == len(x)

    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz"])
    def test_powers(self, graphs, name):
        g = graphs[name]
        rng = random.Random(f"pow:{name}")
        for _ in range(300):
            x = canon_codes(g, _random_raw(rng, g.ngens, 6))
            acc: tuple[int, ...] = ()
            for n in range(5):
                assert pow_codes(g, x, n) == acc
                assert pow_codes(g, x, -n) == inv_codes(g, acc)
                acc = mul_codes(g, acc, x)

    def test_pow_operator(self, free2):
        x = element(free2, "a b")
        assert x**3 == x * x * x
        assert x**0 == identity(free2)
        assert x**-2 == ~(x * x)
        assert ~x == element(free2, "b^-1 a^-1")


class TestFirstLetters:
    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz"])
    def test_definitional(self, graphs, balls, name):
        # s is a first letter of x exactly when s^-1 x is shorter than x.
        g = graphs[name]
        letters = [SignedLetter(i, s) for i in range(g.ngens) for s in (1, -1)]
        for x in balls(name, 3):
            fl = first_letters(x)
            for l in letters:
                lx = ~element_from_letter(g, l) * x
                assert (len(lx) == len(x) - 1) == (l in fl)

    def test_frozen(self, f2xz):
        assert first_letters(element(f2xz, "a c")) == {SignedLetter(0, 1), SignedLetter(2, 1)}
        assert first_letters(element(f2xz, "a b")) == {SignedLetter(0, 1)}
        assert first_letters(identity(f2xz)) == set()

    def test_at_most_one_per_generator(self, f2xz, balls):
        for x in balls("f2xz", 3):
            gens = [l.gen for l in first_letters(x)]
            assert len(gens) == len(set(gens))


def element_from_letter(g, letter: SignedLetter):
    return normalize(Word((letter,)), g)


class TestSupport:
    def test_examples(self, f2xz):
        assert support(element(f2xz, "a c^-2 a")) == {0, 2}
        assert support(identity(f2xz)) == set()

    def test_invariant_under_inverse(self, f2xz, balls):
        for x in balls("f2xz", 3):
            assert support(~x) == support(x)


class TestRenderRoundTrip:
    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz"])
    def test_round_trip_on_ball(self, graphs, balls, name):
        g = graphs[name]
        for x in balls(name, 4):
            assert element(g, render(x)) == x

    def test_run_length(self, free2):
        assert render(element(free2, "a a a b^-1")) == "a^3 b^-1"


class TestGraphMismatch:
    def test_mul_rejects(self, free2, z2):
        with pytest.raises(GraphMismatchError):
            element(free2, "a") * element(z2, "a")

    def test_eq_is_false_across_graphs(self, free2, z2):
        assert element(free2, "a") != element(z2, "a")

    def test_in_centralizer_rejects(self, free2, z2):
        with pytest.raises(GraphMismatchError):
            in_centralizer(element(free2, "a"), element(z2, "a"))

    def test_equal_graphs_are_one_presentation(self, free2):
        # A second copy of a graph is the same presentation, not a mismatch.
        copy = CommutationGraph(list(free2.generators), set(free2.commuting_pairs))
        assert copy is not free2
        assert element(copy, "a b") == element(free2, "a b")
        assert element(copy, "a") * element(free2, "b") == element(free2, "a b")
        assert not in_centralizer(element(copy, "a"), element(free2, "b"))

    def test_generated_within_rejects(self, free2, z2):
        # Membership in a centralizer's span: elements and generators must
        # come from the presentation of w.
        w = element(free2, "a")
        with pytest.raises(GraphMismatchError):
            outside_span(w, centralizer(w), [element(z2, "a")])
        with pytest.raises(GraphMismatchError):
            outside_span(w, centralizer(element(z2, "a")), [])


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_hypothesis_canonical_idempotent(data, f2xz):
    raw = tuple(
        data.draw(st.lists(st.integers(min_value=0, max_value=5), max_size=10))
    )
    c = canon_codes(f2xz, raw)
    assert canon_codes(f2xz, c) == c
    # canonical length is minimal over the closure
    cl = rewriting_closure(f2xz, raw)
    assert len(c) == min(len(w) for w in cl)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_hypothesis_mul_inverse_cancel(data, f2xz):
    raw1 = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=5), max_size=8)))
    raw2 = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=5), max_size=8)))
    x, y = canon_codes(f2xz, raw1), canon_codes(f2xz, raw2)
    xy = mul_codes(f2xz, x, y)
    assert mul_codes(f2xz, mul_codes(f2xz, xy, inv_codes(f2xz, y)), inv_codes(f2xz, x)) == ()


def test_letters_property_round_trip(f2xz):
    # The canonical codes, spelled as signed letters, normalize back to x.
    x = element(f2xz, "c^2 a b^-1")
    assert normalize(Word(tuple(code_letter(c) for c in x.codes)), f2xz) == x
