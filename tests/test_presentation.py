import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagkit.elements import normalize
from raagkit.errors import ParseError, ResourceCapError
from raagkit.presentation import (
    MAX_WORD_LETTERS,
    CommutationGraph,
    SignedLetter,
    Word,
    code_letter,
    letter_code,
    parse_graph,
    parse_word,
    render_codes,
)


def _render(w: Word, g: CommutationGraph) -> str:
    return render_codes(g, [letter_code(l) for l in w.letters])


class TestParseGraph:
    def test_minimal(self):
        g = parse_graph("gens: a b\n")
        assert g.generators == ("a", "b")
        assert g.commuting_pairs == frozenset()

    def test_edges_and_comments(self):
        g = parse_graph("# free times Z\ngens: a b c\nedge: a c\n\nedge: b c\n")
        assert g.generators == ("a", "b", "c")
        assert g.commutes(0, 2) and g.commutes(1, 2)
        assert not g.commutes(0, 1)

    def test_duplicate_edge_collapses(self):
        g = parse_graph("gens: a b\nedge: a b\nedge: b a\n")
        assert g.commuting_pairs == frozenset({frozenset({0, 1})})

    def test_generator_order_preserved(self):
        g = parse_graph("gens: z y x\n")
        assert g.generators == ("z", "y", "x")
        assert g.gen_index("y") == 1

    def test_missing_gens_line(self):
        with pytest.raises(ParseError):
            parse_graph("edge: a b\ngens: a b\n")

    def test_duplicate_generator(self):
        with pytest.raises(ParseError):
            parse_graph("gens: a b a\n")

    def test_unknown_generator_in_edge(self):
        with pytest.raises(ParseError) as e:
            parse_graph("gens: a b\nedge: a q\n")
        assert "line 2" in str(e.value)

    def test_self_edge(self):
        with pytest.raises(ParseError):
            parse_graph("gens: a b\nedge: a a\n")

    def test_second_gens_line(self):
        with pytest.raises(ParseError) as e:
            parse_graph("gens: a\ngens: b\n")
        assert "line 2" in str(e.value)

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_graph("gens: a b\nfrobnicate: a b\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_graph("")

    def test_reserved_name(self):
        with pytest.raises(ParseError):
            parse_graph("gens: a 1\n")

    def test_bad_name_characters(self):
        for bad in ("a^b", "a'b", "a,b"):
            with pytest.raises(ParseError):
                parse_graph(f"gens: {bad} c\n")

    def test_inline_comment_truncates(self):
        # '#' starts a comment even mid-line
        g = parse_graph("gens: a#b c\n")
        assert g.generators == ("a",)

    def test_equality_is_structural(self):
        g1 = parse_graph("gens: a b\nedge: a b\n")
        g2 = parse_graph("# different text\ngens: a b\nedge: b a\n")
        g3 = parse_graph("gens: a b\n")
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != g3


class TestParseWord:
    def test_plain_letters(self, f2xz):
        w = parse_word("a b c", f2xz)
        assert w.letters == (
            SignedLetter(0, 1),
            SignedLetter(1, 1),
            SignedLetter(2, 1),
        )

    def test_powers(self, f2xz):
        w = parse_word("a^3 b^-2", f2xz)
        assert w.letters == (SignedLetter(0, 1),) * 3 + (SignedLetter(1, -1),) * 2

    def test_identity_tokens(self, f2xz):
        assert parse_word("1", f2xz).letters == ()
        assert parse_word("", f2xz).letters == ()
        assert parse_word("   ", f2xz).letters == ()

    def test_unknown_generator(self, f2xz):
        with pytest.raises(ParseError):
            parse_word("a q", f2xz)

    def test_zero_exponent(self, f2xz):
        with pytest.raises(ParseError):
            parse_word("a^0", f2xz)

    def test_malformed_exponent(self, f2xz):
        for bad in ("a^", "a^x", "a^^2", "a^1.5", "a^1_0", "a^\u0663", "a^+", "a^+-2"):
            with pytest.raises(ParseError):
                parse_word(bad, f2xz)

    def test_unreduced_input_is_kept_raw(self, f2xz):
        w = parse_word("a a^-1", f2xz)
        assert len(w) == 2

    def test_letter_cap_is_inclusive(self, f2xz):
        half = MAX_WORD_LETTERS // 2
        assert len(parse_word(f"a^{half} b^-{MAX_WORD_LETTERS - half}", f2xz)) == MAX_WORD_LETTERS
        with pytest.raises(ResourceCapError):
            parse_word(f"a^{half} b^-{MAX_WORD_LETTERS - half} c", f2xz)

    def test_huge_exponent_fails_before_expanding(self, f2xz):
        start = time.perf_counter()
        for text in ("a^1000000000", "a^-1000000000", "a^600000 b^-600000"):
            with pytest.raises(ResourceCapError):
                parse_word(text, f2xz)
        assert time.perf_counter() - start < 1.0


class TestRenderWord:
    def test_run_length_powers(self, f2xz):
        w = parse_word("a^3 b^-1 a", f2xz)
        assert _render(w, f2xz) == "a^3 b^-1 a"

    def test_identity(self, f2xz):
        assert _render(Word(()), f2xz) == "1"

    def test_single_letters(self, f2xz):
        assert _render(parse_word("a b^-1", f2xz), f2xz) == "a b^-1"


def _word_strategy(ngens: int):
    letters = st.builds(
        SignedLetter,
        gen=st.integers(min_value=0, max_value=ngens - 1),
        sign=st.sampled_from([1, -1]),
    )
    return st.builds(Word, letters=st.tuples()) | st.builds(
        Word, letters=st.lists(letters, max_size=12).map(tuple)
    )


@settings(deadline=None, max_examples=200)
@given(w=_word_strategy(3))
def test_render_parse_round_trip(w):
    g = parse_graph("gens: a b c\nedge: a c\nedge: b c\n")
    assert parse_word(_render(w, g), g) == w


class TestLetterOrder:
    def test_interleaving(self):
        # The int codes order the letters i+ < i- < j+ < j-.
        letters = [SignedLetter(i, s) for i in range(3) for s in (1, -1)]
        assert [letter_code(l) for l in letters] == [0, 1, 2, 3, 4, 5]

    def test_rejects_foreign_letter(self, free2):
        with pytest.raises(ValueError):
            normalize(Word((SignedLetter(5, 1),)), free2)

    def test_code_round_trip(self):
        for code in range(10):
            assert letter_code(code_letter(code)) == code

    def test_inverse_flips_code_parity(self):
        for code in range(10):
            assert letter_code(code_letter(code).inverse()) == code ^ 1


class TestSignedLetter:
    def test_inverse_involution(self):
        l = SignedLetter(2, -1)
        assert l.inverse().inverse() == l

    def test_validation(self):
        with pytest.raises(ValueError):
            SignedLetter(0, 0)
        with pytest.raises(ValueError):
            SignedLetter(-1, 1)


class TestGraphApi:
    def test_commutes_symmetric(self, f2xz):
        for i in range(3):
            for j in range(3):
                assert f2xz.commutes(i, j) == f2xz.commutes(j, i)

    def test_gen_index_unknown(self, f2xz):
        with pytest.raises(ParseError):
            f2xz.gen_index("q")

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            CommutationGraph([], set())
        with pytest.raises(ValueError):
            CommutationGraph(["a", "a"], set())
