"""Primitive parts, commuting decompositions, and centralizers.

The connectivity criterion inside `is_primitive` is validated against the
ends of the core's cell, enumerated by `ref_boundary`, on every element of
radius-4 balls (the library's `boundary` reads the same components that
`is_primitive` does, so it cannot serve as its check); decompositions are
round-tripped and checked primitive-by-primitive; centralizers are checked
sound (every generator commutes) and complete: the structure-theorem
decision `outside_span` agrees with commutation on every ball pair, and
accepts everything the brute-force subgroup search reaches.
"""

import itertools

import pytest

from conftest import cycle_graph, random_graph
from oracles_bf import ref_boundary, ref_folding_witness, ref_generated_within, ref_in_centralizer
from raagkit.checks import moves_folding, outside_span
from raagkit.presentation import CommutationGraph
from raagkit.conjugacy import cyclic_reduce, is_cyclically_reduced, max_root
from raagkit.dynamics import fold_phi, in_axis, preceq
from raagkit.elements import GroupElement, element, identity, render
from raagkit.errors import InvariantViolationError
from raagkit.order import ball, interval, is_orthogonal, join, meet
from raagkit.sampling import random_codes, stream
from raagkit.structure import (
    CentralizerPresentation,
    center,
    centralizer,
    h_basis,
    in_centralizer,
    is_primitive,
    prim_decompose,
    s_perp_set,
)


def rand_elem(rng, g, max_len, min_len=0):
    return GroupElement(g, random_codes(rng, g, max_len, min_len))


def pair_key(pairs):
    """Order-free fingerprint of a decomposition's pairs."""
    return frozenset((p.codes, m) for p, m in pairs)


def primitive_by_boundary(w):
    """Slow reference: not a proper power, and the core's cell has <= 2 ends."""
    if w.is_identity():
        return False
    core = cyclic_reduce(w).core
    if max_root(core)[1] != 1:
        return False
    return len(ref_boundary(core)) <= 2


class TestSPerp:
    def test_frozen(self, f2xz, free2):
        assert s_perp_set(element(f2xz, "a")) == {2}
        assert s_perp_set(element(f2xz, "a b")) == {2}
        assert s_perp_set(element(f2xz, "1")) == {0, 1, 2}
        assert s_perp_set(element(free2, "a")) == set()

    def test_matches_letterwise_orthogonality(self, graphs, balls):
        for name, g in graphs.items():
            letters = [GroupElement(g, (2 * s,)) for s in range(g.ngens)]
            for u in balls(name, 3):
                direct = {s for s in range(g.ngens) if is_orthogonal(letters[s], u)}
                assert s_perp_set(u) == direct


class TestIsPrimitive:
    def test_frozen(self, f2xz, free2):
        assert is_primitive(element(free2, "a"))
        assert is_primitive(element(f2xz, "c"))
        assert not is_primitive(element(free2, "a^2"))
        assert not is_primitive(element(f2xz, "a c"))
        assert not is_primitive(element(free2, "1"))

    def test_conjugation_invariant(self, graphs):
        rng = stream(5, "primitive-conjugation")
        for g in graphs.values():
            for _ in range(300):
                w = rand_elem(rng, g, 6)
                x = rand_elem(rng, g, 4)
                assert is_primitive(x * w * ~x) == is_primitive(w)

    def test_boundary_route_agrees_on_ball4(self, graphs, balls):
        # The support-connectivity fast path against end counting, every cell.
        for name, g in graphs.items():
            for w in balls(name, 4):
                assert is_primitive(w) == primitive_by_boundary(w), render(w)


class TestDecompose:
    def test_frozen_remark_graph(self, f2xz):
        d = prim_decompose(element(f2xz, "a^2 c^3"))
        assert d.conjugator.is_identity()
        assert [(render(p), m) for p, m in d.pairs] == [("a", 2), ("c", 3)]

    def test_frozen_free_square(self, free2):
        d = prim_decompose(element(free2, "a b a b"))
        assert d.conjugator.is_identity()
        assert [(render(p), m) for p, m in d.pairs] == [("a b", 2)]

    def test_primitive_input_is_its_own_pair(self, graphs):
        rng = stream(6, "primitive-own-pair")
        for g in graphs.values():
            found = 0
            while found < 50:
                w = rand_elem(rng, g, 6, min_len=1)
                if not (is_primitive(w) and is_cyclically_reduced(w)):
                    continue
                found += 1
                d = prim_decompose(w)
                assert d.conjugator.is_identity()
                assert d.pairs == ((w, 1),)

    def test_conjugate_input_carries_conjugator(self, free2):
        d = prim_decompose(element(free2, "b a b^-1"))
        assert render(d.conjugator) == "b"
        assert [(render(p), m) for p, m in d.pairs] == [("b a b^-1", 1)]

    def test_identity_rejected(self, free2):
        with pytest.raises(ValueError):
            prim_decompose(element(free2, "1"))

    def test_round_trip_and_invariants(self, graphs):
        rng = stream(7, "decompose-round-trip")
        for g in graphs.values():
            for _ in range(1000):
                w = rand_elem(rng, g, 10, min_len=1)
                d = prim_decompose(w)
                assert d.whole() == w
                a = d.conjugator
                roots = [~a * p * a for p, _ in d.pairs]
                core_len = len(cyclic_reduce(w).core)
                assert sum(m * len(r) for r, (_, m) in zip(roots, d.pairs)) == core_len
                for (p, m), r in zip(d.pairs, roots):
                    assert m >= 1
                    assert is_primitive(p)
                    assert is_cyclically_reduced(r)
                for r1, r2 in itertools.combinations(roots, 2):
                    assert is_orthogonal(r1, r2)
                keys = [p.codes for p, _ in d.pairs]
                assert keys == sorted(keys)

    def test_unique_up_to_conjugation(self, graphs):
        rng = stream(8, "decompose-uniqueness")
        for g in graphs.values():
            for _ in range(300):
                w = rand_elem(rng, g, 7, min_len=1)
                x = rand_elem(rng, g, 4)
                moved = prim_decompose(x * w * ~x)
                expected = frozenset(
                    ((x * p * ~x).codes, m) for p, m in prim_decompose(w).pairs
                )
                assert pair_key(moved.pairs) == expected

    def test_record_shape(self, f2xz):
        d = prim_decompose(element(f2xz, "a^2 c^3"))
        assert d.as_record() == {
            "conjugator": "1",
            "pairs": [{"p": "a", "m": 2}, {"p": "c", "m": 3}],
        }


class TestCentralizer:
    def test_frozen_central_letter_gives_whole_group(self, f2xz):
        z = centralizer(element(f2xz, "c"))
        assert [render(t) for t in z.raag_generators] == ["a", "b"]
        assert [render(t) for t in z.abelian_generators] == ["c"]

    def test_frozen_free_cases(self, free2):
        z = centralizer(element(free2, "a b"))
        assert z.raag_generators == ()
        assert [render(t) for t in z.abelian_generators] == ["a b"]
        z = centralizer(element(free2, "a"))
        assert z.raag_generators == ()
        assert [render(t) for t in z.abelian_generators] == ["a"]

    def test_identity_gets_all_letters(self, graphs):
        for g in graphs.values():
            z = centralizer(identity(g))
            assert [render(t) for t in z.raag_generators] == list(g.generators)
            assert z.abelian_generators == ()

    def test_generators_commute_with_input(self, graphs):
        rng = stream(9, "centralizer-soundness")
        for g in graphs.values():
            for _ in range(300):
                w = rand_elem(rng, g, 8)
                z = centralizer(w)
                for t in z.raag_generators + z.abelian_generators:
                    assert in_centralizer(w, t)

    def test_complete_on_ball3_members(self, graphs, balls):
        # Every commuting ball element lies in the span of the generators.
        rng = stream(10, "centralizer-completeness")
        for name, g in graphs.items():
            words = [rand_elem(rng, g, 6, min_len=1) for _ in range(25)]
            words += [rand_elem(rng, g, 3, min_len=1) for _ in range(15)]
            for w in words:
                commuting = [x for x in balls(name, 3) if in_centralizer(w, x)]
                assert outside_span(w, centralizer(w), commuting) == [], render(w)

    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz", "C5"])
    def test_in_centralizer_matches_reference(self, balls, name):
        # Every pair (w, x) with w in ball(2) and x in ball(3).
        b3 = sorted(balls(name, 3), key=lambda e: (len(e.codes), e.codes))
        seen = set()
        for w in balls(name, 2):
            for x in b3:
                got = in_centralizer(w, x)
                assert got == ref_in_centralizer(w, x), (render(w), render(x))
                seen.add(got)
        assert seen == ({True} if name == "z2" else {True, False})

    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz", "C5"])
    def test_span_decision_matches_commutation(self, balls, name):
        # Every pair (w, x) with w in ball(2) \ {1} and x in ball(3): the span
        # of centralizer(w) is exactly the set of elements commuting with w.
        b3 = sorted(balls(name, 3), key=lambda e: (len(e.codes), e.codes))
        for w in balls(name, 2):
            if w.is_identity():
                continue
            outside = outside_span(w, centralizer(w), b3)
            assert outside == [x for x in b3 if not in_centralizer(w, x)], render(w)

    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz", "C5"])
    def test_span_decision_accepts_reference_products(self, kernel_graphs, balls, name):
        g = kernel_graphs[name]
        b2 = sorted(balls(name, 2), key=lambda e: (len(e.codes), e.codes))
        rng = stream(51, f"generated-ref:{name}")
        for _ in range(12):
            w = rng.choice(b2[1:])
            z = centralizer(w)
            gens = list(z.raag_generators) + list(z.abelian_generators)
            assert outside_span(w, z, ref_generated_within(g, gens, 4)) == []

    def test_span_decision_rejects_malformed_generators(self, f2xz):
        w = element(f2xz, "c")
        z = centralizer(w)
        bad = CentralizerPresentation((element(f2xz, "a b"),), z.abelian_generators)
        with pytest.raises(InvariantViolationError):
            outside_span(w, bad, [w])

    def test_powers_share_centralizers(self, graphs, balls):
        rng = stream(11, "centralizer-of-powers")
        for name, g in graphs.items():
            for _ in range(25):
                w = rand_elem(rng, g, 5, min_len=1)
                for m in (2, 3):
                    wm = w**m
                    for x in balls(name, 3):
                        assert in_centralizer(wm, x) == in_centralizer(w, x)

    def test_power_map_injective_on_ball2(self, graphs, balls):
        for name in graphs:
            elems = sorted(balls(name, 2), key=lambda t: (len(t), t.codes))
            for m in (2, 3):
                images = {x**m for x in elems}
                assert len(images) == len(elems)

    def test_record_shape(self, free2):
        z = centralizer(element(free2, "a b"))
        assert z.as_record() == {"raag_gens": [], "abelian_gens": ["a b"]}


class TestCenter:
    def test_frozen(self, z2, free2, f2xz):
        assert center(z2) == [0, 1]
        assert center(free2) == []
        assert center(f2xz) == [2]

    def test_members_commute_with_everything(self, graphs, balls):
        for name, g in graphs.items():
            for s in center(g):
                letter = GroupElement(g, (2 * s,))
                for x in balls(name, 3):
                    assert in_centralizer(x, letter)


class TestProductLaws:
    def test_orthogonal_prefix_product_membership(self, graphs, balls):
        # For x, y orthogonal prefixes of w: xy commutes with w exactly when
        # both factors do.
        for name, g in graphs.items():
            one = identity(g)
            for w in balls(name, 4):
                cell = interval(one, w)
                for x, y in itertools.combinations(cell, 2):
                    if not is_orthogonal(x, y):
                        continue
                    both = in_centralizer(w, x) and in_centralizer(w, y)
                    assert in_centralizer(w, x * y) == both

    def test_commuting_prefixes_form_sublattice(self, graphs, balls):
        # Inside each cell [1, x], the prefixes commuting with x are closed
        # under meet and join.
        rng = stream(12, "commuting-sublattice")
        for name, g in graphs.items():
            one = identity(g)
            targets = list(balls(name, 4)) + [rand_elem(rng, g, 7) for _ in range(60)]
            for x in targets:
                good = [y for y in interval(one, x) if in_centralizer(x, y)]
                for y, z in itertools.combinations_with_replacement(good, 2):
                    assert meet(y, z) in good
                    j = join(y, z)
                    assert j is not None and j in good


FACTOR_WORDS = {
    "free2": ["a b a b", "b a b^-1", "a^3"],
    "z2": ["a b", "a^2 b^3", "b^2"],
    "f2xz": ["a^2 c^3", "a c", "b c^2", "b a c b^-1", "a b"],
}


class TestFoldingFactorization:
    def test_axis_is_intersection_of_primitive_axes(self, graphs, balls):
        for name, g in graphs.items():
            for text in FACTOR_WORDS[name]:
                w = element(g, text)
                parts = [p for p, _ in prim_decompose(w).pairs]
                for x in balls(name, 4):
                    assert in_axis(w, x) == all(in_axis(p, x) for p in parts)

    def test_folding_composes_over_primitives(self, graphs, balls):
        rng = stream(13, "folding-composition")
        for name, g in graphs.items():
            for text in FACTOR_WORDS[name]:
                w = element(g, text)
                parts = [p for p, _ in prim_decompose(w).pairs]
                xs = list(balls(name, 2)) + [rand_elem(rng, g, 6) for _ in range(40)]
                for x in xs:
                    through = fold_phi(w, x)
                    forward = x
                    for p in parts:
                        forward = fold_phi(p, forward)
                    backward = x
                    for p in reversed(parts):
                        backward = fold_phi(p, backward)
                    assert through == forward == backward

    def test_preorder_is_conjunction_over_primitives(self, graphs, balls):
        for name, g in graphs.items():
            for text in FACTOR_WORDS[name]:
                w = element(g, text)
                parts = [p for p, _ in prim_decompose(w).pairs]
                elems = list(balls(name, 2))
                for x in elems:
                    for y in elems:
                        assert preceq(w, x, y) == all(preceq(p, x, y) for p in parts)

    def test_centralizer_elements_stabilize_folding(self, graphs):
        # Translation by a commuting element moves the axis to itself, so it
        # slides past the fold.
        rng = stream(14, "centralizer-stabilizes-folding")
        for name, g in graphs.items():
            for text in FACTOR_WORDS[name]:
                w = element(g, text)
                z = centralizer(w)
                gens = list(z.raag_generators) + list(z.abelian_generators)
                movers = sorted(ref_generated_within(g, gens, 4), key=lambda t: (len(t), t.codes))[:12]
                for t in movers:
                    for _ in range(10):
                        x = rand_elem(rng, g, 5)
                        assert t * fold_phi(w, x) == fold_phi(w, t * x)

    @pytest.mark.parametrize(
        "name, radius",
        [("free2", 3), ("f2xz", 3), ("P4", 3), ("C5", 2), ("G(6,0.5)", 2)],
    )
    def test_two_points_decide_the_stabilizer(self, graphs, name, radius):
        # Every pair of the ball with w ≠ 1: t ∉ C(w) exactly when the
        # folding moves at x = 1 or x = w, and the ball(2) scan of
        # ref_folding_witness finds a witness wherever those two points do.
        g = {
            **graphs,
            "P4": CommutationGraph([f"x{i}" for i in range(4)], {frozenset((i, i + 1)) for i in range(3)}),
            "C5": cycle_graph(5),
            "G(6,0.5)": random_graph(6, 0.5, seed=3),
        }[name]
        elems = sorted(ball(g, radius), key=lambda e: (len(e), e.codes))
        for w in elems[1:]:
            for t in elems:
                moved = moves_folding(w, t)
                assert moved != ref_in_centralizer(w, t), (render(w), render(t))
                if moved:
                    assert ref_folding_witness(w, t, 2) is not None, (render(w), render(t))


class TestHBasis:
    def test_frozen(self, f2xz):
        assert [render(t) for t in h_basis(element(f2xz, "c"))] == ["c"]
        assert [render(t) for t in h_basis(element(f2xz, "a^2 c^3"))] == ["a", "c"]

    def test_primitive_is_its_own_basis(self, free2):
        w = element(free2, "a b")
        assert h_basis(w) == [w]

    def test_preconditions(self, free2):
        with pytest.raises(ValueError):
            h_basis(element(free2, "1"))
        with pytest.raises(ValueError):
            h_basis(element(free2, "b a b^-1"))

    def test_members_commute_pairwise_and_with_input(self, graphs):
        rng = stream(15, "h-basis-commuting")
        for g in graphs.values():
            done = 0
            while done < 60:
                w = rand_elem(rng, g, 8, min_len=1)
                if not is_cyclically_reduced(w):
                    continue
                done += 1
                basis = h_basis(w)
                for t in basis:
                    assert in_centralizer(w, t)
                for t, u in itertools.combinations(basis, 2):
                    assert in_centralizer(t, u)
