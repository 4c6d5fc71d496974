"""Foldings, preorders, and quasidirections vs their interval-based oracles."""

import itertools

import pytest

from conftest import KERNEL_GRAPHS
from oracles_bf import ref_preceq, ref_stabilized
from raagkit.conjugacy import cyclic_reduce, is_cyclically_reduced
from raagkit.dynamics import (
    decompose_axis,
    dir_join,
    equiv,
    fold_phi,
    in_axis,
    in_axis_slice,
    ll,
    preceq,
    psi_fold,
    qdir,
    sim,
)
from raagkit.checks import enumerated_equiv
from raagkit.elements import GroupElement, element, identity, inv_codes, mul_codes, pow_codes, power
from raagkit.errors import GraphMismatchError
from raagkit.order import (
    interval,
    is_orthogonal,
    is_prefix,
    median,
    median_codes,
    meet,
    meet_codes,
    oracle_qdir,
)
from raagkit.presentation import CommutationGraph
from raagkit.sampling import random_codes, stream

FIXTURES = ["free2", "z2", "f2xz"]


def _rand(rng, g, max_len):
    return GroupElement(g, random_codes(rng, g, max_len))


# Every public function of dynamics, with the number of elements it takes after w.
DYNAMICS = [
    pytest.param(fn, arity, id=fn.__name__)
    for fn, arity in (
        (fold_phi, 1),
        (in_axis, 1),
        (preceq, 2),
        (sim, 2),
        (equiv, 2),
        (ll, 2),
        (qdir, 2),
        (in_axis_slice, 2),
        (psi_fold, 2),
        (decompose_axis, 2),
        (dir_join, 3),
    )
]


@pytest.mark.parametrize("fn, arity", DYNAMICS)
def test_rejects_an_element_of_another_graph(free2, f2xz, fn, arity):
    # w = c is cyclically reduced, so 1 lies on its axis and the call with
    # every argument from f2xz is valid; one element of free2 in any
    # position makes it fail.
    args = [element(f2xz, "c")] + [identity(f2xz)] * arity
    fn(*args)
    for i in range(len(args)):
        mixed = list(args)
        mixed[i] = element(free2, "a")
        with pytest.raises(GraphMismatchError):
            fn(*mixed)


class TestFoldPhi:
    def test_frozen(self, free2, f2xz):
        assert fold_phi(element(free2, "b"), element(free2, "a")) == identity(free2)
        c = element(f2xz, "c")
        for s in ("1", "a", "b a", "a b c", "c^-2 b"):
            x = element(f2xz, s)
            assert fold_phi(c, x) == x

    @pytest.mark.parametrize("name", FIXTURES)
    def test_idempotent_image_in_axis(self, graphs, name):
        g = graphs[name]
        rng = stream(20, f"phi:{name}")
        for _ in range(1000):
            w = _rand(rng, g, 5)
            x = _rand(rng, g, 6)
            fx = fold_phi(w, x)
            assert fold_phi(w, fx) == fx
            assert in_axis(w, fx)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_prefix_property_for_reduced_base(self, graphs, name):
        # With w cyclically reduced, the folding image is a prefix of x.
        g = graphs[name]
        rng = stream(21, f"phiprefix:{name}")
        done = 0
        while done < 500:
            w = _rand(rng, g, 5)
            if not is_cyclically_reduced(w):
                continue
            x = _rand(rng, g, 6)
            assert is_prefix(fold_phi(w, x), x)
            done += 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_conjugate_core_identity(self, graphs, name):
        # The folding image equals x times the conjugator of x⁻¹wx, and the
        # median of (wx, x, w⁻¹x) that defines it.
        g = graphs[name]
        rng = stream(22, f"phicore:{name}")
        for _ in range(500):
            w = _rand(rng, g, 5)
            x = _rand(rng, g, 5)
            fx = fold_phi(w, x)
            assert fx == x * cyclic_reduce(~x * w * x).conjugator
            assert fx == median(w * x, x, ~w * x)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_power_has_same_folding(self, graphs, name):
        g = graphs[name]
        rng = stream(23, f"phipow:{name}")
        for _ in range(200):
            w = _rand(rng, g, 4)
            if w.is_identity():
                continue
            x = _rand(rng, g, 5)
            fx = fold_phi(w, x)
            for n in (-2, 3):
                assert fold_phi(power(w, n), x) == fx
                assert in_axis(power(w, n), x) == in_axis(w, x)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_in_axis_is_fixed_point_set(self, graphs, name):
        g = graphs[name]
        rng = stream(24, f"axis:{name}")
        for _ in range(800):
            w = _rand(rng, g, 5)
            x = _rand(rng, g, 5)
            assert in_axis(w, x) == (fold_phi(w, x) == x)

    def test_in_axis_frozen(self, free2):
        assert not in_axis(element(free2, "b"), element(free2, "a"))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_gate_property(self, graphs, name):
        # For a fixed point c, [c, x] ∩ axis = [c, fold(x)].
        g = graphs[name]
        rng = stream(25, f"gate:{name}")
        for _ in range(150):
            w = _rand(rng, g, 4)
            c = fold_phi(w, _rand(rng, g, 3))
            x = c * _rand(rng, g, 4)
            axis_part = {z for z in interval(c, x) if in_axis(w, z)}
            assert axis_part == interval(c, fold_phi(w, x))


class TestPreceq:
    def test_frozen(self, free2):
        b, a = element(free2, "b"), element(free2, "a")
        assert preceq(b, a, a)
        assert preceq(b, a, identity(free2))
        w = element(free2, "a b")
        assert preceq(w, identity(free2), w)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_preorder_laws(self, graphs, balls, name):
        # reflexivity everywhere; transitivity on the filtered ball triples
        g = graphs[name]
        rng = stream(26, f"preorder:{name}")
        b2 = sorted(balls(name, 2), key=lambda e: (len(e.codes), e.codes))
        for _ in range(12):
            w = _rand(rng, g, 4)
            for x in b2:
                assert preceq(w, x, x)
            below = {
                (x, y) for x in b2 for y in b2 if preceq(w, x, y)
            }
            for x, y in below:
                for z in b2:
                    if (y, z) in below:
                        assert (x, z) in below

    @pytest.mark.parametrize("name", FIXTURES + ["C5"])
    def test_matches_reference_on_ball3_triples(self, balls, name):
        # The meet y⁻¹x ∩ y⁻¹wy against the length of the built product t·c,
        # on triples (w, x, y) drawn from ball(3).
        b3 = sorted(balls(name, 3), key=lambda e: (len(e.codes), e.codes))
        rng = stream(50, f"preceq-ref:{name}")
        seen = set()
        for _ in range(40):
            w = rng.choice(b3)
            for _ in range(100):
                x, y = rng.choice(b3), rng.choice(b3)
                got = preceq(w, x, y)
                assert got == ref_preceq(w, x, y), (w, x, y)
                seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("name", ["C5", "G20"])
    def test_matches_reference_on_long_words(self, kernel_graphs, name):
        # The same reference on words of 64 to 256 letters: y and c = y⁻¹wy
        # are drawn, and t = x⁻¹y ends, half the time, with the inverse of a
        # prefix of c, so that t·c often cancels and both answers occur.
        g = kernel_graphs[name]
        rng = stream(51, f"preceq-long:{name}")

        def word(lo, hi):
            return GroupElement(g, random_codes(rng, g, hi, lo))

        seen = set()
        for _ in range(100):
            y, c, t = word(64, 256), word(64, 256), word(64, 256)
            if rng.random() < 0.5:
                t = t * ~GroupElement(g, c.codes[: rng.randint(1, 8)])
            w, x = y * c * ~y, y * ~t
            got = preceq(w, x, y)
            assert got == ref_preceq(w, x, y), (w.codes, x.codes, y.codes)
            seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("name", FIXTURES)
    def test_conjugation_equivariance(self, graphs, name):
        g = graphs[name]
        rng = stream(27, f"equivar:{name}")
        for _ in range(500):
            w, x, y, z = (_rand(rng, g, 4) for _ in range(4))
            assert preceq(w, x, y) == preceq(z * w * ~z, z * x, z * y)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_interval_heredity(self, graphs, name):
        # x below y forces x below z below y for every z on a geodesic
        g = graphs[name]
        rng = stream(28, f"hered:{name}")
        done = 0
        while done < 300:
            w = _rand(rng, g, 4)
            x = _rand(rng, g, 4)
            y = _rand(rng, g, 4)
            if not preceq(w, x, y):
                continue
            cell = interval(x, y)
            for z in cell:
                assert preceq(w, x, z) and preceq(w, z, y)
            done += 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_median_congruence(self, graphs, name):
        # y below x transfers through the median with any two anchors
        g = graphs[name]
        rng = stream(29, f"cong:{name}")
        done = 0
        while done < 1000:
            w = _rand(rng, g, 4)
            x = _rand(rng, g, 4)
            y = _rand(rng, g, 4)
            if not preceq(w, y, x):
                continue
            a = _rand(rng, g, 4)
            b = _rand(rng, g, 4)
            assert preceq(w, median(a, b, y), median(a, b, x))
            done += 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_axis_antitone_in_inverse(self, graphs, name):
        # on the axis, the preorder for w⁻¹ is the opposite of the one for w
        g = graphs[name]
        rng = stream(30, f"axisflip:{name}")
        for _ in range(1000):
            w = _rand(rng, g, 4)
            wi = ~w
            x = fold_phi(w, _rand(rng, g, 4))
            y = fold_phi(w, _rand(rng, g, 4))
            assert preceq(w, x, y) == preceq(wi, y, x)


class TestSim:
    def test_frozen(self, f2xz, free2):
        assert sim(element(f2xz, "c"), element(f2xz, "a"), identity(f2xz))
        assert not sim(element(free2, "b"), element(free2, "a"), identity(free2))
        x = element(free2, "a b")
        assert sim(element(free2, "b"), x, x)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_cell_equality_form(self, graphs, balls, name):
        # y⁻¹x ⊥ y⁻¹wy holds exactly when the cells [x, wy] and [y, wx] agree
        g = graphs[name]
        rng = stream(31, f"simcell:{name}")
        b2 = list(balls(name, 2))
        for _ in range(6):
            w = _rand(rng, g, 3)
            for x in b2:
                for y in b2:
                    assert sim(w, x, y) == (interval(x, w * y) == interval(y, w * x))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_symmetry(self, graphs, name):
        g = graphs[name]
        rng = stream(32, f"simsym:{name}")
        for _ in range(1000):
            w, x, y = (_rand(rng, g, 4) for _ in range(3))
            assert sim(w, x, y) == sim(w, y, x)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_class_of_identity_is_subgroup(self, graphs, balls, name):
        # the class of 1 is {x orthogonal to w}, closed under product/inverse
        g = graphs[name]
        rng = stream(33, f"simsub:{name}")
        e = identity(g)
        for _ in range(10):
            w = _rand(rng, g, 3)
            members = [x for x in balls(name, 2) if sim(w, x, e)]
            for x in members:
                assert is_orthogonal(x, w)
                assert sim(w, ~x, e)
                for y in members:
                    xy = x * y
                    assert sim(w, xy, e) == is_orthogonal(xy, w)
                    assert is_orthogonal(xy, w)


class TestEquivAndLl:
    def test_frozen(self, f2xz, free2):
        c = element(f2xz, "c")
        e = identity(f2xz)
        assert equiv(c, e, e)
        assert not equiv(c, e, element(f2xz, "a"))
        assert equiv(c, e, c)
        b, a = element(free2, "b"), element(free2, "a")
        assert ll(b, a, identity(free2))

    def test_decides_cells_past_the_interval_cap(self):
        # K_8 presents Z⁸, where v⁻¹u ⊥ w means disjoint supports.  The cell
        # [1, g0⁴…g6⁴] has 5⁷ points, more than the interval cap.
        g = CommutationGraph(
            [f"g{i}" for i in range(8)], {frozenset((i, j)) for i in range(8) for j in range(i)}
        )
        e = identity(g)
        y = element(g, " ".join(f"g{i}^4" for i in range(7)))
        assert equiv(element(g, " ".join(f"g{i}" for i in range(7))), e, y)
        assert not equiv(element(g, "g7"), e, y)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_equiv_symmetric(self, graphs, name):
        g = graphs[name]
        rng = stream(34, f"eqsym:{name}")
        for _ in range(300):
            w, x, y = (_rand(rng, g, 4) for _ in range(3))
            assert equiv(w, x, y) == equiv(w, y, x)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_ll_reaches_folding_image(self, graphs, name):
        g = graphs[name]
        rng = stream(35, f"ll:{name}")
        for _ in range(300):
            w = _rand(rng, g, 4)
            x = _rand(rng, g, 4)
            assert ll(w, x, fold_phi(w, x))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_ll_steps_along_axis(self, graphs, name):
        g = graphs[name]
        rng = stream(36, f"llstep:{name}")
        for _ in range(300):
            w = _rand(rng, g, 4)
            x = fold_phi(w, _rand(rng, g, 4))
            assert ll(w, x, w * x)


class TestQdir:
    def test_frozen(self, free2):
        b = element(free2, "b")
        e = identity(free2)
        x = element(free2, "a b")
        assert qdir(b, x, x) == x
        assert qdir(b, e, element(free2, "a")) == e
        assert qdir(b, e, element(free2, "b^-1")) == e

    @pytest.mark.parametrize("name", ["C5", "G20"])
    def test_matches_oracle_sampled(self, kernel_graphs, name):
        # the interval-based oracle on drawn triples, as in the check suite
        g = kernel_graphs[name]
        rng = stream(36, f"qdiroracle:{name}")
        for _ in range(1500):
            w, x, y = _rand(rng, g, 3), _rand(rng, g, 4), _rand(rng, g, 4)
            assert qdir(w, x, y) == oracle_qdir(x, y, lambda u, v: preceq(w, u, v))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_band_laws(self, graphs, name):
        g = graphs[name]
        rng = stream(37, f"band:{name}")
        for _ in range(300):
            w = _rand(rng, g, 4)
            x, y, z = (_rand(rng, g, 4) for _ in range(3))
            assert qdir(w, x, x) == x
            left = qdir(w, qdir(w, x, y), z)
            right = qdir(w, qdir(w, x, z), y)
            assert left == right

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_recovers_preorder_and_congruence(self, kernel_graphs, balls, name):
        # the separation congruence, decided where the two gates agree,
        # against its definition on the enumerated cell
        # (every ball(2) pair on the fixtures, 1000 drawn pairs on the others)
        g = kernel_graphs[name]
        rng = stream(38, f"recover:{name}")
        b2 = sorted(balls(name, 2), key=lambda e: (len(e.codes), e.codes))
        for _ in range(6):
            w = _rand(rng, g, 3)
            if name in FIXTURES:
                pairs = itertools.product(b2, b2)
            else:
                pairs = [(rng.choice(b2), rng.choice(b2)) for _ in range(1000)]
            for x, y in pairs:
                assert preceq(w, x, y) == (qdir(w, y, x) == y)
                assert equiv(w, x, y) == enumerated_equiv(w, x, y)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_join_of_both_directions_is_folding(self, graphs, name):
        # Y(x ∙_w y, x ∙_{w⁻¹} y, x) = Y(x, y, fold(x))
        g = graphs[name]
        rng = stream(39, f"joinfold:{name}")
        for _ in range(300):
            w = _rand(rng, g, 4)
            x, y = _rand(rng, g, 4), _rand(rng, g, 4)
            lhs = median(qdir(w, x, y), qdir(~w, x, y), x)
            assert lhs == median(x, y, fold_phi(w, x))


class TestAxisSlices:
    def test_frozen(self, f2xz):
        c = element(f2xz, "c")
        e = identity(f2xz)
        assert in_axis_slice(c, e, e)
        assert in_axis_slice(c, e, power(c, 2))
        assert not in_axis_slice(c, e, element(f2xz, "a"))
        assert psi_fold(c, e, element(f2xz, "a")) == e
        assert psi_fold(c, e, element(f2xz, "c^2 a")) == power(c, 2)

    def test_requires_axis_base(self, free2):
        b = element(free2, "b")
        with pytest.raises(ValueError):
            in_axis_slice(b, element(free2, "a"), identity(free2))
        with pytest.raises(ValueError):
            psi_fold(b, element(free2, "a"), identity(free2))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fold_lands_in_slice_and_is_idempotent(self, graphs, name):
        g = graphs[name]
        rng = stream(40, f"slice:{name}")
        for _ in range(400):
            w = _rand(rng, g, 4)
            a = fold_phi(w, _rand(rng, g, 4))
            x = _rand(rng, g, 5)
            z = psi_fold(w, a, x)
            assert in_axis_slice(w, a, z)
            assert psi_fold(w, a, z) == z
            assert in_axis_slice(w, a, x) == (z == x)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_powers_of_base_stay_in_slice(self, graphs, name):
        g = graphs[name]
        rng = stream(41, f"slicepow:{name}")
        for _ in range(200):
            w = _rand(rng, g, 4)
            a = fold_phi(w, _rand(rng, g, 3))
            for n in (-2, -1, 0, 1, 2):
                t = GroupElement(g, pow_codes(g, w.codes, n)) * a
                assert in_axis_slice(w, a, t)


class TestDecomposeAxis:
    def test_frozen(self, f2xz):
        c = element(f2xz, "c")
        e = identity(f2xz)
        y, z = decompose_axis(c, e, element(f2xz, "a c^2"))
        assert y == element(f2xz, "a") and z == power(c, 2)
        y, z = decompose_axis(c, e, e)
        assert y == e and z == e
        t = power(c, 2)
        y, z = decompose_axis(c, e, t)
        assert y == e and z == t

    def test_requires_axis_points(self, free2):
        b = element(free2, "b")
        a = element(free2, "a")
        with pytest.raises(ValueError):
            decompose_axis(b, a, identity(free2))
        with pytest.raises(ValueError):
            decompose_axis(b, identity(free2), a)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_reconstruction(self, graphs, name):
        g = graphs[name]
        rng = stream(42, f"decomp:{name}")
        for _ in range(400):
            w = _rand(rng, g, 4)
            a = fold_phi(w, _rand(rng, g, 4))
            x = fold_phi(w, _rand(rng, g, 5))
            y, z = decompose_axis(w, a, x)
            assert y * ~a * z == x
            assert z * ~a * y == x
            assert sim(w, y, a)
            assert in_axis_slice(w, a, z)


class TestDirJoin:
    def test_frozen(self, free2):
        b = element(free2, "b")
        e = identity(free2)
        x = element(free2, "a")
        assert dir_join(b, e, x, x) == x
        assert dir_join(b, e, x, element(free2, "a^-1")) == e

    def test_axis_step(self, free2):
        # with the base on the axis, joining a with wa lands on wa
        b = element(free2, "b")
        wa = b * identity(free2)
        assert dir_join(b, identity(free2), identity(free2), wa) == wa

    @pytest.mark.parametrize("name", FIXTURES)
    def test_alternate_formula(self, graphs, balls, name):
        # x ∨ y = Y(x ∙_w y, a, y ∙_w x)
        g = graphs[name]
        rng = stream(43, f"altjoin:{name}")
        b2 = list(balls(name, 2))
        for _ in range(4):
            w = _rand(rng, g, 3)
            a = _rand(rng, g, 3)
            for x in b2:
                for y in b2:
                    got = dir_join(w, a, x, y)
                    assert got == median(qdir(w, x, y), a, qdir(w, y, x))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_semilattice_laws(self, graphs, name):
        g = graphs[name]
        rng = stream(44, f"joinlaws:{name}")
        for _ in range(200):
            w = _rand(rng, g, 4)
            a, x, y, z = (_rand(rng, g, 4) for _ in range(4))
            assert dir_join(w, a, x, x) == x
            assert dir_join(w, a, x, y) == dir_join(w, a, y, x)
            assert dir_join(w, a, dir_join(w, a, x, y), z) == dir_join(
                w, a, x, dir_join(w, a, y, z)
            )

    @pytest.mark.parametrize("name", FIXTURES)
    def test_base_can_be_folded(self, graphs, name):
        g = graphs[name]
        rng = stream(45, f"joinbase:{name}")
        for _ in range(200):
            w = _rand(rng, g, 4)
            a, x, y = (_rand(rng, g, 4) for _ in range(3))
            assert dir_join(w, a, x, y) == dir_join(w, fold_phi(w, a), x, y)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_ray_from_base(self, graphs, name):
        g = graphs[name]
        rng = stream(46, f"ray:{name}")
        for _ in range(200):
            w = _rand(rng, g, 4)
            a, x = _rand(rng, g, 4), _rand(rng, g, 4)
            assert dir_join(w, a, a, x) == qdir(w, a, x)


class TestConvexClosureOfOrbit:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_axis_point_inside_orbit_cell(self, graphs, name):
        # every axis point lies in a cell [u·a, v·a] with u, v centralizing w,
        # built exactly as the existence argument constructs them
        g = graphs[name]
        rng = stream(47, f"orbit:{name}")
        for _ in range(300):
            w = _rand(rng, g, 4)
            a = fold_phi(w, _rand(rng, g, 4))
            x = fold_phi(w, _rand(rng, g, 5))
            y = psi_fold(w, a, x)
            assert sim(w, x, y)
            t = x * ~y
            assert t * w == w * t
            n = len((~a * y).codes) + 1
            wn = GroupElement(g, pow_codes(g, w.codes, n))
            wm = GroupElement(g, pow_codes(g, w.codes, -n))
            u = t * wm
            v = t * wn
            assert u * w == w * u and v * w == w * v
            lo, hi = u * a, v * a
            assert len((~lo * x).codes) + len((~x * hi).codes) == len((~lo * hi).codes)


class TestGatesMatchReference:
    """The streamed gates against the limits of their defining sequences."""

    @staticmethod
    def phi(g, w, x):
        """The folding by its definition, the median of (wx, x, w⁻¹x)."""
        wx = mul_codes(g, w.codes, x.codes)
        return median_codes(g, wx, x.codes, mul_codes(g, inv_codes(g, w.codes), x.codes))

    @staticmethod
    def gate(g, x, y, target):
        """n ↦ Y(x, y, x·target(n)), which is x·(x⁻¹y ∩ target(n))."""
        t = mul_codes(g, inv_codes(g, x.codes), y.codes)
        return lambda n: mul_codes(g, x.codes, meet_codes(g, t, target(n)))

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_qdir(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = stream(48, f"qdirref:{name}")
        for _ in range(400):
            w = _rand(rng, g, 5)
            x, y = _rand(rng, g, 5), _rand(rng, g, 5)
            ix, phx = inv_codes(g, x.codes), self.phi(g, w, x)

            def target(n):
                return mul_codes(g, mul_codes(g, ix, pow_codes(g, w.codes, n)), phx)

            term = self.gate(g, x, y, target)
            assert qdir(w, x, y).codes == ref_stabilized(w, x.codes, y.codes, term)

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_dir_join(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = stream(49, f"joinref:{name}")
        for _ in range(300):
            w = _rand(rng, g, 5)
            a, x, y = (_rand(rng, g, 5) for _ in range(3))
            ix, phx, phy = inv_codes(g, x.codes), self.phi(g, w, x), self.phi(g, w, y)

            def target(n):
                wn = pow_codes(g, w.codes, n)
                inner = median_codes(g, mul_codes(g, wn, phx), a.codes, mul_codes(g, wn, phy))
                return mul_codes(g, ix, inner)

            term = self.gate(g, x, y, target)
            assert dir_join(w, a, x, y).codes == ref_stabilized(w, x.codes, y.codes, term)

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_psi_fold(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = stream(51, f"psiref:{name}")
        for _ in range(300):
            w = _rand(rng, g, 5)
            a = fold_phi(w, _rand(rng, g, 5))
            x = _rand(rng, g, 6)

            def term(n):
                wn = pow_codes(g, w.codes, n)
                lo = mul_codes(g, inv_codes(g, wn), a.codes)
                return median_codes(g, lo, x.codes, mul_codes(g, wn, a.codes))

            assert psi_fold(w, a, x).codes == ref_stabilized(w, a.codes, x.codes, term)

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_in_axis_slice(self, kernel_graphs, name):
        # membership of x and of its fold in the cell [w⁻ⁿa, wⁿa], by lengths
        g = kernel_graphs[name]
        rng = stream(52, f"sliceref:{name}")
        for _ in range(200):
            w = _rand(rng, g, 5)
            a = fold_phi(w, _rand(rng, g, 5))
            x = _rand(rng, g, 6)
            for z in (x, psi_fold(w, a, x)):

                def term(n, z=z):
                    wn = GroupElement(g, pow_codes(g, w.codes, n))
                    lo, hi = ~wn * a, wn * a
                    return len(~lo * z) + len(~z * hi) == len(~lo * hi)

                assert in_axis_slice(w, a, z) == ref_stabilized(w, a.codes, z.codes, term)

    # Long words: x, y and a of 32-64 letters and w of up to 8.  Half of the
    # cases put y (or x) near the orbit of w, y = wᵏ·x·r for a short r, so that
    # the gate is long and the stream reads many copies.  The sequences are
    # extended one factor at a time through group identities such as
    # x⁻¹wⁿφ(x) = x⁻¹φ(x)·cⁿ with c = φ(x)⁻¹wφ(x); no power is built.
    LONG_GRAPHS = ["C5", "G20", "K8"]
    LONG_CASES = 20

    @staticmethod
    def orbit(g, start, c):
        """n ↦ start·cⁿ; ref_stabilized asks for n = 0, 1, 2, … in order."""
        seq = [start]

        def at(n):
            while len(seq) <= n:
                seq.append(mul_codes(g, seq[-1], c))
            return seq[n]

        return at

    @staticmethod
    def long_case(g, rng):
        w = GroupElement(g, random_codes(rng, g, 8, 1))
        x, y, a = (GroupElement(g, random_codes(rng, g, 64, 32)) for _ in range(3))
        if rng.random() < 0.5:
            k = rng.randint(1, 6) * rng.choice([-1, 1])
            y = GroupElement(g, pow_codes(g, w.codes, k)) * x * _rand(rng, g, 6)
        return w, x, y, a

    @staticmethod
    def axis_conjugate(g, w, p):
        """p⁻¹wp for an axis point p."""
        return mul_codes(g, mul_codes(g, inv_codes(g, p), w.codes), p)

    @pytest.mark.parametrize("name", LONG_GRAPHS)
    def test_qdir_long(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = stream(53, f"qdirlong:{name}")
        for _ in range(self.LONG_CASES):
            w, x, y, _a = self.long_case(g, rng)
            phx = self.phi(g, w, x)
            target = self.orbit(g, mul_codes(g, inv_codes(g, x.codes), phx), self.axis_conjugate(g, w, phx))
            term = self.gate(g, x, y, target)
            assert qdir(w, x, y).codes == ref_stabilized(w, x.codes, y.codes, term)

    @pytest.mark.parametrize("name", LONG_GRAPHS)
    def test_psi_fold_long(self, kernel_graphs, name):
        # seen from x the fold is Y(s⁻¹c⁻ⁿ, 1, s⁻¹cⁿ) for s = a⁻¹x, c = a⁻¹wa
        g = kernel_graphs[name]
        rng = stream(54, f"psilong:{name}")
        for _ in range(self.LONG_CASES):
            w, a, x, _b = self.long_case(g, rng)
            a = GroupElement(g, self.phi(g, w, a))
            c = self.axis_conjugate(g, w, a.codes)
            ins = inv_codes(g, mul_codes(g, inv_codes(g, a.codes), x.codes))
            up, down = self.orbit(g, ins, c), self.orbit(g, ins, inv_codes(g, c))

            def term(n):
                return mul_codes(g, x.codes, meet_codes(g, up(n), down(n)))

            assert psi_fold(w, a, x).codes == ref_stabilized(w, a.codes, x.codes, term)

    @pytest.mark.parametrize("name", LONG_GRAPHS)
    def test_dir_join_long(self, kernel_graphs, name):
        # x⁻¹·Y(wⁿφ(x), a, wⁿφ(y)) = x⁻¹a·(a⁻¹φ(x)·c_xⁿ ∩ a⁻¹φ(y)·c_yⁿ)
        g = kernel_graphs[name]
        rng = stream(55, f"joinlong:{name}")
        for _ in range(self.LONG_CASES):
            w, x, y, a = self.long_case(g, rng)
            ia = inv_codes(g, a.codes)
            xa = mul_codes(g, inv_codes(g, x.codes), a.codes)
            ends = []
            for z in (x, y):
                phz = self.phi(g, w, z)
                ends.append(self.orbit(g, mul_codes(g, ia, phz), self.axis_conjugate(g, w, phz)))

            def target(n):
                return mul_codes(g, xa, meet_codes(g, ends[0](n), ends[1](n)))

            term = self.gate(g, x, y, target)
            assert dir_join(w, a, x, y).codes == ref_stabilized(w, x.codes, y.codes, term)
