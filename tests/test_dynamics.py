"""Foldings, preorders, and quasidirections vs their interval-based oracles."""

import pytest

from conftest import KERNEL_GRAPHS
from oracles_bf import ref_stabilized_gate
from raagkit.conjugacy import cyclic_reduce, is_cyclically_reduced
from raagkit.dynamics import (
    WContext,
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
from raagkit.elements import GroupElement, element, identity, mul_codes, power
from raagkit.order import (
    interval,
    is_orthogonal,
    is_prefix,
    median,
    median_codes,
    meet,
    oracle_qdir,
)
from raagkit.sampling import random_codes, stream

FIXTURES = ["free2", "z2", "f2xz"]


def _rand(rng, g, max_len):
    return GroupElement(g, random_codes(rng, g, max_len))


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
            ctx = WContext(_rand(rng, g, 5))
            x = _rand(rng, g, 6)
            fx = fold_phi(ctx, x)
            assert fold_phi(ctx, fx) == fx
            assert in_axis(ctx, fx)

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
        # The folding image equals x times the conjugator of x⁻¹wx.
        g = graphs[name]
        rng = stream(22, f"phicore:{name}")
        for _ in range(500):
            w = _rand(rng, g, 5)
            x = _rand(rng, g, 5)
            u = cyclic_reduce(~x * w * x).conjugator
            assert fold_phi(w, x) == x * u

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
            ctx = WContext(_rand(rng, g, 4))
            c = fold_phi(ctx, _rand(rng, g, 3))
            x = c * _rand(rng, g, 4)
            axis_part = {
                z for z in interval(c, x).elements if in_axis(ctx, z)
            }
            assert axis_part == interval(c, fold_phi(ctx, x)).elements


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
            ctx = WContext(_rand(rng, g, 4))
            for x in b2:
                assert preceq(ctx, x, x)
            below = {
                (x, y) for x in b2 for y in b2 if preceq(ctx, x, y)
            }
            for x, y in below:
                for z in b2:
                    if (y, z) in below:
                        assert (x, z) in below

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
            ctx = WContext(_rand(rng, g, 4))
            x = _rand(rng, g, 4)
            y = _rand(rng, g, 4)
            if not preceq(ctx, x, y):
                continue
            cell = interval(x, y).elements
            for z in cell:
                assert preceq(ctx, x, z) and preceq(ctx, z, y)
            done += 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_median_congruence(self, graphs, name):
        # y below x transfers through the median with any two anchors
        g = graphs[name]
        rng = stream(29, f"cong:{name}")
        done = 0
        while done < 1000:
            ctx = WContext(_rand(rng, g, 4))
            x = _rand(rng, g, 4)
            y = _rand(rng, g, 4)
            if not preceq(ctx, y, x):
                continue
            a = _rand(rng, g, 4)
            b = _rand(rng, g, 4)
            assert preceq(ctx, median(a, b, y), median(a, b, x))
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
                    same_cell = (
                        interval(x, w * y).elements == interval(y, w * x).elements
                    )
                    assert sim(w, x, y) == same_cell

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
            ctx = WContext(_rand(rng, g, 4))
            x = _rand(rng, g, 4)
            assert ll(ctx, x, fold_phi(ctx, x))

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

    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_oracle_everywhere(self, graphs, balls, name):
        # the interval-based oracle, for every w in ball(2), on every ball(3) pair
        b3 = sorted(balls(name, 3), key=lambda e: (len(e.codes), e.codes))
        for w in sorted(balls(name, 2), key=lambda e: (len(e.codes), e.codes)):
            ctx = WContext(w)

            def pred(u, v):
                return preceq(ctx, u, v)

            for x in b3:
                for y in b3:
                    assert qdir(ctx, x, y) == oracle_qdir(x, y, pred)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_band_laws(self, graphs, name):
        g = graphs[name]
        rng = stream(37, f"band:{name}")
        for _ in range(300):
            ctx = WContext(_rand(rng, g, 4))
            x, y, z = (_rand(rng, g, 4) for _ in range(3))
            assert qdir(ctx, x, x) == x
            left = qdir(ctx, qdir(ctx, x, y), z)
            right = qdir(ctx, qdir(ctx, x, z), y)
            assert left == right

    @pytest.mark.parametrize("name", FIXTURES)
    def test_recovers_preorder_and_congruence(self, graphs, balls, name):
        g = graphs[name]
        rng = stream(38, f"recover:{name}")
        b2 = list(balls(name, 2))
        for _ in range(6):
            ctx = WContext(_rand(rng, g, 3))
            for x in b2:
                for y in b2:
                    assert preceq(ctx, x, y) == (qdir(ctx, y, x) == y)
                    # the separation congruence is where the two gates agree
                    assert equiv(ctx, x, y) == (qdir(ctx, x, y) == qdir(ctx, y, x))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_join_of_both_directions_is_folding(self, graphs, name):
        # Y(x ∙_w y, x ∙_{w⁻¹} y, x) = Y(x, y, fold(x))
        g = graphs[name]
        rng = stream(39, f"joinfold:{name}")
        for _ in range(300):
            w = _rand(rng, g, 4)
            ctx, ctx_i = WContext(w), WContext(~w)
            x, y = _rand(rng, g, 4), _rand(rng, g, 4)
            lhs = median(qdir(ctx, x, y), qdir(ctx_i, x, y), x)
            assert lhs == median(x, y, fold_phi(ctx, x))


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
            ctx = WContext(_rand(rng, g, 4))
            a = fold_phi(ctx, _rand(rng, g, 4))
            x = _rand(rng, g, 5)
            z = psi_fold(ctx, a, x)
            assert in_axis_slice(ctx, a, z)
            assert psi_fold(ctx, a, z) == z
            assert in_axis_slice(ctx, a, x) == (z == x)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_powers_of_base_stay_in_slice(self, graphs, name):
        g = graphs[name]
        rng = stream(41, f"slicepow:{name}")
        for _ in range(200):
            ctx = WContext(_rand(rng, g, 4))
            a = fold_phi(ctx, _rand(rng, g, 3))
            for n in (-2, -1, 0, 1, 2):
                t = GroupElement(g, ctx.power(n)) * a
                assert in_axis_slice(ctx, a, t)


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
            ctx = WContext(_rand(rng, g, 4))
            a = fold_phi(ctx, _rand(rng, g, 4))
            x = fold_phi(ctx, _rand(rng, g, 5))
            y, z = decompose_axis(ctx, a, x)
            assert y * ~a * z == x
            assert z * ~a * y == x
            assert sim(ctx, y, a)
            assert in_axis_slice(ctx, a, z)


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
            ctx = WContext(_rand(rng, g, 3))
            a = _rand(rng, g, 3)
            for x in b2:
                for y in b2:
                    got = dir_join(ctx, a, x, y)
                    assert got == median(qdir(ctx, x, y), a, qdir(ctx, y, x))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_semilattice_laws(self, graphs, name):
        g = graphs[name]
        rng = stream(44, f"joinlaws:{name}")
        for _ in range(200):
            ctx = WContext(_rand(rng, g, 4))
            a, x, y, z = (_rand(rng, g, 4) for _ in range(4))
            assert dir_join(ctx, a, x, x) == x
            assert dir_join(ctx, a, x, y) == dir_join(ctx, a, y, x)
            assert dir_join(ctx, a, dir_join(ctx, a, x, y), z) == dir_join(
                ctx, a, x, dir_join(ctx, a, y, z)
            )

    @pytest.mark.parametrize("name", FIXTURES)
    def test_base_can_be_folded(self, graphs, name):
        g = graphs[name]
        rng = stream(45, f"joinbase:{name}")
        for _ in range(200):
            ctx = WContext(_rand(rng, g, 4))
            a, x, y = (_rand(rng, g, 4) for _ in range(3))
            assert dir_join(ctx, a, x, y) == dir_join(ctx, fold_phi(ctx, a), x, y)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_ray_from_base(self, graphs, name):
        g = graphs[name]
        rng = stream(46, f"ray:{name}")
        for _ in range(200):
            ctx = WContext(_rand(rng, g, 4))
            a, x = _rand(rng, g, 4), _rand(rng, g, 4)
            assert dir_join(ctx, a, a, x) == qdir(ctx, a, x)


class TestConvexClosureOfOrbit:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_axis_point_inside_orbit_cell(self, graphs, name):
        # every axis point lies in a cell [u·a, v·a] with u, v centralizing w,
        # built exactly as the existence argument constructs them
        g = graphs[name]
        rng = stream(47, f"orbit:{name}")
        for _ in range(300):
            w = _rand(rng, g, 4)
            ctx = WContext(w)
            a = fold_phi(ctx, _rand(rng, g, 4))
            x = fold_phi(ctx, _rand(rng, g, 5))
            y = psi_fold(ctx, a, x)
            assert sim(ctx, x, y)
            t = x * ~y
            assert t * w == w * t
            n = len((~a * y).codes) + 1
            wn = GroupElement(g, ctx.power(n))
            wm = GroupElement(g, ctx.power(-n))
            u = t * wm
            v = t * wn
            assert u * w == w * u and v * w == w * v
            lo, hi = u * a, v * a
            assert len((~lo * x).codes) + len((~x * hi).codes) == len((~lo * hi).codes)


class TestGatesMatchReference:
    """The closed-form gate index against the streak loop it replaced."""

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_qdir(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = stream(48, f"qdirref:{name}")
        for _ in range(400):
            ctx = WContext(_rand(rng, g, 5))
            x, y = _rand(rng, g, 5), _rand(rng, g, 5)
            ix, phx = ctx.inv(x.codes), ctx.phi(x.codes)

            def target(n):
                return mul_codes(g, mul_codes(g, ix, ctx.power(n)), phx)

            assert qdir(ctx, x, y).codes == ref_stabilized_gate(ctx, x.codes, y.codes, target)

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_dir_join(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = stream(49, f"joinref:{name}")
        for _ in range(300):
            ctx = WContext(_rand(rng, g, 5))
            a, x, y = (_rand(rng, g, 5) for _ in range(3))
            ix, phx, phy = ctx.inv(x.codes), ctx.phi(x.codes), ctx.phi(y.codes)

            def target(n):
                wn = ctx.power(n)
                inner = median_codes(g, mul_codes(g, wn, phx), a.codes, mul_codes(g, wn, phy))
                return mul_codes(g, ix, inner)

            assert dir_join(ctx, a, x, y).codes == ref_stabilized_gate(ctx, x.codes, y.codes, target)
