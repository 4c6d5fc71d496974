"""Seeded invariant suites over the order, dynamic and structural layers.

Each suite draws reproducible random instances and returns one record per
law: {"axiom": name, "samples": count, "failures": [counterexample word
dicts]}.  One bounded search is left: the structure law
"noncommuting-translation-moves-folding" scans ball(2) for a witness and
also carries "inconclusive", the number of instances the scan could not
settle; those are reported, never counted as failures.  Identical (graph,
seed, samples, max_len) input yields identical reports.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import partial

from .conjugacy import cyclic_reduce, is_cyclically_reduced
from .dynamics import (
    decompose_axis,
    dir_join,
    equiv,
    fold_phi,
    in_axis,
    preceq,
    psi_fold,
    qdir,
    sim,
)
from .elements import GroupElement, _require_same_graph, fl_codes, identity, inv_codes, mul_codes, pow_codes, render, support_codes
from .errors import InvariantViolationError, ResourceCapError
from .order import (
    _reduced_product,
    ball,
    interval,
    interval_codes,
    is_orthogonal,
    join,
    join_codes,
    median,
    median_codes,
    meet,
    meet_codes,
    oracle_qdir,
    prefix_codes,
)
from .presentation import CommutationGraph
from .sampling import random_codes, stream
from .structure import CentralizerPresentation, centralizer, in_centralizer, prim_decompose

# Draws a rejection sampler may make per accepted sample.
_ATTEMPT_FACTOR = 10_000


def _fail(**words) -> dict:
    return {name: render(x) for name, x in words.items()}


def _draw(rng, g: CommutationGraph, max_len: int, min_len: int = 0) -> GroupElement:
    return GroupElement(g, random_codes(rng, g, max_len, min_len))


def _accepted(samples: int, what: str, draw, keep):
    """Yield `samples` tuples from draw() that satisfy the hypothesis keep(*d).

    Rejected draws are discarded; after samples·_ATTEMPT_FACTOR draws the
    sampler gives up with ResourceCapError.  Each accepted tuple is yielded
    before the next draw, so a caller's loop reads the random stream in the
    order of a plain loop.
    """
    cap = samples * _ATTEMPT_FACTOR
    found = attempts = 0
    while found < samples:
        attempts += 1
        if attempts > cap:
            raise ResourceCapError(what, cap, "attempts")
        d = draw()
        if keep(*d):
            found += 1
            yield d


def check_median_axioms(g: CommutationGraph, samples: int = 1000, seed: int = 0, max_len: int = 8) -> list[dict]:
    """Random instances of the three median laws; failures are counterexample words.

    One instance draws a triple and a quintuple and asserts symmetry,
    absorption, and selfdistributivity.
    """
    rng = stream(seed, "median-axioms")
    el = partial(GroupElement, g)
    sym_fail: list[dict] = []
    abs_fail: list[dict] = []
    dist_fail: list[dict] = []
    for _ in range(samples):
        x = random_codes(rng, g, max_len)
        y = random_codes(rng, g, max_len)
        z = random_codes(rng, g, max_len)
        u = random_codes(rng, g, max_len)
        v = random_codes(rng, g, max_len)
        m = median_codes(g, x, y, z)
        if any(
            median_codes(g, p, q, r) != m
            for p, q, r in ((x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x))
        ):
            sym_fail.append(_fail(x=el(x), y=el(y), z=el(z)))
        if median_codes(g, x, y, x) != x:
            abs_fail.append(_fail(x=el(x), y=el(y)))
        lhs = median_codes(g, x, y, median_codes(g, z, u, v))
        rhs = median_codes(
            g,
            median_codes(g, x, y, z),
            median_codes(g, x, y, u),
            median_codes(g, x, y, v),
        )
        if lhs != rhs:
            dist_fail.append(_fail(x=el(x), y=el(y), z=el(z), u=el(u), v=el(v)))
    return [
        {"axiom": "median-symmetry", "samples": samples, "failures": sym_fail},
        {"axiom": "median-absorption", "samples": samples, "failures": abs_fail},
        {"axiom": "median-selfdistributivity", "samples": samples, "failures": dist_fail},
    ]


def orth_codes_definitional(g: CommutationGraph, x, y) -> bool:
    """Orthogonality by its definition, x ∩ y = 1 and x ∪ y exists.  The meet
    is trivial when x and y share no first letter, and the join is then xy if
    it exists, so it exists exactly when x ⊂ xy and y ⊂ xy.  The oracle of
    `order.orth_codes`, which `order.join_codes` uses."""
    if set(fl_codes(g, x)) & set(fl_codes(g, y)):
        return False
    xy = mul_codes(g, x, y)
    return prefix_codes(g, x, xy) and prefix_codes(g, y, xy)


def check_agroup_axioms(g: CommutationGraph, samples: int = 1000, seed: int = 0, max_len: int = 8) -> list[dict]:
    """Hypothesis-satisfying instances of the four order axioms of this group class.

    orthogonal-product-law: x ⊥ y ⟹ x ∪ y = xy = yx (orthogonality tested by
    definition here, with `orth_codes_definitional`, not by the support test
    of `order.orth_codes` that the join uses).
    inverse-prefix-transfer: x ∪ y ≠ ∞ and x⁻¹ ⊂ y⁻¹ ⟹ x ⊂ y.
    meet-triviality-transfer: x∩y = x⁻¹∩z = y⁻¹∩z = 1 ⟹ xz ∩ yz ⊂ z.
    no-inverse-join: x ∪ x⁻¹ ≠ ∞ ⟹ x = 1 (every sample checks the implication;
    the hypothesis forces x = 1, which is the axiom's content).
    """
    rng = stream(seed, "agroup-axioms")
    el = partial(GroupElement, g)

    def words(k: int):
        return lambda: tuple(random_codes(rng, g, max_len) for _ in range(k))

    def inverse_prefix_pair():
        y = random_codes(rng, g, max_len)
        return inv_codes(g, rng.choice(interval_codes(g, inv_codes(g, y)))), y

    def orthogonal(x, y) -> bool:
        return orth_codes_definitional(g, x, y)

    def joinable(x, y) -> bool:
        return join_codes(g, x, y) is not None

    def trivial_meets(x, y, z) -> bool:
        return not (meet_codes(g, x, y) or meet_codes(g, inv_codes(g, x), z) or meet_codes(g, inv_codes(g, y), z))

    perp_fail: list[dict] = []
    for x, y in _accepted(samples, "rejection sampling for orthogonal pairs", words(2), orthogonal):
        xy = mul_codes(g, x, y)
        if xy != mul_codes(g, y, x) or join_codes(g, x, y) != xy:
            perp_fail.append(_fail(x=el(x), y=el(y)))

    a1_fail: list[dict] = []
    what = "constructive sampling for the inverse-prefix axiom"
    for x, y in _accepted(samples, what, inverse_prefix_pair, joinable):
        if not prefix_codes(g, x, y):
            a1_fail.append(_fail(x=el(x), y=el(y)))

    a2_fail: list[dict] = []
    what = "rejection sampling for the meet-triviality axiom"
    for x, y, z in _accepted(samples, what, words(3), trivial_meets):
        lhs = meet_codes(g, mul_codes(g, x, z), mul_codes(g, y, z))
        if not prefix_codes(g, lhs, z):
            a2_fail.append(_fail(x=el(x), y=el(y), z=el(z)))

    a4_fail: list[dict] = []
    for _ in range(samples):
        x = random_codes(rng, g, max_len)
        if join_codes(g, x, inv_codes(g, x)) is not None and x != ():
            a4_fail.append(_fail(x=el(x)))

    return [
        {"axiom": "orthogonal-product-law", "samples": samples, "failures": perp_fail},
        {"axiom": "inverse-prefix-transfer", "samples": samples, "failures": a1_fail},
        {"axiom": "meet-triviality-transfer", "samples": samples, "failures": a2_fail},
        {"axiom": "no-inverse-join", "samples": samples, "failures": a4_fail},
    ]


def check_cyclic(
    g: CommutationGraph, samples: int = 1000, seed: int = 0, max_len: int = 8
) -> list[dict]:
    """Cyclic reduction and power laws."""
    rng = stream(seed, "cyclic")

    meet_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, max_len)
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        if meet(w**n, w**-m) != meet(w, ~w):
            meet_fail.append(_fail(w=w))

    red_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, max_len)
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        if is_cyclically_reduced(w**n) != is_cyclically_reduced(w):
            red_fail.append(_fail(w=w))

    torsion_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, max_len, min_len=1)
        n = rng.randint(2, 4)
        if (w**n).is_identity():
            torsion_fail.append(_fail(w=w))

    len_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, max_len)
        r = cyclic_reduce(w)
        n = rng.randint(1, 5)
        if len(w**n) != 2 * len(r.conjugator) + n * len(r.core):
            len_fail.append(_fail(w=w))

    return [
        {"axiom": "power-meet-stability", "samples": samples, "failures": meet_fail},
        {"axiom": "cyclic-reduced-powers", "samples": samples, "failures": red_fail},
        {"axiom": "torsion-free-powers", "samples": samples, "failures": torsion_fail},
        {"axiom": "power-length-formula", "samples": samples, "failures": len_fail},
    ]


def _directed_pair(rng, g, max_len):
    """(w, lower, upper) with lower below upper in the w-preorder.

    The direction operation lands in the part of the cell above both inputs,
    so its value is an upper bound for either argument.
    """
    w = _draw(rng, g, min(max_len, 3))
    a = _draw(rng, g, min(max_len, 4))
    b = _draw(rng, g, min(max_len, 4))
    return w, a, qdir(w, a, b)


def check_preorder(
    g: CommutationGraph, samples: int = 1000, seed: int = 0, max_len: int = 8
) -> list[dict]:
    """The relation x below y when y sits between x and its w-translate."""
    rng = stream(seed, "preorder")

    refl_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 4))
        x = _draw(rng, g, max_len)
        if not preceq(w, x, x):
            refl_fail.append(_fail(w=w, x=x))

    trans_fail: list[dict] = []
    for _ in range(samples):
        w, a, u = _directed_pair(rng, g, max_len)
        v = qdir(w, u, _draw(rng, g, min(max_len, 4)))
        if not (preceq(w, a, u) and preceq(w, u, v) and preceq(w, a, v)):
            trans_fail.append(_fail(w=w, x=a, y=u, z=v))

    hered_fail: list[dict] = []
    for _ in range(samples):
        w, a, u = _directed_pair(rng, g, max_len)
        z = median(a, u, _draw(rng, g, max_len))
        if not (preceq(w, a, z) and preceq(w, z, u)):
            hered_fail.append(_fail(w=w, x=a, y=u, z=z))

    cong_fail: list[dict] = []
    for _ in range(samples):
        w, y, x = _directed_pair(rng, g, max_len)
        a = _draw(rng, g, max_len)
        b = _draw(rng, g, max_len)
        if not preceq(w, median(a, b, y), median(a, b, x)):
            cong_fail.append(_fail(w=w, x=x, y=y, a=a, b=b))

    transl_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 4))
        x = _draw(rng, g, min(max_len, 5))
        y = _draw(rng, g, min(max_len, 5))
        t = _draw(rng, g, min(max_len, 4))
        moved = preceq(~t * w * t, ~t * x, ~t * y)
        if preceq(w, x, y) != moved:
            transl_fail.append(_fail(w=w, x=x, y=y, t=t))

    cell_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 3))
        x = _draw(rng, g, min(max_len, 4))
        y = _draw(rng, g, min(max_len, 4))
        cells_equal = interval(x, w * y) == interval(y, w * x)
        if sim(w, x, y) != cells_equal:
            cell_fail.append(_fail(w=w, x=x, y=y))

    return [
        {"axiom": "preorder-reflexive", "samples": samples, "failures": refl_fail},
        {"axiom": "preorder-transitive", "samples": samples, "failures": trans_fail},
        {"axiom": "interval-heredity", "samples": samples, "failures": hered_fail},
        {
            "axiom": "median-translation-congruence",
            "samples": samples,
            "failures": cong_fail,
        },
        {
            "axiom": "translation-equivariance",
            "samples": samples,
            "failures": transl_fail,
        },
        {"axiom": "equivalence-cell-form", "samples": samples, "failures": cell_fail},
    ]


def slice_by_power(w: GroupElement, a: GroupElement, x: GroupElement) -> bool:
    """The oracle of `in_axis_slice`: x ∈ [w⁻ⁿa, wⁿa], with wⁿ built as a
    power at n = l(a⁻¹x) + 1.

    Seen from a the cell is [c⁻ⁿ, cⁿ] for c = a⁻¹wa, and x lies in it
    exactly when (w⁻ⁿa)⁻¹x · x⁻¹wⁿa is reduced.  The cells grow with n, and
    the fold Y(c⁻ⁿ, s, cⁿ) of s = a⁻¹x reads only the prefixes of c^{±n} of
    length ≤ l(s), which are the same for every n ≥ l(s) (see
    `dir_join_by_power`); so membership at this n is membership in the slice.
    """
    g = w.graph
    wn = w ** (len(~a * x) + 1)
    lo, hi = ~wn * a, wn * a
    return _reduced_product(g, (~lo * x).codes, (~x * hi).codes)


def check_folding(
    g: CommutationGraph, samples: int = 1000, seed: int = 0, max_len: int = 8
) -> list[dict]:
    """The median projection onto the set of points with a reduced conjugate."""
    rng = stream(seed, "folding")

    idem_fail: list[dict] = []
    gate_fail: list[dict] = []
    fixed_fail: list[dict] = []
    conj_fail: list[dict] = []
    power_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 5))
        x = _draw(rng, g, max_len)
        fx = fold_phi(w, x)
        if fold_phi(w, fx) != fx or not in_axis(w, fx):
            idem_fail.append(_fail(w=w, x=x))
        c = fold_phi(w, _draw(rng, g, max_len))
        if median(x, fx, c) != fx:
            gate_fail.append(_fail(w=w, x=x, c=c))
        if in_axis(w, x) != (fx == x):
            fixed_fail.append(_fail(w=w, x=x))
        # fold_phi computes x·(c ∩ c⁻¹) for c = x⁻¹wx; the core conjugator
        # of c and the median definition are two independent routes to it.
        if fx != x * cyclic_reduce(~x * w * x).conjugator or fx != median(w * x, x, ~w * x):
            conj_fail.append(_fail(w=w, x=x))
        n = rng.choice([-2, -1, 2, 3])
        if not w.is_identity() and fold_phi(w**n, x) != fx:
            power_fail.append(_fail(w=w, x=x))

    anti_fail: list[dict] = []
    step_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 5))
        x = fold_phi(w, _draw(rng, g, max_len))
        y = fold_phi(w, _draw(rng, g, max_len))
        if preceq(w, x, y) != preceq(~w, y, x):
            anti_fail.append(_fail(w=w, x=x, y=y))
        if not preceq(w, x, w * x):
            step_fail.append(_fail(w=w, x=x))

    slice_fail: list[dict] = []
    dec_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 5), min_len=1)
        a = fold_phi(w, _draw(rng, g, min(max_len, 5)))
        x = _draw(rng, g, min(max_len, 6))
        z = psi_fold(w, a, x)
        if not slice_by_power(w, a, z) or psi_fold(w, a, z) != z:
            slice_fail.append(_fail(w=w, a=a, x=x))
        ax = fold_phi(w, x)
        y, z2 = decompose_axis(w, a, ax)
        if y * ~a * z2 != ax or z2 * ~a * y != ax:
            dec_fail.append(_fail(w=w, a=a, x=ax))

    return [
        {"axiom": "fold-idempotent-into-axis", "samples": samples, "failures": idem_fail},
        {"axiom": "fold-is-cell-gate", "samples": samples, "failures": gate_fail},
        {"axiom": "axis-is-fixed-point-set", "samples": samples, "failures": fixed_fail},
        {"axiom": "fold-by-core-conjugator", "samples": samples, "failures": conj_fail},
        {"axiom": "fold-ignores-power", "samples": samples, "failures": power_fail},
        {"axiom": "axis-reversal-antitone", "samples": samples, "failures": anti_fail},
        {"axiom": "axis-step-increases", "samples": samples, "failures": step_fail},
        {"axiom": "slice-fold-lands-and-fixes", "samples": samples, "failures": slice_fail},
        {
            "axiom": "axis-decomposition-reconstructs",
            "samples": samples,
            "failures": dec_fail,
        },
    ]


def enumerated_equiv(w, x: GroupElement, y: GroupElement) -> bool:
    """The definition of `equiv`: no two distinct points of the cell [x, y]
    are sim-related for w.  The cell is enumerated under the interval cap."""
    cell = list(interval(x, y))
    return not any(sim(w, u, v) for u, v in itertools.combinations(cell, 2))


def dir_join_by_power(w: GroupElement, a: GroupElement, x: GroupElement, y: GroupElement) -> GroupElement:
    """The oracle of `dir_join`: Y(x, y, Y(wⁿφ(x), a, wⁿφ(y))), with wⁿ
    built as a power at n* = l(x⁻¹φ(x)) + l(x⁻¹φ(y)) + l(x⁻¹a) + l(x⁻¹y) + 1.

    The index is past the limit.  For z = x, y let v = x⁻¹φ(z) and
    c = φ(z)⁻¹wφ(z), so x⁻¹wⁿφ(z) = v·cⁿ, and let t = x⁻¹y.  Seen from x the
    gate is Y(t ∩ v_x·c_xⁿ, x⁻¹a, t ∩ v_y·c_yⁿ) (see `dir_join`), and by
    left translation t ∩ v·cⁿ = v·Y(v⁻¹, v⁻¹t, cⁿ), which reads only the
    prefixes of cⁿ of length ≤ l(v) + l(t).  c is cyclically reduced, so cⁿ
    is c written n times with no cancellation; the occurrences of one
    generator keep their order, and copy i holds the i-th block of them.  A
    prefix of cⁿ is a down-closed set of occurrences, so one of length ≤ L
    lies in c^L: the prefixes of length ≤ L are the same for every n ≥ L.
    """
    px, py = fold_phi(w, x), fold_phi(w, y)
    wn = w ** (len(~x * px) + len(~x * py) + len(~x * a) + len(~x * y) + 1)
    return median(x, y, median(wn * px, a, wn * py))


def check_qdir(
    g: CommutationGraph, samples: int = 1000, seed: int = 0, max_len: int = 8
) -> list[dict]:
    """The direction operation against its enumerated-cell oracle and laws."""
    rng = stream(seed, "qdir")

    oracle_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 2))
        x = _draw(rng, g, min(max_len, 3))
        y = _draw(rng, g, min(max_len, 3))
        ref = oracle_qdir(x, y, lambda u, v: preceq(w, u, v))
        if qdir(w, x, y) != ref:
            oracle_fail.append(_fail(w=w, x=x, y=y))

    idem_fail: list[dict] = []
    exch_fail: list[dict] = []
    recov_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 3))
        x = _draw(rng, g, min(max_len, 4))
        y = _draw(rng, g, min(max_len, 4))
        z = _draw(rng, g, min(max_len, 4))
        if qdir(w, x, x) != x:
            idem_fail.append(_fail(w=w, x=x))
        if qdir(w, qdir(w, x, y), z) != qdir(w, qdir(w, x, z), y):
            exch_fail.append(_fail(w=w, x=x, y=y, z=z))
        if preceq(w, x, y) != (qdir(w, y, x) == y):
            recov_fail.append(_fail(w=w, x=x, y=y))

    cong_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 3))
        x = _draw(rng, g, min(max_len, 3))
        y = _draw(rng, g, min(max_len, 3))
        if equiv(w, x, y) != enumerated_equiv(w, x, y):
            cong_fail.append(_fail(w=w, x=x, y=y))

    both_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 3))
        x = _draw(rng, g, min(max_len, 4))
        y = _draw(rng, g, min(max_len, 4))
        lhs = median(qdir(w, x, y), qdir(~w, x, y), x)
        if lhs != median(x, y, fold_phi(w, x)):
            both_fail.append(_fail(w=w, x=x, y=y))

    djoin_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 3))
        a = fold_phi(w, _draw(rng, g, min(max_len, 4)))
        x = _draw(rng, g, min(max_len, 4))
        y = _draw(rng, g, min(max_len, 4))
        j = dir_join(w, a, x, y)
        if j != dir_join(w, a, y, x) or j != dir_join_by_power(w, a, x, y):
            djoin_fail.append(_fail(w=w, a=a, x=x, y=y))

    return [
        {"axiom": "matches-enumerated-gate", "samples": samples, "failures": oracle_fail},
        {"axiom": "direction-idempotent", "samples": samples, "failures": idem_fail},
        {"axiom": "direction-exchange", "samples": samples, "failures": exch_fail},
        {"axiom": "direction-recovers-preorder", "samples": samples, "failures": recov_fail},
        {
            "axiom": "direction-balance-is-congruence",
            "samples": samples,
            "failures": cong_fail,
        },
        {
            "axiom": "two-directions-median-identity",
            "samples": samples,
            "failures": both_fail,
        },
        {"axiom": "directed-join-formula", "samples": samples, "failures": djoin_fail},
    ]


def outside_span(w: GroupElement, z: CentralizerPresentation, xs: Iterable[GroupElement]) -> list[GroupElement]:
    """The elements of xs outside the subgroup spanned by z = centralizer(w).

    Decided by the centralizer theorem (Baudisch, "Subgroups of semifree
    groups", Acta Math. Acad. Sci. Hungar. 38, 1981; Servatius,
    "Automorphisms of graph groups", J. Algebra 126, 1989).  Let a be the
    core conjugator of w, so w = a·c·a⁻¹ with c cyclically reduced, and let
    r₁, …, r_k be the primitive roots of c, one per component of the
    non-commutation graph on its support.  Then
    C(w) = a·(⟨r₁⟩ × … × ⟨r_k⟩ × A_L)·a⁻¹, where L is the set of letters
    orthogonal to every rᵢ; the supports S₁, …, S_k and L are pairwise
    disjoint and pairwise commuting.  z must have this shape, as
    `centralizer` returns it: letter generators a·s·a⁻¹ for s ∈ L, and
    abelian generators a·rᵢ·a⁻¹ with each rᵢ cyclically reduced.  So x lies
    in the span exactly when x' = a⁻¹xa lies in H = ⟨r₁⟩ × … × ⟨r_k⟩ × A_L,
    which is decided block by block:

    1. Deleting the letters outside Sᵢ is a homomorphism πᵢ, a retraction
       onto A_{Sᵢ} as in `prim_decompose`.  It kills every factor of H but
       ⟨rᵢ⟩ and fixes ⟨rᵢ⟩, so x' ∈ H forces supp x' ⊆ L ∪ ⋃ Sᵢ and
       πᵢ(x') ∈ ⟨rᵢ⟩ for every i.
    2. Conversely, if supp x' ⊆ L ∪ ⋃ Sᵢ, letters of distinct blocks
       commute, so x' = π₁(x')⋯π_k(x')·π_L(x') with π_L(x') ∈ A_L, and
       x' ∈ H once every πᵢ(x') ∈ ⟨rᵢ⟩.
    3. In that case the letters of Sᵢ in the normal form of x' form the
       normal form of πᵢ(x'): they commute with every other letter of x',
       so a shorter or shortlex-smaller word for πᵢ(x'), put in their
       places, would spell x' shorter or smaller.
    4. rᵢ is cyclically reduced, so l(rᵢᵐ) = |m|·l(rᵢ), and y lies in
       ⟨rᵢ⟩ exactly when y = rᵢ^{±m} with m = l(y)/l(rᵢ).

    A letter generator that is not a conjugated letter breaks the shape and
    raises InvariantViolationError.
    """
    g = w.graph
    a = cyclic_reduce(w).conjugator.codes
    ia = inv_codes(g, a)

    def back(t: GroupElement) -> tuple[int, ...]:
        _require_same_graph(w, t)
        return mul_codes(g, mul_codes(g, ia, t.codes), a)

    letters = [back(t) for t in z.raag_generators]
    if any(len(s) != 1 for s in letters):
        raise InvariantViolationError("a centralizer letter generator is not a conjugated letter")
    blocks = [(support_codes(r), r, inv_codes(g, r)) for r in map(back, z.abelian_generators)]
    allowed = {s[0] >> 1 for s in letters}.union(*(supp for supp, _, _ in blocks))

    def inside(y: tuple[int, ...]) -> bool:
        if not support_codes(y) <= allowed:
            return False
        for supp, r, ir in blocks:
            proj = tuple(c for c in y if c >> 1 in supp)
            m = len(proj) // len(r)
            if proj != pow_codes(g, r, m) and proj != pow_codes(g, ir, m):
                return False
        return True

    return [x for x in xs if not inside(back(x))]


def check_structure(
    g: CommutationGraph, samples: int = 1000, seed: int = 0, max_len: int = 8
) -> list[dict]:
    """Primitive decompositions and centralizers, with decided completeness."""
    rng = stream(seed, "structure")

    round_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 10), min_len=1)
        d = prim_decompose(w)
        a = d.conjugator
        roots = [~a * p * a for p, _ in d.pairs]
        ok = d.whole() == w
        ok = ok and all(
            is_orthogonal(r1, r2) for r1, r2 in itertools.combinations(roots, 2)
        )
        ok = ok and [p.codes for p, _ in d.pairs] == sorted(p.codes for p, _ in d.pairs)
        if not ok:
            round_fail.append(_fail(w=w))

    equi_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 7), min_len=1)
        t = _draw(rng, g, min(max_len, 4))
        moved = {(p.codes, m) for p, m in prim_decompose(t * w * ~t).pairs}
        direct = {((t * p * ~t).codes, m) for p, m in prim_decompose(w).pairs}
        if moved != direct:
            equi_fail.append(_fail(w=w, t=t))

    sound_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, max_len)
        try:
            z = centralizer(w)
        except InvariantViolationError:
            sound_fail.append(_fail(w=w))
            continue
        for t in z.raag_generators + z.abelian_generators:
            if not in_centralizer(w, t):
                sound_fail.append(_fail(w=w, t=t))

    complete_fail: list[dict] = []
    ball3 = sorted(ball(g, 3), key=lambda t: (len(t), t.codes))
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 6), min_len=1)
        commuting = [x for x in ball3 if in_centralizer(w, x)]
        for x in outside_span(w, centralizer(w), commuting):
            complete_fail.append(_fail(w=w, x=x))

    power_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 5), min_len=1)
        m = rng.choice([2, 3])
        x = _draw(rng, g, min(max_len, 4))
        if in_centralizer(w**m, x) != in_centralizer(w, x):
            power_fail.append(_fail(w=w, x=x))

    axes_fail: list[dict] = []
    compose_fail: list[dict] = []
    pre_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 6), min_len=1)
        parts = [p for p, _ in prim_decompose(w).pairs]
        x = _draw(rng, g, min(max_len, 5))
        if in_axis(w, x) != all(in_axis(p, x) for p in parts):
            axes_fail.append(_fail(w=w, x=x))
        through = fold_phi(w, x)
        forward = x
        for p in parts:
            forward = fold_phi(p, forward)
        backward = x
        for p in reversed(parts):
            backward = fold_phi(p, backward)
        if through != forward or through != backward:
            compose_fail.append(_fail(w=w, x=x))
        y = _draw(rng, g, min(max_len, 5))
        if preceq(w, x, y) != all(preceq(p, x, y) for p in parts):
            pre_fail.append(_fail(w=w, x=x, y=y))

    one = identity(g)

    def prefix_pair():
        w = _draw(rng, g, max_len)
        return w, median(one, w, _draw(rng, g, max_len)), median(one, w, _draw(rng, g, max_len))

    perp_fail: list[dict] = []
    what = "rejection sampling for orthogonal prefix pairs"
    for w, x, y in _accepted(samples, what, prefix_pair, lambda w, x, y: is_orthogonal(x, y)):
        both = in_centralizer(w, x) and in_centralizer(w, y)
        if in_centralizer(w, x * y) != both:
            perp_fail.append(_fail(w=w, x=x, y=y))

    lattice_fail: list[dict] = []
    for _ in range(samples):
        x = _draw(rng, g, min(max_len, 7))
        picks = {one, x}
        for _ in range(5):
            picks.add(median(one, x, _draw(rng, g, max_len)))
        good = sorted(
            (y for y in picks if in_centralizer(x, y)),
            key=lambda t: (len(t), t.codes),
        )
        for y, z in itertools.combinations_with_replacement(good, 2):
            j = join(y, z)
            if j is None or not in_centralizer(x, j) or not in_centralizer(x, meet(y, z)):
                lattice_fail.append(_fail(x=x, y=y, z=z))
                break

    stab_fail: list[dict] = []
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 5), min_len=1)
        z = centralizer(w)
        gens = list(z.raag_generators) + list(z.abelian_generators)
        t = one
        for _ in range(rng.randint(1, 3)):
            pick = rng.choice(gens)
            t = t * (pick if rng.random() < 0.5 else ~pick)
        x = _draw(rng, g, min(max_len, 5))
        if t * fold_phi(w, x) != fold_phi(w, t * x):
            stab_fail.append(_fail(w=w, t=t, x=x))

    witness_inconclusive = 0
    ball2 = sorted(ball(g, 2), key=lambda t: (len(t), t.codes))
    witness_tried = 0
    for _ in range(samples):
        w = _draw(rng, g, min(max_len, 5), min_len=1)
        t = _draw(rng, g, min(max_len, 4))
        if in_centralizer(w, t):
            continue
        witness_tried += 1
        if not any(t * fold_phi(w, x) != fold_phi(w, t * x) for x in ball2):
            witness_inconclusive += 1

    return [
        {"axiom": "decomposition-round-trip", "samples": samples, "failures": round_fail},
        {
            "axiom": "decomposition-conjugation-equivariant",
            "samples": samples,
            "failures": equi_fail,
        },
        {
            "axiom": "centralizer-generators-commute",
            "samples": samples,
            "failures": sound_fail,
        },
        {
            "axiom": "centralizer-reaches-commuting-ball",
            "samples": samples,
            "failures": complete_fail,
        },
        {"axiom": "powers-share-centralizer", "samples": samples, "failures": power_fail},
        {
            "axiom": "axis-intersects-over-primitives",
            "samples": samples,
            "failures": axes_fail,
        },
        {
            "axiom": "folding-composes-over-primitives",
            "samples": samples,
            "failures": compose_fail,
        },
        {
            "axiom": "preorder-intersects-over-primitives",
            "samples": samples,
            "failures": pre_fail,
        },
        {
            "axiom": "orthogonal-prefix-product-law",
            "samples": samples,
            "failures": perp_fail,
        },
        {
            "axiom": "commuting-prefixes-sublattice",
            "samples": samples,
            "failures": lattice_fail,
        },
        {
            "axiom": "centralizer-stabilizes-folding",
            "samples": samples,
            "failures": stab_fail,
        },
        {
            "axiom": "noncommuting-translation-moves-folding",
            "samples": witness_tried,
            "failures": [],
            "inconclusive": witness_inconclusive,
        },
    ]


SUITES = {
    "median-axioms": check_median_axioms,
    "agroup-axioms": check_agroup_axioms,
    "cyclic": check_cyclic,
    "preorder": check_preorder,
    "folding": check_folding,
    "qdir": check_qdir,
    "structure": check_structure,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(
    name: str,
    g: CommutationGraph,
    samples: int = 1000,
    seed: int = 0,
    max_len: int = 8,
) -> list[dict]:
    """One named suite's records, or every suite in declaration order for "all"."""
    if name == "all":
        out: list[dict] = []
        for suite in SUITE_ORDER:
            for record in SUITES[suite](g, samples=samples, seed=seed, max_len=max_len):
                record["suite"] = suite
                out.append(record)
        return out
    if name not in SUITES:
        raise ValueError(f"unknown check suite {name!r}")
    records = SUITES[name](g, samples=samples, seed=seed, max_len=max_len)
    for record in records:
        record["suite"] = name
    return records


def failure_count(report: list[dict]) -> int:
    return sum(len(record["failures"]) for record in report)
