"""Per-element dynamics: foldings, axes, preorders, and quasidirections.

Every operation here is attached to a base element w, passed as a
GroupElement.  Nothing is cached between calls: the folding is read off the
gap c ∩ c⁻¹ of the conjugate c = x⁻¹wx (see `_gap`), and each gate computes
the one power of w it needs with `pow_codes`, at an index proven in its
docstring.
"""

from __future__ import annotations

from .elements import GroupElement, _require_same_graph, inv_codes, mul_codes, pow_codes
from .order import _reduced_product, meet_codes, median_codes, orth_codes


def _gap(g, w, ix, x) -> tuple[int, ...]:
    """x⁻¹·φ_w(x) = c ∩ c⁻¹ for c = x⁻¹wx, given ix = x⁻¹.

    Left translation preserves medians and Y(1, a, b) = a ∩ b, so
    φ_w(x) = Y(wx, x, w⁻¹x) = x·Y(c, 1, c⁻¹) = x·(c ∩ c⁻¹).
    """
    c = mul_codes(g, mul_codes(g, ix, w), x)
    return meet_codes(g, c, inv_codes(g, c))


def fold_phi(w: GroupElement, x: GroupElement) -> GroupElement:
    """The median of (wx, x, w⁻¹x); an idempotent retraction onto the axis."""
    _require_same_graph(w, x)
    g = w.graph
    return GroupElement(g, mul_codes(g, x.codes, _gap(g, w.codes, inv_codes(g, x.codes), x.codes)))


def in_axis(w: GroupElement, x: GroupElement) -> bool:
    """Whether x is a fixed point of the folding, i.e. x⁻¹wx is cyclically reduced."""
    _require_same_graph(w, x)
    g = w.graph
    return not _gap(g, w.codes, inv_codes(g, x.codes), x.codes)


def preceq(w: GroupElement, x: GroupElement, y: GroupElement) -> bool:
    """The preorder attached to w: x below y when x⁻¹y is a prefix of x⁻¹wy.

    With t = x⁻¹y and c = y⁻¹wy, x⁻¹wy = t·c, so t is a prefix of it exactly
    when the product t·c is reduced, l(tc) = l(t) + l(c).  That is decided by
    one cancellation sweep that stops at the first cancellation, without
    building t·c.
    """
    _require_same_graph(w, x)
    _require_same_graph(w, y)
    g = w.graph
    t = mul_codes(g, inv_codes(g, x.codes), y.codes)
    c = mul_codes(g, mul_codes(g, inv_codes(g, y.codes), w.codes), y.codes)
    return _reduced_product(g, t, c)


def sim(w: GroupElement, x: GroupElement, y: GroupElement) -> bool:
    """The symmetrized relation: y⁻¹x orthogonal to y⁻¹wy."""
    _require_same_graph(w, x)
    _require_same_graph(w, y)
    g = w.graph
    iy = inv_codes(g, y.codes)
    return orth_codes(g, mul_codes(g, iy, x.codes), mul_codes(g, mul_codes(g, iy, w.codes), y.codes))


def equiv(w: GroupElement, x: GroupElement, y: GroupElement) -> bool:
    """No two distinct points of the cell [x, y] are sim-related for w.

    Decided by direction balance: the two quasidirections between x and y
    agree, qdir(x, y) = qdir(y, x).  The `check_qdir` law
    "direction-balance-is-congruence" tests this against the enumeration of
    the cell that the definition describes.
    """
    return qdir(w, x, y) == qdir(w, y, x)


def ll(w: GroupElement, x: GroupElement, y: GroupElement) -> bool:
    """The order: preceq together with the separation condition equiv."""
    return preceq(w, x, y) and equiv(w, x, y)


def _gate(g, x: tuple[int, ...], t: tuple[int, ...], target: tuple[int, ...]) -> GroupElement:
    """Y(x, y, x·target) for t = x⁻¹y, which is x·(t ∩ target)."""
    return GroupElement(g, mul_codes(g, x, meet_codes(g, t, target)))


def qdir(w: GroupElement, x: GroupElement, y: GroupElement) -> GroupElement:
    """The quasidirection value: the limit of Y(x, y, wⁿ·φ_w(x)) as n grows.

    The limit is reached at n* = l(u) + l(t) + 1, u = x⁻¹φ(x), t = x⁻¹y.
    Seen from x the gate is t ∩ u·cⁿ, where c = φ(x)⁻¹wφ(x) is cyclically
    reduced because φ(x) lies on the axis, so wⁿφ(x) = φ(x)·cⁿ.

    1. cⁿ is c written n times with no cancellation. The occurrences of one
       generator keep their order, and copy i holds the i-th block of them.
       A prefix of cⁿ is a down-closed set of occurrences, so one of length
       ≤ L takes at most L of any generator and lies in c^L. The prefixes of
       cⁿ of length ≤ L are therefore the same for every n ≥ L.
    2. Left translation preserves medians, and a ∩ b = Y(1, a, b), so
       t ∩ u·cⁿ = u·Y(u⁻¹, u⁻¹t, cⁿ). In the prefix semilattice
       Y(a, b, e) = (a ∩ b) ∨ (a ∩ e) ∨ (b ∩ e), and u⁻¹ ∩ cⁿ and u⁻¹t ∩ cⁿ
       only see the prefixes of cⁿ of length ≤ l(u) + l(t).

    By 1 and 2 the gate is constant for n ≥ l(u) + l(t).
    """
    _require_same_graph(w, x)
    _require_same_graph(w, y)
    g = w.graph
    ix = inv_codes(g, x.codes)
    u = _gap(g, w.codes, ix, x.codes)
    t = mul_codes(g, ix, y.codes)
    wn = pow_codes(g, w.codes, len(u) + len(t) + 1)
    return _gate(g, x.codes, t, mul_codes(g, mul_codes(g, ix, wn), mul_codes(g, x.codes, u)))


def _require_axis(w: GroupElement, name: str, a: GroupElement) -> None:
    if not in_axis(w, a):
        raise ValueError(f"{name} must lie in the axis of w")


def in_axis_slice(w: GroupElement, a: GroupElement, x: GroupElement) -> bool:
    """Whether x lies in the axis slice through a: some cell [w⁻ⁿa, wⁿa]."""
    _require_same_graph(w, x)
    _require_axis(w, "a", a)
    g = w.graph
    lo, hi = _slice_ends(g, w.codes, a.codes, x.codes)
    left = mul_codes(g, inv_codes(g, lo), x.codes)
    right = mul_codes(g, inv_codes(g, x.codes), hi)
    return _reduced_product(g, left, right)


def psi_fold(w: GroupElement, a: GroupElement, x: GroupElement) -> GroupElement:
    """Fold x onto the axis slice through a: the limit of Y(w⁻ⁿa, x, wⁿa).

    Evaluated once at n = l(s) + 1, where s = a⁻¹x.

    1. a lies on the axis, so c = a⁻¹wa is cyclically reduced and
       w^{±n}a = a·c^{±n}.
    2. Left translation preserves medians, so seen from a the fold is
       Y(c⁻ⁿ, s, cⁿ) = (s ∩ c⁻ⁿ) ∨ (s ∩ cⁿ) ∨ (c⁻ⁿ ∩ cⁿ).
    3. By point 1 of the `qdir` docstring, for c and for c⁻¹, the prefixes
       of c^{±n} of length ≤ L are the same for every n ≥ L.  At L = 1 the
       first letters of c^{±n} are those of c^{±1}, and c ∩ c⁻¹ = 1 because
       c is cyclically reduced, so c⁻ⁿ ∩ cⁿ = 1 for n ≥ 1.  At L = l(s),
       s ∩ c^{±n} is constant for n ≥ l(s).

    So the fold is constant for n ≥ l(s).
    """
    _require_same_graph(w, x)
    _require_axis(w, "a", a)
    g = w.graph
    lo, hi = _slice_ends(g, w.codes, a.codes, x.codes)
    return GroupElement(g, median_codes(g, lo, x.codes, hi))


def _slice_ends(g, w, a, x) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(w⁻ⁿa, wⁿa) at n = l(a⁻¹x) + 1."""
    n = len(mul_codes(g, inv_codes(g, a), x)) + 1
    wn = pow_codes(g, w, n)
    return mul_codes(g, inv_codes(g, wn), a), mul_codes(g, wn, a)


def decompose_axis(
    w: GroupElement, a: GroupElement, x: GroupElement
) -> tuple[GroupElement, GroupElement]:
    """Split an axis point x into (class gate, slice part) over the base a.

    Returns (y, z) with z the fold of x onto the slice through a and
    y = x·z⁻¹·a; then x = y·a⁻¹·z = z·a⁻¹·y.
    """
    _require_axis(w, "a", a)
    _require_axis(w, "x", x)
    z = psi_fold(w, a, x)
    g = w.graph
    y = GroupElement(g, mul_codes(g, mul_codes(g, x.codes, inv_codes(g, z.codes)), a.codes))
    return y, z


def dir_join(w: GroupElement, a: GroupElement, x: GroupElement, y: GroupElement) -> GroupElement:
    """The direction join over base a: the limit of Y(x, y, Y(wⁿφ(x), a, wⁿφ(y))).

    Evaluated once at n* = l(x⁻¹φ(x)) + l(x⁻¹φ(y)) + l(x⁻¹a) + l(x⁻¹y) + 1.
    Seen from x, with A = x⁻¹wⁿφ(x), B = x⁻¹wⁿφ(y), α = x⁻¹a and t = x⁻¹y,
    the gate is t ∩ Y(A, α, B), and Y(A, α, B) = (A ∩ α) ∨ (α ∩ B) ∨ (A ∩ B).
    Below Y(A, α, B) the prefix semilattice is a distributive lattice, so
    the gate is (t ∩ A ∩ α) ∨ (t ∩ α ∩ B) ∨ ((t ∩ A) ∩ (t ∩ B)). By the
    argument in `qdir`, t ∩ A is constant for n ≥ l(x⁻¹φ(x)) + l(t) and
    t ∩ B for n ≥ l(x⁻¹φ(y)) + l(t), and n* exceeds both.
    """
    for e in (a, x, y):
        _require_same_graph(w, e)
    g = w.graph
    ix = inv_codes(g, x.codes)
    u = _gap(g, w.codes, ix, x.codes)
    phy = mul_codes(g, y.codes, _gap(g, w.codes, inv_codes(g, y.codes), y.codes))
    t = mul_codes(g, ix, y.codes)
    n = len(u) + len(mul_codes(g, ix, phy)) + len(mul_codes(g, ix, a.codes)) + len(t) + 1
    wn = pow_codes(g, w.codes, n)
    phx = mul_codes(g, x.codes, u)
    inner = median_codes(g, mul_codes(g, wn, phx), a.codes, mul_codes(g, wn, phy))
    return _gate(g, x.codes, t, mul_codes(g, ix, inner))
