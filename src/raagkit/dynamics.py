"""Per-element dynamics: foldings, axes, preorders, and quasidirections.

Every operation here is attached to a base element w. A WContext bundles w
with caches of inverses, conjugates and folding images so exhaustive suites
do not recompute them; all public functions accept either a GroupElement or
a WContext for w.  No power of w is cached: each operation computes the one
power it needs with `pow_codes`, at an index proven in its docstring.
"""

from __future__ import annotations

from typing import Union

from .elements import GroupElement, _require_same_graph, inv_codes, mul_codes, pow_codes
from .order import _reduced_product, meet_codes, median_codes, orth_codes


class WContext:
    """w together with memoized inverses, conjugates and folding images."""

    __slots__ = ("w", "graph", "_phi", "_conj", "_inv")

    def __init__(self, w: GroupElement):
        self.w = w
        self.graph = w.graph
        self._phi: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._conj: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._inv: dict[tuple[int, ...], tuple[int, ...]] = {}

    def inv(self, t: tuple[int, ...]) -> tuple[int, ...]:
        got = self._inv.get(t)
        if got is None:
            got = inv_codes(self.graph, t)
            self._inv[t] = got
            self._inv[got] = t
        return got

    def conj(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical codes of x⁻¹·w·x."""
        got = self._conj.get(x)
        if got is None:
            g = self.graph
            got = mul_codes(g, mul_codes(g, self.inv(x), self.w.codes), x)
            self._conj[x] = got
        return got

    def phi(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """Folding image of x: the median of (wx, x, w⁻¹x)."""
        got = self._phi.get(x)
        if got is None:
            g = self.graph
            wx = mul_codes(g, self.w.codes, x)
            iwx = mul_codes(g, self.inv(self.w.codes), x)
            got = median_codes(g, wx, x, iwx)
            self._phi[x] = got
        return got


WLike = Union[GroupElement, WContext]


def _ctx(w: WLike) -> WContext:
    return w if isinstance(w, WContext) else WContext(w)


def fold_phi(w: WLike, x: GroupElement) -> GroupElement:
    """The median of (wx, x, w⁻¹x); an idempotent retraction onto the axis."""
    ctx = _ctx(w)
    _require_same_graph(ctx.w, x)
    return GroupElement(ctx.graph, ctx.phi(x.codes))


def in_axis(w: WLike, x: GroupElement) -> bool:
    """Whether x is a fixed point of the folding, i.e. x⁻¹wx is cyclically reduced."""
    ctx = _ctx(w)
    _require_same_graph(ctx.w, x)
    c = ctx.conj(x.codes)
    return not meet_codes(ctx.graph, c, ctx.inv(c))


def preceq(w: WLike, x: GroupElement, y: GroupElement) -> bool:
    """The preorder attached to w: x below y when x⁻¹y is a prefix of x⁻¹wy.

    With t = x⁻¹y and c = y⁻¹wy, x⁻¹wy = t·c, so t is a prefix of it exactly
    when the product t·c is reduced, l(tc) = l(t) + l(c).  That is decided by
    one cancellation sweep that stops at the first cancellation, without
    building t·c.
    """
    ctx = _ctx(w)
    _require_same_graph(ctx.w, x)
    _require_same_graph(ctx.w, y)
    g = ctx.graph
    t = mul_codes(g, ctx.inv(x.codes), y.codes)
    return _reduced_product(g, t, ctx.conj(y.codes))


def sim(w: WLike, x: GroupElement, y: GroupElement) -> bool:
    """The symmetrized relation: y⁻¹x orthogonal to y⁻¹wy."""
    ctx = _ctx(w)
    _require_same_graph(ctx.w, x)
    _require_same_graph(ctx.w, y)
    g = ctx.graph
    t = mul_codes(g, ctx.inv(y.codes), x.codes)
    return orth_codes(g, t, ctx.conj(y.codes))


def equiv(w: WLike, x: GroupElement, y: GroupElement) -> bool:
    """No two distinct points of the cell [x, y] are sim-related for w.

    Decided by direction balance: the two quasidirections between x and y
    agree, qdir(x, y) = qdir(y, x).  The `check_qdir` law
    "direction-balance-is-congruence" tests this against the enumeration of
    the cell that the definition describes.
    """
    ctx = _ctx(w)
    return qdir(ctx, x, y) == qdir(ctx, y, x)


def ll(w: WLike, x: GroupElement, y: GroupElement) -> bool:
    """The order: preceq together with the separation condition equiv."""
    ctx = _ctx(w)
    return preceq(ctx, x, y) and equiv(ctx, x, y)


def _gate(g, x: tuple[int, ...], t: tuple[int, ...], target: tuple[int, ...]) -> GroupElement:
    """Y(x, y, x·target) for t = x⁻¹y, which is x·(t ∩ target)."""
    return GroupElement(g, mul_codes(g, x, meet_codes(g, t, target)))


def qdir(w: WLike, x: GroupElement, y: GroupElement) -> GroupElement:
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
    ctx = _ctx(w)
    _require_same_graph(ctx.w, x)
    _require_same_graph(ctx.w, y)
    g = ctx.graph
    ix = ctx.inv(x.codes)
    phx = ctx.phi(x.codes)
    u = mul_codes(g, ix, phx)
    t = mul_codes(g, ix, y.codes)
    n = len(u) + len(t) + 1
    wn = pow_codes(g, ctx.w.codes, n)
    return _gate(g, x.codes, t, mul_codes(g, mul_codes(g, ix, wn), phx))


def _require_axis(ctx: WContext, name: str, a: GroupElement) -> None:
    if not in_axis(ctx, a):
        raise ValueError(f"{name} must lie in the axis of w")


def in_axis_slice(w: WLike, a: GroupElement, x: GroupElement) -> bool:
    """Whether x lies in the axis slice through a: some cell [w⁻ⁿa, wⁿa]."""
    ctx = _ctx(w)
    _require_same_graph(ctx.w, a)
    _require_same_graph(ctx.w, x)
    _require_axis(ctx, "a", a)
    g = ctx.graph
    lo, hi = _slice_ends(ctx, a.codes, x.codes)
    left = mul_codes(g, inv_codes(g, lo), x.codes)
    right = mul_codes(g, ctx.inv(x.codes), hi)
    return _reduced_product(g, left, right)


def psi_fold(w: WLike, a: GroupElement, x: GroupElement) -> GroupElement:
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
    ctx = _ctx(w)
    _require_same_graph(ctx.w, a)
    _require_same_graph(ctx.w, x)
    _require_axis(ctx, "a", a)
    lo, hi = _slice_ends(ctx, a.codes, x.codes)
    return GroupElement(ctx.graph, median_codes(ctx.graph, lo, x.codes, hi))


def _slice_ends(ctx: WContext, a, x) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(w⁻ⁿa, wⁿa) at n = l(a⁻¹x) + 1."""
    g = ctx.graph
    n = len(mul_codes(g, ctx.inv(a), x)) + 1
    wn = pow_codes(g, ctx.w.codes, n)
    return mul_codes(g, inv_codes(g, wn), a), mul_codes(g, wn, a)


def decompose_axis(
    w: WLike, a: GroupElement, x: GroupElement
) -> tuple[GroupElement, GroupElement]:
    """Split an axis point x into (class gate, slice part) over the base a.

    Returns (y, z) with z the fold of x onto the slice through a and
    y = x·z⁻¹·a; then x = y·a⁻¹·z = z·a⁻¹·y.
    """
    ctx = _ctx(w)
    _require_same_graph(ctx.w, a)
    _require_same_graph(ctx.w, x)
    _require_axis(ctx, "a", a)
    _require_axis(ctx, "x", x)
    z = psi_fold(ctx, a, x)
    g = ctx.graph
    y = GroupElement(
        g, mul_codes(g, mul_codes(g, x.codes, ctx.inv(z.codes)), a.codes)
    )
    return y, z


def dir_join(w: WLike, a: GroupElement, x: GroupElement, y: GroupElement) -> GroupElement:
    """The direction join over base a: the limit of Y(x, y, Y(wⁿφ(x), a, wⁿφ(y))).

    Evaluated once at n* = l(x⁻¹φ(x)) + l(x⁻¹φ(y)) + l(x⁻¹a) + l(x⁻¹y) + 1.
    Seen from x, with A = x⁻¹wⁿφ(x), B = x⁻¹wⁿφ(y), α = x⁻¹a and t = x⁻¹y,
    the gate is t ∩ Y(A, α, B), and Y(A, α, B) = (A ∩ α) ∨ (α ∩ B) ∨ (A ∩ B).
    Below Y(A, α, B) the prefix semilattice is a distributive lattice, so
    the gate is (t ∩ A ∩ α) ∨ (t ∩ α ∩ B) ∨ ((t ∩ A) ∩ (t ∩ B)). By the
    argument in `qdir`, t ∩ A is constant for n ≥ l(x⁻¹φ(x)) + l(t) and
    t ∩ B for n ≥ l(x⁻¹φ(y)) + l(t), and n* exceeds both.
    """
    ctx = _ctx(w)
    for e in (a, x, y):
        _require_same_graph(ctx.w, e)
    g = ctx.graph
    ix = ctx.inv(x.codes)
    phx = ctx.phi(x.codes)
    phy = ctx.phi(y.codes)
    t = mul_codes(g, ix, y.codes)
    n = sum(len(mul_codes(g, ix, e)) for e in (phx, phy, a.codes)) + len(t) + 1
    wn = pow_codes(g, ctx.w.codes, n)
    inner = median_codes(g, mul_codes(g, wn, phx), a.codes, mul_codes(g, wn, phy))
    return _gate(g, x.codes, t, mul_codes(g, ix, inner))
