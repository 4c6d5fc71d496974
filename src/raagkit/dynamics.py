"""Per-element dynamics: foldings, axes, preorders, and quasidirections.

Every operation here is attached to a base element w. A WContext bundles w
with caches (powers, conjugates, folding images) so exhaustive suites do not
recompute them; all public functions accept either a GroupElement or a
WContext for w.
"""

from __future__ import annotations

from typing import Union

from .conjugacy import CyclicReduction, cyclic_reduce
from .elements import GroupElement, _require_same_graph, inv_codes, mul_codes
from .errors import DEFAULT_INTERVAL_CAP, InvariantViolationError
from .order import (
    _reduced_product,
    interval_codes,
    meet_codes,
    median_codes,
    orth_codes,
    prefix_codes,
)


class WContext:
    """w together with memoized powers, conjugates and folding images."""

    __slots__ = ("w", "graph", "reduction", "_powers", "_phi", "_conj", "_inv")

    def __init__(self, w: GroupElement):
        self.w = w
        self.graph = w.graph
        self.reduction: CyclicReduction = cyclic_reduce(w)
        self._powers: dict[int, tuple[int, ...]] = {0: (), 1: w.codes}
        self._phi: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._conj: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._inv: dict[tuple[int, ...], tuple[int, ...]] = {}

    def power(self, n: int) -> tuple[int, ...]:
        """Canonical codes of wⁿ."""
        got = self._powers.get(n)
        if got is not None:
            return got
        g = self.graph
        if n > 0:
            k = max(k for k in self._powers if 0 <= k <= n)
            acc = self._powers[k]
            while k < n:
                acc = mul_codes(g, acc, self.w.codes)
                k += 1
                self._powers[k] = acc
        else:
            iw = self.inv(self.w.codes)
            k = min(k for k in self._powers if n <= k <= 0)
            acc = self._powers[k]
            while k > n:
                acc = mul_codes(g, acc, iw)
                k -= 1
                self._powers[k] = acc
        return self._powers[n]

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


def _sim_codes(ctx: WContext, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    g = ctx.graph
    return orth_codes(g, mul_codes(g, ctx.inv(y), x), ctx.conj(y))


def equiv(
    w: WLike, x: GroupElement, y: GroupElement, cap: int = DEFAULT_INTERVAL_CAP
) -> bool:
    """No two distinct points of the cell [x, y] are sim-related for w."""
    ctx = _ctx(w)
    _require_same_graph(ctx.w, x)
    _require_same_graph(ctx.w, y)
    g = ctx.graph
    rel = interval_codes(g, mul_codes(g, ctx.inv(x.codes), y.codes), cap)
    cell = [mul_codes(g, x.codes, t) for t in rel]
    for i, u in enumerate(cell):
        for v in cell[i + 1 :]:
            if _sim_codes(ctx, u, v):
                return False
    return True


def ll(
    w: WLike, x: GroupElement, y: GroupElement, cap: int = DEFAULT_INTERVAL_CAP
) -> bool:
    """The order: preceq together with the separation condition equiv."""
    ctx = _ctx(w)
    return preceq(ctx, x, y) and equiv(ctx, x, y, cap)


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
    return _gate(g, x.codes, t, mul_codes(g, mul_codes(g, ix, ctx.power(n)), phx))


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
    n = len(mul_codes(g, ctx.inv(a.codes), x.codes)) + 1
    lo = mul_codes(g, ctx.power(-n), a.codes)
    hi = mul_codes(g, ctx.power(n), a.codes)
    left = mul_codes(g, ctx.inv(lo), x.codes)
    right = mul_codes(g, ctx.inv(x.codes), hi)
    return _reduced_product(g, left, right)


def psi_fold(w: WLike, a: GroupElement, x: GroupElement) -> GroupElement:
    """Fold x onto the axis slice through a: Y(w⁻ⁿa, x, wⁿa) at a stable n."""
    ctx = _ctx(w)
    _require_same_graph(ctx.w, a)
    _require_same_graph(ctx.w, x)
    _require_axis(ctx, "a", a)
    g = ctx.graph
    n = len(mul_codes(g, ctx.inv(a.codes), x.codes)) + 1
    m1 = _psi_at(ctx, a.codes, x.codes, n)
    m2 = _psi_at(ctx, a.codes, x.codes, n + 1)
    if m1 != m2:
        raise InvariantViolationError(
            "slice folding did not stabilize at the guaranteed index"
        )
    return GroupElement(g, m1)


def _psi_at(ctx: WContext, a, x, n: int) -> tuple[int, ...]:
    g = ctx.graph
    lo = mul_codes(g, ctx.power(-n), a)
    hi = mul_codes(g, ctx.power(n), a)
    return median_codes(g, lo, x, hi)


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
    wn = ctx.power(n)
    inner = median_codes(g, mul_codes(g, wn, phx), a.codes, mul_codes(g, wn, phy))
    return _gate(g, x.codes, t, mul_codes(g, ix, inner))
