"""Per-element dynamics: foldings, axes, preorders, and quasidirections.

Every operation here is attached to a base element w, passed as a
GroupElement.  Nothing is cached between calls: the folding is read off the
gap c ∩ c⁻¹ of the conjugate c = x⁻¹wx (see `_gap`).  No power of w is
built either: each gate is a limit along wⁿ, and `meet_codes` reads it by
streaming copies of a cyclically reduced conjugate of w until a stop rule
proves that the limit is reached (see `qdir` and `psi_fold`).
"""

from __future__ import annotations

from .elements import GroupElement, _require_same_graph, inv_codes, mul_codes
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


def _qdir_codes(g, w, x, y) -> tuple[int, ...]:
    """qdir on code tuples; see `qdir`."""
    ix = inv_codes(g, x)
    u = _gap(g, w, ix, x)
    phx = mul_codes(g, x, u)
    c = mul_codes(g, mul_codes(g, inv_codes(g, phx), w), phx)
    return mul_codes(g, x, meet_codes(g, mul_codes(g, ix, y), u, c))


def qdir(w: GroupElement, x: GroupElement, y: GroupElement) -> GroupElement:
    """The quasidirection value: the limit of Y(x, y, wⁿ·φ_w(x)) as n grows.

    Seen from x, with t = x⁻¹y, u = x⁻¹φ(x) (the `_gap`) and
    c = φ(x)⁻¹wφ(x), the gate is x·(t ∩ u·cⁿ):

    1. Left translation preserves medians and Y(1, a, b) = a ∩ b, so
       Y(x, y, wⁿφ(x)) = x·(t ∩ x⁻¹wⁿφ(x)), and x⁻¹wⁿφ(x) = u·cⁿ.
    2. The word u·c·c·…·c is reduced.  φ(x) lies on the axis, so c is
       cyclically reduced and l(cⁿ) = n·l(c).  wⁿφ(x) lies on the axis too,
       and φ(x) is the gate of x on the axis, so φ(x) lies in the cell
       [x, wⁿφ(x)] and l(u·cⁿ) = l(u) + n·l(c), the length of the word.
    3. So `meet_codes` computes t ∩ u·cⁿ by streaming u and then copies of
       c, with no power built.  It stops after the first copy that cancels
       nothing, which is at most copy l(t) + 1, and its stop rule proves
       that the meet no longer moves for any larger n: that is the limit.
    """
    _require_same_graph(w, x)
    _require_same_graph(w, y)
    return GroupElement(w.graph, _qdir_codes(w.graph, w.codes, x.codes, y.codes))


def _axis_core(w: GroupElement, name: str, a: GroupElement) -> tuple[int, ...]:
    """c = a⁻¹wa; a lies on the axis exactly when c is cyclically reduced,
    and otherwise a ValueError names the argument."""
    _require_same_graph(w, a)
    g = w.graph
    c = mul_codes(g, mul_codes(g, inv_codes(g, a.codes), w.codes), a.codes)
    if meet_codes(g, c, inv_codes(g, c)):
        raise ValueError(f"{name} must lie in the axis of w")
    return c


def in_axis_slice(w: GroupElement, a: GroupElement, x: GroupElement) -> bool:
    """Whether x lies in the axis slice through a: some cell [w⁻ⁿa, wⁿa].

    x ∈ [lo, hi] exactly when Y(lo, x, hi) = x, so this is
    psi_fold(w, a, x) = x.
    """
    return psi_fold(w, a, x) == x


def psi_fold(w: GroupElement, a: GroupElement, x: GroupElement) -> GroupElement:
    """Fold x onto the axis slice through a: the limit of Y(w⁻ⁿa, x, wⁿa).

    It is a·((s ∩ c^∞) ∨ (s ∩ c^−∞)), with s = a⁻¹x and c = a⁻¹wa.

    1. a lies on the axis, so c is cyclically reduced, w^{±n}a = a·c^{±n},
       and the words c·c·… and c⁻¹·c⁻¹·… are reduced.
    2. Left translation preserves medians, so seen from a the fold is
       Y(c⁻ⁿ, s, cⁿ) = (s ∩ c⁻ⁿ) ∨ (s ∩ cⁿ) ∨ (c⁻ⁿ ∩ cⁿ).
    3. For n ≥ 1 the first letters of c^{±n} are those of c^{±1}, and
       c ∩ c⁻¹ = 1 because c is cyclically reduced, so c⁻ⁿ ∩ cⁿ = 1.
    4. `meet_codes` streams the copies of c, and of c⁻¹, until its stop rule
       proves that s ∩ c^{±n} no longer moves.  Call the limits p and q.
    5. p ∩ q ⊂ cⁿ ∩ c⁻ⁿ = 1, and p ∨ q exists since s bounds both, so
       p ⊥ q and p ∨ q = p·q.
    """
    _require_same_graph(w, x)
    c = _axis_core(w, "a", a)
    g = w.graph
    s = mul_codes(g, inv_codes(g, a.codes), x.codes)
    p = meet_codes(g, s, (), c)
    q = meet_codes(g, s, (), inv_codes(g, c))
    return GroupElement(g, mul_codes(g, a.codes, mul_codes(g, p, q)))


def decompose_axis(
    w: GroupElement, a: GroupElement, x: GroupElement
) -> tuple[GroupElement, GroupElement]:
    """Split an axis point x into (class gate, slice part) over the base a.

    Returns (y, z) with z the fold of x onto the slice through a and
    y = x·z⁻¹·a; then x = y·a⁻¹·z = z·a⁻¹·y.
    """
    _axis_core(w, "a", a)
    _axis_core(w, "x", x)
    z = psi_fold(w, a, x)
    g = w.graph
    y = GroupElement(g, mul_codes(g, mul_codes(g, x.codes, inv_codes(g, z.codes)), a.codes))
    return y, z


def dir_join(w: GroupElement, a: GroupElement, x: GroupElement, y: GroupElement) -> GroupElement:
    """The direction join over base a: the limit of Y(x, y, Y(wⁿφ(x), a, wⁿφ(y))).

    It is Y(qdir(w, x, y), a, qdir(w, y, x)).  Seen from x, with
    A = x⁻¹wⁿφ(x), B = x⁻¹wⁿφ(y), α = x⁻¹a and t = x⁻¹y, the gate is
    t ∩ Y(A, α, B), and Y(A, α, B) = (A ∩ α) ∨ (α ∩ B) ∨ (A ∩ B).  Below
    Y(A, α, B) the prefix semilattice is a distributive lattice, so the gate
    is (t ∩ A ∩ α) ∨ (t ∩ α ∩ B) ∨ ((t ∩ A) ∩ (t ∩ B)), which is
    Y(t ∩ A, α, t ∩ B) since t ∩ A and t ∩ B lie below t.  Now
    x·(t ∩ A) = Y(x, y, wⁿφ(x)) and x·(t ∩ B) = Y(y, x, wⁿφ(y)), whose
    limits are qdir(w, x, y) and qdir(w, y, x); translating by x gives the
    median above.
    """
    for e in (a, x, y):
        _require_same_graph(w, e)
    g = w.graph
    fwd = _qdir_codes(g, w.codes, x.codes, y.codes)
    back = _qdir_codes(g, w.codes, y.codes, x.codes)
    return GroupElement(g, median_codes(g, fwd, a.codes, back))
