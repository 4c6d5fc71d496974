"""The order-theoretic layer.

The canonical length induces the prefix order x ⊂ y ⟺ l(x) + l(x⁻¹y) = l(y).
This module decides it and computes the derived structure: greatest common
prefixes (meet), medians, joins (partial), orthogonality, geodesic intervals
(cells), cell boundaries, metric balls, and the interval-based oracle for
quasidirections.

A point p lies in a cell [x, z] exactly when p⁻¹x ∩ p⁻¹z = 1 (see
`dynamics.preceq`); the ends of [1, v] are read off the non-commutation
components of supp(v) (see `boundary`).  Only `interval` and `ball` enumerate.

Tuple-level functions (suffix `_codes`) are the fast path shared by the rest
of the package; same-named wrappers operate on GroupElement.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import DEFAULT_INTERVAL_CAP, InvariantViolationError, ResourceCapError
from .presentation import CommutationGraph
from .elements import (
    SPLICE_MAX,
    GroupElement,
    _require_same_graph,
    canon_codes,
    inv_codes,
    mul_codes,
    support_codes,
)


# ---------------------------------------------------------------------------
# tuple-level order operations


def prefix_codes(graph: CommutationGraph, a, b) -> bool:
    """Whether a ⊂ b, i.e. l(a) + l(a⁻¹b) = l(b)."""
    la = len(a)
    lb = len(b)
    if la > lb:
        return False
    return la + len(mul_codes(graph, inv_codes(graph, a), b)) == lb


def meet_codes(graph: CommutationGraph, a, b, c=()) -> tuple[int, ...]:
    """Greatest common prefix a ∩ b·cᵐ, for m so large that it no longer moves.

    a is canonical and the word b·c·c·… is reduced; with c empty this is the
    meet a ∩ b of two canonical tuples, computed in one pass.

    Run the reduction sweep of `reduce_codes` over a⁻¹·b.  Both halves are
    reduced, so every cancellation pairs an incoming letter of b with a
    pending letter of a⁻¹.  If k pairs cancel, the survivors spell
    a⁻¹b = u·v, with u the l(a) - k surviving letters of a⁻¹ and v those of
    b, and k = (l(a) + l(b) - l(a⁻¹b)) / 2 is the Gromov product of a and b
    at the identity.  Let d be the cancelled letters of b in order.  Each
    commutes with the surviving letters of b before it (one that blocked it
    would sit above the a⁻¹ entries on its pile), so b = d·v with lengths
    adding: d ⊂ b.  Then a⁻¹d = u has length l(a) - l(d), so d ⊂ a.  In
    these groups the Gromov product is l(a ∩ b), and a common prefix that
    long is the meet itself.  Up to here only reduced b was used.  When b is
    canonical no shortlex pass is needed: every letter of b that a letter of
    d depends on is in d, and the greedy least order of b restricted to such
    a down-closed set is the least order of the set, so d in b's order is
    canonical.  A reduced b that is not canonical takes one shortlex pass
    over d, which has at most l(a) letters.

    Surviving letters of b are not stacked: a survivor only hides the a⁻¹
    entries below it, so a mask of the generators it blocks is enough, and
    the sweep stops once that mask covers every generator.

    With c nonempty, b is followed by copies of c, one at a time, and the
    sweep stops after the first copy of c that cancels nothing.  The sweep's
    state is the pending a⁻¹ entries and the hidden mask.  A letter cancels
    only if its generator is not hidden and the pending entry it meets is its
    inverse, so with the same pending entries a larger mask cancels no more.
    A copy that cancels nothing leaves the pending entries as they were and
    only adds to the mask.  So each letter of the next copy meets the same
    pending entries as its twin in the copy before, under a mask at least as
    large, and cancels nothing either.  So for every larger m the sweep over
    a⁻¹·b·cᵐ cancels the same letters, and by the proof above they spell
    a ∩ b·cᵐ.  Every copy before the last cancels a letter of a⁻¹, so at
    most l(a) + 1 copies are read.  The sweep also stops when every
    generator is hidden or nothing is pending, since then no later letter
    can cancel.

    When a and b have at most SPLICE_MAX letters no piles are built: a
    backward scan over the uncancelled a⁻¹ letters, as in `_splice`, finds
    the last one that blocks s.  Survivors of b exist only in `hidden`, so
    when s's generator is not hidden that letter is its pile's top, and s
    cancels exactly when it is s⁻¹.
    """
    if not a or not (b or c):
        return ()
    block = graph.block_mask
    full = (1 << graph.ngens) - 1
    pending = [l ^ 1 for l in reversed(a)]  # a⁻¹: cancelled letters deleted, or -1 on piles
    hidden = 0  # generators whose pile has a surviving incoming letter on top
    cancelled: list[int] = []
    piles = None
    if len(a) > SPLICE_MAX or len(b) > SPLICE_MAX:
        blockers = graph.blockers
        piles = [[] for _ in range(graph.ngens)]
        for eid, l in enumerate(pending):
            for h in blockers[l >> 1]:
                piles[h].append(eid)
    part = b
    while True:
        k = len(cancelled)
        if piles is None:
            for s in part:
                g = s >> 1
                m = block[g]
                if not (hidden >> g) & 1:
                    p = len(pending) - 1
                    while p >= 0 and not (m >> (pending[p] >> 1)) & 1:
                        p -= 1
                    if p >= 0 and pending[p] == s ^ 1:
                        del pending[p]
                        cancelled.append(s)
                        continue
                hidden |= m
                if hidden == full:
                    break
        else:
            for s in part:
                g = s >> 1
                if not (hidden >> g) & 1:
                    pile = piles[g]
                    while pile and pending[pile[-1]] < 0:
                        pile.pop()
                    if pile and pending[pile[-1]] == (s ^ 1):
                        pending[pile.pop()] = -1
                        cancelled.append(s)
                        continue
                hidden |= block[g]
                if hidden == full:
                    break
        if not c or hidden == full or len(cancelled) == len(a):
            break
        if part is c and len(cancelled) == k:
            break
        part = c
    return canon_codes(graph, cancelled) if c else tuple(cancelled)


def median_codes(graph: CommutationGraph, x, y, z) -> tuple[int, ...]:
    """The median, as z·((z⁻¹x) ∩ (z⁻¹y))."""
    iz = inv_codes(graph, z)
    m = meet_codes(graph, mul_codes(graph, iz, x), mul_codes(graph, iz, y))
    return mul_codes(graph, z, m)


def join_codes(graph: CommutationGraph, x, y) -> Optional[tuple[int, ...]]:
    """x ∪ y, the least common upper bound; None when x and y have none.

    Let m = x ∩ y, x' = m⁻¹x and y' = m⁻¹y; then x ∪ y exists exactly when
    x' ⊥ y', and it is x·y'.  Lengths add along m ⊂ x ⊂ z, so z is an upper
    bound of x and y exactly when m ⊂ z and m⁻¹z is an upper bound of x' and
    y'.  Also x' ∩ y' = 1, since m is the greatest common prefix.  So when a
    bound exists, x' ∪ y' exists, which with x' ∩ y' = 1 is the definition of
    x' ⊥ y', decided here by the support test of `orth_codes`.  Conversely,
    when x' ⊥ y' the orthogonal-product law gives x' ∪ y' = x'y', and m·x'·y'
    is reduced: x' and y' have disjoint supports and m·x' = x is reduced, so
    a cancelling pair would join a letter of m to one of y' across x', and it
    would already cancel in m·y' = y.  Hence x ∪ y = m·x'y' = x·y'.
    """
    m = meet_codes(graph, x, y)
    im = inv_codes(graph, m)
    yr = mul_codes(graph, im, y)
    if not orth_codes(graph, mul_codes(graph, im, x), yr):
        return None
    return mul_codes(graph, x, yr)


def orth_codes(graph: CommutationGraph, x, y) -> bool:
    """Orthogonality, by the support criterion: disjoint supports, every cross
    pair commuting.  The definition, x ∩ y = 1 and x ∪ y exists, is
    `checks.orth_codes_definitional`, the oracle of the orthogonal-product
    law."""
    sx = support_codes(x)
    sy = support_codes(y)
    if sx & sy:
        return False
    comm = graph.comm_mask
    ymask = 0
    for g in sy:
        ymask |= 1 << g
    return all((comm[g] & ymask) == ymask for g in sx)


def interval_codes(graph: CommutationGraph, z, cap: int = DEFAULT_INTERVAL_CAP) -> list[tuple[int, ...]]:
    """All prefixes of z (the cell [1, z]) by breadth-first geodesic closure.

    Deterministic order: by length, then discovery. Raises when the cell
    exceeds the cap; never truncates.
    """
    z = tuple(z)
    start: tuple[int, ...] = ()
    seen: set[tuple[int, ...]] = {start}
    out: list[tuple[int, ...]] = [start]
    frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(start, z)]
    block = graph.block_mask
    while frontier:
        nxt: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for t, rest in frontier:
            seen_gens = 0
            for i, s in enumerate(rest):
                g = s >> 1
                if not (seen_gens & block[g]):
                    t2 = mul_codes(graph, t, (s,))
                    if t2 not in seen:
                        seen.add(t2)
                        if len(seen) > cap:
                            raise ResourceCapError("interval enumeration", cap)
                        out.append(t2)
                        nxt.append((t2, rest[:i] + rest[i + 1:]))
                seen_gens |= 1 << g
        frontier = nxt
    return out


def ball_codes(graph: CommutationGraph, r: int, cap: int = DEFAULT_INTERVAL_CAP) -> list[tuple[int, ...]]:
    """All canonical tuples of length ≤ r, in breadth-first deterministic order."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    nletters = 2 * graph.ngens
    seen: set[tuple[int, ...]] = {()}
    out: list[tuple[int, ...]] = [()]
    current: list[tuple[int, ...]] = [()]
    for _ in range(r):
        nxt: list[tuple[int, ...]] = []
        for t in current:
            for s in range(nletters):
                t2 = mul_codes(graph, t, (s,))
                if len(t2) == len(t) + 1 and t2 not in seen:
                    seen.add(t2)
                    if len(seen) > cap:
                        raise ResourceCapError("ball enumeration", cap)
                    out.append(t2)
                    nxt.append(t2)
        current = nxt
    return out


# ---------------------------------------------------------------------------
# public element-level operations


def is_prefix(x: GroupElement, y: GroupElement) -> bool:
    _require_same_graph(x, y)
    return prefix_codes(x.graph, x.codes, y.codes)


def meet(x: GroupElement, y: GroupElement) -> GroupElement:
    _require_same_graph(x, y)
    return GroupElement(x.graph, meet_codes(x.graph, x.codes, y.codes))


def median(x: GroupElement, y: GroupElement, z: GroupElement) -> GroupElement:
    _require_same_graph(x, y)
    _require_same_graph(x, z)
    return GroupElement(x.graph, median_codes(x.graph, x.codes, y.codes, z.codes))


def join(x: GroupElement, y: GroupElement) -> Optional[GroupElement]:
    _require_same_graph(x, y)
    j = join_codes(x.graph, x.codes, y.codes)
    return None if j is None else GroupElement(x.graph, j)


def is_orthogonal(x: GroupElement, y: GroupElement) -> bool:
    _require_same_graph(x, y)
    return orth_codes(x.graph, x.codes, y.codes)


def interval(x: GroupElement, y: GroupElement, cap: int = DEFAULT_INTERVAL_CAP) -> frozenset[GroupElement]:
    """The cell [x, y]: all z with l(x⁻¹z) + l(z⁻¹y) = l(x⁻¹y)."""
    _require_same_graph(x, y)
    graph = x.graph
    z = mul_codes(graph, inv_codes(graph, x.codes), y.codes)
    return frozenset(GroupElement(graph, mul_codes(graph, x.codes, t)) for t in interval_codes(graph, z, cap))


def _noncomm_components(graph: CommutationGraph, supp: set[int]) -> list[set[int]]:
    """Connected components of the non-commutation graph induced on supp."""
    order = sorted(supp)
    comps: list[set[int]] = []
    placed: set[int] = set()
    for seed in order:
        if seed in placed:
            continue
        comp = {seed}
        stack = [seed]
        while stack:
            cur = stack.pop()
            for t in order:
                if t not in comp and not graph.commutes(cur, t):
                    comp.add(t)
                    stack.append(t)
        placed |= comp
        comps.append(comp)
    return comps


def boundary(v: GroupElement, cap: int = DEFAULT_INTERVAL_CAP) -> set[GroupElement]:
    """The ends of the cell [1, v]: {a ⊂ v : a ⊥ a⁻¹v}.

    They are the 2^k projections π_S(v), for S a union of the components
    C₁, …, C_k of the non-commutation graph on supp(v); π_S deletes the
    letters outside S, a homomorphism that fixes the elements spelled in S.
    If a ⊂ v and a ⊥ b = a⁻¹v, then v = a·b with lengths adding, and the
    supports of a and b are disjoint and commute, so no non-commutation edge
    joins them: S = supp(a) is a union of the Cᵢ and π_S(v) = π_S(a)·π_S(b)
    = a.  Conversely, for such an S the subsequences p and q of v's normal
    form on S and off it commute letter by letter, so v = p·q.  A shorter or
    shortlex-smaller word for p, put in p's places, would spell v shorter or
    smaller, so p is the normal form of π_S(v), likewise q of π_{S^c}(v);
    their lengths add and they are orthogonal.  supp(π_S(v)) = S, so the
    ends are distinct, and 2^k above `cap` raises before any is built.
    """
    graph = v.graph
    comps = _noncomm_components(graph, support_codes(v.codes))
    if 1 << len(comps) > cap:
        raise ResourceCapError("cell boundary", cap)
    picks = [0]
    for comp in comps:
        bits = sum(1 << s for s in comp)
        picks += [p | bits for p in picks]
    return {GroupElement(graph, tuple(c for c in v.codes if p >> (c >> 1) & 1)) for p in picks}


def ball(g: CommutationGraph, r: int, cap: int = DEFAULT_INTERVAL_CAP) -> set[GroupElement]:
    """All elements of canonical length at most r."""
    return {GroupElement(g, t) for t in ball_codes(g, r, cap)}


def oracle_qdir(
    a: GroupElement,
    b: GroupElement,
    pre: Callable[[GroupElement, GroupElement], bool],
    cap: int = DEFAULT_INTERVAL_CAP,
) -> GroupElement:
    """Interval-based oracle for the quasidirection induced by a preorder.

    Enumerates the cell [a, b], keeps the elements above both a and b under
    the supplied preorder (a nonempty sub-cell when the preorder is genuine),
    and folds them toward a with the internal direction (u, v) ↦ Y(u, a, v).
    The result is the a-side end of that sub-cell.
    """
    _require_same_graph(a, b)
    graph = a.graph
    upper = [u for u in interval(a, b, cap) if pre(a, u) and pre(b, u)]
    if not upper:
        raise InvariantViolationError(
            "no common upper bound inside the cell; the supplied preorder is not compatible"
        )
    upper.sort(key=lambda e: (len(e.codes), e.codes))
    acc = upper[0].codes
    for u in upper[1:]:
        acc = median_codes(graph, acc, a.codes, u.codes)
    return GroupElement(graph, acc)
