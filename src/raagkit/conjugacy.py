"""Cyclic reduction, the conjugacy decision, and root extraction."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .elements import (
    GroupElement,
    _require_same_graph,
    canon_codes,
    fl_codes,
    inv_codes,
    mul_codes,
    pow_codes,
)
from .errors import InvariantViolationError, ResourceCapError
from .order import meet_codes
from .presentation import CommutationGraph

DEFAULT_CONJUGACY_CAP = 100_000


@dataclass(frozen=True)
class CyclicReduction:
    """w = conjugator · core · conjugator⁻¹ with all three pieces reduced.

    The conjugator is the common prefix of w and w⁻¹; the core is cyclically
    reduced and is the unique shortest element conjugate to w this way.
    """

    conjugator: GroupElement
    core: GroupElement

    def whole(self) -> GroupElement:
        u = self.conjugator
        return u * self.core * ~u


def is_cyclically_reduced(w: GroupElement) -> bool:
    """Whether w shares no prefix with its inverse."""
    return not meet_codes(w.graph, w.codes, inv_codes(w.graph, w.codes))


def cyclic_reduce(w: GroupElement) -> CyclicReduction:
    g = w.graph
    u = meet_codes(g, w.codes, inv_codes(g, w.codes))
    iu = inv_codes(g, u)
    v = mul_codes(g, mul_codes(g, iu, w.codes), u)
    return CyclicReduction(GroupElement(g, u), GroupElement(g, v))


def _conjugate_closure(
    graph: CommutationGraph, v: tuple[int, ...], cap: int
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Closure of v under same-length moves v ↦ s⁻¹vs, s a first letter.

    Returns {reached: t} where reached = t⁻¹·v·t; v itself maps to the empty
    word. Everything reached is cyclically reduced of the same length.
    """
    seen: dict[tuple[int, ...], tuple[int, ...]] = {v: ()}
    frontier = [v]
    while frontier:
        new = []
        for cur in frontier:
            t = seen[cur]
            for s in fl_codes(graph, cur):
                cand = mul_codes(graph, mul_codes(graph, ((s ^ 1),), cur), (s,))
                if len(cand) != len(cur) or cand in seen:
                    continue
                if len(seen) >= cap:
                    raise ResourceCapError("conjugate-set enumeration", cap)
                seen[cand] = mul_codes(graph, t, (s,))
                new.append(cand)
        frontier = new
    return seen


def cyclically_reduced_conjugates(
    v: GroupElement, cap: int = DEFAULT_CONJUGACY_CAP
) -> set[GroupElement]:
    """All cyclically reduced conjugates of a cyclically reduced element."""
    if not is_cyclically_reduced(v):
        raise ValueError("input must be cyclically reduced")
    closure = _conjugate_closure(v.graph, v.codes, cap)
    return {GroupElement(v.graph, t) for t in closure}


def are_conjugate(
    w1: GroupElement, w2: GroupElement, cap: int = DEFAULT_CONJUGACY_CAP
) -> bool:
    _require_same_graph(w1, w2)
    v1 = cyclic_reduce(w1).core
    v2 = cyclic_reduce(w2).core
    if len(v1) != len(v2):
        return False
    return v2.codes in _conjugate_closure(w1.graph, v1.codes, cap)


def conjugacy_witness(
    w1: GroupElement, w2: GroupElement, cap: int = DEFAULT_CONJUGACY_CAP
) -> Optional[GroupElement]:
    """A conjugator c with c⁻¹·w1·c = w2, or None when not conjugate."""
    _require_same_graph(w1, w2)
    g = w1.graph
    r1 = cyclic_reduce(w1)
    r2 = cyclic_reduce(w2)
    if len(r1.core) != len(r2.core):
        return None
    closure = _conjugate_closure(g, r1.core.codes, cap)
    t = closure.get(r2.core.codes)
    if t is None:
        return None
    # w1 = u1 v1 u1⁻¹ and v2 = t⁻¹ v1 t, so c = u1·t·u2⁻¹ conjugates w1 to w2.
    c = r1.conjugator * GroupElement(g, t) * ~r2.conjugator
    if ~c * w1 * c != w2:
        raise InvariantViolationError("conjugacy certificate does not conjugate w1 to w2")
    return c


def _generator_counts(graph: CommutationGraph, v: tuple[int, ...]) -> list[int]:
    counts = [0] * graph.ngens
    for s in v:
        counts[s >> 1] += 1
    return counts


def _core_root(graph: CommutationGraph, v: tuple[int, ...], m: int) -> Optional[tuple[int, ...]]:
    """The p with pᵐ = v for a cyclically reduced v, or None.

    If pᵐ = v then p is cyclically reduced (a conjugator u ≠ 1 of p would
    be shared by v and v⁻¹), so pᵐ is p written m times with no
    cancellation. The occurrences of one generator g are totally ordered in
    every spelling of v, and in p·p·…·p copy i holds the i-th block of n_g/m
    of them. Copy 1 is down-closed: nothing in a later copy precedes it. So
    the letters of v that are among the first n_g/m occurrences of their
    generator spell p, in any spelling of v. That p is the only candidate,
    and one power decides.
    """
    counts = _generator_counts(graph, v)
    if any(c % m for c in counts):
        return None
    left = [c // m for c in counts]
    first_block = []
    for s in v:
        if left[s >> 1]:
            left[s >> 1] -= 1
            first_block.append(s)
    p = canon_codes(graph, first_block)
    return p if pow_codes(graph, p, m) == v else None


def mth_root(w: GroupElement, m: int) -> Optional[GroupElement]:
    """The unique x with xᵐ = w, or None; roots are unique in these groups."""
    if m < 1:
        raise ValueError(f"root degree must be >= 1, got {m}")
    if m == 1:
        return w
    g = w.graph
    if w.is_identity():
        return GroupElement(g, ())
    r = cyclic_reduce(w)
    p = _core_root(g, r.core.codes, m)
    if p is None:
        return None
    return r.conjugator * GroupElement(g, p) * ~r.conjugator


def max_root(w: GroupElement) -> tuple[GroupElement, int]:
    """(p, m) with pᵐ = w and m maximal; p is then not a proper power."""
    if w.is_identity():
        raise ValueError("the identity has no maximal root")
    g = w.graph
    r = cyclic_reduce(w)
    d = gcd(*_generator_counts(g, r.core.codes))
    for m in range(d, 1, -1):
        if d % m == 0:
            p = _core_root(g, r.core.codes, m)
            if p is not None:
                return r.conjugator * GroupElement(g, p) * ~r.conjugator, m
    return w, 1
