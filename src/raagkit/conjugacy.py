"""Cyclic reduction, the conjugacy decision, and root extraction."""

from __future__ import annotations

from collections import Counter
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


def _letter_counts(codes: tuple[int, ...]) -> Counter:
    return Counter(codes)


def _root_candidates(
    graph: CommutationGraph, v: tuple[int, ...], m: int
) -> Optional[tuple[int, ...]]:
    """A prefix p of v with letter multiset counts(v)/m and pᵐ = v, if any."""
    counts = _letter_counts(v)
    if any(c % m for c in counts.values()):
        return None
    target = {s: c // m for s, c in counts.items()}
    depth = len(v) // m
    # DFS over prefixes; a state is the rest of v (the prefix is v·rest⁻¹,
    # determined by the rest), pruned to letters still needed by the target.
    seen_states: set[tuple[int, ...]] = set()
    stack: list[tuple[tuple[int, ...], tuple[int, ...], dict]] = [((), v, dict(target))]
    while stack:
        p, rest, need = stack.pop()
        if len(p) == depth:
            cp = canon_codes(graph, p)
            if pow_codes(graph, cp, m) == v:
                return cp
            continue
        for s in fl_codes(graph, rest):
            if need.get(s, 0) <= 0:
                continue
            rest2 = mul_codes(graph, ((s ^ 1),), rest)
            if rest2 in seen_states:
                continue
            seen_states.add(rest2)
            need2 = dict(need)
            need2[s] -= 1
            stack.append((p + (s,), rest2, need2))
    return None


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
    p = _root_candidates(g, r.core.codes, m)
    if p is None:
        return None
    return r.conjugator * GroupElement(g, p) * ~r.conjugator


def max_root(w: GroupElement) -> tuple[GroupElement, int]:
    """(p, m) with pᵐ = w and m maximal; p is then not a proper power."""
    if w.is_identity():
        raise ValueError("the identity has no maximal root")
    g = w.graph
    r = cyclic_reduce(w)
    counts = _letter_counts(r.core.codes)
    d = 0
    for c in counts.values():
        d = gcd(d, c)
    for m in sorted(_divisors(d), reverse=True):
        p = _root_candidates(g, r.core.codes, m)
        if p is not None:
            return r.conjugator * GroupElement(g, p) * ~r.conjugator, m
    raise AssertionError("unreachable: m = 1 always yields the element itself")


def _divisors(n: int) -> list[int]:
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return out
