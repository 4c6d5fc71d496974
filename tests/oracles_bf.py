"""Brute-force oracles used only by the test-suite.

These deliberately re-derive results by exhaustive search so the production
algorithms are validated against independent routes:

- `brute_canonical`: closure of a word under adjacent commutations and
  adjacent cancellations; the canonical form must be the shortlex-least
  minimal-length word of the closure.
- `brute_prefixes` / `brute_meet`: prefix sets by first-letter recursion; the
  meet must be the unique maximum-length common element.
- `ref_meet`: the meet by repeatedly popping the least common first letter,
  quadratic but independent of the one-pass cancellation meet.
- `brute_interval` / `brute_median`: the median must be the unique common
  point of the three pairwise intervals.
- `ref_random_codes`: the rejection sampler that canonicalises every draw,
  the reference for the one-pass reducedness test of `random_codes`.
- `ref_stabilized_gate`: a gate limit found by evaluating n = 0, 1, 2, …
  until a long streak of equal values, the reference for the closed-form
  index of `qdir` and `dir_join`.
- `ref_root_candidates`: an m-th root of a cyclically reduced word by a
  depth-first search over its prefixes, the reference for the
  occurrence-block root of `mth_root` and `max_root`.

Layering: brute_prefixes and everything below rely on the canonical-form
engine, which is itself validated against the rewriting closure first.
"""

from __future__ import annotations

import random
from collections import Counter

from raagkit.elements import canon_codes, fl_codes, inv_codes, mul_codes, pow_codes
from raagkit.order import meet_codes
from raagkit.presentation import CommutationGraph


def rewriting_closure(graph: CommutationGraph, word: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All words reachable by adjacent commuting swaps and adjacent cancellations."""
    seen = {word}
    frontier = [word]
    while frontier:
        new = []
        for w in frontier:
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if (a >> 1) != (b >> 1) and graph.commutes(a >> 1, b >> 1):
                    w2 = w[:i] + (b, a) + w[i + 2:]
                    if w2 not in seen:
                        seen.add(w2)
                        new.append(w2)
                if b == (a ^ 1):
                    w2 = w[:i] + w[i + 2:]
                    if w2 not in seen:
                        seen.add(w2)
                        new.append(w2)
        frontier = new
    return seen


def brute_canonical(graph: CommutationGraph, word: tuple[int, ...]) -> tuple[int, ...]:
    """Shortlex-least minimal-length word of the rewriting closure."""
    closure = rewriting_closure(graph, word)
    minlen = min(len(w) for w in closure)
    return min(w for w in closure if len(w) == minlen)


def minimal_multiset(graph: CommutationGraph, word: tuple[int, ...]) -> set[tuple]:
    """Letter multisets of the minimal-length closure words (should be one)."""
    closure = rewriting_closure(graph, word)
    minlen = min(len(w) for w in closure)
    return {tuple(sorted(Counter(w).items())) for w in closure if len(w) == minlen}


def brute_prefixes(graph: CommutationGraph, x: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All prefixes of x by first-letter recursion (independent of the interval BFS)."""
    out: set[tuple[int, ...]] = set()

    def rec(t: tuple[int, ...], rest: tuple[int, ...]) -> None:
        if t in out:
            return
        out.add(t)
        seen_gens: set[int] = set()
        for i, s in enumerate(rest):
            g = s >> 1
            if all(h != g and graph.commutes(h, g) for h in seen_gens):
                rec(canon_codes(graph, t + (s,)), rest[:i] + rest[i + 1:])
            seen_gens.add(g)

    rec((), tuple(x))
    return out


def brute_meet(graph: CommutationGraph, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Unique maximum-length common prefix; asserts uniqueness."""
    common = brute_prefixes(graph, x) & brute_prefixes(graph, y)
    maxlen = max(len(t) for t in common)
    best = [t for t in common if len(t) == maxlen]
    assert len(best) == 1, f"meet is not unique for {x} and {y}: {best}"
    return best[0]


def ref_meet(graph: CommutationGraph, a, b) -> tuple[int, ...]:
    """Greatest common prefix, emitted directly in canonical form.

    Any common first letter s of a and b is a prefix of the meet, and the set
    of first letters of the meet is the intersection of the two first-letter
    sets; popping the least common first letter therefore builds the
    shortlex-least spelling of the meet letter by letter.
    """
    wa = list(a)
    wb = list(b)
    out: list[int] = []
    while True:
        common = set(fl_codes(graph, wa)) & set(fl_codes(graph, wb))
        if not common:
            break
        s = min(common)
        out.append(s)
        # The available occurrence of letter s is its first occurrence.
        wa.remove(s)
        wb.remove(s)
    return tuple(out)


def brute_interval(graph: CommutationGraph, x: tuple[int, ...], y: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The cell [x, y] as translated prefixes of x^-1 y."""
    z = mul_codes(graph, inv_codes(graph, x), y)
    return frozenset(mul_codes(graph, x, t) for t in brute_prefixes(graph, z))


def brute_median(
    graph: CommutationGraph,
    x: tuple[int, ...],
    y: tuple[int, ...],
    z: tuple[int, ...],
    cells: dict | None = None,
) -> tuple[int, ...]:
    """Unique common point of the three pairwise cells; asserts uniqueness.

    `cells` may cache brute_interval results keyed by unordered endpoint pairs.
    """

    def cell(a, b):
        if cells is None:
            return brute_interval(graph, a, b)
        key = (a, b) if a <= b else (b, a)
        got = cells.get(key)
        if got is None:
            got = brute_interval(graph, a, b)
            cells[key] = got
        return got

    common = cell(x, y) & cell(y, z) & cell(x, z)
    assert len(common) == 1, f"median is not unique for {x}, {y}, {z}: {sorted(common)}"
    return next(iter(common))


def ref_random_codes(rng: random.Random, graph: CommutationGraph, max_len: int, min_len: int = 0) -> tuple[int, ...]:
    """`random_codes` by canonicalising every draw: reduced iff no letter cancels."""
    length = rng.randint(min_len, max_len)
    if length == 0:
        return ()
    nletters = 2 * graph.ngens
    while True:
        codes = [rng.randrange(nletters) for _ in range(length)]
        t = canon_codes(graph, codes)
        if len(t) == length:
            return t


def ref_stabilized_gate(ctx, x: tuple[int, ...], y: tuple[int, ...], target) -> tuple[int, ...]:
    """The limit of x·(x⁻¹y ∩ target(n)) for n = 0, 1, 2, … under the WContext ctx.

    Accepted after l(x⁻¹y) + 2 equal consecutive values; gives up after
    8·(l(x) + l(y) + l(w) + 4) steps.
    """
    g = ctx.graph
    ixy = mul_codes(g, inv_codes(g, x), y)
    need = len(ixy) + 2
    last = None
    streak = 0
    for n in range(8 * (len(x) + len(y) + len(ctx.w.codes) + 4)):
        m = mul_codes(g, x, meet_codes(g, ixy, target(n)))
        if m == last:
            streak += 1
            if streak >= need:
                return m
        else:
            last = m
            streak = 1
    raise AssertionError("gate sequence failed to stabilize")


def ref_root_candidates(graph: CommutationGraph, v: tuple[int, ...], m: int) -> tuple[int, ...] | None:
    """A prefix p of v with letter multiset counts(v)/m and pᵐ = v, if any.

    A depth-first search over prefixes, exponential when no root exists; a
    state is the rest of v, which determines the prefix.
    """
    counts = Counter(v)
    if any(c % m for c in counts.values()):
        return None
    depth = len(v) // m
    seen: set[tuple[int, ...]] = set()
    stack = [((), v, {s: c // m for s, c in counts.items()})]
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
            rest2 = mul_codes(graph, (s ^ 1,), rest)
            if rest2 in seen:
                continue
            seen.add(rest2)
            need2 = dict(need)
            need2[s] -= 1
            stack.append((p + (s,), rest2, need2))
    return None
