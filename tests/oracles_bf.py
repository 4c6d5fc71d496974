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
- `ref_join`: the join as x·(x∩y)⁻¹·y, kept only when x and y are both
  prefixes of it by lengths, the reference for the join by orthogonal
  remainders.
- `brute_interval` / `brute_median`: the median must be the unique common
  point of the three pairwise intervals.
- `ref_boundary`: the ends of the cell [1, v] by enumerating the cell and
  keeping every a with a ⊥ a⁻¹v, the reference for the ends read off the
  splitting of supp(v) into non-commutation components.
- `ref_random_codes`: the r-th normal form of length L in lexicographic
  order, with the letters forbidden after a word read off the word by a
  backward scan, the reference for the counted automaton of `random_codes`.
- `ref_stabilized`: a limit found by evaluating n = 0, 1, 2, … until a long
  streak of equal values, the reference for the closed-form index of `qdir`,
  `dir_join` and `psi_fold`.
- `ref_root_candidates`: an m-th root of a cyclically reduced word by a
  depth-first search over its prefixes, the reference for the
  occurrence-block root of `mth_root` and `max_root`.
- `ref_preceq`, `ref_in_centralizer`: the definitions on `GroupElement`s,
  the references for the code-tuple versions in the library: x below y for
  w when l(x⁻¹y) + l(y⁻¹wy) = l(x⁻¹wy), and x commuting with w when
  xw = wx.
- `ref_generated_within`: the products of given generators by a bounded
  subgroup search, the reference whose every element the structure-theorem
  decision `checks.outside_span` must place inside the span.
- `ref_qdir_in_cell`: the body of `order.oracle_qdir` on a cell listed once
  by the caller, so that a table of answers for many base elements w
  enumerates each cell [x, y] once rather than once per w.
- `ref_folding_witness`: a point x of a ball with t·φ_w(x) ≠ φ_w(tx), by
  scanning the ball, the reference for the two points of
  `checks.moves_folding`.

Layering: brute_prefixes and everything below rely on the canonical-form
engine, which is itself validated against the rewriting closure first.
"""

from __future__ import annotations

import random
from collections import Counter

from raagkit.dynamics import fold_phi
from raagkit.elements import GroupElement, canon_codes, fl_codes, identity, inv_codes, mul_codes, pow_codes
from raagkit.order import ball_codes, interval_codes, median_codes, orth_codes
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


def ref_join(graph: CommutationGraph, x, y) -> tuple[int, ...] | None:
    """x ∪ y as j = x·(x∩y)⁻¹·y when l(x) + l(x⁻¹j) = l(j) and likewise for
    y; None otherwise."""
    j = mul_codes(graph, mul_codes(graph, x, inv_codes(graph, ref_meet(graph, x, y))), y)
    for p in (x, y):
        if len(p) + len(mul_codes(graph, inv_codes(graph, p), j)) != len(j):
            return None
    return j


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


def ref_boundary(v) -> set:
    """{a ⊂ v : a ⊥ a⁻¹v}, with the prefixes a of v enumerated as the cell [1, v]."""
    g = v.graph
    return {
        GroupElement(g, a)
        for a in interval_codes(g, v.codes)
        if orth_codes(g, a, mul_codes(g, inv_codes(g, a), v.codes))
    }


class _RefNormalForms:
    """Normal forms of a graph counted top-down, for `ref_random_codes`."""

    def __init__(self, graph: CommutationGraph):
        self.nletters = n = 2 * graph.ngens
        self.comm = [sum(1 << y for y in range(n) if graph.commutes(x >> 1, y >> 1)) for x in range(n)]
        self.memo: dict[tuple[int, int], int] = {}

    def forbidden_after(self, w: tuple[int, ...]) -> int:
        """Bitmask of the letters y such that w·y ends in a cancelling pair
        y⁻¹·u·y or in a factor b·u·y with y < b, where y commutes with every
        letter of u (and with b): scan w backwards while some letter commutes
        with every letter seen."""
        free = (1 << self.nletters) - 1
        out = 0
        for b in reversed(w):
            out |= free & ((1 << (b ^ 1)) | (self.comm[b] & ((1 << b) - 1)))
            free &= self.comm[b]
            if not free:
                break
        return out

    def allowed(self, w: tuple[int, ...]) -> list[int]:
        forbidden = self.forbidden_after(w)
        return [x for x in range(self.nletters) if not forbidden >> x & 1]

    def count(self, w: tuple[int, ...], k: int) -> int:
        """Normal forms of length len(w) + k that start with the normal form w."""
        key = (self.forbidden_after(w), k)
        got = self.memo.get(key)
        if got is None:
            got = sum(self.count(w + (x,), k - 1) for x in self.allowed(w)) if k else 1
            self.memo[key] = got
        return got


_REF_NORMAL_FORMS: dict[CommutationGraph, _RefNormalForms] = {}


def ref_random_codes(rng: random.Random, graph: CommutationGraph, max_len: int, min_len: int = 0) -> tuple[int, ...]:
    """`random_codes` by a top-down count: the rank-th normal form of length L."""
    nf = _REF_NORMAL_FORMS.get(graph)
    if nf is None:
        nf = _REF_NORMAL_FORMS[graph] = _RefNormalForms(graph)
    length = rng.randint(min_len, max_len)
    rank = rng.randrange(nf.count((), length))
    w: tuple[int, ...] = ()
    for k in range(length - 1, -1, -1):
        for x in nf.allowed(w):
            c = nf.count(w + (x,), k)
            if rank < c:
                break
            rank -= c
        w += (x,)
    return w


def ref_stabilized(w, x: tuple[int, ...], y: tuple[int, ...], term) -> tuple[int, ...]:
    """The limit of term(n) for n = 0, 1, 2, … for the base element w.

    Accepted after l(x⁻¹y) + 2 equal consecutive values; gives up after
    8·(l(x) + l(y) + l(w) + 4) steps.
    """
    need = len(mul_codes(w.graph, inv_codes(w.graph, x), y)) + 2
    last = None
    streak = 0
    for n in range(8 * (len(x) + len(y) + len(w.codes) + 4)):
        m = term(n)
        if m == last:
            streak += 1
            if streak >= need:
                return m
        else:
            last = m
            streak = 1
    raise AssertionError("sequence failed to stabilize")


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


def ref_preceq(w, x, y) -> bool:
    """x below y for w: t = x⁻¹y is a prefix of t·c = x⁻¹wy, c = y⁻¹wy, by lengths."""
    t = ~x * y
    c = ~y * w * y
    return len(t) + len(c) == len(t * c)


def ref_in_centralizer(w, x) -> bool:
    """x commutes with w."""
    return x * w == w * x


def ref_generated_within(graph: CommutationGraph, gens, radius: int) -> set:
    """Every element reached from 1 by right multiplication with the generators
    and their inverses, through elements of length at most radius."""
    start = identity(graph)
    seen = {start}
    frontier = [start]
    steps = list(gens) + [~t for t in gens]
    while frontier:
        cur = frontier.pop()
        for s in steps:
            nxt = cur * s
            if len(nxt) <= radius and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def ref_qdir_in_cell(a, b, cell, pre):
    """`oracle_qdir(a, b, pre)` with the cell [a, b] given as a list in
    shortlex order: the points above a and b under pre, folded toward a with
    (u, v) ↦ Y(u, a, v)."""
    g = a.graph
    upper = [u for u in cell if pre(a, u) and pre(b, u)]
    if not upper:
        raise AssertionError("no common upper bound inside the cell")
    acc = upper[0].codes
    for u in upper[1:]:
        acc = median_codes(g, acc, a.codes, u.codes)
    return GroupElement(g, acc)


_REF_BALLS: dict[tuple[CommutationGraph, int], list[GroupElement]] = {}


def ref_folding_witness(w, t, radius: int):
    """The first x of ball(radius), in breadth-first order, with
    t·φ_w(x) ≠ φ_w(tx); None when the ball holds none."""
    g = w.graph
    key = (g, radius)
    points = _REF_BALLS.get(key)
    if points is None:
        points = _REF_BALLS[key] = [GroupElement(g, x) for x in ball_codes(g, radius)]
    return next((x for x in points if t * fold_phi(w, x) != fold_phi(w, t * x)), None)
