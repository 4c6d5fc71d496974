"""Canonical normal forms and group arithmetic.

An element is stored as the shortlex-least reduced word over signed letters,
encoded as a tuple of ints (see presentation.letter_code). Two words represent
the same element iff their canonical tuples are equal, so equality is a byte
comparison and the word problem is solved by `normalize`.

Up to SPLICE_MAX letters one splice loop (`_splice`) computes every
canonical form: it appends letters one at a time to a list that stays
canonical, each deleting the last letter of its generator or inserted in
place after a backward scan, O(n) per letter.  From the empty list it gives
`canon_codes` and `inv_codes`, from a copy of a canonical a `mul_codes`.

Longer words take two passes:

1. reduction: a stack-per-generator sweep cancels a letter against a pending
   inverse exactly when every letter stacked between them commutes with it;
2. shortlex extraction: the least topological order of the word's dependence
   graph, where each letter depends on the earlier letters it does not
   commute with.  A min-heap emits the least available letter, and a letter
   becomes available once every earlier letter blocking it is emitted, which
   per-generator counters track: O(n·d + n log n) for n letters, where d is
   the number of generators that block one generator (itself included).

Pass 1 yields some reduced word of the element; pass 2 picks the least
linearization of its dependence order, which is the shortlex-least reduced
word since all reduced words of an element have the same length and multiset
of letters.

Module-level functions ending in `_codes` work on raw int tuples for speed;
the GroupElement wrapper and the named operations are the public surface.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import GraphMismatchError
from .presentation import (
    CommutationGraph,
    SignedLetter,
    Word,
    code_letter,
    letter_code,
    render_codes,
)


# Words, inverses and right factors of at most this many letters go through
# `_splice`, longer ones through `reduce_codes` and `_shortlex_heap`.  The
# splice is quadratic where letters commute: on random raw words (2-vCPU Xeon,
# Python 3.11.7) the two cross near 32 letters on K_8 and 64 on Z^2, while on
# C5 and G(20, 0.3) the splice is faster up to 1024 letters.
SPLICE_MAX = 16


def reduce_codes(graph: CommutationGraph, codes) -> list[int]:
    """One reduced word (not necessarily canonical) equal to the input in the group."""
    blockers = graph.blockers
    piles: list[list[int]] = [[] for _ in range(graph.ngens)]
    letters: list[int] = []  # entry id -> letter code, -1 once cancelled
    for s in codes:
        pile = piles[s >> 1]
        while pile and letters[pile[-1]] < 0:
            pile.pop()
        if pile and letters[pile[-1]] == (s ^ 1):
            # The most recent uncancelled letter that does not commute with s
            # is exactly s^-1, so the pair cancels.
            letters[pile[-1]] = -1
            pile.pop()
            continue
        eid = len(letters)
        letters.append(s)
        for h in blockers[s >> 1]:
            piles[h].append(eid)
    return [l for l in letters if l >= 0]


def _shortlex_heap(graph: CommutationGraph, word) -> tuple[int, ...]:
    """Least topological order of the dependence graph, by a min-heap.

    Occurrences of one generator are totally ordered, so at most one letter
    per generator is available at a time and the heap holds letter codes.
    An occurrence of g becomes available once every earlier letter blocking g
    is emitted.  When the previous occurrence of g is emitted, exactly the
    blockers of g lying between the two are still pending (the earlier ones
    are emitted, the later ones wait for it), so `gaps` stores that count per
    occurrence and `rem[g]` counts it down as blockers of g are emitted.
    """
    blockers = graph.blockers
    ngens = graph.ngens
    seen = [0] * ngens  # letters so far that block each generator
    mark = [0] * ngens  # seen[g] just after the latest occurrence of g
    gaps: list[list[int]] = [[] for _ in range(ngens)]  # gap << 1 | sign
    for l in word:
        g = l >> 1
        s = seen[g]
        gaps[g].append((s - mark[g]) << 1 | (l & 1))
        mark[g] = s + 1
        for h in blockers[g]:
            seen[h] += 1
    rem = [-1] * ngens
    heap: list[int] = []
    for g, q in enumerate(gaps):
        q.append(-4)  # sentinel: rem stays negative once g is used up
        rem[g] = q[0] >> 1
        if not rem[g]:
            heap.append(g << 1 | (q[0] & 1))
    heapify(heap)
    head = [0] * ngens
    out: list[int] = []
    while heap:
        l = heappop(heap)
        out.append(l)
        g = l >> 1
        k = head[g] = head[g] + 1
        # +1: the loop below counts l itself, which blocks g.
        rem[g] = (gaps[g][k] >> 1) + 1
        for h in blockers[g]:
            r = rem[h] - 1
            rem[h] = r
            if not r:
                heappush(heap, h << 1 | (gaps[h][head[h]] & 1))
    return tuple(out)


def _splice(block, out: list[int], b) -> tuple[int, ...]:
    """Canonical form of out·b, for a canonical list `out` and any letters b.

    Each letter s of b is spliced into `out`, which stays canonical.  Let p
    be the last position whose generator blocks s.  When the letter at p is
    s^-1 it is a last letter of the word and cancels; deleting a maximal
    element of the dependence order leaves the greedy least order otherwise
    unchanged.  Otherwise s becomes available right after position p and,
    having no successor, the greedy order emits it before the first later
    letter that is larger than it.  `block` is the graph's block_mask.
    """
    for s in b:
        m = block[s >> 1]
        p = len(out) - 1
        while p >= 0 and not (m >> (out[p] >> 1)) & 1:
            p -= 1
        if p >= 0 and out[p] == s ^ 1:
            del out[p]
            continue
        q = p + 1
        n = len(out)
        while q < n and out[q] < s:
            q += 1
        out.insert(q, s)
    return tuple(out)


def canon_codes(graph: CommutationGraph, codes) -> tuple[int, ...]:
    """Canonical (shortlex-least reduced) tuple for an arbitrary letter sequence."""
    if len(codes) <= SPLICE_MAX:
        return _splice(graph.block_mask, [], codes)
    return _shortlex_heap(graph, reduce_codes(graph, codes))


def mul_codes(graph: CommutationGraph, a, b) -> tuple[int, ...]:
    """Canonical form of the product of two canonical tuples.

    A right factor of at most SPLICE_MAX letters is spliced into a copy of a,
    O(l(a)) per letter; a longer one goes through canon_codes.
    """
    if not a:
        return tuple(b)
    if len(b) > SPLICE_MAX:
        return canon_codes(graph, a + b)
    return _splice(graph.block_mask, list(a), b)


def inv_codes(graph: CommutationGraph, t) -> tuple[int, ...]:
    """Canonical form of the inverse. The reversed sign-flipped word is already
    reduced, so a long one needs only the shortlex pass."""
    r = [l ^ 1 for l in reversed(t)]
    if len(r) <= SPLICE_MAX:
        return _splice(graph.block_mask, [], r)
    return _shortlex_heap(graph, r)


def pow_codes(graph: CommutationGraph, t, n: int) -> tuple[int, ...]:
    """Canonical form of the n-th power (n may be negative or zero)."""
    if n == 0:
        return ()
    if n < 0:
        return pow_codes(graph, inv_codes(graph, t), -n)
    acc: tuple[int, ...] = ()
    base = tuple(t)
    while n:
        if n & 1:
            acc = mul_codes(graph, acc, base)
        n >>= 1
        if n:
            base = mul_codes(graph, base, base)
    return acc


def fl_codes(graph: CommutationGraph, t) -> list[int]:
    """First letters: codes s with l(s^-1 x) = l(x) - 1, in scan order.

    A position is a first letter iff every earlier letter commutes with it;
    at most one occurrence per generator qualifies.
    """
    block = graph.block_mask
    seen = 0
    out: list[int] = []
    for l in t:
        g = l >> 1
        if not (seen & block[g]):
            out.append(l)
        seen |= 1 << g
    return out


def support_codes(t) -> set[int]:
    return {l >> 1 for l in t}


class GroupElement:
    """A group element in canonical form. Construct via `normalize` or `element`."""

    __slots__ = ("graph", "codes", "_hash")

    def __init__(self, graph: CommutationGraph, codes: tuple[int, ...]):
        self.graph = graph
        self.codes = codes
        self._hash = hash(codes)

    def length(self) -> int:
        """The canonical length l(x)."""
        return len(self.codes)

    def is_identity(self) -> bool:
        return not self.codes

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __invert__(self) -> "GroupElement":
        return invert(self)

    def __pow__(self, n: int) -> "GroupElement":
        return power(self, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.codes == other.codes and (
            self.graph is other.graph or self.graph == other.graph
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"<{render(self)}>"


def normalize(w: Word, g: CommutationGraph) -> GroupElement:
    """Canonical form of a raw word; constant on group-equal words."""
    ngens = g.ngens
    codes: list[int] = []
    for l in w.letters:
        if l.gen >= ngens:
            raise ValueError(f"letter {l} is not valid for this graph")
        codes.append(letter_code(l))
    return GroupElement(g, canon_codes(g, codes))


def identity(g: CommutationGraph) -> GroupElement:
    return GroupElement(g, ())


def element(g: CommutationGraph, text: str) -> GroupElement:
    """Parse-and-normalize convenience."""
    from .presentation import parse_word

    return normalize(parse_word(text, g), g)


def _require_same_graph(x: GroupElement, y: GroupElement) -> None:
    if x.graph is not y.graph and x.graph != y.graph:
        raise GraphMismatchError("elements come from different presentations")


def multiply(x: GroupElement, y: GroupElement) -> GroupElement:
    _require_same_graph(x, y)
    return GroupElement(x.graph, mul_codes(x.graph, x.codes, y.codes))


def invert(x: GroupElement) -> GroupElement:
    return GroupElement(x.graph, inv_codes(x.graph, x.codes))


def power(x: GroupElement, n: int) -> GroupElement:
    return GroupElement(x.graph, pow_codes(x.graph, x.codes, n))


def equal(x: GroupElement, y: GroupElement) -> bool:
    _require_same_graph(x, y)
    return x.codes == y.codes


def first_letters(x: GroupElement) -> set[SignedLetter]:
    """The signed letters that begin some geodesic spelling of x; empty iff x = 1."""
    return {code_letter(c) for c in fl_codes(x.graph, x.codes)}


def support(x: GroupElement) -> set[int]:
    """Generator indices occurring in the reduced word (a trace invariant)."""
    return support_codes(x.codes)


def render(x: GroupElement) -> str:
    """Tokens with run-length powers, e.g. ``a^3 b^-1``; the identity is ``1``."""
    return render_codes(x.graph, x.codes)
