"""Seeded, portable random sampling of group elements.

The generator is the stdlib Mersenne Twister (`random.Random`), which produces
an identical stream for an identical seed on every platform and Python
version. Each suite derives its own stream as Random(f"{seed}:{label}") so
reports depend only on (graph, seed, samples), never on scheduling.

Elements are sampled uniformly over the normal forms (elements) of each
length: pick a length L uniformly in [min_len, max_len], then a rank r
uniformly below the number N(0, L) of normal forms of length L, and return
the r-th of them in lexicographic order. There is no rejection: a draw costs
O(L · 2n) steps over a table of counts that is built once per graph.

The normal forms are accepted by a finite automaton. Its state is the
bitmask F of the letter codes that may not come next; the empty word has
F = 0, and appending x gives

    F' = (comm[x] & (F | lt[x])) | bit(x ^ 1)

where comm[x] holds the letters of the other generators that commute with
x, and lt[x] the codes below x.

Proof. Here "y commutes with b" means that y and b are letters of distinct
generators joined in the graph. A word is reduced exactly when it has no
factor of kind (a): y⁻¹·u·y with y commuting with every letter of u. Two
reduced words spell the same element exactly when they differ by swaps of
adjacent commuting letters. So a reduced word is a normal form exactly when
it also has no factor of kind (b): b·u·y with y < b and y commuting with b
and with every letter of u. Such a factor lets y move in front of b, which
gives a smaller spelling. Conversely, let w' be the least spelling, i the
first position where w' and w differ, and y = w'[i] < b = w[i]. That
occurrence of y stands at some j > i in w, and it passes w[i..j-1] on its
way to i. Since letters that do not commute keep their order, y commutes
with each of them, and b·w[i+1..j-1]·y is of kind (b).

Call y forbidden after w when w·y has a factor of kind (a) or (b) that ends
at its last letter. Then F is exactly the set of forbidden letters, by
induction on the length of w·x. If the factor starts at x, then y = x⁻¹ for
kind (a), or y < x commutes with x for kind (b), u empty. If it starts
before x, then x lies in u. So y commutes with x, and dropping x leaves a
factor of the same kind that ends at y after w. Conversely, a factor that
ends at y after w gains x in its middle when y commutes with x. The
automaton therefore accepts a word exactly when no letter is forbidden where
it stands, that is, when the word has no factor of kind (a) or (b).

N(F, r), the number of words of length r that the automaton accepts from
state F, satisfies N(F, 0) = 1 and N(F, r) = Σ N(F'(F, x), r - 1) over the
letters x not in F. The counts are built bottom-up over the states reachable
from 0, and extended one length at a time as longer draws ask for them. They
are big ints of about r·log2(2n) bits, so the table grows like L² per state.
Before any table is built, `MAX_SAMPLE_LEN` bounds the length, and
`MAX_TABLE_WORK` the additions, transitions times (max_len + 1), which also
bound the states. Each draw is confirmed with one `canon_codes` call.
"""

from __future__ import annotations

import random

from .errors import InvariantViolationError, ResourceCapError
from .presentation import CommutationGraph

from .elements import canon_codes

# The longest word `random_codes` draws. Measured with tracemalloc, a table
# of counts up to 256 takes 9-23 KB per automaton state on the 2-3 generator
# fixtures and C5 (under 0.4 MB in all), and 32 KB per state on G(20, 0.3):
# 331 states, 10.6 MB, built in 0.3 s.
MAX_SAMPLE_LEN = 256

# The most additions `random_codes` spends on a table of counts: the
# automaton's transitions times (max_len + 1). G(64, 0.3) has 12,103 states
# and 1.35M transitions, so it is served up to max_len 11, in 1.3-1.7 s and
# 28.5 MB (tracemalloc peak).
MAX_TABLE_WORK = 1 << 24


def stream(seed: int, label: str) -> random.Random:
    """A deterministic child stream for one suite."""
    return random.Random(f"{seed}:{label}")


def _table_cap(max_len: int) -> ResourceCapError:
    return ResourceCapError(f"normal-form table up to length {max_len}", MAX_TABLE_WORK, "additions")


class _NormalForms:
    """The normal-form automaton of a graph, with N(F, r) for r ≤ len(counts) - 1.

    State 0 is the empty word. letters[i] lists the letters allowed in state
    i in increasing order, succ[i] the states they lead to, and counts[r][i]
    is N(F_i, r). The automaton is built only if its transitions times
    (max_len + 1) stay within `MAX_TABLE_WORK`.
    """

    def __init__(self, graph: CommutationGraph, max_len: int):
        nletters = 2 * graph.ngens
        comm = [
            sum(3 << (2 * h) for h in range(graph.ngens) if graph.comm_mask[x >> 1] >> h & 1) for x in range(nletters)
        ]
        transitions = 0
        index = {0: 0}
        masks = [0]
        letters: list[tuple[int, ...]] = []
        succ: list[tuple[int, ...]] = []
        for forbidden in masks:
            allowed = tuple(x for x in range(nletters) if not forbidden >> x & 1)
            transitions += len(allowed)
            if transitions * (max_len + 1) > MAX_TABLE_WORK:
                raise _table_cap(max_len)
            row = []
            for x in allowed:
                nxt = (comm[x] & (forbidden | ((1 << x) - 1))) | (1 << (x ^ 1))
                j = index.get(nxt)
                if j is None:
                    j = index[nxt] = len(masks)
                    masks.append(nxt)
                row.append(j)
            letters.append(allowed)
            succ.append(tuple(row))
        self.letters = letters
        self.succ = succ
        self.transitions = transitions
        self.counts: list[list[int]] = [[1] * len(succ)]

    def extend(self, length: int) -> None:
        """Make counts[r] available for every r ≤ length."""
        counts, succ = self.counts, self.succ
        while len(counts) <= length:
            get = counts[-1].__getitem__
            counts.append([sum(map(get, row)) for row in succ])


def normal_forms(graph: CommutationGraph, max_len: int) -> _NormalForms:
    """The counted automaton of `graph`, built on first use and kept on the graph.

    Raises ResourceCapError if a table up to length max_len would exceed
    `MAX_TABLE_WORK`.
    """
    nf = graph._normal_forms
    if nf is None:
        nf = graph._normal_forms = _NormalForms(graph, max_len)
    elif nf.transitions * (max_len + 1) > MAX_TABLE_WORK:
        raise _table_cap(max_len)
    return nf


def random_codes(rng: random.Random, graph: CommutationGraph, max_len: int, min_len: int = 0) -> tuple[int, ...]:
    """Canonical tuple of a uniform random element of uniform random length.

    The length L is uniform in [min_len, max_len]; the element is uniform
    among the elements of length L.
    """
    if min_len > max_len:
        raise ValueError(f"sampled word length: min_len {min_len} exceeds max_len {max_len}")
    if max_len > MAX_SAMPLE_LEN:
        raise ResourceCapError("sampled word length", MAX_SAMPLE_LEN, "letters")
    length = rng.randint(min_len, max_len)
    nf = normal_forms(graph, max_len)
    nf.extend(length)
    counts, letters, succ = nf.counts, nf.letters, nf.succ
    rank = rng.randrange(counts[length][0])
    state = 0
    word = []
    for rem in range(length - 1, -1, -1):
        row = counts[rem]
        for x, j in zip(letters[state], succ[state]):
            c = row[j]
            if rank < c:
                break
            rank -= c
        word.append(x)
        state = j
    t = tuple(word)
    if canon_codes(graph, t) != t:
        raise InvariantViolationError(f"sampled word {t} is not a normal form")
    return t
