"""Independent word arithmetic used to build inputs and to check answers.

Nothing here calls raagkit: a check that used the library to verify the
library would pass whenever both sides shared a defect.  Words are lists of
letter codes as in the library (generator i is 2i, its inverse 2i+1).

The generator builds a reduced word of an exact length letter by letter,
refusing any letter that would cancel.  The library's rejection sampler needs
exponentially many draws at long lengths, so the benchmark cannot use it to
make its inputs.
"""

from __future__ import annotations

import heapq
import random


class Alphabet:
    """Per-graph tables for the scans below."""

    def __init__(self, g):
        n = g.ngens
        self.ngens = n
        # Generators that block k: k itself and every generator not commuting with it.
        self.blockers = [[h for h in range(n) if h == k or not g.commutes(h, k)] for k in range(n)]
        # Generators after k in the letter order that commute with k.
        self.later_commuting = [[h for h in range(k + 1, n) if g.commutes(h, k)] for k in range(n)]
        self.commutes = g.commutes
        self.names = g.generators


def extend_reduced(rng: random.Random, alpha: Alphabet, start, length: int, gens=None) -> list[int]:
    """``start`` (a reduced word) continued at random to exactly ``length`` letters.

    A letter s would cancel exactly when the last letter of its generator is
    s^-1 and every later letter commutes with s, so the scan keeps, per
    generator, its last letter and whether a blocking letter came after it.
    ``gens`` restricts the new letters to a set of generator indices.
    """
    pool = sorted(range(alpha.ngens) if gens is None else gens)
    last = [-1] * alpha.ngens
    shielded = [True] * alpha.ngens
    out: list[int] = []

    def push(s: int) -> None:
        for h in alpha.blockers[s >> 1]:
            shielded[h] = True
        out.append(s)
        last[s >> 1] = s
        shielded[s >> 1] = False

    for s in start:
        push(s)
    while len(out) < length:
        s = 2 * rng.choice(pool) + rng.randrange(2)
        if last[s >> 1] == (s ^ 1) and not shielded[s >> 1]:
            continue
        push(s)
    return out


def reduced_word(rng: random.Random, alpha: Alphabet, length: int, gens=None) -> list[int]:
    """A reduced word of exactly ``length`` letters."""
    return extend_reduced(rng, alpha, (), length, gens)


def available_letters(alpha: Alphabet, word) -> dict[int, int]:
    """Generator -> code of its first letter, for letters every earlier letter commutes with."""
    out: dict[int, int] = {}
    seen: list[int] = []
    for s in word:
        k = s >> 1
        if k not in out and all(h != k and alpha.commutes(h, k) for h in seen):
            out[k] = s
        seen.append(k)
    return out


def is_cyclically_reduced(alpha: Alphabet, word) -> bool:
    """No letter s can be moved to the front while s^-1 can be moved to the back."""
    last = available_letters(alpha, list(reversed(word)))
    return not any(last.get(k) == (s ^ 1) for k, s in available_letters(alpha, word).items())


def cyclically_reduced_word(rng: random.Random, alpha: Alphabet, length: int, gens=None) -> list[int]:
    """A reduced word w of exactly ``length`` letters whose square is reduced too."""
    while True:
        w = reduced_word(rng, alpha, length, gens)
        if is_cyclically_reduced(alpha, w):
            return w


def text(alpha: Alphabet, codes) -> str:
    """The word syntax with run-length exponents; the empty word is ``1``."""
    chunks = []
    i = 0
    while i < len(codes):
        j = i
        while j < len(codes) and codes[j] == codes[i]:
            j += 1
        count = (j - i) * (-1 if codes[i] & 1 else 1)
        name = alpha.names[codes[i] >> 1]
        chunks.append(name if count == 1 else f"{name}^{count}")
        i = j
    return " ".join(chunks) if chunks else "1"


def parse(alpha: Alphabet, word_text: str) -> list[int]:
    """Codes of a word written in the word syntax."""
    index = {name: i for i, name in enumerate(alpha.names)}
    out: list[int] = []
    for tok in word_text.split():
        if tok == "1":
            continue
        name, _, exp = tok.partition("^")
        k = int(exp) if exp else 1
        out.extend([2 * index[name] + (k < 0)] * abs(k))
    return out


def reduce(alpha: Alphabet, word) -> list[int]:
    """A reduced word equal to ``word`` in the group.

    A letter cancels against the last surviving letter of its generator
    when that letter is its inverse and no surviving letter of a blocking
    generator came after it; cancelling in one left-to-right pass reaches
    the reduced form because the rewriting is confluent.
    """
    tops: list[list[int]] = [[] for _ in range(alpha.ngens)]
    alive = [True] * len(word)
    for j, s in enumerate(word):
        k = s >> 1
        mine = tops[k]
        if mine and word[mine[-1]] == s ^ 1 and all(
            not tops[h] or tops[h][-1] < mine[-1] for h in alpha.blockers[k] if h != k
        ):
            alive[mine.pop()] = alive[j] = False
        else:
            mine.append(j)
    return [s for s, keep in zip(word, alive) if keep]


def shortlex(alpha: Alphabet, word) -> tuple[int, ...]:
    """Shortlex normal form of a reduced word: its least topological order.

    Letter j depends on the previous occurrence of each generator that
    blocks its own; Kahn's algorithm with a min-heap on (code, position)
    then emits the least linearization in O(n·ngens + n log n).
    """
    last = [-1] * alpha.ngens
    indegree = [0] * len(word)
    succ: list[list[int]] = [[] for _ in word]
    for j, s in enumerate(word):
        for h in alpha.blockers[s >> 1]:
            p = last[h]
            if p >= 0:
                succ[p].append(j)
                indegree[j] += 1
        last[s >> 1] = j
    heap = [(s, j) for j, s in enumerate(word) if indegree[j] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        s, j = heapq.heappop(heap)
        out.append(s)
        for k in succ[j]:
            indegree[k] -= 1
            if indegree[k] == 0:
                heapq.heappush(heap, (word[k], k))
    return tuple(out)


def normal_form_error(alpha: Alphabet, codes) -> str | None:
    """None when ``codes`` is a shortlex normal form, else the first defect.

    A word is in normal form exactly when it is reduced (no factor s·u·s^-1
    with u commuting with s) and has no factor b·u·a with a < b where a
    commutes with b and with every letter of u.  For the letter a at
    position j, the letters it can move across are those after the last
    blocker of its generator, so both conditions reduce to the last
    positions of the generators.
    """
    last = [-1] * alpha.ngens
    for j, a in enumerate(codes):
        k = a >> 1
        if not 0 <= k < alpha.ngens:
            return f"letter code {a} at {j} is outside the alphabet"
        others = max((last[h] for h in alpha.blockers[k] if h != k), default=-1)
        mine = last[k]
        if mine > others and codes[mine] == a ^ 1:
            return f"letters {mine} and {j} cancel"
        wall = max(others, mine)
        for h in alpha.later_commuting[k]:
            if last[h] > wall:
                return f"letter {j} commutes back past the larger letter {last[h]}"
        last[k] = j
    return None


def exponent_sums(codes) -> dict[int, int]:
    """Signed letter count per generator: the abelianization, a conjugacy invariant."""
    out: dict[int, int] = {}
    for s in codes:
        out[s >> 1] = out.get(s >> 1, 0) + (-1 if s & 1 else 1)
    return {k: v for k, v in out.items() if v}


def inverse(word) -> list[int]:
    return [s ^ 1 for s in reversed(word)]
