"""Seeded, portable random sampling of group elements.

The generator is the stdlib Mersenne Twister (`random.Random`), which produces
an identical stream for an identical seed on every platform and Python
version. Each suite derives its own stream as Random(f"{seed}:{label}") so
reports depend only on (graph, seed, samples), never on scheduling.

Elements are sampled as uniform random reduced words: pick a length L
uniformly in [min_len, max_len], then draw words of L uniform signed letters
and reject until one is reduced. The distribution is uniform over reduced
words of each chosen length.

The rejection test is one O(L·d) scan that stops at the first cancellation
(d = blockers per generator), so a rejected draw costs its letters and a
partial scan. Only the accepted word is canonicalised.
"""

from __future__ import annotations

import random

from .errors import ResourceCapError
from .presentation import CommutationGraph

from .elements import canon_codes

_MAX_REJECTIONS = 1_000_000


def stream(seed: int, label: str) -> random.Random:
    """A deterministic child stream for one suite."""
    return random.Random(f"{seed}:{label}")


def _is_reduced(graph: CommutationGraph, codes) -> bool:
    """Whether no letter of `codes` cancels, by the pile sweep of `reduce_codes`.

    pending[g] is the letter that would cancel against the latest occurrence
    of g not yet blocked by a later non-commuting letter, or -1.
    """
    blockers = graph.blockers
    pending = [-1] * graph.ngens
    for s in codes:
        g = s >> 1
        if pending[g] == s:
            return False
        for h in blockers[g]:
            pending[h] = -1
        pending[g] = s ^ 1
    return True


def random_codes(rng: random.Random, graph: CommutationGraph, max_len: int, min_len: int = 0) -> tuple[int, ...]:
    """Canonical tuple of a uniform random reduced word of uniform random length."""
    length = rng.randint(min_len, max_len)
    nletters = 2 * graph.ngens
    randrange = rng.randrange
    for _ in range(_MAX_REJECTIONS):
        codes = [randrange(nletters) for _ in range(length)]
        if _is_reduced(graph, codes):
            return canon_codes(graph, codes)
    raise ResourceCapError(f"rejection sampling of a reduced word of length {length}", _MAX_REJECTIONS, "draws")
