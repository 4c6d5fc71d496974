import itertools
import random
from collections import Counter

import pytest

from raagkit import sampling
from raagkit.elements import canon_codes, reduce_codes
from raagkit.errors import ResourceCapError
from raagkit.sampling import _is_reduced, random_codes, stream

from conftest import KERNEL_GRAPHS
from oracles_bf import ref_random_codes


def test_stream_is_deterministic():
    r1 = stream(42, "x")
    r2 = stream(42, "x")
    assert [r1.random() for _ in range(5)] == [r2.random() for _ in range(5)]


def test_streams_with_different_labels_differ():
    assert stream(42, "x").random() != stream(42, "y").random()


def test_random_codes_are_canonical(f2xz):
    rng = stream(0, "canon")
    for _ in range(2000):
        t = random_codes(rng, f2xz, 8)
        assert canon_codes(f2xz, t) == t
        assert len(t) <= 8


def test_min_len_respected(free2):
    rng = stream(0, "minlen")
    for _ in range(500):
        t = random_codes(rng, free2, 6, min_len=2)
        assert 2 <= len(t) <= 6


def test_lengths_cover_range(f2xz):
    rng = stream(1, "cover")
    seen = Counter(len(random_codes(rng, f2xz, 5)) for _ in range(2000))
    assert set(seen) == set(range(6))


class TestIsReduced:
    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz"])
    def test_every_short_word(self, graphs, name):
        g = graphs[name]
        for n in range(5):
            for w in itertools.product(range(2 * g.ngens), repeat=n):
                assert _is_reduced(g, w) == (len(reduce_codes(g, w)) == n), w

    @pytest.mark.parametrize("name", ["C5", "G20"])
    def test_random_words(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = random.Random(f"is-reduced:{name}")
        nletters = 2 * g.ngens
        for _ in range(400):
            w = [rng.randrange(nletters) for _ in range(rng.randint(0, 40))]
            r = reduce_codes(g, w)
            assert _is_reduced(g, w) == (len(r) == len(w)), w
            assert _is_reduced(g, r), r
            grown = r + [rng.randrange(nletters)]
            assert _is_reduced(g, grown) == (len(reduce_codes(g, grown)) == len(grown)), grown


@pytest.mark.parametrize("name", KERNEL_GRAPHS)
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 3), (1, 8), (2, 6), (0, 12)])
def test_same_stream_as_reference_sampler(kernel_graphs, name, lo, hi):
    g = kernel_graphs[name]
    fast = stream(5, f"ref:{name}:{lo}:{hi}")
    ref = stream(5, f"ref:{name}:{lo}:{hi}")
    for _ in range(30):
        assert random_codes(fast, g, hi, lo) == ref_random_codes(ref, g, hi, lo)
        assert fast.getstate() == ref.getstate()


def test_rejection_budget_is_a_cap(free2, monkeypatch):
    monkeypatch.setattr(sampling, "_MAX_REJECTIONS", 1)
    with pytest.raises(ResourceCapError):
        random_codes(stream(0, "cap"), free2, 40, min_len=40)
