import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from raagkit import sampling
from raagkit.elements import canon_codes, reduce_codes
from raagkit.errors import InvariantViolationError, ResourceCapError
from raagkit.order import ball_codes
from raagkit.sampling import MAX_SAMPLE_LEN, normal_forms, random_codes, stream

from conftest import KERNEL_GRAPHS, random_graph
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


def test_empty_length_range_is_a_value_error(free2):
    rng = stream(0, "empty")
    state = rng.getstate()
    with pytest.raises(ValueError, match="min_len 1 exceeds max_len 0"):
        random_codes(rng, free2, 0, min_len=1)
    assert rng.getstate() == state


def test_lengths_cover_range(f2xz):
    rng = stream(1, "cover")
    seen = Counter(len(random_codes(rng, f2xz, 5)) for _ in range(2000))
    assert set(seen) == set(range(6))


@pytest.mark.parametrize("name", KERNEL_GRAPHS)
def test_draws_are_canonical_within_bounds(kernel_graphs, name):
    g = kernel_graphs[name]
    rng = stream(3, f"bounds:{name}")
    for lo, hi in [(0, 0), (3, 3), (2, 9), (0, 40)]:
        for _ in range(50):
            t = random_codes(rng, g, hi, lo)
            assert lo <= len(t) <= hi
            assert canon_codes(g, t) == t


def _sphere_sizes(g, r: int) -> list[int]:
    sizes = Counter(len(t) for t in ball_codes(g, r))
    return [sizes[k] for k in range(r + 1)]


def _counts(g, r: int) -> list[int]:
    nf = normal_forms(g, r)
    nf.extend(r)
    return [nf.counts[k][0] for k in range(r + 1)]


@pytest.mark.parametrize("name, radius", [("free2", 4), ("z2", 4), ("f2xz", 4), ("C5", 4), ("G20", 2)])
def test_counts_are_sphere_sizes(kernel_graphs, name, radius):
    g = kernel_graphs[name]
    assert _counts(g, radius) == _sphere_sizes(g, radius)


def _chiswell_series(g, degree: int) -> list[Fraction]:
    """Growth series coefficients from 1/W(t) = Σ over cliques K of (−2t/(1+t))^|K|."""
    n = g.ngens
    u = [Fraction(0)] + [Fraction(-2 * (-1) ** (i - 1)) for i in range(1, degree + 1)]

    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(degree + 1)]

    powers = [[Fraction(1)] + [Fraction(0)] * degree]
    for _ in range(n):
        powers.append(times(powers[-1], u))
    inv_w = [Fraction(0)] * (degree + 1)
    for size in range(n + 1):
        for clique in itertools.combinations(range(n), size):
            if all(g.commutes(i, j) for i, j in itertools.combinations(clique, 2)):
                inv_w = [a + b for a, b in zip(inv_w, powers[size])]
    w = [Fraction(1) / inv_w[0]]
    for k in range(1, degree + 1):
        w.append(-sum(inv_w[i] * w[k - i] for i in range(1, k + 1)) / inv_w[0])
    return w


@pytest.mark.parametrize("name", ["free2", "z2", "f2xz", "C5"])
def test_counts_match_chiswell_growth_series(kernel_graphs, name):
    g = kernel_graphs[name]
    assert _counts(g, 10) == _chiswell_series(g, 10)


def test_length_three_draws_are_uniform(f2xz):
    rng = stream(7, "uniform")
    seen = Counter(random_codes(rng, f2xz, 3, 3) for _ in range(20_000))
    assert len(seen) == 70
    mean = 20_000 / 70
    assert all(0.7 * mean <= c <= 1.3 * mean for c in seen.values()), seen


def _accepts(g, w) -> bool:
    """Whether the sampler's automaton accepts the word w."""
    nf = normal_forms(g, 0)
    state = 0
    for x in w:
        row = nf.letters[state]
        if x not in row:
            return False
        state = nf.succ[state][row.index(x)]
    return True


class TestIsReduced:
    """The sampler's automaton accepts exactly the reduced, shortlex-least words."""

    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz"])
    def test_every_short_word(self, graphs, name):
        g = graphs[name]
        for n in range(5):
            for w in itertools.product(range(2 * g.ngens), repeat=n):
                assert _accepts(g, w) == (canon_codes(g, w) == w), w

    @pytest.mark.parametrize("name", ["C5", "G20"])
    def test_random_words(self, kernel_graphs, name):
        g = kernel_graphs[name]
        rng = random.Random(f"is-reduced:{name}")
        nletters = 2 * g.ngens
        for _ in range(400):
            w = tuple(rng.randrange(nletters) for _ in range(rng.randint(0, 40)))
            assert _accepts(g, w) == (canon_codes(g, w) == w), w
            t = canon_codes(g, reduce_codes(g, w))
            assert _accepts(g, t), t
            grown = t + (rng.randrange(nletters),)
            assert _accepts(g, grown) == (canon_codes(g, grown) == grown), grown


@pytest.mark.parametrize("name", KERNEL_GRAPHS)
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 3), (1, 8), (2, 6), (0, 12)])
def test_same_stream_as_reference_sampler(kernel_graphs, name, lo, hi):
    g = kernel_graphs[name]
    fast = stream(5, f"ref:{name}:{lo}:{hi}")
    ref = stream(5, f"ref:{name}:{lo}:{hi}")
    for _ in range(30):
        assert random_codes(fast, g, hi, lo) == ref_random_codes(ref, g, hi, lo)
        assert fast.getstate() == ref.getstate()


def test_max_len_above_bound_is_a_cap():
    g = random_graph(4, 0.5, seed=4)
    with pytest.raises(ResourceCapError, match="sampled word length"):
        random_codes(stream(0, "cap"), g, MAX_SAMPLE_LEN + 1)
    assert g._normal_forms is None
    assert len(random_codes(stream(0, "cap"), g, MAX_SAMPLE_LEN, MAX_SAMPLE_LEN)) == MAX_SAMPLE_LEN


def test_table_work_is_a_cap(free2, monkeypatch):
    transitions = normal_forms(free2, 8).transitions
    monkeypatch.setattr(sampling, "MAX_TABLE_WORK", transitions * 9)
    random_codes(stream(0, "work"), free2, 8)
    with pytest.raises(ResourceCapError, match="normal-form table"):
        random_codes(stream(0, "work"), free2, 9)
    g = random_graph(6, 0.5, seed=6)
    with pytest.raises(ResourceCapError, match="normal-form table"):
        random_codes(stream(0, "work"), g, 8)
    assert g._normal_forms is None


def test_each_draw_is_confirmed_canonical(free2, monkeypatch):
    monkeypatch.setattr(sampling, "canon_codes", lambda g, t: ())
    with pytest.raises(InvariantViolationError, match="not a normal form"):
        random_codes(stream(0, "confirm"), free2, 4, 4)
