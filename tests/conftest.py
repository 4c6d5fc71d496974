import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles_bf import ref_qdir_in_cell
from raagkit.dynamics import preceq
from raagkit.order import ball, interval
from raagkit.presentation import CommutationGraph, load_graph

GRAPHS_DIR = Path(__file__).resolve().parent.parent / "graphs"


@pytest.fixture(scope="session")
def free2():
    return load_graph(GRAPHS_DIR / "free2.txt")


@pytest.fixture(scope="session")
def z2():
    return load_graph(GRAPHS_DIR / "z2.txt")


@pytest.fixture(scope="session")
def f2xz():
    return load_graph(GRAPHS_DIR / "f2xz.txt")


@pytest.fixture(scope="session")
def graphs(free2, z2, f2xz):
    return {"free2": free2, "z2": z2, "f2xz": f2xz}


def cycle_graph(n: int) -> CommutationGraph:
    """C_n: generator i commutes with i ± 1 (mod n)."""
    return CommutationGraph([f"x{i}" for i in range(n)], {frozenset((i, (i + 1) % n)) for i in range(n)})


def random_graph(n: int, p: float, seed: int) -> CommutationGraph:
    """G(n, p): each pair commutes independently with probability p."""
    rng = random.Random(seed)
    pairs = {frozenset((i, j)) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return CommutationGraph([f"x{i}" for i in range(n)], pairs)


def complete_graph(n: int) -> CommutationGraph:
    """K_n: every pair commutes, so the group is Z^n."""
    return CommutationGraph([f"x{i}" for i in range(n)], {frozenset((i, j)) for i in range(n) for j in range(i + 1, n)})


KERNEL_GRAPHS = ["free2", "z2", "f2xz", "C5", "G20", "K8"]


@pytest.fixture(scope="session")
def kernel_graphs(graphs):
    """The fixtures plus C5, G(20, 0.3) and K_8, for the word-kernel property
    tests.  On K_8 every letter commutes with every other generator, so the
    splice scans are longest and letters are inserted mid-list."""
    return {**graphs, "C5": cycle_graph(5), "G20": random_graph(20, 0.3, seed=20), "K8": complete_graph(8)}


_BALL_CACHE: dict[tuple[int, int], frozenset] = {}


@pytest.fixture(scope="session")
def balls(kernel_graphs):
    """balls(name, r) -> frozenset of GroupElement, cached per session."""

    def get(name: str, r: int):
        key = (name, r)
        got = _BALL_CACHE.get(key)
        if got is None:
            got = frozenset(ball(kernel_graphs[name], r))
            _BALL_CACHE[key] = got
        return got

    return get


def _shortlex(e):
    return (len(e.codes), e.codes)


@pytest.fixture(scope="session")
def qdir_oracle(balls):
    """qdir_oracle(name) -> list of `oracle_qdir(x, y, preceq_w)` on a fixture.

    One answer per triple w in ball(2), x and y in ball(3), each ball in
    shortlex order, listed in the loop order w, x, y.  Acceptance criterion 7
    compares `qdir` with this list; it is built once per fixture and session.
    The cell [x, y] does not depend on w, so each is listed once and read by
    `ref_qdir_in_cell`, the oracle's body.  Equal answers share one element.
    """
    tables: dict[str, list] = {}

    def get(name: str) -> list:
        if name not in tables:
            b3 = sorted(balls(name, 3), key=_shortlex)
            cells = [sorted(interval(x, y), key=_shortlex) for x in b3 for y in b3]
            answers: list = []
            shared: dict = {}
            for w in sorted(balls(name, 2), key=_shortlex):
                memo: dict = {}

                def pred(u, v, w=w, memo=memo):
                    key = (u.codes, v.codes)
                    got = memo.get(key)
                    if got is None:
                        got = memo[key] = preceq(w, u, v)
                    return got

                listed = iter(cells)
                for x in b3:
                    for y in b3:
                        ref = ref_qdir_in_cell(x, y, next(listed), pred)
                        answers.append(shared.setdefault(ref.codes, ref))
            tables[name] = answers
        return tables[name]

    return get
