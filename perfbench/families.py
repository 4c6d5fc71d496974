"""Seeded graph families for the benchmark.

Every constructor returns a ``raagkit.presentation.CommutationGraph`` and checks
its own structure (edge count, symmetry) before returning, so a drift in the
constructor shows up as an error instead of as a different workload.  Random
graphs take a fixed family seed: the graph is part of the workload's
definition, and only the words vary with the workload seed.
"""

from __future__ import annotations

import random
from itertools import combinations

from raagkit.presentation import CommutationGraph


def _graph(names, edges, expect_edges: int) -> CommutationGraph:
    g = CommutationGraph(list(names), {frozenset(e) for e in edges})
    if len(g.commuting_pairs) != expect_edges:
        raise RuntimeError(
            f"graph constructor drifted: {len(g.commuting_pairs)} edges, expected {expect_edges}"
        )
    for i in range(g.ngens):
        for j in range(g.ngens):
            if g.commutes(i, j) != g.commutes(j, i) or (i == j and g.commutes(i, j)):
                raise RuntimeError("commutation relation is not symmetric and irreflexive")
    return g


def free2() -> CommutationGraph:
    return _graph("ab", [], 0)


def z2() -> CommutationGraph:
    return _graph("ab", [(0, 1)], 1)


def f2xz() -> CommutationGraph:
    return _graph("abc", [(0, 2), (1, 2)], 2)


def cycle(n: int) -> CommutationGraph:
    """C_n: generator i commutes with i +- 1 mod n."""
    return _graph([f"g{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)], n)


def path(n: int) -> CommutationGraph:
    """P_n: generator i commutes with i +- 1."""
    return _graph([f"g{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)], n - 1)


def free_product_power(k: int) -> CommutationGraph:
    """(F2)^k: factors {a_i, b_i}; letters of different factors commute."""
    names = [f"{c}{i}" for i in range(k) for c in "ab"]
    edges = [(p, q) for p, q in combinations(range(2 * k), 2) if p // 2 != q // 2]
    return _graph(names, edges, 4 * k * (k - 1) // 2)


def complete(n: int) -> CommutationGraph:
    """K_n: every pair commutes, so the group is Z^n."""
    return _graph([f"g{i}" for i in range(n)], combinations(range(n), 2), n * (n - 1) // 2)


# Edge counts of the pinned random graphs; a change here means the constructor
# (or Python's Mersenne Twister stream) changed, and the workload with it.
_GNP_EDGES = {(10, 0.4, 0): 16, (20, 0.3, 0): 64, (64, 0.3, 0): 598}


def gnp(n: int, p: float, seed: int = 0) -> CommutationGraph:
    """Erdos-Renyi G(n, p) from a fixed family seed."""
    rng = random.Random(f"gnp:{n}:{p}:{seed}")
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    return _graph([f"g{i}" for i in range(n)], edges, _GNP_EDGES.get((n, p, seed), len(edges)))


FIXTURES = {"free2": free2, "z2": z2, "f2xz": f2xz}

FAMILIES = {
    "free2": free2,
    "z2": z2,
    "f2xz": f2xz,
    "C5": lambda: cycle(5),
    "P4": lambda: path(4),
    "F2^2": lambda: free_product_power(2),
    "F2^3": lambda: free_product_power(3),
    "K8": lambda: complete(8),
    "G(10,0.4)": lambda: gnp(10, 0.4),
    "G(20,0.3)": lambda: gnp(20, 0.3),
    "G(64,0.3)": lambda: gnp(64, 0.3),
}


def graph_text(g: CommutationGraph) -> str:
    """The graph in the library's file format."""
    lines = ["gens: " + " ".join(g.generators)]
    for i, j in sorted(tuple(sorted(p)) for p in g.commuting_pairs):
        lines.append(f"edge: {g.generators[i]} {g.generators[j]}")
    return "\n".join(lines) + "\n"
