"""Acceptance gate: eleven criteria, one test function per criterion.

`pytest -v tests/test_acceptance.py` emits one pass/fail line per
criterion.  Every comparison is exact (word or integer equality); the
timed criteria assert their wall-clock budget on top.  Each test prints a
one-line summary with instance counts, shown in the PASSES section of the
report.
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

from raagkit.checks import (
    check_agroup_axioms,
    check_cyclic,
    check_folding,
    check_median_axioms,
    check_preorder,
    check_structure,
    outside_span,
)
from raagkit.conjugacy import are_conjugate, conjugacy_witness
from raagkit.dynamics import fold_phi, qdir
from raagkit.elements import GroupElement, element, render
from raagkit.order import (
    join_codes,
    median_codes,
    meet_codes,
)
from raagkit.sampling import random_codes, stream
from raagkit.structure import centralizer, in_centralizer, prim_decompose

from oracles_bf import brute_median, brute_meet, brute_prefixes, ref_generated_within

FIXTURES = ("free2", "z2", "f2xz")
GRAPHS_DIR = Path(__file__).resolve().parent.parent / "graphs"


def rand_elem(rng, g, max_len, min_len=0):
    return GroupElement(g, random_codes(rng, g, max_len, min_len))


def sorted_ball(balls, name, r):
    return sorted(balls(name, r), key=lambda e: (len(e.codes), e.codes))


def assert_clean(name, report, expected_axioms=None):
    if expected_axioms is not None:
        assert [r["axiom"] for r in report] == list(expected_axioms), name
    for rec in report:
        assert rec["failures"] == [], (name, rec["axiom"], rec["failures"][:3])


def test_criterion_01_median_axioms(graphs):
    t0 = time.perf_counter()
    instances = 0
    for name in FIXTURES:
        report = check_median_axioms(graphs[name], samples=10_000, seed=0, max_len=8)
        assert_clean(name, report)
        instances += sum(rec["samples"] for rec in report)
    dt = time.perf_counter() - t0
    assert dt < 30.0, dt
    print(f"criterion 1: PASS  median axioms, {instances} instances, {dt:.1f}s (< 30s)")


def test_criterion_02_agroup_axioms(graphs):
    t0 = time.perf_counter()
    instances = 0
    for name in FIXTURES:
        report = check_agroup_axioms(graphs[name], samples=5_000, seed=0, max_len=8)
        assert_clean(name, report)
        assert all(rec["samples"] == 5_000 for rec in report)
        instances += sum(rec["samples"] for rec in report)
    dt = time.perf_counter() - t0
    assert dt < 60.0, dt
    print(f"criterion 2: PASS  product-order axioms, {instances} instances, {dt:.1f}s (< 60s)")


def test_criterion_03_order_oracles(graphs, balls):
    """Meet, median, and join against brute prefix/interval oracles.

    Joins are judged by an exhaustive upper-bound scan of ball(6): a pair
    from ball(3) with any common upper bound has one of length at most 6,
    so the scan misses nothing, and least-ness of the reported bound is
    certified against the brute prefix sets of every bound found.
    """
    t0 = time.perf_counter()
    pairs = triples = 0
    for name in FIXTURES:
        g = graphs[name]
        b3 = sorted(e.codes for e in balls(name, 3))

        for xc, yc in itertools.combinations_with_replacement(b3, 2):
            assert meet_codes(g, xc, yc) == brute_meet(g, xc, yc), (name, xc, yc)
            pairs += 1

        cells: dict = {}
        for xc, yc, zc in itertools.combinations_with_replacement(b3, 3):
            got = median_codes(g, xc, yc, zc)
            assert got == brute_median(g, xc, yc, zc, cells=cells), (name, xc, yc, zc)
            triples += 1

        b6 = [e.codes for e in balls(name, 6)]
        prefixes = {wc: frozenset(brute_prefixes(g, wc)) for wc in b6}
        b3set = set(b3)
        above: dict[tuple, set] = {xc: set() for xc in b3}
        for wc in b6:
            for t in prefixes[wc]:
                if t in b3set:
                    above[t].add(wc)
        for xc, yc in itertools.combinations_with_replacement(b3, 2):
            got = join_codes(g, xc, yc)
            bounds = above[xc] & above[yc]
            if not bounds:
                assert got is None, (name, xc, yc, got)
            else:
                least = min(bounds, key=lambda t: (len(t), t))
                assert all(least in prefixes[wc] for wc in bounds), (name, xc, yc)
                assert got == least, (name, xc, yc, got, least)
    dt = time.perf_counter() - t0
    assert dt < 120.0, dt
    print(
        f"criterion 3: PASS  order oracles, {pairs} pairs x (meet, join) + "
        f"{triples} median triples, {dt:.1f}s (< 120s)"
    )


def test_criterion_04_cyclic_suite(graphs):
    expected = (
        "power-meet-stability",
        "cyclic-reduced-powers",
        "torsion-free-powers",
        "power-length-formula",
    )
    for name in FIXTURES:
        report = check_cyclic(graphs[name], samples=1000, seed=0, max_len=8)
        assert_clean(name, report, expected)
    print(f"criterion 4: PASS  cyclic suite, 4 laws x 1000 samples x {len(FIXTURES)} graphs")


def test_criterion_05_conjugacy_oracle(graphs, balls):
    checked = positives = 0
    for name in FIXTURES:
        b3 = sorted_ball(balls, name, 3)
        b4 = sorted_ball(balls, name, 4)
        classes = {x.codes: {(~c * x * c).codes for c in b4} for x in b3}
        for x in b3:
            for y in b3:
                expected = y.codes in classes[x.codes]
                assert are_conjugate(x, y) == expected, (name, render(x), render(y))
                checked += 1
                if expected:
                    c = conjugacy_witness(x, y)
                    assert c is not None and ~c * x * c == y, (name, render(x), render(y))
                    positives += 1
    print(
        f"criterion 5: PASS  conjugacy vs ball(4) search, {checked} pairs, "
        f"{positives} certificates verified"
    )


def test_criterion_06_preorder_folding_suites(graphs):
    laws = 0
    for name in FIXTURES:
        pre = check_preorder(graphs[name], samples=1000, seed=0, max_len=8)
        fold = check_folding(graphs[name], samples=1000, seed=0, max_len=8)
        assert_clean(name, pre)
        assert_clean(name, fold)
        assert len(pre) == 6 and len(fold) == 9
        laws += len(pre) + len(fold)
    print(f"criterion 6: PASS  preorder + folding suites, {laws} law records x 1000 samples")


def test_criterion_07_quasidirection_oracle(graphs, balls, qdir_oracle):
    checked = 0
    for name in FIXTURES:
        # oracle_qdir under preceq_w, per triple in this loop's order (conftest)
        answers = iter(qdir_oracle(name))
        b2 = sorted_ball(balls, name, 2)
        b3 = sorted_ball(balls, name, 3)
        for w in b2:
            for x in b3:
                for y in b3:
                    ref = next(answers)
                    assert qdir(w, x, y) == ref, (name, render(w), render(x), render(y))
                    checked += 1
        assert next(answers, None) is None

    band = 0
    for name in FIXTURES:
        g = graphs[name]
        rng = stream(7, f"acceptance-band:{name}")
        for _ in range(2000):
            w = rand_elem(rng, g, 3)
            x = rand_elem(rng, g, 4)
            y = rand_elem(rng, g, 4)
            z = rand_elem(rng, g, 4)
            assert qdir(w, x, x) == x
            assert qdir(w, qdir(w, x, y), z) == qdir(w, qdir(w, x, z), y)
            band += 1
    print(
        f"criterion 7: PASS  direction operation vs enumerated gate, {checked} "
        f"exhaustive triples + {band} band-law samples"
    )


def test_criterion_08_decomposition_roundtrip(graphs):
    for name in FIXTURES:
        g = graphs[name]
        rng = stream(8, f"acceptance-roundtrip:{name}")
        for _ in range(1000):
            w = rand_elem(rng, g, 10, min_len=1)
            d = prim_decompose(w)
            assert d.whole() == w, (name, render(w))
            t = rand_elem(rng, g, 4)
            moved = {(p.codes, m) for p, m in prim_decompose(t * w * ~t).pairs}
            direct = {((t * p * ~t).codes, m) for p, m in d.pairs}
            assert moved == direct, (name, render(w), render(t))
    print(
        "criterion 8: PASS  primitive decomposition round-trip + conjugation "
        f"equivariance, 1000 words x {len(FIXTURES)} graphs"
    )


def test_criterion_09_centralizer(graphs, balls):
    g = graphs["f2xz"]
    z = centralizer(element(g, "c"))
    gens = list(z.raag_generators) + list(z.abelian_generators)
    reached = ref_generated_within(g, gens, 3)
    assert set(balls("f2xz", 3)) <= reached

    for name in FIXTURES:
        gg = graphs[name]
        rng = stream(9, f"acceptance-centralizer:{name}")
        for _ in range(500):
            w = rand_elem(rng, gg, 8)
            zz = centralizer(w)
            for t in zz.raag_generators + zz.abelian_generators:
                assert in_centralizer(w, t), (name, render(w), render(t))

    pairs = 0
    for name in FIXTURES:
        b3 = sorted_ball(balls, name, 3)
        for w in b3:
            outside = outside_span(w, centralizer(w), b3)
            assert outside == [x for x in b3 if not in_centralizer(w, x)], (name, render(w))
            pairs += len(b3)
    print(
        "criterion 9: PASS  centralizers: full-group case exact, 1500 words "
        f"sound, span = commuting elements on {pairs} ball(3) pairs"
    )


def test_criterion_10_structure_equivalences(graphs):
    wanted = (
        "axis-intersects-over-primitives",
        "folding-composes-over-primitives",
        "preorder-intersects-over-primitives",
    )
    for name in FIXTURES:
        report = check_structure(graphs[name], samples=1000, seed=0, max_len=8)
        by_name = {rec["axiom"]: rec for rec in report}
        for axiom in wanted:
            rec = by_name[axiom]
            assert rec["samples"] == 1000, (name, axiom)
            assert rec["failures"] == [], (name, axiom, rec["failures"][:3])
    print(
        "criterion 10: PASS  axes intersect, foldings compose, preorders "
        f"conjoin over primitive parts, 1000 samples x {len(FIXTURES)} graphs"
    )


def test_criterion_11_cli_determinism():
    for name in FIXTURES:
        cmd = [
            sys.executable,
            "-m",
            "raagkit",
            "check",
            "all",
            "-g",
            str(GRAPHS_DIR / f"{name}.txt"),
            "--json",
            "--samples",
            "120",
            "--seed",
            "7",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout and first.stdout == second.stdout, name
    print("criterion 11: PASS  repeated `check all` runs byte-identical, exit 0")
