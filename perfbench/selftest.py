"""Self-tests of the benchmark: its checks, its inputs, its determinism.

Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every check accepts the library's answer and rejects a corrupted one.
2. The graph constructors and the inputs of every workload are the same for the
   same seed and differ for another seed.
3. One desk-suites op run twice with the same arguments gives byte-identical
   records (the library's determinism invariant).
4. The per-layer metrics declared in BENCHMARK.json are the ones emitted.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from raagkit import checks, elements
from raagkit.conjugacy import CyclicReduction
from raagkit.elements import GroupElement
from raagkit.presentation import Word
from raagkit.structure import CentralizerPresentation, PrimitiveDecomposition

import families
import words as W
from workloads import WORKLOADS, DeskSuites

WORKDIR = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")


def require(ok: bool, message: str) -> None:
    """An assertion that ``python -O`` keeps."""
    if not ok:
        raise AssertionError(message)


def corrupt(out):
    """A wrong answer of the same shape as ``out``."""
    if isinstance(out, bool):
        return not out
    if out is None:
        return 0
    if isinstance(out, GroupElement):
        return elements.multiply(out, GroupElement(out.graph, (0,)))
    if isinstance(out, Word):
        return Word(out.letters[:-1])
    if isinstance(out, str):
        return out + " " + out.split()[0].split("^")[0]
    if isinstance(out, tuple) and isinstance(out[0], int):
        return out[0], out[1] + " "  # (exit code, stdout) of a child
    if isinstance(out, tuple):
        return out[0], out[1] + 1  # (root, degree)
    if isinstance(out, CyclicReduction):
        return CyclicReduction(out.core, out.conjugator)
    if isinstance(out, PrimitiveDecomposition):
        (p, m), *rest = out.pairs
        return dataclasses.replace(out, pairs=((p, m + 1), *rest))
    if isinstance(out, CentralizerPresentation):
        return dataclasses.replace(out, abelian_generators=out.abelian_generators[1:])
    if isinstance(out, list):
        rep = copy.deepcopy(out)
        rep[0]["failures"] = [{"x": "a"}]
        return rep
    raise TypeError(f"no corruption for {type(out).__name__}")


def test_checks_reject_corruption() -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(7, os.path.join(WORKDIR, name))
        kinds = set()
        for op in wl.ops:
            out = op.call()
            why = op.check(out)
            require(why is None, f"{name}/{op.kind}: the library's answer was refused: {why}")
            require(op.check(corrupt(out)) is not None, f"{name}/{op.kind}: a corrupted answer passed")
            kinds.add(op.kind)
        print(f"ok  {name}: {len(kinds)} op kinds accept the answer and reject a corrupted one")


def _inputs(wl) -> object:
    if isinstance(wl, DeskSuites):
        return wl.suite_seeds
    if hasattr(wl, "cases"):
        return [(c.x, c.y, c.z, c.xp) for c in wl.cases]
    if hasattr(wl, "commands"):
        return wl.commands
    return [e.codes for e in wl.closure_cores] + [op.kind for op in wl.ops]


def test_inputs_deterministic() -> None:
    for name, build in families.FAMILIES.items():
        a, b = build(), build()
        require(a == b and a.commuting_pairs == b.commuting_pairs, name)
    g = families.gnp(64, 0.3)
    alpha = W.Alphabet(g)
    word = W.reduced_word(random.Random(3), alpha, 1024)
    require(len(word) == 1024 and word == W.reduced_word(random.Random(3), alpha, 1024), "word generator")
    for name, cls in WORKLOADS.items():
        one = _inputs(cls(11, os.path.join(WORKDIR, name)))
        require(one == _inputs(cls(11, os.path.join(WORKDIR, name))), f"{name}: same seed, other inputs")
        require(one != _inputs(cls(12, os.path.join(WORKDIR, name))), f"{name}: other seed, same inputs")
    print("ok  graph constructors and workload inputs are fixed by the seed")


def test_suite_records_byte_identical() -> None:
    g = families.f2xz()
    first = json.dumps(checks.run_suite("qdir", g, 20, 5, 8), sort_keys=True)
    second = json.dumps(checks.run_suite("qdir", g, 20, 5, 8), sort_keys=True)
    require(first == second, "run_suite gave different records for the same arguments")
    print("ok  one desk-suites op run twice gives byte-identical records")


def test_layer_metrics_match_benchmark_json() -> None:
    from layers import LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    got = [(m["name"], m["unit"], m["better"]) for m in declared]
    require(got == [(n, u, b) for n, (u, b) in LAYER.items()], "BENCHMARK.json per_layer differs from layers.LAYER")
    print(f"ok  the {len(got)} per-layer metrics of BENCHMARK.json are the ones layers.py emits")


def main() -> int:
    try:
        test_layer_metrics_match_benchmark_json()
        test_suite_records_byte_identical()
        test_inputs_deterministic()
        test_checks_reject_corruption()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
