"""The four workloads: their inputs, their timed operations and their answer checks.

A workload is built once from the workload seed (the set-up) and then hands
out the same list of ``Op`` for every round, so that each op runs once per
round and the runner can take its median time.  An op's ``call`` is the one
timed call into a public raagkit function; its ``check`` runs untimed
afterwards and returns None or the reason the answer is wrong.  Checks
compare against answers known by construction or computed by ``words``
(which does not use the library), except where the check is itself a law
stated in terms of the library's operations (round trips, certificates).

Calls name the module attribute at call time (``elements.normalize(...)``),
so the spans a traced run installs on those attributes see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from raagkit import checks, cli, conjugacy, elements, order, presentation, structure
from raagkit.elements import GroupElement

import families
import words as W


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    size: int = 0  # word length, for the long-words scaling fits
    family: str = ""


class Workload:
    """Set up from a seed in ``__init__``; every round runs ``self.ops``."""

    name = ""
    ops: list[Op]

    def trace_extra(self, call) -> None:
        """Untimed calls a traced run makes after the rounds, each through ``call(kind, fn)``."""

    def peak_rss_kb(self) -> int:
        """Peak resident set of the processes that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _expect(got, want, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _seed_rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# desk-suites

SUITE_LAWS = {
    "median-axioms": ["median-symmetry", "median-absorption", "median-selfdistributivity"],
    "agroup-axioms": [
        "orthogonal-product-law",
        "inverse-prefix-transfer",
        "meet-triviality-transfer",
        "no-inverse-join",
    ],
    "cyclic": [
        "power-meet-stability",
        "cyclic-reduced-powers",
        "torsion-free-powers",
        "power-length-formula",
    ],
    "preorder": [
        "preorder-reflexive",
        "preorder-transitive",
        "interval-heredity",
        "median-translation-congruence",
        "translation-equivariance",
        "equivalence-cell-form",
    ],
    "folding": [
        "fold-idempotent-into-axis",
        "fold-is-cell-gate",
        "axis-is-fixed-point-set",
        "fold-by-core-conjugator",
        "fold-ignores-power",
        "axis-reversal-antitone",
        "axis-step-increases",
        "slice-fold-lands-and-fixes",
        "axis-decomposition-reconstructs",
    ],
    "qdir": [
        "matches-enumerated-gate",
        "direction-idempotent",
        "direction-exchange",
        "direction-recovers-preorder",
        "direction-balance-is-congruence",
        "two-directions-median-identity",
        "directed-join-formula",
    ],
    "structure": [
        "decomposition-round-trip",
        "decomposition-conjugation-equivariant",
        "centralizer-generators-commute",
        "centralizer-reaches-commuting-ball",
        "powers-share-centralizer",
        "axis-intersects-over-primitives",
        "folding-composes-over-primitives",
        "preorder-intersects-over-primitives",
        "orthogonal-prefix-product-law",
        "commuting-prefixes-sublattice",
        "centralizer-stabilizes-folding",
        "noncommuting-translation-moves-folding",
    ],
}

# The one law whose sample count is the number of instances it could use.
_VARIABLE_SAMPLES = {"noncommuting-translation-moves-folding"}


def check_report(suite: str, samples: int, report) -> Optional[str]:
    """A suite report passes when it lists the suite's laws in order, all clean."""
    if not isinstance(report, list):
        return f"report is {type(report).__name__}, not a list"
    laws = [r.get("axiom") for r in report]
    if laws != SUITE_LAWS[suite]:
        return f"laws {laws} differ from {SUITE_LAWS[suite]}"
    for r in report:
        if r.get("suite") != suite or r.get("failures") != []:
            return f"{suite}/{r['axiom']} reported {r.get('failures')!r}"
        n = r.get("samples")
        if not (0 <= n <= samples if r["axiom"] in _VARIABLE_SAMPLES else n == samples):
            return f"{suite}/{r['axiom']} ran {n} samples of {samples}"
    return None


class DeskSuites(Workload):
    """``checks.run_suite`` on each of the 7 suites, 3 fixtures and 5 seeds."""

    name = "desk-suites"
    samples = 10
    max_len = 8
    seeds_per_pair = 5

    def __init__(self, seed: int, workdir: str):
        self.ops = []
        self.suite_seeds = []
        for suite in SUITE_LAWS:
            for fx, build in families.FIXTURES.items():
                g = build()
                for k in range(self.seeds_per_pair):
                    suite_seed = _seed_rng("desk", seed, suite, fx, k).getrandbits(32)
                    self.suite_seeds.append(suite_seed)
                    self.ops.append(
                        Op(
                            suite,
                            lambda s=suite, g=g, n=suite_seed: checks.run_suite(s, g, self.samples, n, self.max_len),
                            lambda rep, s=suite: check_report(s, self.samples, rep),
                        )
                    )



# ---------------------------------------------------------------------------
# long-words

LONG_FAMILIES = ("free2", "C5", "P4", "F2^3", "K8", "G(20,0.3)", "G(64,0.3)")
# Every op kind runs at these lengths on every family.  The four kinds whose
# scaling exponents are reported also run at the longest length on the
# families with the fewest and the most generators; on all seven, one round
# of those quadratic calls alone would take ~10 s.
LONG_LENGTHS = (64, 128, 256)
SCALING_LENGTH = 1024
SCALING_FAMILIES = ("free2", "G(64,0.3)")


def _word_codes(word) -> list[int]:
    return [2 * l.gen + (l.sign < 0) for l in word.letters]


class _Case:
    """One (family, length) input set: x, y, z share their first half; xp is a prefix of x."""

    def __init__(self, g, alpha: W.Alphabet, rng: random.Random, length: int):
        self.g, self.alpha, self.length = g, alpha, length
        p = W.reduced_word(rng, alpha, length // 2)
        self.x, self.y, self.z = (W.extend_reduced(rng, alpha, p, length) for _ in range(3))
        self.xp = self.x[: length // 4]
        self.X, self.Y, self.Z, self.XP, self.P = (
            GroupElement(g, W.shortlex(alpha, w)) for w in (self.x, self.y, self.z, self.xp, p)
        )
        self.text_x = W.text(alpha, self.x)
        self.word_x = presentation.parse_word(self.text_x, g)
        self.n = 3

    def nf(self, word) -> tuple[int, ...]:
        """Normal form of any word, by reduction then shortlex, without the library."""
        return W.shortlex(self.alpha, W.reduce(self.alpha, word))

    def dist(self, a, b) -> int:
        return len(W.reduce(self.alpha, W.inverse(a) + list(b)))

    def check_element(self, got, want_codes) -> Optional[str]:
        if not isinstance(got, GroupElement):
            return f"got {type(got).__name__}, not an element"
        why = W.normal_form_error(self.alpha, got.codes)
        if why:
            return f"output is not in normal form: {why}"
        return None if got.codes == tuple(want_codes) else "wrong element"

    def check_meet(self, m) -> Optional[str]:
        why = self.check_element(m, m.codes if isinstance(m, GroupElement) else ())
        if why:
            return why
        a, b, c = self.X.codes, self.Y.codes, m.codes
        if self.dist(c, a) != len(a) - len(c) or self.dist(c, b) != len(b) - len(c):
            return "meet is not a prefix of both arguments"
        if self.dist(self.P.codes, c) != len(c) - len(self.P.codes):
            return "meet misses the shared prefix"
        rest_a = self.nf(W.inverse(c) + list(a))
        rest_b = self.nf(W.inverse(c) + list(b))
        common = set(W.available_letters(self.alpha, rest_a).items()) & set(
            W.available_letters(self.alpha, rest_b).items()
        )
        return "meet is not the greatest common prefix" if common else None

    def check_median(self, m) -> Optional[str]:
        why = self.check_element(m, m.codes if isinstance(m, GroupElement) else ())
        if why:
            return why
        pts = (self.X.codes, self.Y.codes, self.Z.codes)
        for i in range(3):
            u, v = pts[i], pts[(i + 1) % 3]
            if self.dist(u, m.codes) + self.dist(m.codes, v) != self.dist(u, v):
                return "median is off a geodesic between two of its arguments"
        return None

    def check_cyclic(self, r) -> Optional[str]:
        u, v = r.conjugator.codes, r.core.codes
        for part in (u, v):
            why = W.normal_form_error(self.alpha, part)
            if why:
                return f"piece not in normal form: {why}"
        if not W.is_cyclically_reduced(self.alpha, v):
            return "core is not cyclically reduced"
        if len(self.X.codes) != 2 * len(u) + len(v) or self.nf(list(u) + list(v) + W.inverse(u)) != self.X.codes:
            return "conjugator·core·conjugator⁻¹ differs from the input"
        return None

    def check_invert(self, inv) -> Optional[str]:
        why = self.check_element(inv, self.nf(W.inverse(self.x)))
        if why:
            return why
        if not elements.multiply(self.X, inv).is_identity() or elements.invert(inv) != self.X:
            return "x·x⁻¹ ≠ 1 or (x⁻¹)⁻¹ ≠ x"
        return None

    def check_render(self, s) -> Optional[str]:
        if W.parse(self.alpha, s) != list(self.X.codes):
            return "rendered text spells another word"
        back = elements.normalize(presentation.parse_word(s, self.g), self.g)
        return None if back == self.X else "render → parse → normalize changed the element"


class LongWords(Workload):
    """Kernel and order calls on reduced words of length 64 to 1024."""

    name = "long-words"

    def __init__(self, seed: int, workdir: str):
        self.cases = []
        self.ops = []
        for fam in LONG_FAMILIES:
            g = families.FAMILIES[fam]()
            alpha = W.Alphabet(g)
            for length in LONG_LENGTHS + ((SCALING_LENGTH,) if fam in SCALING_FAMILIES else ()):
                self.cases.append(_Case(g, alpha, _seed_rng("long", seed, fam, length), length))
                for op in self._ops(self.cases[-1]):
                    op.size, op.family = length, fam
                    self.ops.append(op)

    @staticmethod
    def _ops(c: _Case) -> list[Op]:
        X, Y, Z, XP, g, n = c.X, c.Y, c.Z, c.XP, c.g, c.n
        ops = [
            Op("elements.normalize", lambda: elements.normalize(c.word_x, g), lambda e: c.check_element(e, X.codes)),
            Op("elements.multiply", lambda: elements.multiply(X, Y), lambda e: c.check_element(e, c.nf(c.x + c.y))),
            Op("order.meet", lambda: order.meet(X, Y), c.check_meet),
            Op("order.median", lambda: order.median(X, Y, Z), c.check_median),
        ]
        if c.length != SCALING_LENGTH:
            ops += [
                Op(
                    "presentation.parse_word",
                    lambda: presentation.parse_word(c.text_x, g),
                    lambda w: _expect(_word_codes(w), c.x, "parsed letters"),
                ),
                Op("elements.invert", lambda: elements.invert(X), c.check_invert),
                Op("elements.power", lambda: elements.power(X, n), lambda e: c.check_element(e, c.nf(c.x * n))),
                Op("order.join", lambda: order.join(X, XP), lambda e: c.check_element(e, X.codes)),
                Op("order.is_prefix", lambda: order.is_prefix(XP, X), lambda b: _expect(b, True, "xp ⊂ x")),
                Op("order.is_prefix", lambda: order.is_prefix(Y, X), lambda b: _expect(b, False, "y ⊂ x")),
                Op("conjugacy.cyclic_reduce", lambda: conjugacy.cyclic_reduce(X), c.check_cyclic),
                Op("elements.render", lambda: elements.render(X), c.check_render),
            ]
        return ops


# ---------------------------------------------------------------------------
# conj-roots

# Core lengths of the conjugacy inputs per family, one per factor of the
# product families, chosen so that the closure of cyclically reduced
# conjugates stays in the hundreds: it is the product of the per-factor
# orbits, so fixing each factor's length also fixes the closure's size.
CONJ_CORES = {"F2^2": (16, 16), "F2^3": (7, 7, 6), "C5": (48,), "P4": (48,), "G(10,0.4)": (48,)}
ROOT_LENGTH = 14
CONJUGATOR_LENGTH = 6


def commuting_blocks(g) -> list[list[int]]:
    """Disjoint generator sets, pairwise commuting, each connected by non-commutation.

    Greedy from every start generator; keeps the split with the most
    blocks, then the most generators.  Products of primitives on distinct
    blocks are the inputs whose decomposition is known.
    """
    best: list[list[int]] = []
    for first in range(g.ngens):
        blocks = [[first]]
        for h in range(g.ngens):
            if any(h in b for b in blocks):
                continue
            for b in blocks:
                rest = [x for o in blocks if o is not b for x in o]
                if all(g.commutes(h, x) for x in rest) and any(not g.commutes(h, x) for x in b):
                    b.append(h)
                    break
            else:
                if all(g.commutes(h, x) for b in blocks for x in b):
                    blocks.append([h])
        key = (len(blocks), sum(map(len, blocks)))
        if key > (len(best), sum(map(len, best))):
            best = [sorted(b) for b in blocks]
    return best


def _gcd_counts(word) -> int:
    d = 0
    for c in Counter(word).values():
        d = math.gcd(d, c)
    return d


class _ConjFamily:
    def __init__(self, g, rng: random.Random, core: tuple[int, ...]):
        self.g = g
        self.alpha = W.Alphabet(g)
        self.blocks = commuting_blocks(g)
        self.rng = rng
        self.core = core

    def core_word(self) -> list[int]:
        """A cyclically reduced word with the family's per-factor lengths."""
        if len(self.core) == 1:
            return W.cyclically_reduced_word(self.rng, self.alpha, self.core[0])
        if len(self.core) != len(self.blocks):
            raise RuntimeError(f"{len(self.core)} factor lengths for {len(self.blocks)} factors")
        return [s for n, b in zip(self.core, self.blocks) for s in W.cyclically_reduced_word(self.rng, self.alpha, n, b)]

    def elem(self, word) -> GroupElement:
        return GroupElement(self.g, W.shortlex(self.alpha, W.reduce(self.alpha, word)))

    def conjugated(self, word):
        """t⁻¹·word·t for a fresh random t."""
        t = W.reduced_word(self.rng, self.alpha, CONJUGATOR_LENGTH)
        return t, W.inverse(t) + list(word) + t

    def primitive(self, length: int, gens=None):
        """Cyclically reduced, letter counts with gcd 1 (so not a proper power), full support."""
        want = set(range(self.g.ngens) if gens is None else gens)
        while True:
            p = W.cyclically_reduced_word(self.rng, self.alpha, length, gens)
            if _gcd_counts(p) == 1 and {s >> 1 for s in p} == want:
                return p


class ConjRoots(Workload):
    """Cyclic searches: conjugacy, roots and decompositions with known answers."""

    name = "conj-roots"

    def __init__(self, seed: int, workdir: str):
        self.ops: list[Op] = []
        self.closure_cores: list[GroupElement] = []
        for fam, core in CONJ_CORES.items():
            f = _ConjFamily(families.FAMILIES[fam](), _seed_rng("conj", seed, fam), core)
            self._conjugacy_ops(f)
            self._root_ops(f)
            self._structure_ops(f)

    def _conjugacy_ops(self, f: _ConjFamily) -> None:
        """Seven pairs, each on its own core: four decisions and three witnesses.

        A yes pair is two conjugates t⁻¹·v·t of one core; a no pair pairs v
        with a core of the same length and a different abelianization.
        """
        for kind, yes in (
            ("conjugacy.conj_yes", True),
            ("conjugacy.conj_yes", True),
            ("conjugacy.conj_no", False),
            ("conjugacy.conj_no", False),
            ("conjugacy.witness", True),
            ("conjugacy.witness", True),
            ("conjugacy.witness", False),
        ):
            v = f.core_word()
            other = v
            while not yes and W.exponent_sums(other) == W.exponent_sums(v):
                other = f.core_word()
            self.closure_cores.append(f.elem(v))
            w1 = f.elem(f.conjugated(v)[1])
            w2 = f.elem(f.conjugated(other)[1])
            if kind == "conjugacy.witness":
                self.ops.append(
                    Op(
                        kind,
                        lambda w1=w1, w2=w2: conjugacy.conjugacy_witness(w1, w2),
                        lambda c, yes=yes, w1=w1, w2=w2: _check_witness(c, yes, w1, w2),
                    )
                )
            else:
                self.ops.append(
                    Op(
                        kind,
                        lambda w1=w1, w2=w2: conjugacy.are_conjugate(w1, w2),
                        lambda b, yes=yes: _expect(b, yes, "conjugate"),
                    )
                )

    def _root_ops(self, f: _ConjFamily) -> None:
        """Per conjugated power t⁻¹·pᵐ·t: its maximal root, the root of p, and a
        square root, which exists for m = 2 and not for m = 3."""
        for m in (2, 3):
            p = f.primitive(ROOT_LENGTH)
            t, w = f.conjugated(p * m)
            root = f.elem(W.inverse(t) + p + t)
            power = f.elem(w)
            self.ops += [
                Op(
                    "conjugacy.max_root_power",
                    lambda e=power: conjugacy.max_root(e),
                    lambda got, want=(root, m): _expect(got, want, "maximal root"),
                ),
                Op(
                    "conjugacy.max_root_prim",
                    lambda e=root: conjugacy.max_root(e),
                    lambda got, want=(root, 1): _expect(got, want, "maximal root"),
                ),
                Op(
                    "conjugacy.mth_root",
                    lambda e=power: conjugacy.mth_root(e, 2),
                    lambda got, want=root if m == 2 else None: _expect(got, want, "square root"),
                ),
            ]

    def _structure_ops(self, f: _ConjFamily) -> None:
        """Products t⁻¹·∏ pᵢ^mᵢ·t of primitives on distinct commuting blocks.

        Three inputs: every block with exponents 1, 2, 3, ..., the first block
        to the first power (primitive), the last block squared (a proper
        power).  The last one only goes to ``is_primitive``.
        """
        g = f.g
        length = max(2, ROOT_LENGTH // len(f.blocks))
        prims = [f.primitive(1 if len(b) == 1 else length, b) for b in f.blocks]
        every = [(i, 1 + i % 3) for i in range(len(prims))]
        for parts, decompose in ((every, True), ([(0, 1)], True), ([(len(prims) - 1, 2)], False)):
            t, word = f.conjugated([s for i, m in parts for s in prims[i] * m])
            w = f.elem(word)
            roots = [(f.elem(W.inverse(t) + prims[i] + t), m) for i, m in parts]
            primitive = len(roots) == 1 and roots[0][1] == 1
            self.ops.append(
                Op(
                    "structure.is_primitive",
                    lambda w=w: structure.is_primitive(w),
                    lambda b, want=primitive: _expect(b, want, "primitive"),
                )
            )
            if not decompose:
                continue
            support = {k for i, _ in parts for k in f.blocks[i]}
            nperp = sum(
                1 for k in range(g.ngens) if k not in support and all(g.commutes(k, x) for x in support)
            )
            self.ops += [
                Op(
                    "structure.prim_decompose",
                    lambda w=w: structure.prim_decompose(w),
                    lambda d, roots=roots: _check_decomposition(d, roots),
                ),
                Op(
                    "structure.centralizer",
                    lambda w=w: structure.centralizer(w),
                    lambda z, w=w, roots=roots, n=nperp: _check_centralizer(f, z, w, roots, n),
                ),
            ]

    def trace_extra(self, call) -> None:
        for core in self.closure_cores:
            call("extra.closure", lambda core=core: conjugacy.cyclically_reduced_conjugates(core))


def _check_witness(c, yes: bool, w1, w2) -> Optional[str]:
    if not yes:
        return _expect(c, None, "certificate for a non-conjugate pair")
    if not isinstance(c, GroupElement):
        return "no certificate for a conjugate pair"
    return None if ~c * w1 * c == w2 else "certificate fails ~c*w1*c == w2"


def _check_decomposition(d, roots) -> Optional[str]:
    got = [(p.codes, m) for p, m in d.pairs]
    want = sorted((p.codes, m) for p, m in roots)
    return _expect(got, want, "primitive decomposition")


def _check_centralizer(f: _ConjFamily, z, w, roots, nperp: int) -> Optional[str]:
    why = _expect(sorted(p.codes for p in z.abelian_generators), sorted(p.codes for p, _ in roots), "abelian part")
    if why:
        return why
    if len(z.raag_generators) != nperp:
        return f"{len(z.raag_generators)} letter generators, expected {nperp}"
    for t in z.raag_generators:
        if f.elem(list(t.codes) + list(w.codes)) != f.elem(list(w.codes) + list(t.codes)):
            return "a letter generator does not commute with w"
    return None


# ---------------------------------------------------------------------------
# cli-cold


def _cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], root: str) -> tuple[int, str, int]:
    """Run one child process to completion: (exit code, stdout, its peak RSS in KiB).

    The child is reaped with ``wait4`` for its own resource usage, so the
    peak belongs to this child and not to every child the benchmark started.
    """
    child = subprocess.Popen(argv, cwd=root, env=_cli_env(root), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


def in_process(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in this process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CliCold(Workload):
    """One ``python -m raagkit … --json`` child per op, run one at a time.

    13 commands per fixture and word set, 3 fixtures, 3 word sets.
    """

    name = "cli-cold"
    probes = 10
    sets_per_fixture = 3

    def __init__(self, seed: int, workdir: str):
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.expected: dict[int, tuple[int, str]] = {}
        self.commands: list[list[str]] = []
        os.makedirs(workdir, exist_ok=True)
        for fx, build in families.FIXTURES.items():
            g = build()
            path = os.path.join(workdir, f"{fx}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(families.graph_text(g))
            rng = _seed_rng("cli", seed, fx)
            for _ in range(self.sets_per_fixture):
                self.commands += self._commands(g, path, rng)
        self.child_peak_kb = 0
        self.ops = [
            Op(" ".join(argv[:2]), lambda argv=argv: self._spawn(argv), lambda got, i=i: self._check(i, got))
            for i, argv in enumerate(self.commands)
        ]

    def _spawn(self, argv: list[str]) -> tuple[int, str]:
        code, out, peak_kb = spawn([sys.executable, "-m", "raagkit", *argv], self.root)
        self.child_peak_kb = max(self.child_peak_kb, peak_kb)
        return code, out

    def peak_rss_kb(self) -> int:
        return self.child_peak_kb

    @staticmethod
    def _commands(g, path: str, rng: random.Random) -> list[list[str]]:
        alpha = W.Alphabet(g)

        def word(lo: int = 1, hi: int = 8) -> str:
            return W.text(alpha, W.reduced_word(rng, alpha, rng.randint(lo, hi)))

        raw = W.text(alpha, [rng.randrange(2 * g.ngens) for _ in range(8)])
        base = word(3, 6)
        t = W.reduced_word(rng, alpha, 3)
        conj = W.text(alpha, W.inverse(t) + W.parse(alpha, base) + t)
        cmds = [
            ["eval", "normalize", raw],
            ["eval", "mul", word(), word()],
            ["eval", "inv", word()],
            ["eval", "pow", word(), "3"],
            ["eval", "meet", word(), word()],
            ["eval", "median", word(), word(), word()],
            ["dyn", "cyclred", word()],
            ["dyn", "conj", base, conj],
            ["dyn", "qdir", "--w", word(1, 3), word(0, 3), word(0, 3)],
            ["struct", "decompose", word()],
            ["struct", "centralizer", word()],
            # Two checks per set put the 90th percentile inside their cluster
            # instead of on the edge between them and the single commands.
            ["check", "cyclic", "--samples", "5", "--seed", str(rng.getrandbits(16))],
            ["check", "cyclic", "--samples", "5", "--seed", str(rng.getrandbits(16))],
        ]
        return [c[:2] + ["-g", path, "--json"] + c[2:] for c in cmds]

    def _check(self, i: int, got) -> Optional[str]:
        if i not in self.expected:
            self.expected[i] = in_process(self.commands[i])
        want = self.expected[i]
        if want[0] != 0:
            return f"in-process run exited {want[0]}"
        return _expect(got, want, "exit code and stdout")

    def trace_extra(self, call) -> None:
        exe = sys.executable
        for _ in range(self.probes):
            call("extra.cli.interp", lambda: spawn([exe, "-c", "pass"], self.root))
            call("extra.cli.import", lambda: spawn([exe, "-c", "import raagkit"], self.root))
        for argv in self.commands:
            call("extra.cli.main", lambda argv=argv: in_process(argv))


WORKLOADS = {w.name: w for w in (DeskSuites, LongWords, ConjRoots, CliCold)}
