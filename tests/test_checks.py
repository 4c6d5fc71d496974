"""The invariant suites: zero failures, fixed shapes, reproducible reports."""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from raagkit import checks
from raagkit.checks import SUITE_ORDER, SUITES, failure_count, run_suite
from raagkit.dynamics import qdir
from raagkit.elements import inv_codes, mul_codes
from raagkit.errors import ResourceCapError
from raagkit.order import median, meet_codes
from raagkit.sampling import random_codes, stream
from raagkit.structure import CentralizerPresentation, centralizer

SAMPLES = 40

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXPECTED_AXIOMS = {
    "median-axioms": [
        "median-symmetry",
        "median-absorption",
        "median-selfdistributivity",
    ],
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


class TestSuites:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_zero_failures_on_all_fixtures(self, suite, graphs):
        for g in graphs.values():
            report = run_suite(suite, g, samples=SAMPLES, seed=2, max_len=8)
            assert failure_count(report) == 0
            assert [r["axiom"] for r in report] == EXPECTED_AXIOMS[suite]
            for record in report:
                assert record["suite"] == suite
                assert set(record) == {"axiom", "samples", "failures", "suite"}
                assert record["failures"] == []

    def test_all_concatenates_in_declared_order(self, free2):
        report = run_suite("all", free2, samples=10, seed=0, max_len=6)
        suites = [r["suite"] for r in report]
        expected = [name for name in SUITE_ORDER for _ in EXPECTED_AXIOMS[name]]
        assert suites == expected

    def test_unknown_suite_rejected(self, free2):
        with pytest.raises(ValueError):
            run_suite("nonsense", free2)

    def test_same_config_same_report(self, f2xz):
        first = run_suite("all", f2xz, samples=15, seed=9, max_len=7)
        second = run_suite("all", f2xz, samples=15, seed=9, max_len=7)
        assert first == second

    @pytest.mark.parametrize(
        "name, count, digest",
        [("free2", 3883, "80f524bfab625829"), ("z2", 4242, "87cfd721d0141ce0"), ("f2xz", 3913, "e825b1800fe0e2bf")],
    )
    def test_drawn_words_are_pinned(self, monkeypatch, graphs, name, count, digest):
        # A report holds only law names, counts and failures, so a change of
        # sampling (a renamed stream label, a reordered draw) leaves a passing
        # report unchanged; the words drawn for it are pinned here instead.
        draws = []

        def recorder(*args, **kwargs):
            draws.append(random_codes(*args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(checks, "random_codes", recorder)
        run_suite("all", graphs[name], 40, 3, 8)
        assert len(draws) == count
        assert hashlib.sha256(repr(draws).encode()).hexdigest()[:16] == digest

    def test_different_seed_different_stream(self, f2xz):
        # Reports still pass, but the drawn words differ; compare indirectly
        # via the internal sampler to avoid asserting on pass/fail content.
        a = [random_codes(stream(1, "cyclic"), f2xz, 8) for _ in range(20)]
        b = [random_codes(stream(2, "cyclic"), f2xz, 8) for _ in range(20)]
        assert a != b

    @pytest.mark.parametrize("suite", SUITE_ORDER)
    def test_benchmark_accepts_every_report(self, suite):
        # The desk-suites benchmark counts a report as a failed op unless
        # its check_report accepts it, so a renamed, added or reordered law,
        # or a changed sample count, must fail here rather than there.
        sys.path.insert(0, str(PERFBENCH))
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(PERFBENCH))
        desk = workloads.DeskSuites
        for build in workloads.families.FIXTURES.values():
            g = build()
            for seed in range(5):
                report = run_suite(suite, g, desk.samples, seed, desk.max_len)
                assert workloads.check_report(suite, desk.samples, report) is None


def _drop_last_letter(z):
    return CentralizerPresentation(z.raag_generators[:-1], z.abelian_generators)


def _square_abelian(z):
    return CentralizerPresentation(z.raag_generators, tuple(p**2 for p in z.abelian_generators))


class TestCompletenessCanFail:
    # A centralizer that misses part of C(w) must make the completeness law
    # report failures.
    @pytest.mark.parametrize("corrupt", [_drop_last_letter, _square_abelian])
    @pytest.mark.parametrize("name", ["z2", "f2xz"])
    def test_corrupted_centralizer_fails(self, monkeypatch, graphs, corrupt, name):
        monkeypatch.setattr(checks, "centralizer", lambda w: corrupt(centralizer(w)))
        report = run_suite("structure", graphs[name], samples=SAMPLES, seed=2, max_len=8)
        by_name = {r["axiom"]: r for r in report}
        assert by_name["centralizer-reaches-commuting-ball"]["failures"]


def _join_without_orthogonality(g, x, y):
    """x·(x∩y)⁻¹y, returned whether or not x and y have a common upper bound."""
    return mul_codes(g, x, mul_codes(g, inv_codes(g, meet_codes(g, x, y)), y))


class TestJoinLawsCanFail:
    # A join that never answers None must make the no-inverse-join law
    # report failures: it joins every x with x⁻¹.
    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz"])
    def test_join_without_orthogonality_fails(self, monkeypatch, graphs, name):
        monkeypatch.setattr(checks, "join_codes", _join_without_orthogonality)
        report = run_suite("agroup-axioms", graphs[name], samples=SAMPLES, seed=2, max_len=8)
        by_name = {r["axiom"]: r for r in report}
        assert by_name["no-inverse-join"]["failures"]


class TestGateLawsCanFail:
    # The slice and join laws read the streamed gates against their
    # definitions, built with a power of w at a proven index, so a gate that
    # agrees only with itself must make its law report failures.
    @pytest.mark.parametrize(
        "suite, law, gate, corrupt",
        [
            ("folding", "slice-fold-lands-and-fixes", "psi_fold", lambda w, a, x: x),
            ("qdir", "directed-join-formula", "dir_join", lambda w, a, x, y: qdir(w, x, y)),
            ("qdir", "directed-join-formula", "dir_join", lambda w, a, x, y: median(x, a, y)),
        ],
        ids=["fold-is-identity", "join-is-one-direction", "join-is-symmetric-median"],
    )
    def test_corrupted_gate_fails(self, monkeypatch, graphs, suite, law, gate, corrupt):
        monkeypatch.setattr(checks, gate, corrupt)
        failed = 0
        for g in graphs.values():
            report = run_suite(suite, g, samples=SAMPLES, seed=2, max_len=8)
            failed += len(next(r for r in report if r["axiom"] == law)["failures"])
        assert failed


class TestFoldingLawCanFail:
    # The law decides that a translation t outside C(w) moves the folding at
    # x = 1 or x = w, so a folding or a centralizer test that is wrong there
    # must make it report failures, on free2, z2 and f2xz in turn.  z2 is
    # abelian: it draws no pair outside the true centralizer, so the
    # identity folding has no instance to fail there.
    @pytest.mark.parametrize(
        "name, corrupt, expected",
        [
            ("fold_phi", lambda w, x: x, [31, 0, 26]),
            ("in_centralizer", lambda w, x: False, [9, 40, 14]),
        ],
        ids=["fold-is-identity", "centralizer-is-empty"],
    )
    def test_corrupted_folding_law_fails(self, monkeypatch, graphs, name, corrupt, expected):
        monkeypatch.setattr(checks, name, corrupt)
        failed = []
        for g in graphs.values():
            report = run_suite("structure", g, samples=SAMPLES, seed=2, max_len=8)
            record = next(r for r in report if r["axiom"] == "noncommuting-translation-moves-folding")
            failed.append(len(record["failures"]))
        assert failed == expected


class TestRejectionBudget:
    # A hypothesis that rejects every draw must exhaust the attempt budget
    # and raise, not loop forever.
    @pytest.mark.parametrize(
        "suite, hypothesis, reject, what",
        [
            ("agroup-axioms", "orth_codes_definitional", lambda g, x, y: False, "orthogonal pairs"),
            ("agroup-axioms", "join_codes", lambda g, x, y: None, "inverse-prefix axiom"),
            ("agroup-axioms", "meet_codes", lambda g, x, y: (0,), "meet-triviality axiom"),
            ("structure", "is_orthogonal", lambda x, y: False, "orthogonal prefix pairs"),
        ],
        ids=["orthogonal", "inverse-prefix", "meet-triviality", "prefix-pairs"],
    )
    def test_rejecting_hypothesis_hits_the_cap(self, monkeypatch, f2xz, suite, hypothesis, reject, what):
        monkeypatch.setattr(checks, hypothesis, reject)
        with pytest.raises(ResourceCapError, match=what) as info:
            run_suite(suite, f2xz, samples=1, seed=0)
        assert info.value.cap == checks._ATTEMPT_FACTOR


class TestFailureCount:
    def test_counts_across_records(self):
        report = [
            {"axiom": "x", "samples": 5, "failures": [{"w": "a"}, {"w": "b"}]},
            {"axiom": "y", "samples": 5, "failures": []},
            {"axiom": "z", "samples": 5, "failures": [{"w": "c"}]},
        ]
        assert failure_count(report) == 3
        assert failure_count([]) == 0
