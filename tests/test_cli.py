"""End-to-end command-line runs via subprocess: outputs, exit codes, JSON."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from raagkit import cli, sampling
from raagkit.dynamics import fold_phi
from raagkit.elements import element, render
from raagkit.errors import InvariantViolationError
from raagkit.presentation import load_graph

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"
F2XZ = str(GRAPHS / "f2xz.txt")
FREE2 = str(GRAPHS / "free2.txt")
Z2 = str(GRAPHS / "z2.txt")


def run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "raagkit", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestEval:
    def test_meet(self):
        r = run("eval", "meet", "-g", F2XZ, "a b", "a c")
        assert r.returncode == 0 and r.stdout.strip() == "a"

    def test_normalize(self):
        r = run("eval", "normalize", "-g", F2XZ, "a c a^-1")
        assert r.returncode == 0 and r.stdout.strip() == "c"

    def test_len_of_empty(self):
        r = run("eval", "len", "-g", F2XZ, "")
        assert r.returncode == 0 and r.stdout.strip() == "0"

    def test_mul_inv_pow(self):
        assert run("eval", "mul", "-g", FREE2, "a b", "b^-1").stdout.strip() == "a"
        assert run("eval", "inv", "-g", FREE2, "a b").stdout.strip() == "b^-1 a^-1"
        assert run("eval", "pow", "-g", Z2, "a b", "2").stdout.strip() == "a^2 b^2"
        assert run("eval", "pow", "-g", FREE2, "a", "-3").stdout.strip() == "a^-3"

    def test_median_join_orth_prefix(self):
        assert run("eval", "median", "-g", FREE2, "a", "b", "1").stdout.strip() == "1"
        assert run("eval", "join", "-g", Z2, "a", "b").stdout.strip() == "a b"
        assert run("eval", "join", "-g", FREE2, "a", "b").stdout.strip() == "none"
        assert run("eval", "orth", "-g", F2XZ, "a", "c").stdout.strip() == "true"
        assert run("eval", "orth", "-g", FREE2, "a", "b").stdout.strip() == "false"
        assert run("eval", "prefix", "-g", FREE2, "a", "a b").stdout.strip() == "true"

    def test_interval_listing_sorted(self):
        r = run("eval", "interval", "-g", Z2, "1", "a b")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["1", "a", "b", "a b"]

    def test_boundary(self):
        r = run("eval", "boundary", "-g", F2XZ, "a c")
        assert r.stdout.splitlines() == ["1", "a", "c", "a c"]


class TestDyn:
    def test_conj_with_certificate(self):
        r = run("dyn", "conj", "-g", FREE2, "a b", "b a")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["true", "certificate: a"]

    def test_conj_negative(self):
        r = run("dyn", "conj", "-g", FREE2, "a", "b")
        assert r.returncode == 0 and r.stdout.strip() == "false"

    def test_cyclred(self):
        r = run("dyn", "cyclred", "-g", FREE2, "b a b^-1")
        assert r.stdout.splitlines() == ["conjugator: b", "core: a"]

    def test_phi_axis(self):
        assert run("dyn", "phi", "-g", FREE2, "--w", "b", "--x", "a").stdout.strip() == "1"
        assert run("dyn", "axis", "-g", FREE2, "--w", "b", "--x", "a").stdout.strip() == "false"
        assert run("dyn", "axis", "-g", FREE2, "--w", "b", "--x", "b^2").stdout.strip() == "true"

    def test_qdir_preceq_sim_equiv(self):
        assert run("dyn", "qdir", "-g", FREE2, "--w", "b", "1", "a").stdout.strip() == "1"
        assert run("dyn", "preceq", "-g", FREE2, "--w", "b", "1", "b").stdout.strip() == "true"
        assert run("dyn", "sim", "-g", F2XZ, "--w", "c", "a", "1").stdout.strip() == "true"
        assert run("dyn", "equiv", "-g", F2XZ, "--w", "c", "1", "c").stdout.strip() == "true"

    def test_equiv_needs_no_interval_cap(self, tmp_path):
        # K_8 presents Z⁸; the cell [1, g0⁴…g6⁴] has 5⁷ points, but equiv
        # enumerates no cell, so even a cap of 1 is never hit.
        gens = [f"g{i}" for i in range(8)]
        k8 = tmp_path / "k8.txt"
        edges = [f"edge: {a} {b}" for i, a in enumerate(gens) for b in gens[i + 1 :]]
        k8.write_text("\n".join([f"gens: {' '.join(gens)}", *edges]) + "\n")
        y = " ".join(f"{t}^4" for t in gens[:7])
        for w, want in ((" ".join(gens[:7]), "true"), ("g7", "false")):
            r = run("dyn", "equiv", "-g", str(k8), "--interval-cap", "1", "--w", w, "1", y)
            assert (r.returncode, r.stdout.strip()) == (0, want), r.stderr

    def test_psi_slice_dirjoin(self):
        assert (
            run("dyn", "psi", "-g", F2XZ, "--w", "c", "--a", "1", "--x", "c^2 a").stdout.strip()
            == "c^2"
        )
        assert (
            run("dyn", "slice", "-g", F2XZ, "--w", "c", "--a", "1", "--x", "c^2").stdout.strip()
            == "true"
        )
        assert (
            run("dyn", "dirjoin", "-g", FREE2, "--w", "b", "--a", "1", "a", "a^-1").stdout.strip()
            == "1"
        )

    def test_gates_on_long_words(self, tmp_path, capsys):
        # qdir, psi and dirjoin on random 10⁴-letter words over C5.  The gates
        # read w's core copy by copy; a power of w at the old proven index
        # would have about 10⁸ letters.  Each command took at most 0.6 s on a
        # 2-vCPU Xeon (Python 3.11.7); the bound is over 30 times that.
        gens = [f"x{i}" for i in range(5)]
        c5 = tmp_path / "c5.txt"
        c5.write_text(f"gens: {' '.join(gens)}\n" + "".join(f"edge: x{i} x{(i + 1) % 5}\n" for i in range(5)))
        rng = random.Random("long-gates")
        w, x, y, b = (" ".join(rng.choice(gens) + rng.choice(("", "^-1")) for _ in range(10_000)) for _ in range(4))
        g = load_graph(c5)
        a = render(fold_phi(element(g, w), element(g, b)))
        for cmd, *args in (
            ("qdir", "--w", w, x, y),
            ("psi", "--w", w, "--a", a, "--x", x),
            ("dirjoin", "--w", w, "--a", b, x, y),
        ):
            start = time.perf_counter()
            code = cli.main(["dyn", cmd, "-g", str(c5), *args])
            elapsed = time.perf_counter() - start
            assert code == 0, capsys.readouterr().err
            assert elapsed < 20.0, (cmd, elapsed)

    def test_psi_requires_axis_base(self):
        r = run("dyn", "psi", "-g", FREE2, "--w", "b", "--a", "a", "--x", "1")
        assert r.returncode == 2
        assert "axis" in r.stderr


class TestStruct:
    def test_decompose(self):
        r = run("struct", "decompose", "-g", F2XZ, "a^2 c^3")
        assert r.stdout.splitlines() == ["conjugator: 1", "pairs: (a)^2, (c)^3"]

    def test_center(self):
        assert run("struct", "center", "-g", F2XZ).stdout.strip() == "c"
        assert run("struct", "center", "-g", FREE2).stdout.strip() == ""
        assert run("struct", "center", "-g", Z2).stdout.splitlines() == ["a", "b"]

    def test_prim(self):
        assert run("struct", "prim", "-g", F2XZ, "a c").stdout.strip() == "false"
        assert run("struct", "prim", "-g", F2XZ, "a").stdout.strip() == "true"

    def test_root(self):
        r = run("struct", "root", "-g", FREE2, "a b a b")
        assert r.stdout.splitlines() == ["p: a b", "m: 2"]
        assert run("struct", "root", "-g", FREE2, "a b", "-m", "2").stdout.strip() == "none"
        assert run("struct", "root", "-g", Z2, "a^2 b^2", "-m", "2").stdout.strip() == "a b"

    def test_centralizer_and_hbasis(self):
        r = run("struct", "centralizer", "-g", F2XZ, "c")
        assert r.stdout.splitlines() == ["raag_gens: a, b", "abelian_gens: c"]
        r = run("struct", "hbasis", "-g", F2XZ, "a^2 c^3")
        assert r.stdout.splitlines() == ["a", "c"]

    def test_identity_decompose_is_usage_error(self):
        r = run("struct", "decompose", "-g", FREE2, "1")
        assert r.returncode == 2


class TestExitCodes:
    def test_parse_error_in_word(self):
        r = run("eval", "normalize", "-g", F2XZ, "a^")
        assert r.returncode == 2 and "raagkit:" in r.stderr

    def test_unknown_generator(self):
        r = run("eval", "normalize", "-g", FREE2, "c")
        assert r.returncode == 2

    def test_missing_graph_file(self):
        r = run("eval", "normalize", "-g", "no-such-graph.txt", "a")
        assert r.returncode == 2

    def test_resource_cap(self):
        r = run("eval", "interval", "-g", F2XZ, "--interval-cap", "3", "1", "a b c")
        assert r.returncode == 3

    def test_huge_exponent_fails_fast(self):
        # Without the letter cap this would expand a billion letters; the
        # timeout kills such a child, failing the test.
        start = time.perf_counter()
        r = subprocess.run(
            [sys.executable, "-m", "raagkit", "eval", "normalize", "-g", F2XZ, "a^1000000000"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert time.perf_counter() - start < 5.0
        assert r.returncode == 3 and "cap" in r.stderr

    def test_huge_power_is_a_cap(self):
        r = run("eval", "pow", "-g", FREE2, "a b", "500001")
        assert r.returncode == 3
        assert run("eval", "pow", "-g", FREE2, "a", "-1000").stdout.strip() == "a^-1000"

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        def broken(x):
            raise InvariantViolationError("certificate check failed")

        # The table row calls `render` through the module's globals.
        monkeypatch.setattr(cli, "render", broken)
        code = cli.main(["eval", "normalize", "-g", F2XZ, "a"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "raagkit: internal error: certificate check failed\n"

    def test_sampling_budget_is_a_cap(self, capsys):
        start = time.perf_counter()
        code = cli.main(["check", "all", "-g", FREE2, "--max-len", "1000000000", "--samples", "5"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == cli.EXIT_CAP == 3
        assert out == ""
        assert err == f"raagkit: sampled word length exceeded the cap of {sampling.MAX_SAMPLE_LEN} letters\n"
        assert elapsed < 5.0

    def test_long_samples_are_served(self, capsys):
        start = time.perf_counter()
        code = cli.main(["check", "cyclic", "-g", FREE2, "--max-len", "60", "--samples", "5"])
        elapsed = time.perf_counter() - start
        out, _ = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert out.endswith("total: 0 failures across 4 records\n")
        assert elapsed < 5.0

    def test_sampling_flags_only_on_check(self, capsys):
        for flag in ("--seed", "--samples", "--max-len"):
            with pytest.raises(SystemExit) as e:
                cli.main(["eval", "normalize", "-g", F2XZ, flag, "1", "a"])
            assert e.value.code == 2
        capsys.readouterr()

    def test_bad_config_values(self):
        assert run("check", "cyclic", "-g", F2XZ, "--samples", "0").returncode == 2
        assert run("check", "cyclic", "-g", F2XZ, "--conj-cap", "0").returncode == 2

    def test_unknown_subcommand_usage_error(self):
        r = run("eval", "frobnicate", "-g", F2XZ, "a")
        assert r.returncode == 2

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_is_quiet(self, unbuffered):
        # The reader closes its end before the child writes, so the child's
        # first write fails: in print when stdout is unbuffered, in the flush
        # after it otherwise.  The child stops quietly and keeps its own exit code.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen(
            [sys.executable, "-m", "raagkit", "eval", "interval", "-g", F2XZ, "1", "a^6 c^6 b^6"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=300) == cli.EXIT_OK
        assert "Traceback" not in err
        assert err == ""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("eval", "normalize", "-g", F2XZ, "a^"), cli.EXIT_PARSE),
            (("eval", "pow", "-g", FREE2, "a b", "500001"), cli.EXIT_CAP),
        ],
        ids=["parse-error", "cap"],
    )
    def test_closed_stderr_keeps_exit_code(self, argv, code):
        # The reader closes standard error before the child writes its error
        # line: the line is dropped and the exit code is still the error's own.
        child = subprocess.Popen(
            [sys.executable, "-m", "raagkit", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        child.stderr.close()
        out = child.stdout.read()
        child.stdout.close()
        assert child.wait(timeout=300) == code
        assert out == ""


class TestJson:
    def test_eval_document_shape(self):
        r = run("eval", "meet", "-g", F2XZ, "--json", "a b", "a c")
        doc = json.loads(r.stdout)
        assert doc["command"] == "eval meet"
        assert doc["result"] == "a"
        assert doc["config"]["graph"] == F2XZ
        assert doc["config"]["output"] == "json"
        assert not {"seed", "samples", "max_len"} & set(doc["config"])
        assert set(doc) == {"command", "config", "result"}

    def test_conj_document(self):
        r = run("dyn", "conj", "-g", FREE2, "--json", "a b", "b a")
        doc = json.loads(r.stdout)
        assert doc["result"] == {"conjugate": True, "certificate": "a"}

    def test_join_null(self):
        doc = json.loads(run("eval", "join", "-g", FREE2, "--json", "a", "b").stdout)
        assert doc["result"] is None

    def test_check_document_carries_report(self):
        r = run("check", "cyclic", "-g", FREE2, "--json", "--samples", "25", "--seed", "4")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert set(doc) == {"command", "config", "report"}
        assert (doc["config"]["seed"], doc["config"]["samples"], doc["config"]["max_len"]) == (4, 25, 8)
        assert [rec["axiom"] for rec in doc["report"]] == [
            "power-meet-stability",
            "cyclic-reduced-powers",
            "torsion-free-powers",
            "power-length-formula",
        ]
        assert all(rec["failures"] == [] for rec in doc["report"])


class TestCheckCommand:
    def test_qdir_suite_passes(self):
        r = run("check", "qdir", "-g", FREE2, "--samples", "200", "--seed", "1")
        assert r.returncode == 0
        assert "total: 0 failures" in r.stdout

    def test_repeat_runs_identical_bytes(self):
        argv = ("check", "cyclic", "-g", F2XZ, "--json", "--samples", "30", "--seed", "11")
        first = run(*argv)
        second = run(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    # sha256 of `check all --samples 200 --seed 3 --json` per fixture.  The
    # report must stay byte-identical; a change that alters it on purpose
    # updates these digests and says so in CHANGES.md.
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("free2", "4c1a7172cd764e3034485f0eb75928c449195fde6f1d93cbdd7ac370a299af40"),
            ("z2", "926e741f3f0a6ece9a27a5a99039d58394913f1b8d11a43d5b199ebc9cd29d7e"),
            ("f2xz", "944d62a4b4429f98de9e16c5ecd868c5da8b5ded4b6857779b9e5fa324fe031e"),
        ],
        ids=["free2", "z2", "f2xz"],
    )
    def test_report_is_pinned(self, name, digest, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        argv = ["check", "all", "-g", f"graphs/{name}.txt", "--samples", "200", "--seed", "3", "--json"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_suite_names_match_checks(self):
        from raagkit import checks

        assert cli.SUITE_NAMES == tuple(checks.SUITES)


GOLDEN = json.loads(Path(__file__).resolve().with_name("cli_golden.json").read_text(encoding="utf-8"))


class TestGolden:
    """Outputs of every command, captured from `python -m raagkit` at the
    repository root with COLUMNS=80 before the CLI was driven by its command
    table: each command in text and --json mode, failing runs (bad words,
    caps, domain and usage errors) and a usage error per command, whose usage
    line shows the command's arguments in order."""

    @pytest.mark.parametrize(
        "case", GOLDEN, ids=[f"{i:03d}-{c['argv'][0]}-{c['argv'][1]}" for i, c in enumerate(GOLDEN)]
    )
    def test_matches_capture(self, case, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = cli.main(case["argv"])
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])

    def test_every_command_in_both_modes(self):
        ran = {(tuple(c["argv"][:2]), "--json" in c["argv"]) for c in GOLDEN if c["code"] == 0}
        for command in cli.COMMANDS:
            for json_mode in (False, True):
                assert ((command.group, command.name), json_mode) in ran

    def test_table_and_parser_agree(self):
        def commands(parser):
            (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return action.choices

        parsed = {
            (group, name): sub.get_default("command")
            for group, groupparser in commands(cli.build_parser()).items()
            if group != "check"
            for name, sub in commands(groupparser).items()
        }
        assert parsed == {(c.group, c.name): c for c in cli.COMMANDS}
