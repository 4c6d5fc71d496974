"""The package loads lazily: its exports resolve on first use, and a CLI
command imports only the modules it runs."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import raagkit

F2XZ = str(Path(__file__).resolve().parent.parent / "graphs" / "f2xz.txt")

# Every name the package exports, by home module.
EXPORTS = {
    "errors": "GraphMismatchError InvariantViolationError ParseError RaagError ResourceCapError",
    "presentation": "CommutationGraph SignedLetter Word load_graph parse_graph parse_word",
    "elements": "GroupElement element equal first_letters identity invert multiply normalize power render support",
    "order": "ball boundary interval is_orthogonal is_prefix join median meet oracle_qdir",
    "conjugacy": "CyclicReduction are_conjugate conjugacy_witness cyclic_reduce cyclically_reduced_conjugates "
    "is_cyclically_reduced max_root mth_root",
    "dynamics": "decompose_axis dir_join equiv fold_phi in_axis in_axis_slice ll preceq psi_fold qdir sim",
    "structure": "CentralizerPresentation PrimitiveDecomposition center centralizer h_basis in_centralizer "
    "is_primitive prim_decompose s_perp_set",
    "checks": "SUITES check_agroup_axioms check_median_axioms failure_count run_suite",
}
HOME = {name: home for home, names in EXPORTS.items() for name in names.split()}


def loaded_modules(*argv: str) -> set[str]:
    """The modules a child interpreter imports, read from ``-X importtime``."""
    r = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=300
    )
    assert r.returncode == 0, r.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in r.stderr.splitlines()
        if line.startswith("import time:") and not line.endswith("imported package")
    }


def loaded_beyond_bare(*argv: str) -> set[str]:
    """What the child imports beyond a bare interpreter, so that modules that
    site-installed packages pull in at start-up do not count."""
    return loaded_modules(*argv) - loaded_modules("-c", "pass")


class TestLazyImports:
    def test_import_raagkit_loads_no_submodule(self):
        loaded = loaded_beyond_bare("-c", "import raagkit")
        assert "raagkit" in loaded
        assert not {m for m in loaded if m.startswith("raagkit.")}

    def test_eval_normalize_loads_only_the_kernel(self):
        loaded = loaded_beyond_bare("-m", "raagkit", "eval", "normalize", "-g", F2XZ, "--json", "a c a^-1")
        assert {"raagkit.cli", "raagkit.elements", "raagkit.presentation"} <= loaded
        heavy = {f"raagkit.{m}" for m in ("order", "sampling", "conjugacy", "dynamics", "structure", "checks")}
        assert not loaded & (heavy | {"dataclasses"})

    def test_a_row_loads_its_module(self):
        # A module that a row loads on use is seen by -X importtime, so the
        # absences asserted above mean something.
        loaded = loaded_beyond_bare("-m", "raagkit", "dyn", "cyclred", "-g", F2XZ, "a c a^-1")
        assert "raagkit.conjugacy" in loaded
        assert not loaded & {"raagkit.dynamics", "raagkit.structure", "raagkit.checks", "dataclasses"}

    def test_dyn_qdir_loads_no_conjugacy(self):
        # The gates stream copies of w's core through the order layer's
        # meet, so the dynamics rows need no cyclic reduction.
        loaded = loaded_beyond_bare("-m", "raagkit", "dyn", "qdir", "-g", F2XZ, "--w", "a c", "b", "a^2")
        assert {"raagkit.dynamics", "raagkit.order"} <= loaded
        assert not loaded & {"raagkit.conjugacy", "raagkit.structure", "raagkit.checks"}


class TestExports:
    @pytest.mark.parametrize("name", sorted(HOME))
    def test_name_is_its_home_modules_object(self, name):
        namespace = {}
        exec(f"from raagkit import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"raagkit.{HOME[name]}"), name)

    def test_star_import_yields_the_exports(self):
        namespace = {}
        exec("from raagkit import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(HOME)

    def test_dir_lists_the_exports(self):
        assert set(HOME) <= set(dir(raagkit))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            raagkit.no_such_name
        with pytest.raises(ImportError):
            exec("from raagkit import no_such_name", {})
