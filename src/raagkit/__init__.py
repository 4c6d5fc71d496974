"""raagkit: computational kernel for right-angled Artin groups.

Presentation by a commutation graph; canonical shortlex normal forms; the
length-induced prefix order with meets, medians and partial joins; cyclic
reduction and conjugacy with certificates; foldings onto axes and the
attached preorders and quasidirections; primitive decomposition and
centralizers. Brute-force oracles validate every algorithm at desk scale.

Each exported name is imported from its home module on first use (PEP 562),
so ``import raagkit`` loads no submodule and a program compiles only the
modules it uses.
"""

from __future__ import annotations

_EXPORTS = {
    "errors": (
        "GraphMismatchError",
        "InvariantViolationError",
        "ParseError",
        "RaagError",
        "ResourceCapError",
    ),
    "presentation": (
        "CommutationGraph",
        "SignedLetter",
        "Word",
        "load_graph",
        "parse_graph",
        "parse_word",
    ),
    "elements": (
        "GroupElement",
        "element",
        "equal",
        "first_letters",
        "identity",
        "invert",
        "multiply",
        "normalize",
        "power",
        "render",
        "support",
    ),
    "order": (
        "ball",
        "boundary",
        "interval",
        "is_orthogonal",
        "is_prefix",
        "join",
        "median",
        "meet",
        "oracle_qdir",
    ),
    "conjugacy": (
        "CyclicReduction",
        "are_conjugate",
        "conjugacy_witness",
        "cyclic_reduce",
        "cyclically_reduced_conjugates",
        "is_cyclically_reduced",
        "max_root",
        "mth_root",
    ),
    "dynamics": (
        "decompose_axis",
        "dir_join",
        "equiv",
        "fold_phi",
        "in_axis",
        "in_axis_slice",
        "ll",
        "preceq",
        "psi_fold",
        "qdir",
        "sim",
    ),
    "structure": (
        "CentralizerPresentation",
        "PrimitiveDecomposition",
        "center",
        "centralizer",
        "h_basis",
        "in_centralizer",
        "is_primitive",
        "prim_decompose",
        "s_perp_set",
    ),
    "checks": ("SUITES", "check_agroup_axioms", "check_median_axioms", "failure_count", "run_suite"),
}

# Exported name -> the module that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # from .<module> import <name>
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
