"""Command-line front end.

Four command groups: `eval` for word arithmetic and the prefix-order
operations, `dyn` for cyclic reduction, conjugacy, foldings and directions,
`struct` for primitives and centralizers, `check` for the seeded invariant
suites.  Every invocation names a graph file with -g.  Exit codes:
0 ok, 1 check failures, 2 parse or usage error, 3 resource cap exceeded,
4 internal error (an invariant check failed; a bug, reported in one line).

Each `eval`, `dyn` and `struct` command is one row of COMMANDS, which both
builds the argument parser and runs the command.  This module imports only
`errors`, `presentation` and `elements`; a row reaches every other library
module through a proxy such as `order` below, which imports the module on
first use and reads the function from it at call time.  So a command loads
only the modules its row calls, and a caller that rebinds a library
function (a tracer, a test) sees every call: in its home module for the
lazily loaded modules, in this module's globals for `element`, `render`
and `load_graph`.

With --json the output is a single document {command, config, result|report}
with sorted keys; identical config yields byte-identical documents.  If the
reader of standard output or standard error goes away, the rest is dropped
quietly and the exit code is the command's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple, Optional

from .elements import element, render
from .errors import (
    DEFAULT_CONJUGACY_CAP,
    DEFAULT_INTERVAL_CAP,
    InvariantViolationError,
    ParseError,
    ResourceCapError,
)
from .presentation import MAX_WORD_LETTERS, CommutationGraph, load_graph


class _Module:
    """A library module, imported on the first attribute read.  Each read
    runs ``from .<module> import <attr>``, so it sees functions rebound in
    the module, and the import statement's path lets ``-X importtime``
    report the module."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        return getattr(__import__(self._name, globals(), None, (attr,), 1), attr)


order = _Module("order")
conjugacy = _Module("conjugacy")
dynamics = _Module("dynamics")
structure = _Module("structure")
checks = _Module("checks")

# The keys of checks.SUITES, for the parser; a test keeps the two equal.
SUITE_NAMES = ("median-axioms", "agroup-axioms", "cyclic", "preorder", "folding", "qdir", "structure")

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, list):
        return ", ".join(_format_value(t) for t in v)
    return str(v)


def _format_result(result) -> str:
    """Default text form: a `key: value` line per record field, a line per list item."""
    if isinstance(result, dict):
        return "\n".join(f"{k}: {_format_value(v)}" for k, v in result.items())
    if isinstance(result, list):
        return "\n".join(_format_value(t) for t in result)
    return _format_value(result)


def _format_pairs(result: dict) -> str:
    pairs = ", ".join(f"({t['p']})^{t['m']}" for t in result["pairs"])
    return f"conjugator: {result['conjugator']}\npairs: {pairs}"


def _format_report(report: list[dict]) -> str:
    lines = []
    for record in report:
        head = f"{record['suite']}/{record['axiom']}: "
        if record["failures"]:
            head += f"FAIL ({len(record['failures'])} of {record['samples']} samples)"
        else:
            head += f"pass ({record['samples']} samples)"
        lines.append(head)
        for failure in record["failures"]:
            lines.append("  " + " ".join(f"{k}={v!r}" for k, v in failure.items()))
    bad = checks.failure_count(report)
    lines.append(f"total: {bad} failures across {len(report)} records")
    return "\n".join(lines)


class Command(NamedTuple):
    """One command.  `args` names its arguments in parser order: `x y z`
    are positional words, `--w --a --x` required word options, and the keys
    of _INT_ARGS integers.  `run` takes the parsed arguments, every word an
    element and the graph as `g`, and returns the JSON result; `text`
    renders that result in text mode."""

    group: str
    name: str
    args: str
    run: Callable[[argparse.Namespace], object]
    text: Callable[[object], str] = _format_result


_INT_ARGS = {"n": {}, "-m": {"help": "root degree (omit for maximal)"}}

_GROUPS = {
    "eval": "word arithmetic and order operations",
    "dyn": "cyclic reduction, conjugacy, foldings, directions",
    "struct": "primitives, decompositions, centralizers",
}


def _maybe_render(x) -> Optional[str]:
    return None if x is None else render(x)


def _sorted_renders(elems) -> list[str]:
    return [render(e) for e in sorted(elems, key=lambda t: (len(t.codes), t.codes))]


def _power(a: argparse.Namespace) -> str:
    if len(a.x) * abs(a.n) > MAX_WORD_LETTERS:
        raise ResourceCapError("power length", MAX_WORD_LETTERS, "letters")
    return render(a.x ** a.n)


def _cyclic_reduction(a: argparse.Namespace) -> dict:
    r = conjugacy.cyclic_reduce(a.x)
    return {"conjugator": render(r.conjugator), "core": render(r.core)}


def _conjugacy(a: argparse.Namespace) -> dict:
    c = conjugacy.conjugacy_witness(a.x, a.y, cap=a.conj_cap)
    return {"conjugate": c is not None, "certificate": _maybe_render(c)}


def _root(a: argparse.Namespace):
    if a.m is not None:
        return _maybe_render(conjugacy.mth_root(a.x, a.m))
    p, m = conjugacy.max_root(a.x)
    return {"p": render(p), "m": m}


COMMANDS = (
    Command("eval", "normalize", "x", lambda a: render(a.x)),
    Command("eval", "mul", "x y", lambda a: render(a.x * a.y)),
    Command("eval", "inv", "x", lambda a: render(~a.x)),
    Command("eval", "len", "x", lambda a: len(a.x)),
    Command("eval", "meet", "x y", lambda a: render(order.meet(a.x, a.y))),
    Command("eval", "median", "x y z", lambda a: render(order.median(a.x, a.y, a.z))),
    Command("eval", "join", "x y", lambda a: _maybe_render(order.join(a.x, a.y))),
    Command("eval", "orth", "x y", lambda a: order.is_orthogonal(a.x, a.y)),
    Command("eval", "prefix", "x y", lambda a: order.is_prefix(a.x, a.y)),
    Command("eval", "interval", "x y", lambda a: _sorted_renders(order.interval(a.x, a.y, cap=a.interval_cap))),
    Command("eval", "boundary", "x", lambda a: _sorted_renders(order.boundary(a.x, cap=a.interval_cap))),
    Command("eval", "pow", "x n", _power),
    Command("dyn", "cyclred", "x", _cyclic_reduction),
    Command(
        "dyn", "conj", "x y", _conjugacy,
        lambda r: "false" if r["certificate"] is None else f"true\ncertificate: {r['certificate']}",
    ),
    Command("dyn", "phi", "--w --x", lambda a: render(dynamics.fold_phi(a.w, a.x))),
    Command("dyn", "axis", "--w --x", lambda a: dynamics.in_axis(a.w, a.x)),
    Command("dyn", "preceq", "--w x y", lambda a: dynamics.preceq(a.w, a.x, a.y)),
    Command("dyn", "sim", "--w x y", lambda a: dynamics.sim(a.w, a.x, a.y)),
    Command("dyn", "equiv", "--w x y", lambda a: dynamics.equiv(a.w, a.x, a.y)),
    Command("dyn", "qdir", "--w x y", lambda a: render(dynamics.qdir(a.w, a.x, a.y))),
    Command("dyn", "psi", "--w --a --x", lambda a: render(dynamics.psi_fold(a.w, a.a, a.x))),
    Command("dyn", "slice", "--w --a --x", lambda a: dynamics.in_axis_slice(a.w, a.a, a.x)),
    Command("dyn", "dirjoin", "--w --a x y", lambda a: render(dynamics.dir_join(a.w, a.a, a.x, a.y))),
    Command("struct", "prim", "x", lambda a: structure.is_primitive(a.x)),
    Command(
        "struct", "decompose", "x", lambda a: structure.prim_decompose(a.x).as_record(), _format_pairs
    ),
    Command("struct", "centralizer", "x", lambda a: structure.centralizer(a.x).as_record()),
    Command("struct", "hbasis", "x", lambda a: [render(t) for t in structure.h_basis(a.x)]),
    Command("struct", "root", "x -m", _root),
    Command("struct", "center", "", lambda a: [a.g.generators[s] for s in structure.center(a.g)]),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-g", "--graph", required=True, help="commutation graph file")
    common.add_argument(
        "--interval-cap",
        type=int,
        default=DEFAULT_INTERVAL_CAP,
        dest="interval_cap",
        help="cap on the elements that interval and boundary list",
    )
    common.add_argument(
        "--conj-cap",
        type=int,
        default=DEFAULT_CONJUGACY_CAP,
        dest="conj_cap",
        help="conjugate set enumeration cap",
    )
    common.add_argument(
        "--json", action="store_true", help="emit one machine-readable JSON document"
    )

    parser = argparse.ArgumentParser(
        prog="raagkit",
        description="Computational kernel for groups presented by commutation graphs.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        group: top.add_parser(group, help=text).add_subparsers(dest="cmd", required=True)
        for group, text in _GROUPS.items()
    }
    for command in COMMANDS:
        p = groups[command.group].add_parser(command.name, parents=[common])
        p.set_defaults(command=command)
        for name in command.args.split():
            if name in _INT_ARGS:
                p.add_argument(name, type=int, **_INT_ARGS[name])
            elif name.startswith("--"):
                p.add_argument(name, required=True, metavar="WORD")
            else:
                p.add_argument(name, metavar="WORD")

    ck = top.add_parser("check", parents=[common], help="seeded invariant suites")
    ck.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    ck.add_argument("--samples", type=int, default=1000, help="samples per law (default 1000)")
    ck.add_argument("--max-len", type=int, default=8, dest="max_len", help="sampled word length cap")
    ck.add_argument("suite", choices=sorted(SUITE_NAMES) + ["all"])

    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    config = {"graph": args.graph}
    if args.group == "check":
        config.update(seed=args.seed, samples=args.samples, max_len=args.max_len)
    config.update(
        interval_cap=args.interval_cap,
        conj_cap=args.conj_cap,
        output="json" if args.json else "text",
    )
    return config


def _validate_config(args: argparse.Namespace) -> Optional[str]:
    if args.group == "check":
        if not 0 <= args.seed < 2**64:
            return "seed must fit in 64 unsigned bits"
        if args.samples < 1:
            return "samples must be >= 1"
        if args.max_len < 0:
            return "max-len must be >= 0"
    if args.interval_cap < 1 or args.conj_cap < 1:
        return "caps must be >= 1"
    return None


def _run(args: argparse.Namespace, g: CommutationGraph) -> object:
    """Parse the command's words into elements of g, in argument order, and run it."""
    for name in args.command.args.split():
        if name not in _INT_ARGS:
            dest = name.lstrip("-")
            setattr(args, dest, element(g, getattr(args, dest)))
    args.g = g
    return args.command.run(args)


def _write(stream, text: str) -> None:
    """Print one block of text.  If the reader has gone away, drop it and point
    the stream at the null device, so that the flush at exit cannot fail again
    and the exit code stays the command's own."""
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _fail(message: str, code: int) -> int:
    _write(sys.stderr, f"raagkit: {message}")
    return code


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _validate_config(args)
    if problem is not None:
        return _fail(problem, EXIT_PARSE)

    try:
        g = load_graph(args.graph)
        if args.group == "check":
            name, key, text = f"check {args.suite}", "report", _format_report
            result = checks.run_suite(args.suite, g, samples=args.samples, seed=args.seed, max_len=args.max_len)
        else:
            name, key, text = f"{args.group} {args.cmd}", "result", args.command.text
            result = _run(args, g)
    except (OSError, ParseError, ValueError) as err:
        return _fail(str(err), EXIT_PARSE)
    except ResourceCapError as err:
        return _fail(str(err), EXIT_CAP)
    except InvariantViolationError as err:
        return _fail(f"internal error: {err}", EXIT_INTERNAL)

    if args.json:
        out = json.dumps({"command": name, "config": _config_dict(args), key: result}, sort_keys=True)
    else:
        out = text(result)
    if out:
        _write(sys.stdout, out)
    if args.group == "check" and checks.failure_count(result) > 0:
        return EXIT_CHECK_FAILURES
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
