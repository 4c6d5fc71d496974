"""Command-line front end.

Four command groups: `eval` for word arithmetic and the prefix-order
operations, `dyn` for cyclic reduction, conjugacy, foldings and directions,
`struct` for primitives and centralizers, `check` for the seeded invariant
suites.  Every invocation names a graph file with -g.  Exit codes:
0 ok, 1 check failures, 2 parse or usage error, 3 resource cap exceeded,
4 internal error (an invariant check failed; a bug, reported in one line).

With --json the output is a single document {command, config, result|report}
with sorted keys; identical config yields byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .checks import SUITES, failure_count, run_suite
from .conjugacy import (
    DEFAULT_CONJUGACY_CAP,
    conjugacy_witness,
    cyclic_reduce,
    max_root,
    mth_root,
)
from .dynamics import (
    dir_join,
    equiv,
    fold_phi,
    in_axis,
    in_axis_slice,
    preceq,
    psi_fold,
    qdir,
    sim,
)
from .elements import element, identity, render
from .errors import InvariantViolationError, ParseError, ResourceCapError
from .order import (
    DEFAULT_INTERVAL_CAP,
    boundary,
    interval,
    is_orthogonal,
    is_prefix,
    join,
    median,
    meet,
)
from .presentation import MAX_WORD_LETTERS, CommutationGraph, load_graph
from .structure import (
    center,
    centralizer,
    h_basis,
    is_primitive,
    prim_decompose,
)

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-g", "--graph", required=True, help="commutation graph file")
    common.add_argument(
        "--interval-cap",
        type=int,
        default=DEFAULT_INTERVAL_CAP,
        dest="interval_cap",
        help="cell enumeration cap",
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

    ev = top.add_parser("eval", help="word arithmetic and order operations")
    evsub = ev.add_subparsers(dest="cmd", required=True)
    for name, nwords in (
        ("normalize", 1),
        ("mul", 2),
        ("inv", 1),
        ("len", 1),
        ("meet", 2),
        ("median", 3),
        ("join", 2),
        ("orth", 2),
        ("prefix", 2),
        ("interval", 2),
        ("boundary", 1),
    ):
        p = evsub.add_parser(name, parents=[common])
        for i in range(nwords):
            p.add_argument(f"word{i + 1}", metavar="WORD")
    p = evsub.add_parser("pow", parents=[common])
    p.add_argument("word1", metavar="WORD")
    p.add_argument("n", type=int)

    dy = top.add_parser("dyn", help="cyclic reduction, conjugacy, foldings, directions")
    dysub = dy.add_subparsers(dest="cmd", required=True)
    p = dysub.add_parser("cyclred", parents=[common])
    p.add_argument("word1", metavar="WORD")
    p = dysub.add_parser("conj", parents=[common])
    p.add_argument("word1", metavar="WORD")
    p.add_argument("word2", metavar="WORD")
    for name in ("phi", "axis"):
        p = dysub.add_parser(name, parents=[common])
        p.add_argument("--w", required=True, metavar="WORD")
        p.add_argument("--x", required=True, metavar="WORD")
    for name in ("preceq", "sim", "equiv", "qdir"):
        p = dysub.add_parser(name, parents=[common])
        p.add_argument("--w", required=True, metavar="WORD")
        p.add_argument("word1", metavar="WORD")
        p.add_argument("word2", metavar="WORD")
    for name in ("psi", "slice"):
        p = dysub.add_parser(name, parents=[common])
        p.add_argument("--w", required=True, metavar="WORD")
        p.add_argument("--a", required=True, metavar="WORD")
        p.add_argument("--x", required=True, metavar="WORD")
    p = dysub.add_parser("dirjoin", parents=[common])
    p.add_argument("--w", required=True, metavar="WORD")
    p.add_argument("--a", required=True, metavar="WORD")
    p.add_argument("word1", metavar="WORD")
    p.add_argument("word2", metavar="WORD")

    st = top.add_parser("struct", help="primitives, decompositions, centralizers")
    stsub = st.add_subparsers(dest="cmd", required=True)
    for name in ("prim", "decompose", "centralizer", "hbasis"):
        p = stsub.add_parser(name, parents=[common])
        p.add_argument("word1", metavar="WORD")
    p = stsub.add_parser("root", parents=[common])
    p.add_argument("word1", metavar="WORD")
    p.add_argument("-m", type=int, default=None, help="root degree (omit for maximal)")
    stsub.add_parser("center", parents=[common])

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    sampling.add_argument(
        "--samples", type=int, default=1000, help="samples per law (default 1000)"
    )
    sampling.add_argument(
        "--max-len", type=int, default=8, dest="max_len", help="sampled word length cap"
    )
    ck = top.add_parser("check", parents=[common, sampling], help="seeded invariant suites")
    ck.add_argument("suite", choices=sorted(SUITES) + ["all"])

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


def _sorted_renders(elems) -> list[str]:
    return [render(e) for e in sorted(elems, key=lambda t: (len(t.codes), t.codes))]


def _run_eval(args: argparse.Namespace, g: CommutationGraph):
    e = lambda s: element(g, s)
    cmd = args.cmd
    if cmd == "normalize":
        return render(e(args.word1))
    if cmd == "mul":
        return render(e(args.word1) * e(args.word2))
    if cmd == "inv":
        return render(~e(args.word1))
    if cmd == "pow":
        x = e(args.word1)
        if len(x) * abs(args.n) > MAX_WORD_LETTERS:
            raise ResourceCapError("power length", MAX_WORD_LETTERS, "letters")
        return render(x ** args.n)
    if cmd == "len":
        return len(e(args.word1))
    if cmd == "meet":
        return render(meet(e(args.word1), e(args.word2)))
    if cmd == "median":
        return render(median(e(args.word1), e(args.word2), e(args.word3)))
    if cmd == "join":
        j = join(e(args.word1), e(args.word2))
        return None if j is None else render(j)
    if cmd == "orth":
        return is_orthogonal(e(args.word1), e(args.word2))
    if cmd == "prefix":
        return is_prefix(e(args.word1), e(args.word2))
    if cmd == "interval":
        cell = interval(e(args.word1), e(args.word2), cap=args.interval_cap)
        return _sorted_renders(cell.elements)
    if cmd == "boundary":
        cell = interval(identity(g), e(args.word1), cap=args.interval_cap)
        return _sorted_renders(boundary(cell))
    raise InvariantViolationError(f"no handler for command {cmd!r}")


def _run_dyn(args: argparse.Namespace, g: CommutationGraph):
    e = lambda s: element(g, s)
    cmd = args.cmd
    if cmd == "cyclred":
        r = cyclic_reduce(e(args.word1))
        return {"conjugator": render(r.conjugator), "core": render(r.core)}
    if cmd == "conj":
        c = conjugacy_witness(e(args.word1), e(args.word2), cap=args.conj_cap)
        return {"conjugate": c is not None, "certificate": None if c is None else render(c)}
    if cmd == "phi":
        return render(fold_phi(e(args.w), e(args.x)))
    if cmd == "axis":
        return in_axis(e(args.w), e(args.x))
    if cmd == "preceq":
        return preceq(e(args.w), e(args.word1), e(args.word2))
    if cmd == "sim":
        return sim(e(args.w), e(args.word1), e(args.word2))
    if cmd == "equiv":
        return equiv(e(args.w), e(args.word1), e(args.word2), cap=args.interval_cap)
    if cmd == "qdir":
        return render(qdir(e(args.w), e(args.word1), e(args.word2)))
    if cmd == "psi":
        return render(psi_fold(e(args.w), e(args.a), e(args.x)))
    if cmd == "slice":
        return in_axis_slice(e(args.w), e(args.a), e(args.x))
    if cmd == "dirjoin":
        return render(dir_join(e(args.w), e(args.a), e(args.word1), e(args.word2)))
    raise InvariantViolationError(f"no handler for command {cmd!r}")


def _run_struct(args: argparse.Namespace, g: CommutationGraph):
    e = lambda s: element(g, s)
    cmd = args.cmd
    if cmd == "prim":
        return is_primitive(e(args.word1))
    if cmd == "root":
        if args.m is not None:
            p = mth_root(e(args.word1), args.m)
            return None if p is None else render(p)
        p, m = max_root(e(args.word1))
        return {"p": render(p), "m": m}
    if cmd == "decompose":
        return prim_decompose(e(args.word1)).as_record()
    if cmd == "centralizer":
        return centralizer(e(args.word1)).as_record()
    if cmd == "center":
        return [g.generators[s] for s in center(g)]
    if cmd == "hbasis":
        return [render(t) for t in h_basis(e(args.word1))]
    raise InvariantViolationError(f"no handler for command {cmd!r}")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, list):
        if v and all(isinstance(t, dict) and set(t) == {"p", "m"} for t in v):
            return ", ".join(f"({t['p']})^{t['m']}" for t in v)
        return ", ".join(_format_value(t) for t in v)
    return str(v)


def _format_result(cmd: str, result) -> str:
    if cmd == "conj":
        lines = [_format_value(result["conjugate"])]
        if result["certificate"] is not None:
            lines.append(f"certificate: {result['certificate']}")
        return "\n".join(lines)
    if isinstance(result, dict):
        return "\n".join(f"{k}: {_format_value(v)}" for k, v in result.items())
    if isinstance(result, list):
        return "\n".join(_format_value(t) for t in result)
    return _format_value(result)


def _format_report(report: list[dict]) -> str:
    lines = []
    for record in report:
        head = f"{record['suite']}/{record['axiom']}: "
        if record["failures"]:
            head += f"FAIL ({len(record['failures'])} of {record['samples']} samples)"
        else:
            head += f"pass ({record['samples']} samples)"
        if record.get("inconclusive"):
            head += f" [{record['inconclusive']} inconclusive]"
        lines.append(head)
        for failure in record["failures"]:
            lines.append("  " + " ".join(f"{k}={v!r}" for k, v in failure.items()))
    bad = failure_count(report)
    lines.append(f"total: {bad} failures across {len(report)} records")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate_config(args)
    if problem is not None:
        print(f"raagkit: {problem}", file=sys.stderr)
        return EXIT_PARSE

    try:
        g = load_graph(args.graph)
    except (OSError, ParseError) as err:
        print(f"raagkit: {err}", file=sys.stderr)
        return EXIT_PARSE

    exit_code = EXIT_OK
    try:
        if args.group == "check":
            report = run_suite(
                args.suite, g, samples=args.samples, seed=args.seed, max_len=args.max_len
            )
            if failure_count(report) > 0:
                exit_code = EXIT_CHECK_FAILURES
            if args.json:
                doc = {
                    "command": f"check {args.suite}",
                    "config": _config_dict(args),
                    "report": report,
                }
                print(json.dumps(doc, sort_keys=True))
            else:
                print(_format_report(report))
            return exit_code
        runner = {"eval": _run_eval, "dyn": _run_dyn, "struct": _run_struct}[args.group]
        result = runner(args, g)
    except (ParseError, ValueError) as err:
        print(f"raagkit: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as err:
        print(f"raagkit: {err}", file=sys.stderr)
        return EXIT_CAP
    except InvariantViolationError as err:
        print(f"raagkit: internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.json:
        doc = {
            "command": f"{args.group} {args.cmd}",
            "config": _config_dict(args),
            "result": result,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        text = _format_result(args.cmd, result)
        if text:
            print(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
