"""Per-layer metrics from the spans of a traced run.

Each metric belongs to one workload (the prefix of its entry in ``LAYER``)
and is computed from the spans of that workload's ops only.  Counts and
self times on desk-suites are per op, because a traced pass runs whole
rounds and the number of rounds varies with speed.  ``*_p50_ms`` metrics are
medians of the op spans of one kind; ``*_exp`` metrics are least-squares
slopes of log(median op time) against log(word length), averaged over the
long-words families that reach the longest length.  Span times are wall
times, not scaled to reference speed: the per-layer figures explain where a
run's time went, and carry no bound.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import CANON
from workloads import SCALING_FAMILIES

SUITES = ("median-axioms", "agroup-axioms", "cyclic", "preorder", "folding", "qdir", "structure")
LONG_P50 = (
    "presentation.parse_word",
    "elements.normalize",
    "elements.multiply",
    "elements.invert",
    "elements.power",
    "elements.render",
    "order.meet",
    "order.median",
    "order.join",
    "order.is_prefix",
    "conjugacy.cyclic_reduce",
)
LONG_EXP = ("elements.normalize", "elements.multiply", "order.meet", "order.median")
CONJ_P50 = (
    "conjugacy.conj_yes",
    "conjugacy.conj_no",
    "conjugacy.witness",
    "conjugacy.max_root_power",
    "conjugacy.max_root_prim",
    "conjugacy.mth_root",
    "structure.prim_decompose",
    "structure.centralizer",
    "structure.is_primitive",
)
DECISIONS = ("conjugacy.conj_yes", "conjugacy.conj_no", "conjugacy.witness")

# name -> (unit, better), in the order of BENCHMARK.json; the README names
# each metric's workload and the end-to-end metric it should move.
LAYER: dict[str, tuple[str, str]] = {}
for _s in SUITES:
    LAYER[f"checks.{_s}_s"] = ("s", "lower")
LAYER.update(
    {
        "sampling.draws": ("count", "lower"),
        "sampling.canon_attempts": ("count", "lower"),
        "sampling.accept_ratio": ("ratio", "higher"),
        "sampling.self_s": ("s", "lower"),
        "elements.canon_calls": ("count", "lower"),
        "elements.canon_letters": ("count", "lower"),
        "elements.kernel_self_s": ("s", "lower"),
        "order.interval_calls": ("count", "lower"),
        "order.interval_elems": ("count", "lower"),
        "order.interval_self_s": ("s", "lower"),
        "order.median_self_s": ("s", "lower"),
        "order.oracle_qdir_s": ("s", "lower"),
        "dynamics.qdir_self_s": ("s", "lower"),
        "dynamics.fold_phi_self_s": ("s", "lower"),
        "dynamics.preceq_self_s": ("s", "lower"),
        "dynamics.wcontexts": ("count", "lower"),
        "conjugacy.cyclic_reduce_self_s": ("s", "lower"),
        "conjugacy.max_root_self_s": ("s", "lower"),
        "structure.prim_decompose_self_s": ("s", "lower"),
        "structure.centralizer_self_s": ("s", "lower"),
    }
)
for _k in LONG_P50:
    LAYER[f"{_k}_p50_ms"] = ("ms", "lower")
LAYER["elements.letters_per_s"] = ("1/s", "higher")
for _k in LONG_EXP:
    LAYER[f"{_k}_exp"] = ("slope", "lower")
for _k in CONJ_P50:
    LAYER[f"{_k}_p50_ms"] = ("ms", "lower")
LAYER.update(
    {
        "conjugacy.closure_size_p50": ("count", "lower"),
        "conjugacy.kernel_calls_per_decision": ("count", "lower"),
        "cli.interp_ms": ("ms", "lower"),
        "cli.import_ms": ("ms", "lower"),
        "cli.main_ms": ("ms", "lower"),
        "presentation.load_graph_ms": ("ms", "lower"),
        "bench.trace_overhead": ("ratio", "higher"),
    }
)


class _Sums:
    def __init__(self):
        self.count = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.work = 0


def _slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(tracer, ops_log: list[tuple[str, str, int, str]]) -> dict:
    sums: dict[tuple[str, str], _Sums] = defaultdict(_Sums)
    op_time: dict[tuple[str, str], list[float]] = defaultdict(list)
    op_time_at: dict[tuple[str, str, int], list[float]] = defaultdict(list)
    canon_in_op: dict[int, int] = defaultdict(int)
    load_graph: list[float] = []
    draw_attempts = 0
    closures: list[int] = []
    names = tracer.names
    for i, (name, op, dur, self_s, work) in enumerate(tracer.spans()):
        if op < 0:
            continue
        wl, kind, size, family = ops_log[op]
        if name.startswith("op:"):
            op_time[wl, kind].append(dur)
            op_time_at[kind, family, size].append(dur)
            continue
        s = sums[wl, name]
        s.count += 1
        s.incl += dur
        s.self_s += self_s
        s.work += work
        if name in CANON:
            canon_in_op[op] += 1
            parent = tracer.parent[i]
            if name == "elements.canon_codes" and parent >= 0 and names[tracer.name[parent]] == "sampling.random_codes":
                draw_attempts += 1
        elif name == "presentation.load_graph":
            load_graph.append(dur)
        elif name == "conjugacy.cyclically_reduced_conjugates":
            closures.append(work)

    def total(wl: str, prefix: str, field: str) -> float:
        return sum(getattr(s, field) for (w, n), s in sums.items() if w == wl and n.startswith(prefix))

    def of(wl: str, name: str, field: str) -> float:
        return getattr(sums[wl, name], field) if (wl, name) in sums else 0.0

    def p50_ms(wl: str, kind: str) -> float:
        return statistics.median(op_time[wl, kind]) * 1000.0

    desk = "desk-suites"
    nd = sum(len(op_time[desk, s]) for s in SUITES)
    out: dict[str, float] = {}
    for s in SUITES:
        out[f"checks.{s}_s"] = statistics.fmean(op_time[desk, s])
    draws = of(desk, "sampling.random_codes", "count")
    out["sampling.draws"] = draws / nd
    out["sampling.canon_attempts"] = draw_attempts / nd
    out["sampling.accept_ratio"] = draws / draw_attempts
    out["sampling.self_s"] = total(desk, "sampling.", "self_s") / nd
    out["elements.canon_calls"] = sum(of(desk, n, "count") for n in CANON) / nd
    out["elements.canon_letters"] = sum(of(desk, n, "work") for n in CANON) / nd
    out["elements.kernel_self_s"] = total(desk, "elements.", "self_s") / nd
    out["order.interval_calls"] = of(desk, "order.interval_codes", "count") / nd
    out["order.interval_elems"] = of(desk, "order.interval_codes", "work") / nd
    out["order.interval_self_s"] = (of(desk, "order.interval_codes", "self_s") + of(desk, "order.interval", "self_s")) / nd
    out["order.median_self_s"] = (of(desk, "order.median_codes", "self_s") + of(desk, "order.median", "self_s")) / nd
    out["order.oracle_qdir_s"] = of(desk, "order.oracle_qdir", "incl") / nd
    for fn in ("qdir", "fold_phi", "preceq"):
        out[f"dynamics.{fn}_self_s"] = of(desk, f"dynamics.{fn}", "self_s") / nd
    out["dynamics.wcontexts"] = of(desk, "dynamics.WContext", "count") / nd
    for name in ("conjugacy.cyclic_reduce", "conjugacy.max_root", "structure.prim_decompose", "structure.centralizer"):
        out[f"{name}_self_s"] = of(desk, name, "self_s") / nd

    long = "long-words"
    for kind in LONG_P50:
        out[f"{kind}_p50_ms"] = p50_ms(long, kind)
    out["elements.letters_per_s"] = sum(of(long, n, "work") for n in CANON) / sum(of(long, n, "incl") for n in CANON)
    for kind in LONG_EXP:
        slopes = []
        for fam in SCALING_FAMILIES:
            sizes = sorted(size for (k, f, size) in op_time_at if k == kind and f == fam)
            slopes.append(_slope([(size, statistics.median(op_time_at[kind, fam, size])) for size in sizes]))
        out[f"{kind}_exp"] = statistics.fmean(slopes)

    conj = "conj-roots"
    for kind in CONJ_P50:
        out[f"{kind}_p50_ms"] = p50_ms(conj, kind)
    out["conjugacy.closure_size_p50"] = statistics.median(closures)
    decisions = [op for op, (wl, kind, _, _) in enumerate(ops_log) if wl == conj and kind in DECISIONS]
    out["conjugacy.kernel_calls_per_decision"] = sum(canon_in_op[op] for op in decisions) / len(decisions)

    cli = "cli-cold"
    interp = p50_ms(cli, "extra.cli.interp")
    out["cli.interp_ms"] = interp
    out["cli.import_ms"] = p50_ms(cli, "extra.cli.import") - interp
    out["cli.main_ms"] = p50_ms(cli, "extra.cli.main")
    out["presentation.load_graph_ms"] = statistics.median(load_graph) * 1000.0
    return {name: {"value": value, "unit": LAYER[name][0]} for name, value in out.items()}
