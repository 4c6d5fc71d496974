"""raagkit benchmark: one closed-loop client, four workloads, a traced mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-suites --seed 1 --seconds 15 --trace 0

The benchmark imports raagkit from ``src/`` of the checkout it sits in.  It
builds the workload's inputs from ``--seed`` (the set-up), then runs the
workload's ops (at least 100) back to back, each timed on its own, round
after round until at least two rounds and ``--seconds`` of timed work are
done.  Every answer is checked after its round, outside the timed region.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every time is reported at reference speed: right before each op (and each
set-up process) the runner times a fixed reference computation that does
not touch raagkit, and scales the op's wall time by REF_SECONDS divided by
that reference time.  On the shared 2-vCPU machine this benchmark was built
on, the same code runs at speeds up to ~40% apart, in phases of seconds to
minutes (the process CPU time shows the same swing), so raw wall times of
identical code on identical inputs spread by 20-30% between runs; scaled
times spread by a few percent.  The raw wall figures are printed on the
line before the result.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run alternates two untraced and two traced rounds of the requested
workload (the ratio of their ops/s is ``bench.trace_overhead``), then runs
one traced round of every other workload, so that each per-layer metric
comes from the workload it belongs to; see ``layers.py``.  The spans are
written to ``.perfbench/spans-<workload>.jsonl.gz`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 2
SETUPS = 2  # set-up processes after each round
MIN_SETUPS = 6
# The reference computation's median time on the machine the benchmark was
# built on; it only sets the scale of the reported times.
REF_SECONDS = 0.0007


class Reference:
    """A gauge of the machine's current speed: fixed word arithmetic from
    ``words.py``, which never calls raagkit, so no change to the library
    can change its time."""

    def __init__(self):
        import families
        import words

        self._words = words
        self._alpha = words.Alphabet(families.gnp(20, 0.3))
        self._word = words.reduced_word(random.Random(0), self._alpha, 150)

    def seconds(self) -> float:
        """The fastest of three runs, so that one interruption does not skew the gauge."""
        # Garbage left by the previous op must not be collected on the gauge's clock.
        gc.disable()
        try:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                self._words.shortlex(self._alpha, self._words.reduce(self._alpha, self._word))
                best = min(best, time.perf_counter() - t0)
            return best
        finally:
            gc.enable()

    def scale(self, fn):
        """(wall seconds of ``fn()``, the same at reference speed, its result)."""
        r = self.seconds()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        return wall, wall * REF_SECONDS / r, out


class Pass:
    """One pass over a workload: every op's times per round, timed seconds, failures."""

    def __init__(self, nops: int):
        self.wall: list[list[float]] = [[] for _ in range(nops)]
        self.scaled: list[list[float]] = [[] for _ in range(nops)]
        self.timed = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0

    def op_times(self, scaled: bool = True) -> list[float]:
        """Each op's median time over the rounds, at reference speed or wall."""
        return [statistics.median(t) for t in (self.scaled if scaled else self.wall)]

    def ops_per_s(self, scaled: bool = True) -> float:
        return len(self.scaled) / sum(self.op_times(scaled))


def _attempt(call):
    try:
        return call()
    except Exception as err:  # an op that raises is a failed op, not a crashed run
        return err


def run_round(wl, rec: Pass, first, ref: Reference, tracer=None, ops_log=None) -> list:
    """One round: the workload's ops back to back, each timed, then checked.

    The first round (``first`` is None) is checked in full; later rounds
    must reproduce its outputs exactly.  Returns the first round's outputs.
    """
    outs = []
    for i, op in enumerate(wl.ops):
        if tracer is None:
            call = op.call
        else:
            ops_log.append((wl.name, op.kind, op.size, op.family))
            call = lambda n=len(ops_log) - 1, op=op: tracer.call(f"op:{op.kind}", n, op.call)
        wall, scaled, out = ref.scale(lambda: _attempt(call))
        rec.wall[i].append(wall)
        rec.scaled[i].append(scaled)
        rec.timed += wall
        outs.append(out)
    rec.rounds += 1
    for i, (op, out) in enumerate(zip(wl.ops, outs)):
        rec.attempted += 1
        why = _verdict(op, out, None if first is None else first[i])
        if why is not None:
            rec.failed += 1
            if rec.failed <= 5:
                print(f"{wl.name}: {op.kind} failed: {why}"[:400], file=sys.stderr)
    return outs if first is None else first


def run_pass(wl, seconds: float, ref: Reference, between) -> Pass:
    """Closed loop, one client: rounds until MIN_ROUNDS rounds and ``seconds``
    of timed work are done; ``between`` runs after each round, untimed."""
    rec = Pass(len(wl.ops))
    first = None
    while rec.rounds < MIN_ROUNDS or rec.timed < seconds:
        first = run_round(wl, rec, first, ref)
        between()
    return rec


def _verdict(op, out, first):
    """None for a right answer, else why it is wrong."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    if first is not None:
        return None if out == first else "output differs from the first round"
    try:
        return op.check(out)
    except Exception as err:  # a malformed answer can break the checker itself
        return f"check raised {type(err).__name__}: {err}"


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setup_seconds(workload: str, seed: int, ref: Reference) -> tuple[float, float]:
    """(wall, reference-speed) time of one fresh process that only sets the workload up.

    No timeout: ``subprocess`` polls a child with a timeout in sleeps of up
    to 50 ms, which would round every set-up time up to that grid.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    wall, scaled, _ = ref.scale(lambda: subprocess.run(argv, cwd=ROOT, check=True))
    return wall, scaled


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, wl, ref: Reference) -> tuple[Pass, dict]:
    setups: list[tuple[float, float]] = []
    rec = run_pass(wl, seconds, ref, lambda: setups.extend(_setup_seconds(workload, seed, ref) for _ in range(SETUPS)))
    while len(setups) < MIN_SETUPS:
        setups.append(_setup_seconds(workload, seed, ref))
    ms = [t * 1000.0 for t in rec.op_times()]
    wall_ms = [t * 1000.0 for t in rec.op_times(scaled=False)]
    print(
        f"{workload}: {len(ms)} ops x {rec.rounds} rounds, {rec.timed:.2f} s timed; wall figures: "
        f"{rec.ops_per_s(scaled=False):.2f} ops/s, p50 {statistics.median(wall_ms):.3f} ms, "
        f"p90 {_percentile(wall_ms, 90):.3f} ms, set-up {statistics.median(w for w, _ in setups):.4f} s"
    )
    return rec, {
        "ops_per_s": _metric(rec.ops_per_s(), "1/s"),
        "op_p50_ms": _metric(statistics.median(ms), "ms"),
        "op_p90_ms": _metric(_percentile(ms, 90), "ms"),
        "setup_s": _metric(statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": _metric(wl.peak_rss_kb() / 1024.0, "MB"),
        "ok_ratio": _metric(1.0 - rec.failed / rec.attempted, "ratio"),
    }


def traced(workload: str, seed: int, wl, workdir: str, ref: Reference) -> tuple[list[Pass], dict]:
    """MIN_ROUNDS untraced and traced rounds of ``wl`` in turn, then one
    traced round of every other workload.

    Alternating the two kinds of round exposes both to the same machine
    states, so their ratio is the tracing overhead and not the drift of the
    machine's speed.  The round count is fixed, whatever ``--seconds`` says,
    so that the spans fit in memory: one desk-suites round makes some
    hundreds of thousands.
    """
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    others = [WORKLOADS[name](seed, os.path.join(workdir, name)) for name in WORKLOADS if name != workload]
    tracer = Tracer()
    ops_log: list[tuple[str, str, int, str]] = []
    base, main = Pass(len(wl.ops)), Pass(len(wl.ops))
    first = None
    while base.rounds < MIN_ROUNDS:
        first = run_round(wl, base, first, ref)
        tracer.install()
        try:
            run_round(wl, main, first, ref, tracer, ops_log)
        finally:
            tracer.uninstall()
    passes = [base, main]
    tracer.install()
    try:
        for o in others:
            passes.append(Pass(len(o.ops)))
            run_round(o, passes[-1], None, ref, tracer, ops_log)
        for w in [wl] + others:

            def call(kind, fn, name=w.name):
                ops_log.append((name, kind, 0, ""))
                return tracer.call(f"op:{kind}", len(ops_log) - 1, fn)

            w.trace_extra(call)
    finally:
        tracer.uninstall()
    metrics = layers.per_layer(tracer, ops_log)
    metrics["bench.trace_overhead"] = _metric(main.ops_per_s() / base.ops_per_s(), "ratio")
    tracer.write(os.path.join(ROOT, ".perfbench", f"spans-{workload}.jsonl.gz"))
    print(
        f"{workload}: traced {main.ops_per_s():.2f} ops/s against {base.ops_per_s():.2f} untraced "
        f"over {base.rounds} rounds each; {len(tracer.name)} spans"
    )
    return passes, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "raagkit", "__init__.py")):
        print(f"perfbench: no raagkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import raagkit

    if not os.path.abspath(raagkit.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported raagkit from {raagkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            return 0
        ref = Reference()
        if args.trace:
            passes, metrics = traced(args.workload, args.seed, wl, workdir, ref)
        else:
            rec, metrics = end_to_end(args.workload, args.seed, args.seconds, wl, ref)
            passes = [rec]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
