"""Benchmark of the ppsim pipelines: one workload per run, or all of them.

    python3 perfbench/run.py --workload entangle --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run builds the workload's PPS sets (set-up), then repeats whole rounds of
the workload's seeded ops for at least --seconds (default: run_seconds of
BENCHMARK.json), checking every op's output; a set-up shorter than 50 ms is
built again after every round. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it times each op untraced, replays it stage by stage inside spans,
checks that both give the same results, reports the per-layer metrics and
writes the spans to perfbench/out/. The last line of stdout is one JSON
object. ppsim is imported from src/ of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("entangle", "factor", "search", "spread")
MIN_ROUND_OPS = 100  # so that at least ten op latencies lie beyond p90
MIN_ROUNDS = 3  # each op's latency is its best of at least this many calls
STRETCH_OPS = 12  # ops_per_s times a round in stretches of this many consecutive ops
SETUP_BATCH_SECONDS = 0.05  # how long set-up repeats after each round


def import_ppsim() -> None:
    """Put the checkout's src/ first on the path; fail if ppsim is not there."""
    src = ROOT / "src"
    if not (src / "ppsim" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no ppsim sources under {src}")
    sys.path.insert(0, str(src))
    import ppsim

    if Path(ppsim.__file__).resolve().parent != src / "ppsim":
        raise SystemExit(f"run.py: imported ppsim from {ppsim.__file__}, not {src}")


class SetUp:
    """Builds the workload's sets and times each build.

    The first build's sets are the ones the ops use. If that build took
    less than SETUP_BATCH_SECONDS, `again` repeats it for that long after
    every round, so that the repetitions are spread over the run like the
    ops' calls rather than bunched at its start. A longer build is timed
    once.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.seconds: list[float] = []
        self.sets = self.build()

    def build(self) -> dict:
        from workloads import build_sets

        if self.tracer is not None:
            self.tracer.op = -1 - len(self.seconds)
        with contextlib.ExitStack() as stack:
            via_file = None
            if self.workload.via_file:
                OUT.mkdir(exist_ok=True)
                via_file = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=OUT)))
            start = time.perf_counter()
            sets = build_sets(self.workload.degrees, via_file, self.tracer)
            self.seconds.append(time.perf_counter() - start)
        if self.tracer is not None:
            self.tracer.op = -1
        return sets

    def again(self) -> None:
        if self.seconds[0] >= SETUP_BATCH_SECONDS:
            return
        start = time.perf_counter()
        while time.perf_counter() - start < SETUP_BATCH_SECONDS:
            self.build()


class Loop:
    """Repeats whole rounds of ops and keeps the per-run accounting."""

    def __init__(self, ops, sets):
        self.ops = ops
        self.sets = sets
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.errors: list[str] = []
        self.rounds = 0

    def call(self, op):
        """One op through ppsim's pipeline function; None if it raised."""
        self.attempted += 1
        try:
            return op.run(self.sets)
        except Exception as exc:  # counted per type; the run goes on
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            self.failures[type(exc).__name__] += 1
            return None

    def check(self, op, out) -> None:
        from checks import CheckError

        try:
            op.check(out, self.sets)
        except CheckError as exc:
            self.errors.append(str(exc))

    def check_sets(self, seed: int) -> None:
        from checks import CheckError
        from workloads import check_sets

        try:
            check_sets(self.sets, seed)
        except CheckError as exc:
            self.errors.append(str(exc))

    def repeat(self, seconds: float, step, between) -> None:
        """Call step(k, op) on every op of the round, for whole rounds, and
        between() after each round. step returns the op's output, or None
        if the op raised; the output is checked at once."""
        start = time.perf_counter()
        while self.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            for k, op in enumerate(self.ops):
                out = step(k, op)
                if out is not None:
                    self.check(op, out)
            self.rounds += 1
            between()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def untraced(workload, ops, seed: int, seconds: float):
    setup = SetUp(workload)
    loop = Loop(ops, setup.sets)
    loop.check_sets(seed)
    latencies: list[list[float]] = [[] for _ in ops]  # per op, per round; 0 if it raised

    def step(k, op):
        start = time.perf_counter()
        out = loop.call(op)
        latencies[k].append(0.0 if out is None else time.perf_counter() - start)
        return out

    loop.repeat(seconds, step, setup.again)
    # Every round repeats the same ops and every set-up the same build, so
    # the fastest call and set-up are the ones with the least interference
    # from the rest of the machine. Throughput takes the fastest round of
    # each stretch of consecutive ops, so that it counts what one op leaves
    # the next to pay for, without needing a whole round free of
    # interference.
    best = [min(t for t in calls if t) for calls in latencies if any(calls)]
    if len(best) < 2:
        return loop, {}
    stretches = [latencies[j:j + STRETCH_OPS] for j in range(0, len(ops), STRETCH_OPS)]
    fastest = sum(min(map(sum, zip(*stretch))) for stretch in stretches)
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    metrics = {
        "setup_s": (min(setup.seconds), "s"),
        "ops_per_s": (len(best) / fastest, "ops/s"),
        "op_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "op_ms_p90": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return loop, metrics


def traced(workload, ops, seed: int, seconds: float, label: str):
    from spans import Tracer
    from workloads import set_bytes

    tracer = Tracer()
    setup = SetUp(workload, tracer)
    sets = setup.sets
    loop = Loop(ops, sets)
    loop.check_sets(seed)
    index_of: dict[int, int] = {}  # op id -> position of the op in the round
    plain: list[list[float]] = [[] for _ in ops]  # one-call seconds per op
    staged_wall = 0.0

    def step(k, op):
        nonlocal staged_wall
        start = time.perf_counter()
        out = loop.call(op)
        if out is None:
            return None
        plain[k].append(time.perf_counter() - start)
        tracer.op = loop.attempted
        index_of[loop.attempted] = k
        start = time.perf_counter()
        try:
            staged = tracer.call("bench.op", op.staged, loop.sets, tracer)
        except Exception as exc:
            loop.errors.append(f"staged {op}: {type(exc).__name__}: {exc}")
            return out
        finally:
            staged_wall += time.perf_counter() - start
            tracer.op = -1
        if not op.same(out, staged):
            loop.errors.append(f"staged pipeline differs from the one call: {op}")
        count = getattr(op, "count", None)
        if count is not None:
            count(out, tracer)
        return out

    loop.repeat(seconds, step, setup.again)
    tracer.write(OUT / f"spans-{label}.json")

    # Like the end-to-end latencies, each op's time in a layer is the best of
    # its repetitions; a layer's figure sums that over the ops of one round.
    best: dict[tuple[int, str], float] = {}
    calls: Counter[str] = Counter()
    setup_spans: dict[str, list[float]] = {}  # span name -> ms in each set-up
    for (op_id, name), (sec, count) in tracer.self_seconds().items():
        if op_id < 0:
            setup_spans.setdefault(name, []).append(sec * 1e3)
            continue
        key = (index_of[op_id], name)
        if key not in best:
            calls[name] += count
        best[key] = min(best.get(key, sec), sec)
    layer: dict[str, float] = Counter()
    for (_, name), sec in best.items():
        layer[name] += sec
    done = [min(p) for p in plain if p]
    n_ops = max(len(done), 1)
    totals = tracer.totals

    def setup_ms(name):
        return min(setup_spans[name]) if name in setup_spans else 0.0

    def ms_per_op(name):
        return layer[name] * 1e3 / n_ops

    def us_per_call(name):
        return layer[name] * 1e6 / calls[name] if calls[name] else 0.0

    def per(name, base):
        return totals.get(name, 0) / base if base else 0.0

    stage_names = [n for n in layer if n != "bench.op"]
    metrics = {
        "sequences.build_ms": (setup_ms("sequences.build"), "ms"),
        "sequences.set_mb": (set_bytes(sets) / 1e6, "MB"),
        "sequences.product_us": (us_per_call("sequences.product"), "us"),
        "fileformats.pps_save_ms": (setup_ms("fileformats.pps_save"), "ms"),
        "fileformats.pps_load_ms": (setup_ms("fileformats.pps_load"), "ms"),
        "fields.inputs_ms": (ms_per_op("fields.inputs"), "ms"),
        "demod.matrix_ms": (ms_per_op("demod.matrix"), "ms"),
        "demod.cells": (per("demod.cells", len(index_of)), "count"),
        "demod.macs": (per("demod.macs", len(index_of)), "count"),
        "gates.compile_ms": (ms_per_op("gates.compile"), "ms"),
        "gates.nodes": (per("gates.nodes", len(index_of)), "count"),
        "gates.run_ms": (ms_per_op("gates.run"), "ms"),
        "gates.mode_gate_ms": (ms_per_op("gates.mode_gate"), "ms"),
        "symbolic.encode_ms": (ms_per_op("symbolic.encode"), "ms"),
        "algorithms.shor_encode_ms": (ms_per_op("algorithms.shor_encode"), "ms"),
        "algorithms.self_ms": (
            (sum(done) - sum(layer[n] for n in stage_names)) * 1e3 / n_ops, "ms"
        ),
        "algorithms.collisions": (per("algorithms.collisions", loop.rounds), "count"),
        "reconstruct.state_ms": (ms_per_op("reconstruct.state"), "ms"),
        "reconstruct.kets": (per("reconstruct.kets", len(index_of)), "count"),
        "reconstruct.sample_us": (us_per_call("reconstruct.sample"), "us"),
        "reconstruct.usable_rotations": (
            per("reconstruct.usable_rotations", totals.get("reconstruct.draws", 0)),
            "count",
        ),
        "trace.overhead_s": (staged_wall - sum(sum(p) for p in plain), "s"),
    }
    return loop, metrics


def run_one(args) -> int:
    import_ppsim()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ops = workload.plan(args.seed)
    if len(ops) < MIN_ROUND_OPS:
        raise SystemExit(f"run.py: a round of {args.workload} has only {len(ops)} ops")
    label = f"{args.workload}-seed{args.seed}"
    if args.trace:
        loop, metrics = traced(workload, ops, args.seed, args.seconds, label)
    else:
        loop, metrics = untraced(workload, ops, args.seed, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  rounds {loop.rounds} of {len(ops)} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(f"  ops attempted {loop.attempted}, failed {loop.failed}"
          f" {dict(sorted(loop.failures.items()))}")
    for message in loop.errors[:5]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if loop.errors:
        print(f"  check failures: {len(loop.errors)}")
    print(json.dumps({
        "correct": not loop.errors and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
