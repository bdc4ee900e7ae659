"""Steadiness check: two sets of runs of the same code against BENCHMARK.json.

    python3 perfbench/steady.py

Set 1 runs every workload of BENCHMARK.json once per seed 1..10, then set 2
once per seed 11..20, one process at a time, each for run_seconds. For every
end-to-end metric it prints each set's median and its spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. It fails when a spread exceeds the metric's bound, when the
second set's median is worse than the first's by more than the bound, or
when the share of failed ops differs between the sets. The spread of
setup_s is printed but not held to its bound: set-up is timed once per run
where one build is long, and its bound guards the drift of its median
between sets. Spreads above a third of the bound are flagged as too close.
Raw results go to perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # seeds per set


def run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[list[dict]]] = {name: [] for name in names}
    for k in range(SETS):
        for name in names:
            seeds = range(k * RUNS + 1, (k + 1) * RUNS + 1)
            results[name].append([])
            for seed in seeds:
                out = run(bench["command"], name, seed, bench["run_seconds"])
                results[name][k].append(out)
                print(f"set {k + 1} {name} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in out["metrics"].items()),
                      flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    for name in names:
        sets = results[name]
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if not all(r["correct"] for s in sets for r in s):
            print(f"{name}: a run reported incorrect output")
            ok = False
        if len(set(shares)) > 1:
            print(f"{name}: failed share differs between sets: {shares}")
            ok = False
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][m]["value"] for r in s] for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            notes = []
            if max(spreads) > bound:
                notes.append("spread over bound, not gated" if m == "setup_s"
                             else "SPREAD OVER BOUND")
                ok = ok and m == "setup_s"
            elif max(spreads) > bound / 3:
                notes.append("spread over bound/3")
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            if worse > bound:
                notes.append("SECOND MEDIAN WORSE BY MORE THAN BOUND")
                ok = False
            print(f"{name:9s} {m:12s} bound {bound:.2f} medians "
                  + " ".join(f"{x:.5g}" for x in medians)
                  + " spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + f" drift {worse:+.3f}" + (" " + ", ".join(notes) if notes else ""))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
