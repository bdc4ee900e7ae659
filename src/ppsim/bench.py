"""Benchmark harness: measured node counts and wall times, never asserted.

Complexity claims are out of scope for the test suite; this module only
reports what a run actually cost so regressions are visible to a human.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    GroverDatabase,
    ShorInstance,
    _search_table,
    builder_for,
    grover_search,
    shor_encode,
    shor_factor,
    typical_state,
)
from .placement import compile_placement
from .sequences import build_pps_set, degree_for


@dataclass
class BenchReport:
    """One measured pipeline run: label, node tally, and wall time."""

    label: str
    node_counts: dict[str, int]
    wall_seconds: float

    def line(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.node_counts.items()))
        return f"{self.label}: {self.wall_seconds * 1e3:8.2f} ms  [{parts}]"


def bench_typical(kind: str, n: int | None = None) -> BenchReport:
    array = builder_for(kind, n)
    size = array.input_count
    pset = build_pps_set(degree_for(size))
    start = time.perf_counter()
    typical_state(kind, pset, n)
    elapsed = time.perf_counter() - start
    return BenchReport(f"state({kind},n={size})", array.node_counts(), elapsed)


def bench_shor(modulus: int = 15, base: int = 7) -> BenchReport:
    inst = ShorInstance(modulus, base)
    pset = build_pps_set(degree_for(inst.register_width))
    array = compile_placement(shor_encode(inst, pset), pset)
    start = time.perf_counter()
    shor_factor(inst, pset)
    elapsed = time.perf_counter() - start
    return BenchReport(f"factor({modulus},{base})", array.node_counts(), elapsed)


def bench_grover(width: int = 8, entry_count: int = 13, seed: int = 0) -> BenchReport:
    rng = np.random.default_rng(seed)
    entries = tuple(
        int(x) for x in rng.choice(1 << width, size=entry_count, replace=False)
    )
    db = GroverDatabase(width, entries)
    pset = build_pps_set(degree_for(width))
    array = compile_placement(_search_table(db, entries[0]), pset)
    start = time.perf_counter()
    grover_search(db, entries[0], pset)
    elapsed = time.perf_counter() - start
    return BenchReport(f"search(w={width},k={entry_count})", array.node_counts(), elapsed)


def run_benchmarks() -> list[BenchReport]:
    """The default desk-scale suite."""
    return [
        bench_typical("psi+"),
        bench_typical("ghz", 3),
        bench_typical("w", 3),
        bench_typical("product", 2),
        bench_shor(15, 7),
        bench_grover(8, 13),
    ]


def format_reports(reports: list[BenchReport]) -> str:
    return "\n".join(r.line() for r in reports)
