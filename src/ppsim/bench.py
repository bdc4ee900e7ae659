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


def _timed(label: str, array, call) -> BenchReport:
    """Time `call()` and tally the nodes of `array`, the array it runs."""
    start = time.perf_counter()
    call()
    elapsed = time.perf_counter() - start
    return BenchReport(label, array.node_counts(), elapsed)


def bench_typical(kind: str, n: int | None = None) -> BenchReport:
    array = builder_for(kind, n)
    pset = build_pps_set(degree_for(array.input_count))
    label = f"state({kind},n={array.input_count})"
    return _timed(label, array, lambda: typical_state(kind, pset, n))


def bench_shor() -> BenchReport:
    inst = ShorInstance(15, 7)
    pset = build_pps_set(degree_for(inst.register_width))
    array = compile_placement(shor_encode(inst, pset), pset)
    return _timed("factor(15,7)", array, lambda: shor_factor(inst, pset))


def bench_grover() -> BenchReport:
    """A query for the first of 13 distinct 8-bit entries drawn at seed 0."""
    entries = tuple(int(x) for x in np.random.default_rng(0).choice(256, 13, replace=False))
    db = GroverDatabase(8, entries)
    pset = build_pps_set(degree_for(8))
    array = compile_placement(_search_table(db, entries[0]), pset)
    return _timed("search(w=8,k=13)", array, lambda: grover_search(db, entries[0], pset))


def run_benchmarks() -> list[BenchReport]:
    """The default desk-scale suite."""
    return [
        bench_typical("psi+"),
        bench_typical("ghz", 3),
        bench_typical("w", 3),
        bench_typical("product", 2),
        bench_shor(),
        bench_grover(),
    ]


def format_reports(reports: list[BenchReport]) -> str:
    return "\n".join(r.line() for r in reports)
