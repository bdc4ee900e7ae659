"""The four workloads: their PPS sets, their seeded ops, and each op three ways.

An op is one user-level pipeline call. `run` makes the one call through
ppsim's public pipeline function; `staged` makes the same pipeline out of
the public stage functions, in the order the pipeline calls them, each in a
span; `check` tests the one-call output against checks.py. A workload's
`plan(seed)` gives one round of ops; a run repeats whole rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ppsim import (
    GroverDatabase,
    ShorInstance,
    apply_mode_gate,
    bell_array,
    build_pps_set,
    canonical_inputs,
    compile_placement,
    ghz_array,
    grover_search,
    grover_symbolic,
    load_pps_set,
    mode_status_matrix,
    period_from_state,
    product_array,
    reconstruct,
    sample_measurement,
    save_pps_set,
    sequence_product,
    shor_encode,
    shor_factor,
    to_waveform,
    typical_state,
    w_array,
)

import checks

BELL = ("psi+", "psi-", "phi+", "phi-")
BUILDERS = {"ghz": ghz_array, "w": w_array, "product": product_array}


def degree_for(width: int) -> int:
    """Smallest set degree with at least `width` usable sequences."""
    return max(2, width.bit_length())


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def build_sets(degrees, via_file: Path | None, tracer=None) -> dict:
    """Build every PPS set of a workload and compute its carriers.

    With `via_file`, each set is saved as a PPS text file and loaded back,
    and the loaded copy is the one the ops use.
    """
    call = tracer.call if tracer else _untraced
    sets = {}
    for d in degrees:
        pset = call("sequences.build", build_pps_set, d)
        if via_file is not None:
            path = via_file / f"degree{d}.pps"
            call("fileformats.pps_save", save_pps_set, pset, path)
            pset = call("fileformats.pps_load", load_pps_set, path)
            path.unlink()
        call("sequences.build", lambda p: p.carriers, pset)
        sets[d] = pset
    return sets


def set_bytes(sets: dict) -> int:
    """Computed bytes of bit rows (uint8) plus carriers (complex128)."""
    return sum(p.length * p.length * (1 + 16) for p in sets.values())


def check_sets(sets: dict, seed: int) -> None:
    """Row 1 against an LFSR run; a seeded sample of carrier pairs."""
    rng = random.Random(seed)
    for d, pset in sets.items():
        checks.check_row_one(d, pset.polynomial, pset.bit_rows[1])
        n = pset.length
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(16)]
        pairs += [(j, j) for j in (1, n - 1)]
        checks.check_carrier_pairs(d, pset.carriers, pairs)


def same_matrix(a, b) -> bool:
    return bool(np.array_equal(a.signs(), b.signs()))


def _count_demod(tracer, fields: int, refs: int, length: int) -> None:
    tracer.add("demod.cells", fields * refs)
    tracer.add("demod.macs", fields * refs * length * 2)


@dataclass
class StateOp:
    """typical_state, then a batch of seeded sample_measurement draws."""

    kind: str
    n: int
    degree: int
    draws: int = 0
    draw_seed: int = 0

    def run(self, sets):
        pset = sets[self.degree]
        ts = typical_state(self.kind, pset, self.n)
        rng = np.random.default_rng(self.draw_seed)
        samples = [sample_measurement(ts.matrix, rng) for _ in range(self.draws)]
        return ts.matrix, ts.state, samples

    def staged(self, sets, tr):
        pset = sets[self.degree]
        if self.kind in BELL:
            array = tr.call("gates.compile", bell_array, self.kind)
        else:
            array = tr.call("gates.compile", BUILDERS[self.kind], self.n)
        tr.add("gates.nodes", len(array.nodes))
        inputs = tr.call("fields.inputs", canonical_inputs, pset, self.n)
        outputs = tr.call("gates.run", array.run, inputs)
        matrix = tr.call("demod.matrix", mode_status_matrix, outputs, pset=pset)
        _count_demod(tr, self.n, self.n, pset.length)
        state = tr.call("reconstruct.state", reconstruct, matrix)
        tr.add("reconstruct.kets", len(state.terms))
        rng = np.random.default_rng(self.draw_seed)
        samples = [
            tr.call("reconstruct.sample", sample_measurement, matrix, rng)
            for _ in range(self.draws)
        ]
        return matrix, state, samples

    def count(self, out, tr) -> None:
        """Rotations with no zero status, which every draw recomputes."""
        if self.draws:
            nonzero = np.any(out[0].signs() != 0, axis=2)
            rows = np.arange(self.n)
            usable = sum(
                bool(nonzero[rows, (rows + r) % self.n].all()) for r in range(self.n)
            )
            tr.add("reconstruct.draws", self.draws)
            tr.add("reconstruct.usable_rotations", usable * self.draws)

    def check(self, out, sets) -> None:
        _, state, samples = out
        checks.check_state(self.kind, self.n, state.terms)
        checks.check_samples(self.kind, self.n, samples)

    @staticmethod
    def same(a, b) -> bool:
        return same_matrix(a[0], b[0]) and a[1].terms == b[1].terms and a[2] == b[2]


@dataclass
class FactorOp:
    """shor_factor on one (N, a) instance that meets the preconditions."""

    modulus: int
    base: int
    degree: int

    def run(self, sets):
        return shor_factor(ShorInstance(self.modulus, self.base), sets[self.degree])

    def staged(self, sets, tr):
        pset = sets[self.degree]
        inst = ShorInstance(self.modulus, self.base)
        table = tr.call("algorithms.shor_encode", shor_encode, inst, pset)
        array = tr.call("gates.compile", compile_placement, table, pset)
        tr.add("gates.nodes", len(array.nodes))
        inputs = tr.call("fields.inputs", canonical_inputs, pset, inst.register_width)
        outputs = tr.call("gates.run", array.run, inputs)
        matrix = tr.call("demod.matrix", mode_status_matrix, outputs, pset=pset)
        _count_demod(tr, inst.register_width, inst.register_width, pset.length)
        state = tr.call("reconstruct.state", reconstruct, matrix)
        tr.add("reconstruct.kets", len(state.terms))
        return matrix, state, period_from_state(state, inst.f_bits)

    def check(self, res, sets) -> None:
        checks.check_factor(self.modulus, self.base, res.period, res.factors)

    @staticmethod
    def same(res, staged) -> bool:
        matrix, state, period = staged
        return (
            same_matrix(res.matrix, matrix)
            and res.state.terms == state.terms
            and res.period == period
        )


@dataclass
class SearchOp:
    """grover_search for one query against one database."""

    db: GroverDatabase
    query: int
    degree: int

    def run(self, sets):
        return grover_search(self.db, self.query, sets[self.degree])

    def staged(self, sets, tr):
        pset = sets[self.degree]
        width = self.db.width
        encoded = tr.call(
            "symbolic.encode",
            lambda: [to_waveform(sf, pset) for sf in grover_symbolic(self.db)],
        )
        kinds = ["C" if (self.query >> (width - k)) & 1 else "B" for k in range(1, width + 1)]
        gated = tr.call(
            "gates.mode_gate",
            lambda: [apply_mode_gate(f, g) for f, g in zip(encoded, kinds)],
        )
        matrix = tr.call("demod.matrix", mode_status_matrix, gated, pset=pset)
        _count_demod(tr, width, width, pset.length)
        return matrix

    def check(self, res, sets) -> None:
        checks.check_search(
            self.db.width, self.db.rotations, self.query, res.found, res.witness
        )

    def count(self, res, tr) -> None:
        if self.query not in self.db.rotations:
            tr.add("algorithms.collisions", int(res.found))

    @staticmethod
    def same(res, matrix) -> bool:
        return same_matrix(res.matrix, matrix)


@dataclass
class ProductOp:
    """sequence_product closure lookup of two sequence indices."""

    i: int
    j: int
    degree: int

    def run(self, sets):
        return sequence_product(self.i, self.j, sets[self.degree])

    def staged(self, sets, tr):
        return tr.call("sequences.product", sequence_product, self.i, self.j, sets[self.degree])

    def check(self, k, sets) -> None:
        checks.check_product(sets[self.degree].bit_rows, self.i, self.j, k)

    @staticmethod
    def same(a, b) -> bool:
        return a == b


@dataclass
class Workload:
    name: str
    degrees: tuple[int, ...]  # the PPS sets it builds
    via_file: bool  # set-up saves each set as a PPS file and loads it back
    plan: object  # callable(seed) -> the ops of one round


def plan_entangle(seed: int) -> list:
    rng = random.Random(seed)
    specs = [(v, 2) for v in BELL]
    specs += [("ghz", n) for n in range(3, 64)]
    specs += [("w", n) for n in range(2, 64, 2)]
    specs += [("product", n) for n in range(1, 17)]
    ops = [StateOp(k, n, 6, draws=8, draw_seed=rng.randrange(1 << 30)) for k, n in specs]
    rng.shuffle(ops)
    return ops


FACTOR_PER_STRATUM = 4


def factor_pool() -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Every (N, a) with 15 <= N <= 511 that meets the preconditions, by
    (register width, order): an op's cost follows its width and order."""
    pool: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for modulus in range(15, 512):
        width = checks.register_width(modulus)
        for base in range(2, modulus):
            r = checks.shor_preconditions(modulus, base)
            if r is not None:
                pool.setdefault((width, r), []).append((modulus, base))
    return pool


def plan_factor(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for (width, _), instances in sorted(factor_pool().items()):
        for modulus, base in rng.choices(instances, k=FACTOR_PER_STRATUM):
            ops.append(FactorOp(modulus, base, degree_for(width)))
    rng.shuffle(ops)
    return ops


SEARCH_WIDTHS = range(8, 32)


def plan_search(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for width in SEARCH_WIDTHS:
        entries: list[int] = []
        while len(entries) < 2 * width:
            x = rng.randrange(1 << width)
            if x not in entries:
                entries.append(x)
        rotations = {x: k % width + 1 for k, x in enumerate(entries)}
        db = GroverDatabase(width, entries, rotations)
        queries = rng.sample(entries, 3)
        while len(queries) < 6:
            x = rng.randrange(1 << width)
            if x not in rotations and x not in queries:
                queries.append(x)
        ops += [SearchOp(db, q, degree_for(width)) for q in queries]
    rng.shuffle(ops)
    return ops


SPREAD_DEGREES = (10, 11, 12)


def plan_spread(seed: int) -> list:
    rng = random.Random(seed)
    ops: list = []
    for d in SPREAD_DEGREES:
        ops += [StateOp(kind, n, d) for kind in ("ghz", "w") for n in range(3, 64, 20)]
        ops += [StateOp("product", n, d) for n in (8, 12)]
        top = (1 << d) - 1
        ops += [ProductOp(rng.randint(1, top), rng.randint(1, top), d) for _ in range(26)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("entangle", (6,), False, plan_entangle),
        Workload("factor", (4, 5), False, plan_factor),
        Workload("search", (4, 5), False, plan_search),
        Workload("spread", SPREAD_DEGREES, True, plan_spread),
    )
}
