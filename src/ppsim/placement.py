"""Placement tables and the gate arrays compiled from them.

A placement table records which sequence rides which mode of which output
field. `compile_placement` turns it into a `CompiledArray`: the table plus
one tap table of its gate chains, which runs from them and spells its node
graph (a `GateArray`) only when asked. One writer, `_place`, puts kets on
rotations; the named builders and the factoring encoder write through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .demod import SignGrid
from .errors import DimensionMismatchError, _as_int
from .gates import (
    _BLOCK,
    _GATE_MASKS,
    GATE_KINDS,
    Combine,
    GateArray,
    Input,
    ModeGate,
    Node,
    Output,
    PhaseFlip,
    Split,
    _LazyGraphArray,
)
from .reconstruct import rotation_columns
from .sequences import PpsSet

_MASK_ROWS = np.array(list(_GATE_MASKS.values()))  # indexed like GATE_KINDS
_A, _B, _C, _D = range(len(GATE_KINDS))


@dataclass(eq=False)
class PlacementTable(SignGrid):
    """Square sign grid: cell (i, j) places sequence j onto field i.

    cells[i-1, j-1] = (a, b) means sequence j rides mode 0 of output
    field i with sign a and mode 1 with sign b; (0, 0) means absent.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.cells.shape[0] != self.cells.shape[1]:
            raise DimensionMismatchError("placement cells must have shape (n, n, 2)")

    @property
    def size(self) -> int:
        return int(self.cells.shape[0])

    @classmethod
    def from_status_matrix(cls, matrix) -> "PlacementTable":
        """Adopt the quantized signs of a measured mode status matrix."""
        return cls(matrix.signs())


def compile_placement(table: PlacementTable, pset: PpsSet) -> CompiledArray:
    """Compile a placement table into a gate array.

    Input bus j carries sequence j on both modes (the canonical input).
    Each nonzero cell becomes a gate chain tapping that bus: equal signs
    use gate D, a lone mode-0 sign uses gate B, a lone mode-1 sign uses
    gate C, and opposite signs use a B branch plus a C branch. Negative
    signs append a phase flip. Buses with several consumers fan out
    through a unit-gain split; rows with several terms merge through a
    combiner. An empty row blocks its own bus with gate A; a bus no cell
    consumes is likewise terminated into gate A and its zero output joins
    the same-numbered row.

    The result is a `CompiledArray`: it keeps the table and one tap table
    of these chains, runs from them, and spells the node graph only when
    its nodes or edges are read. A measured status matrix is not a
    placement table; adopt its signs with `PlacementTable.from_status_matrix`.
    """
    array = CompiledArray(table)
    if array.input_count > pset.usable_count:
        raise DimensionMismatchError(
            f"table needs {array.input_count} sequences, set provides {pset.usable_count}"
        )
    return array


def _tap_table(cells: np.ndarray) -> np.ndarray:
    """The gate chains of an (n, n, 2) sign grid, by the rules of compile_placement.

    One (row, bus, kind, flip) entry per chain, 0-based, kind indexing
    GATE_KINDS, in the order the chains are created: occupied cells
    row-major, a cell's D or B chain before its C chain; then the blocking
    A gate of each empty row; then that of each bus still unconsumed.
    """
    a, b = cells[..., 0], cells[..., 1]
    live = np.stack([a != 0, (b != 0) & (a != b)], axis=2)
    kind = np.stack([np.where(a == b, _D, _B), np.full(a.shape, _C)], axis=2)
    flip = np.stack([a < 0, b < 0], axis=2)
    i, j, s = np.nonzero(live)
    empty_rows = np.flatnonzero(~live.any(axis=(1, 2)))
    consumed = np.zeros(len(cells), dtype=bool)
    consumed[j] = True
    consumed[empty_rows] = True
    blocked = np.concatenate([empty_rows, np.flatnonzero(~consumed)])
    chains = np.stack([i, j, kind[i, j, s], flip[i, j, s]], axis=1)
    gates = np.stack([blocked, blocked, np.full_like(blocked, _A), np.zeros_like(blocked)], axis=1)
    return np.concatenate([chains, gates]).astype(np.intp)


def _spell_graph(n: int, chains: np.ndarray) -> GateArray:
    """The node graph that a tap table's chains wire, ids 1-based."""
    nodes: dict[str, Node] = {}
    edges: list[tuple[str, str]] = []
    bus_taps: dict[int, list[str]] = {j: [] for j in range(1, n + 1)}
    row_terms: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    for i, j, k, negate in (chains + [1, 1, 0, 0]).tolist():
        kind = GATE_KINDS[k]
        gid = f"g{kind}_{i}_{j}"
        nodes[gid] = ModeGate(kind)
        tail = gid
        if negate:
            fid = f"flip{kind}_{i}_{j}"
            nodes[fid] = PhaseFlip()
            edges.append((gid, fid))
            tail = fid
        bus_taps[j].append(gid)
        row_terms[i].append(tail)
    for j in range(1, n + 1):
        bid = f"in{j}"
        nodes[bid] = Input(j - 1)
        taps = bus_taps[j]
        if len(taps) == 1:
            edges.append((bid, taps[0]))
        else:
            sid = f"split{j}"
            nodes[sid] = Split(len(taps))
            edges.append((bid, sid))
            edges.extend((sid, tap) for tap in taps)
    for i in range(1, n + 1):
        oid = f"out{i}"
        nodes[oid] = Output(i - 1)
        terms = row_terms[i]
        if len(terms) == 1:
            edges.append((terms[0], oid))
        else:
            cid = f"comb{i}"
            nodes[cid] = Combine(len(terms))
            edges.extend((term, cid) for term in terms)
            edges.append((cid, oid))
    return GateArray(nodes, edges)


@dataclass(eq=False)
class CompiledArray(_LazyGraphArray):
    """A placement table compiled into gate chains, run from its tap table.

    `taps` holds one (row, bus, kind, flip) entry per gate chain of
    compile_placement, 0-based, kind indexing GATE_KINDS, in creation
    order. `run` gives the outputs of the node graph those chains wire,
    byte for byte, without building it; the graph is spelled from the taps.
    """

    table: PlacementTable

    def __post_init__(self):
        if not isinstance(self.table, PlacementTable):
            raise TypeError(
                f"a compiled array takes a PlacementTable, got {type(self.table).__name__};"
                " adopt a status matrix's signs with PlacementTable.from_status_matrix"
            )
        if not self.table.size:
            raise ValueError("array needs at least one input and one output")
        self.taps = _tap_table(self.table.cells)
        self.taps.flags.writeable = False

    @property
    def input_count(self) -> int:
        return self.table.size

    @property
    def output_count(self) -> int:
        return self.table.size

    def _spell(self) -> GateArray:
        return _spell_graph(self.table.size, self.taps)

    @functools.cached_property
    def _depths(self) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
        """(rank, split, steps). Rows are ordered by term count, most first
        (stable), and rank[i] is row i's place in that order. split[j] is
        whether bus j has several taps. Per tap depth d, steps[d] is the
        (bus, mask, flip) of term d of each row of more than d terms, in
        that order: a prefix of it. flip is None where no such term has it."""
        n = self.table.size
        # by row; the sort is stable, so a row's taps keep their creation order
        row, bus, kind, flip = self.taps[np.argsort(self.taps[:, 0], kind="stable")].T
        counts = np.bincount(row, minlength=n)
        order = np.argsort(-counts, kind="stable")
        first = np.cumsum(counts) - counts  # each row's first tap
        steps = []
        for d in range(counts.max()):
            taps = first[order[: np.count_nonzero(counts > d)]] + d
            flips = flip[taps, None] == 1
            steps.append((bus[taps], _MASK_ROWS[kind[taps]], flips if flips.any() else None))
        return np.argsort(order), np.bincount(bus, minlength=n) > 1, steps

    def _run_slab(self, slab: np.ndarray) -> np.ndarray:
        """The (N, n, 2) output slab of an (N, n, 2) input slab, one step per tap depth.

        A bus with several taps is first multiplied by 1.0 (the unit-gain
        split), once per block. A row's terms are its taps in creation
        order. A term is its bus, times its gate's mask, negated if
        flipped; a row of several terms sums them from +0 in that order
        (the combiner), and a row of one is its term. Slots go in blocks,
        so temporaries stay cache-sized.
        """
        rank, split, steps = self._depths
        gain = split.any()
        unsplit = None if split.all() else ~split[:, None]  # buses the gain skips
        out = np.empty(slab.shape, dtype=np.complex128)
        width = max(1, _BLOCK // slab.shape[1])
        for lo in range(0, len(slab), width):
            part = slab[lo : lo + width]
            if gain:
                gained = part * 1.0
                if unsplit is not None:
                    np.copyto(gained, part, where=unsplit)
                part = gained
            for depth, (bus, masks, flip) in enumerate(steps):
                values = np.take(part, bus, axis=1)
                np.multiply(values, masks, out=values)
                if flip is not None:
                    np.negative(values, out=values, where=flip)
                if depth:
                    terms[:, : len(bus)] += values
                    continue
                terms = values
                if len(steps) > 1:  # rows of several terms sum from +0
                    terms[:, : len(steps[1][0])] += 0.0
            np.take(terms, rank, axis=1, out=out[lo : lo + width], mode="clip")
        return out


def _msb_bits(values, width: int) -> np.ndarray:
    """(len(values), width) bits, MSB first; read from bytes, so any width works."""
    size = (width + 7) // 8
    raw = b"".join(int(v).to_bytes(size, "big") for v in values)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).reshape(-1, 8 * size)
    return bits[:, 8 * size - width :]


def _place(n: int, kets, rotations, signs=1) -> PlacementTable:
    """The n x n table on which ket k (field 1 its MSB) rides rotation rotations[k].

    Field i of the ket sets mode bit_i of cell (i, R(i)), R = rotations[k]
    (`rotation_columns`). Kets sharing a cell merge, so a cell hit on both
    modes reads (1, 1). signs[k] goes on the ket's last-field cell.
    """
    columns = rotation_columns(n, rotations)  # [i, k]
    bits = _msb_bits(kets, n).T  # [i, k]
    cells = np.zeros((n, n, 2), dtype=np.int8)
    cells[np.arange(n)[:, None], columns, bits] = 1
    cells[n - 1, columns[-1], bits[-1]] = signs
    return PlacementTable(cells)


def product_array(n: int) -> CompiledArray:
    """n parallel pass-through gates: field i keeps sequence i on both modes."""
    n = _as_int(n)
    if n < 1:
        raise ValueError("need at least one field")
    return CompiledArray(_place(n, [0, (1 << n) - 1], [1, 1]))


BELL_VARIANTS = ("psi+", "psi-", "phi+", "phi-")


def _construction_name(name: str) -> str:
    """A construction name stripped, lower-cased and without a "bell" prefix."""
    if not isinstance(name, str):
        raise ValueError(f"construction name must be a string, got {name!r}")
    token = name.strip().lower()
    return token[4:].lstrip(" -:") if token.startswith("bell") else token


def bell_array(variant: str = "psi+") -> CompiledArray:
    """Two-field array preparing one of the four maximally paired states:
    psi+- = |00> +- |11> and phi+- = |01> +- |10>, the first ket on R_1 and
    the second on R_2."""
    v = _construction_name(variant)
    if v not in BELL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {BELL_VARIANTS}")
    kets = [0b00, 0b11] if v.startswith("psi") else [0b01, 0b10]
    return CompiledArray(_place(2, kets, [1, 2], [1, -1 if v.endswith("-") else 1]))


def ghz_array(n: int = 3) -> CompiledArray:
    """Cyclic chain: field i gets sequence i on mode 0, sequence i+1 on mode 1
    (rotation R_1 carries |0...0>, rotation R_2 carries |1...1>)."""
    n = _as_int(n)
    if n < 3:
        raise ValueError("chain needs at least 3 fields; use bell_array for pairs")
    return CompiledArray(_place(n, [0, (1 << n) - 1], [1, 2]))
