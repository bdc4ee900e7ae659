"""Gate arrays: directed graphs of optical processing nodes.

The node classes are the device model: mode gates, splits, unitary
rotations, phase flips and combiners route classical two-mode fields. Arrays
are built by hand (node and edge lists) or compiled from a placement table
that records which sequence rides which mode of which output field. The
named product, Bell and GHZ builders are their placement tables, compiled;
the W builder is a hand-wired broadcast.

Mode gate semantics: gate A blocks both modes, gate B passes only mode 0,
gate C passes only mode 1, gate D passes both unchanged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .demod import SignGrid
from .errors import DimensionMismatchError, _as_int
from .fields import ClassicalField
from .reconstruct import rotation_columns
from .sequences import PpsSet

# transmission factors (mode 0, mode 1) per gate kind
_GATE_MASKS = {
    "A": np.array([0.0, 0.0], dtype=np.complex128),
    "B": np.array([1.0, 0.0], dtype=np.complex128),
    "C": np.array([0.0, 1.0], dtype=np.complex128),
    "D": np.array([1.0, 1.0], dtype=np.complex128),
}
GATE_KINDS = tuple(_GATE_MASKS)


def apply_mode_gate(fld: ClassicalField, kind: str) -> ClassicalField:
    """Block, select, or pass the modes of a field (gate kinds A/B/C/D)."""
    return ClassicalField(fld.samples * _GATE_MASKS[ModeGate(kind).kind])


@dataclass(frozen=True)
class Input:
    """Array entry point carrying external field `index` (0-based)."""

    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", _as_int(self.index))


@dataclass(frozen=True)
class Output:
    """Array exit point delivering result field `index` (0-based)."""

    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", _as_int(self.index))


@dataclass(frozen=True)
class Split:
    """Fan one field out to `fanout` branches scaled by amplitude gains.

    Gains default to unit amplitude on every branch, which keeps compiled
    arrays exactly round-trippable; power-dividing splits pass explicit
    gains. Branch k feeds the k-th declared out-edge.
    """

    fanout: int
    gains: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "fanout", _as_int(self.fanout))
        if self.fanout < 2:
            raise ValueError("split fanout must be at least 2")
        if self.gains is not None and len(self.gains) != self.fanout:
            raise ValueError("gain count must match fanout")
        if self.gains is not None and not all(
            math.isfinite(g) and g >= 0 for g in self.gains
        ):
            raise ValueError("split gains must be finite and nonnegative")

    def branch_gains(self) -> tuple[float, ...]:
        return (1.0,) * self.fanout if self.gains is None else self.gains


@dataclass(frozen=True)
class ModeGate:
    """Mode selector of kind A, B, C, or D."""

    kind: str

    def __post_init__(self):
        if self.kind not in _GATE_MASKS:
            raise ValueError(f"unknown mode gate kind {self.kind!r}")


@dataclass(frozen=True)
class Unitary:
    """Two-mode rotation U(chi, theta) acting slotwise on (mode0, mode1).

    The matrix is cos(chi) I + i sin(chi) (sx cos(theta) - sy sin(theta)):

        [[cos chi,              i e^{i theta} sin chi],
         [i e^{-i theta} sin chi,             cos chi]]

    so U|0> = cos chi |0> + i e^{-i theta} sin chi |1>. Determinant is 1 and
    U(pi/2, theta) squares to -I for every theta.
    """

    chi: float
    theta: float

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.chi), math.sin(self.chi)
        return np.array(
            [
                [c, 1j * np.exp(1j * self.theta) * s],
                [1j * np.exp(-1j * self.theta) * s, c],
            ],
            dtype=np.complex128,
        )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi) and math.isfinite(self.theta)):
            raise ValueError("unitary parameters chi and theta must be finite")
        u = self.matrix
        if np.abs(u @ u.conj().T - np.eye(2)).max() > 1e-12:
            raise ValueError("matrix is not unitary")


@dataclass(frozen=True)
class PhaseFlip:
    """Sign inversion of both modes (pi phase shift of the whole field)."""


@dataclass(frozen=True)
class Combine:
    """Coherent sum of `fanin` incoming fields."""

    fanin: int

    def __post_init__(self):
        object.__setattr__(self, "fanin", _as_int(self.fanin))
        if self.fanin < 2:
            raise ValueError("combine fanin must be at least 2")


Node = Input | Output | Split | ModeGate | Unitary | PhaseFlip | Combine


def _degrees(node: Node) -> tuple[int, int]:
    """Required (in, out) edge counts for a node."""
    if isinstance(node, Input):
        return (0, 1)
    if isinstance(node, Output):
        return (1, 0)
    if isinstance(node, Split):
        return (1, node.fanout)
    if isinstance(node, Combine):
        return (node.fanin, 1)
    return (1, 1)


@dataclass(eq=False)
class GateArray:
    """Directed acyclic graph of processing nodes.

    `nodes` maps string ids to node objects; `edges` lists (src, dst) id
    pairs. Every node must have exactly the edge degrees its kind demands,
    input and output indexes must each cover 0..k-1 exactly once, and the
    graph must be acyclic. Split branch order follows edge declaration
    order.
    """

    nodes: dict[str, Node]
    edges: list[tuple[str, str]]

    def __post_init__(self):
        self._in_edges: dict[str, list[int]] = {nid: [] for nid in self.nodes}
        self._out_edges: dict[str, list[int]] = {nid: [] for nid in self.nodes}
        for ei, (src, dst) in enumerate(self.edges):
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge references unknown node: {(src, dst)!r}")
            self._out_edges[src].append(ei)
            self._in_edges[dst].append(ei)
        in_idx: list[int] = []
        out_idx: list[int] = []
        for nid, node in self.nodes.items():
            if not isinstance(node, Node):
                raise ValueError(
                    f"node {nid!r} ({type(node).__name__}) is not a gate-array node"
                )
            want_in, want_out = _degrees(node)
            have_in, have_out = len(self._in_edges[nid]), len(self._out_edges[nid])
            if (have_in, have_out) != (want_in, want_out):
                raise ValueError(
                    f"node {nid!r} ({type(node).__name__}) has {have_in} in /"
                    f" {have_out} out edges, expected {want_in}/{want_out}"
                )
            if isinstance(node, Input):
                in_idx.append(node.index)
            elif isinstance(node, Output):
                out_idx.append(node.index)
        if not in_idx or not out_idx:
            raise ValueError("array needs at least one input and one output")
        for kind, idx in (("input", in_idx), ("output", out_idx)):
            if sorted(idx) != list(range(len(idx))):
                raise ValueError(f"{kind} indexes must cover 0..n-1 exactly once")
        self._counts = (len(in_idx), len(out_idx))
        # Kahn's order: a node is ready once every one of its in-edges is fed
        waiting = {nid: len(ins) for nid, ins in self._in_edges.items()}
        order = [nid for nid, count in waiting.items() if not count]
        for nid in order:  # the list grows as nodes become ready
            for ei in self._out_edges[nid]:
                dst = self.edges[ei][1]
                waiting[dst] -= 1
                if not waiting[dst]:
                    order.append(dst)
        if len(order) != len(self.nodes):
            raise ValueError("array graph contains a cycle")
        self._order = tuple(order)

    @property
    def input_count(self) -> int:
        return self._counts[0]

    @property
    def output_count(self) -> int:
        return self._counts[1]

    def node_counts(self) -> dict[str, int]:
        """Node tally by kind name (resource accounting)."""
        counts = Counter(type(n).__name__ for n in self.nodes.values())
        return dict(sorted(counts.items()))

    def run(self, inputs: list[ClassicalField]) -> list[ClassicalField]:
        """Propagate input fields through the graph; outputs by index."""
        if len(inputs) != self.input_count:
            raise DimensionMismatchError(
                f"array has {self.input_count} inputs, got {len(inputs)} fields"
            )
        if len({f.slot_count for f in inputs}) > 1:
            raise DimensionMismatchError("input fields differ in length")
        edge_values: list[np.ndarray | None] = [None] * len(self.edges)
        results: list[ClassicalField | None] = [None] * self.output_count
        for nid in self._order:
            node = self.nodes[nid]
            taken = [edge_values[ei] for ei in self._in_edges[nid]]
            for ei in self._in_edges[nid]:
                edge_values[ei] = None  # each edge has one reader: free it once read
            if isinstance(node, Input):
                value = inputs[node.index].samples
            elif isinstance(node, Output):
                # an Input's array is the caller's; every other one is fresh
                (ei,) = self._in_edges[nid]
                held = isinstance(self.nodes[self.edges[ei][0]], Input)
                results[node.index] = ClassicalField(taken[0].copy() if held else taken[0])
                continue
            elif isinstance(node, Split):
                for gain, ei in zip(node.branch_gains(), self._out_edges[nid]):
                    edge_values[ei] = taken[0] * gain
                continue
            elif isinstance(node, ModeGate):
                value = taken[0] * _GATE_MASKS[node.kind]
            elif isinstance(node, Unitary):
                value = taken[0] @ node.matrix.T
            elif isinstance(node, PhaseFlip):
                value = -taken[0]
            else:  # Combine: summed in in-edge order from +0, as np.sum does
                value = taken[0] + 0.0
                for more in taken[1:]:
                    value += more
            edge_values[self._out_edges[nid][0]] = value
        return results


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


def compile_placement(table: PlacementTable, pset: PpsSet) -> GateArray:
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
    """
    n = table.size
    if n > pset.usable_count:
        raise DimensionMismatchError(
            f"table needs {n} sequences, set provides {pset.usable_count}"
        )
    return _compile_cells(table.cells)


def _compile_cells(cells: np.ndarray) -> GateArray:
    """Wire an (n, n, 2) sign grid by the rules of compile_placement."""
    n = cells.shape[0]
    nodes: dict[str, Node] = {}
    edges: list[tuple[str, str]] = []
    bus_taps: dict[int, list[str]] = {j: [] for j in range(1, n + 1)}
    row_terms: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}

    def add_chain(i: int, j: int, kind: str, negate: bool) -> None:
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

    occupied = cells.any(axis=2)
    places = (np.argwhere(occupied) + 1).tolist()  # 1-based, row-major
    for (i, j), (a, b) in zip(places, cells[occupied].tolist()):
        if a == b:
            add_chain(i, j, "D", a < 0)
            continue
        if a:
            add_chain(i, j, "B", a < 0)
        if b:
            add_chain(i, j, "C", b < 0)
    # an empty row consumes its own bus through a blocking gate; then any bus
    # still unconsumed is blocked the same way and parked on its own row
    for pending in (row_terms, bus_taps):
        for k in range(1, n + 1):
            if not pending[k]:
                gid = f"gA_{k}_{k}"
                nodes[gid] = ModeGate("A")
                bus_taps[k].append(gid)
                row_terms[k].append(gid)
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


def product_array(n: int) -> GateArray:
    """n parallel pass-through gates: field i keeps sequence i on both modes."""
    n = _as_int(n)
    if n < 1:
        raise ValueError("need at least one field")
    cells = np.zeros((n, n, 2), dtype=np.int8)
    cells[range(n), range(n)] = 1
    return _compile_cells(cells)


# psi variants cross-route the inputs (field 1 gets sequence 1 on mode 0
# and sequence 2 on mode 1, field 2 the reverse); phi variants give both
# fields the same composition. The minus variants flip the sign of the
# sequence-1 term of field 2.
_BELL_TABLES = {
    "psi+": [[(1, 0), (0, 1)], [(0, 1), (1, 0)]],
    "psi-": [[(1, 0), (0, 1)], [(0, -1), (1, 0)]],
    "phi+": [[(1, 0), (0, 1)], [(1, 0), (0, 1)]],
    "phi-": [[(1, 0), (0, 1)], [(-1, 0), (0, 1)]],
}
BELL_VARIANTS = tuple(_BELL_TABLES)


def _construction_name(name: str) -> str:
    """A construction name stripped, lower-cased and without a "bell" prefix."""
    if not isinstance(name, str):
        raise ValueError(f"construction name must be a string, got {name!r}")
    token = name.strip().lower()
    return token[4:].lstrip(" -:") if token.startswith("bell") else token


def bell_array(variant: str = "psi+") -> GateArray:
    """Two-field array preparing one of the four maximally paired states."""
    v = _construction_name(variant)
    if v not in BELL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {BELL_VARIANTS}")
    return _compile_cells(np.array(_BELL_TABLES[v], dtype=np.int8))


def ghz_array(n: int = 3) -> GateArray:
    """Cyclic chain: field i gets sequence i on mode 0, sequence i+1 on mode 1
    (rotation R_1 carries |0...0>, rotation R_2 carries |1...1>)."""
    n = _as_int(n)
    if n < 3:
        raise ValueError("chain needs at least 3 fields; use bell_array for pairs")
    cells = np.zeros((n, n, 2), dtype=np.int8)
    cells[np.arange(n)[:, None], rotation_columns(n, [1, 2]), [0, 1]] = 1
    return _compile_cells(cells)


def w_array(n: int = 3) -> GateArray:
    """Single shared composition copied to n outputs through a split chain.

    One source field carries sequence 1 on mode 1 and sequences 2..n on
    mode 0; a chain of n-1 two-way splits delivers a copy to every output.
    The W placement table has every cell occupied, so compiling it would
    tap every bus from every row: 4,221 nodes at n = 63 (3,969 of them
    gates), where this broadcast needs 4n = 252.
    """
    n = _as_int(n)
    if n < 2:
        raise ValueError("need at least 2 fields")
    nodes: dict[str, Node] = {}
    edges: list[tuple[str, str]] = []
    for i in range(1, n + 1):
        nodes[f"in{i}"] = Input(i - 1)
    nodes["gC1"] = ModeGate("C")
    edges.append(("in1", "gC1"))
    terms = ["gC1"]
    for i in range(2, n + 1):
        nodes[f"gB{i}"] = ModeGate("B")
        edges.append((f"in{i}", f"gB{i}"))
        terms.append(f"gB{i}")
    nodes["source"] = Combine(n)
    edges.extend((term, "source") for term in terms)
    prev = "source"
    for k in range(1, n):
        nodes[f"split{k}"] = Split(2)
        nodes[f"out{k}"] = Output(k - 1)
        edges += [(prev, f"split{k}"), (f"split{k}", f"out{k}")]
        prev = f"split{k}"
    nodes[f"out{n}"] = Output(n - 1)
    edges.append((prev, f"out{n}"))
    return GateArray(nodes, edges)
