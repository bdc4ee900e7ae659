"""Gate arrays: directed graphs of optical processing nodes.

The node classes are the device model: mode gates, splits, unitary
rotations, phase flips and combiners route classical two-mode fields. A
`GateArray` is built by hand (node and edge lists) or loaded from a circuit
file, and runs node by node. The W builder's `WArray` runs its hand-wired
broadcast in one step and spells that graph only when read. Arrays compiled
from placement tables live in ppsim.placement.

Mode gate semantics: gate A blocks both modes, gate B passes only mode 0,
gate C passes only mode 1, gate D passes both unchanged.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import _as_int
from .fields import ClassicalField, _field_slab, _fields_of

# transmission factors (mode 0, mode 1) per gate kind
_GATE_MASKS = {
    "A": np.array([0.0, 0.0], dtype=np.complex128),
    "B": np.array([1.0, 0.0], dtype=np.complex128),
    "C": np.array([0.0, 1.0], dtype=np.complex128),
    "D": np.array([1.0, 1.0], dtype=np.complex128),
}
GATE_KINDS = tuple(_GATE_MASKS)
_BLOCK = 1 << 14  # slots times fields of one block of a slab run


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


class _Array:
    """Base of every array class: `run`, the list API over `_run_slab`."""

    def run(self, inputs: list[ClassicalField]) -> list[ClassicalField]:
        """Propagate input fields through the array; outputs by index."""
        return _fields_of(self._run_slab(_field_slab(inputs, self.input_count)))


@dataclass(eq=False)
class GateArray(_Array):
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

    def _run_slab(self, slab: np.ndarray) -> np.ndarray:
        """The (N, outputs, 2) slab of outputs of an (N, inputs, 2) input slab."""
        edge_values: list[np.ndarray | None] = [None] * len(self.edges)
        out = np.empty((len(slab), self.output_count, 2), dtype=np.complex128)
        for nid in self._order:
            node = self.nodes[nid]
            taken = [edge_values[ei] for ei in self._in_edges[nid]]
            for ei in self._in_edges[nid]:
                edge_values[ei] = None  # each edge has one reader: free it once read
            if isinstance(node, Input):
                value = slab[:, node.index]
            elif isinstance(node, Output):
                out[:, node.index] = taken[0]
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
        return out


def w_array(n: int = 3) -> WArray:
    """Single shared composition copied to n outputs through a split chain.

    One source field carries sequence 1 on mode 1 and sequences 2..n on
    mode 0; a chain of n-1 two-way splits delivers a copy to every output.
    The result is a `WArray`, which runs that broadcast in one step. The W
    placement table has every cell occupied, so compiling it would tap
    every bus from every row: 4,221 nodes at n = 63 (3,969 of them gates),
    where this broadcast's graph needs 4n = 252.
    """
    return WArray(n)


def _spell_w(n: int) -> GateArray:
    """The node graph of the W broadcast: gates into one combiner, then splits."""
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


class _LazyGraphArray(_Array):
    """An array that runs without its node graph (`_run_slab`): `nodes`,
    `edges` and `node_counts()` read that graph, spelled by `_spell` as a
    validated `GateArray` on first access."""

    @functools.cached_property
    def _graph(self) -> GateArray:
        return self._spell()

    @property
    def nodes(self) -> dict[str, Node]:
        return self._graph.nodes

    @property
    def edges(self) -> list[tuple[str, str]]:
        return self._graph.edges

    def node_counts(self) -> dict[str, int]:
        """Node tally by kind name of the spelled graph (resource accounting)."""
        return self._graph.node_counts()


@dataclass(eq=False)
class WArray(_LazyGraphArray):
    """The W broadcast on n fields: the graph `_spell_w(n)` spells, run as
    one sum copied to every output."""

    n: int

    def __post_init__(self):
        self.n = _as_int(self.n)
        if self.n < 2:
            raise ValueError("need at least 2 fields")

    @property
    def input_count(self) -> int:
        return self.n

    @property
    def output_count(self) -> int:
        return self.n

    def _spell(self) -> GateArray:
        return _spell_w(self.n)

    def _run_slab(self, slab: np.ndarray) -> np.ndarray:
        """The (N, n, 2) output slab of an (N, n, 2) input slab: the source in every output.

        The source is input 1 through gate C plus inputs 2..n through gate
        B, summed from +0 in that order (the combiner). It never holds a
        -0, so each unit-gain split copies it exactly. Slots go in blocks,
        so temporaries stay cache-sized.
        """
        masks = _GATE_MASKS["B"][None].repeat(self.n, axis=0)
        masks[0] = _GATE_MASKS["C"]
        out = np.empty(slab.shape, dtype=np.complex128)
        width = max(1, _BLOCK // self.n)
        for lo in range(0, len(slab), width):
            terms = slab[lo : lo + width] * masks
            terms[:, 0] += 0.0
            np.add.accumulate(terms, axis=1, out=terms)
            out[lo : lo + width] = terms[:, -1:]
        return out
