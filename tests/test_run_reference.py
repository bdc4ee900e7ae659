"""GateArray.run against a plain per-node interpreter, on random arrays of every node kind."""
import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ppsim import (
    Combine,
    GateArray,
    Input,
    ModeGate,
    Output,
    PhaseFlip,
    Split,
    Unitary,
    canonical_inputs,
)

# transmission (mode 0, mode 1) of each mode gate kind
_MASKS = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}
_STEPS = ("split", "A", "B", "C", "D", "unitary", "flip", "combine")
_ANGLES = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def _every_kind_arrays(draw):
    """Valid arrays of 1..4 inputs holding every node kind; the Unitary is drawn
    in or out, so arrays without one can be compared exactly."""
    kinds = [k for k in _STEPS if k != "unitary" or draw(st.booleans())]
    extra = draw(st.lists(st.sampled_from(kinds), max_size=6))
    steps = draw(st.permutations(kinds + extra))
    nodes = {f"in{k}": Input(k) for k in range(draw(st.integers(1, 4)))}
    edges = []
    wires = list(nodes)  # one id per unread out-edge of a node

    def feed(dst):
        edges.append((wires.pop(draw(st.integers(0, len(wires) - 1))), dst))

    for step, kind in enumerate(steps):
        nid = f"n{step}"
        if kind == "split":
            fanout = draw(st.integers(2, 4))
            gains = draw(st.none() | st.tuples(*[st.floats(0.0, 1.0)] * fanout))
            nodes[nid] = Split(fanout, gains)
            feed(nid)
            wires += [nid] * fanout
            continue
        if kind == "combine":
            if len(wires) < 2:
                nodes[f"s{step}"] = Split(2)
                feed(f"s{step}")
                wires += [f"s{step}"] * 2
            fanin = draw(st.integers(2, min(4, len(wires))))
            nodes[nid] = Combine(fanin)
            for _ in range(fanin):
                feed(nid)
        else:
            if kind == "unitary":
                nodes[nid] = Unitary(draw(_ANGLES), draw(_ANGLES))
            elif kind == "flip":
                nodes[nid] = PhaseFlip()
            else:
                nodes[nid] = ModeGate(kind)
            feed(nid)
        wires.append(nid)
    for k in range(len(wires)):
        nodes[f"out{k}"] = Output(k)
        feed(f"out{k}")
    return GateArray(nodes, edges)


def _interpret(array, inputs):
    """Output samples of the array, each node evaluated from its in-edges by
    recursion over the edge list."""
    edges = array.edges

    def edge_value(ei):
        src = edges[ei][0]
        node = array.nodes[src]
        if not isinstance(node, Split):
            return value(src)
        branch = [e for e, (s, _) in enumerate(edges) if s == src].index(ei)
        return value(src) * (node.gains or (1.0,) * node.fanout)[branch]

    @functools.cache
    def value(nid):
        node = array.nodes[nid]
        if isinstance(node, Input):
            return inputs[node.index].samples
        ins = [edge_value(ei) for ei, (_, dst) in enumerate(edges) if dst == nid]
        if isinstance(node, ModeGate):
            return ins[0] * np.array(_MASKS[node.kind])
        if isinstance(node, Unitary):
            c, s = math.cos(node.chi), math.sin(node.chi)
            m0, m1 = ins[0][:, 0], ins[0][:, 1]
            return np.stack(
                [
                    c * m0 + 1j * cmath.exp(1j * node.theta) * s * m1,
                    1j * cmath.exp(-1j * node.theta) * s * m0 + c * m1,
                ],
                axis=1,
            )
        if isinstance(node, PhaseFlip):
            return -ins[0]
        if isinstance(node, Combine):
            return sum(ins)
        return ins[0]  # Split, whose gains sit on its out-edges, or Output

    outputs = sorted((n.index, nid) for nid, n in array.nodes.items() if isinstance(n, Output))
    return [value(nid) for _, nid in outputs]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(array=_every_kind_arrays())
def test_run_matches_plain_interpreter(set3, array):
    inputs = canonical_inputs(set3, array.input_count)
    got = [fld.samples for fld in array.run(inputs)]
    want = _interpret(array, inputs)
    assert len(got) == len(want) == array.output_count
    rotated = any(isinstance(node, Unitary) for node in array.nodes.values())
    for g, w in zip(got, want):
        if rotated:
            assert np.allclose(g, w, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(g, w)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(array=_every_kind_arrays())
def test_run_keeps_the_interpreters_signed_zeros(set3, array):
    # both sum a combine's terms from +0, so -0 + -0 gives +0 in each
    assume(not any(isinstance(node, Unitary) for node in array.nodes.values()))
    inputs = canonical_inputs(set3, array.input_count)
    got = [fld.samples.tobytes() for fld in array.run(inputs)]
    assert got == [value.tobytes() for value in _interpret(array, inputs)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(array=_every_kind_arrays())
def test_outputs_share_no_memory(set3, array):
    inputs = canonical_inputs(set3, array.input_count)
    outputs = [fld.samples for fld in array.run(inputs)]
    held = [fld.samples for fld in inputs]
    for k, out in enumerate(outputs):
        assert not any(np.shares_memory(out, other) for other in outputs[k + 1 :] + held)


@pytest.mark.parametrize("node", [np.eye(2, dtype=np.complex128), "gate"])
def test_array_rejects_objects_that_are_not_nodes(node):
    nodes = {"in0": Input(0), "u": node, "out0": Output(0)}
    with pytest.raises(ValueError, match="not a gate-array node"):
        GateArray(nodes, [("in0", "u"), ("u", "out0")])
