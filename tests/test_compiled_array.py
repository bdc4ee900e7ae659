"""Compiled arrays: runs from the tap table against the spelled node graph,
the spelled graph itself, typed errors at the array boundary, and pipelines
that build no node graph."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import (
    ClassicalField,
    Combine,
    CompiledArray,
    GateArray,
    GroverDatabase,
    Input,
    ModeGate,
    ModeStatusMatrix,
    Output,
    PhaseFlip,
    PlacementTable,
    ShorInstance,
    Split,
    bell_array,
    build_pps_set,
    canonical_inputs,
    compile_placement,
    ghz_array,
    grover_search,
    load_circuit,
    reconstruct,
    save_circuit,
    shor_factor,
    typical_state,
    w_array,
)
from ppsim import algorithms, gates, symbolic
from ppsim.placement import _place

_PAIRS = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
# signed zeros and the imaginary part of e^{i pi} are where an extra
# multiply by 1.0 or a sum started from the wrong term shows in the bytes
_PARTS = [0.0, -0.0, 1.0, -1.0, 1.2246e-16, -1.2246e-16]


@st.composite
def _tables(draw):
    """Square sign grids of size 1..8 with blanked rows and columns, so that
    empty rows, unconsumed buses and opposite-sign cells all occur."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.sampled_from(_PAIRS), min_size=n * n, max_size=n * n))
    cells = np.array(pairs, dtype=np.int8).reshape(n, n, 2)
    cells[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0
    cells[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0
    return PlacementTable(cells)


@st.composite
def _inputs(draw, n):
    slots = draw(st.integers(1, 4))
    parts = draw(st.lists(st.sampled_from(_PARTS), min_size=4 * n * slots, max_size=4 * n * slots))
    values = np.array(parts).reshape(2, n, slots, 2)
    return [ClassicalField(field) for field in values[0] + 1j * values[1]]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), table=_tables())
def test_compiled_run_equals_the_spelled_graph_byte_for_byte(set4, data, table):
    array = compile_placement(table, set4)
    inputs = data.draw(_inputs(table.size))
    want = [fld.samples.tobytes() for fld in GateArray(array.nodes, array.edges).run(inputs)]
    got = array.run(inputs)
    assert [fld.samples.tobytes() for fld in got] == want
    held = [fld.samples for fld in inputs]
    for k, out in enumerate(got):
        assert not any(np.shares_memory(out.samples, other.samples) for other in got[k + 1 :])
        assert not any(np.shares_memory(out.samples, other) for other in held)


_PINNED = PlacementTable.from_strings(
    [["(1,-1)", "0", "0"], ["(-1,-1)", "0", "0"], ["0", "0", "0"]]
)


def test_spelled_graph_of_a_small_table():
    # an opposite-sign cell, a flipped D chain, an empty row and an unconsumed bus
    array = CompiledArray(_PINNED)
    assert array.taps.tolist() == [[0, 0, 1, 0], [0, 0, 2, 1], [1, 0, 3, 1], [2, 2, 0, 0], [1, 1, 0, 0]]
    assert array.nodes == {
        "gB_1_1": ModeGate("B"),
        "gC_1_1": ModeGate("C"),
        "flipC_1_1": PhaseFlip(),
        "gD_2_1": ModeGate("D"),
        "flipD_2_1": PhaseFlip(),
        "gA_3_3": ModeGate("A"),
        "gA_2_2": ModeGate("A"),
        "in1": Input(0),
        "split1": Split(3),
        "in2": Input(1),
        "in3": Input(2),
        "out1": Output(0),
        "comb1": Combine(2),
        "out2": Output(1),
        "comb2": Combine(2),
        "out3": Output(2),
    }
    assert list(array.nodes) == [
        "gB_1_1", "gC_1_1", "flipC_1_1", "gD_2_1", "flipD_2_1", "gA_3_3", "gA_2_2",
        "in1", "split1", "in2", "in3", "out1", "comb1", "out2", "comb2", "out3",
    ]
    assert array.edges == [
        ("gC_1_1", "flipC_1_1"),
        ("gD_2_1", "flipD_2_1"),
        ("in1", "split1"),
        ("split1", "gB_1_1"),
        ("split1", "gC_1_1"),
        ("split1", "gD_2_1"),
        ("in2", "gA_2_2"),
        ("in3", "gA_3_3"),
        ("gB_1_1", "comb1"),
        ("flipC_1_1", "comb1"),
        ("comb1", "out1"),
        ("flipD_2_1", "comb2"),
        ("gA_2_2", "comb2"),
        ("comb2", "out2"),
        ("gA_3_3", "out3"),
    ]
    assert array.node_counts() == {
        "Combine": 2, "Input": 3, "ModeGate": 5, "Output": 3, "PhaseFlip": 2, "Split": 1
    }


def test_compile_refuses_a_status_matrix(set3):
    matrix = ModeStatusMatrix.from_pairs([[(1, 0), (0, 1)], [(0, 1), (1, 0)]])
    with pytest.raises(TypeError, match="PlacementTable.from_status_matrix"):
        compile_placement(matrix, set3)
    assert compile_placement(PlacementTable.from_status_matrix(matrix), set3).input_count == 2


def test_compile_refuses_an_empty_table(set3):
    with pytest.raises(ValueError, match="array needs at least one input and one output"):
        compile_placement(PlacementTable(np.zeros((0, 0, 2), dtype=np.int8)), set3)


@pytest.mark.parametrize("build", [bell_array, lambda: w_array(2)])
def test_run_refuses_inputs_that_are_not_fields(build):
    # the compiled run (Bell) and the node-by-node run (W) both refuse bare arrays
    with pytest.raises(TypeError, match="ClassicalField"):
        build().run([np.zeros((8, 2)), np.zeros((8, 2))])


def test_pipelines_build_no_node_graph(monkeypatch, set4):
    built = []
    post_init = GateArray.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GateArray, "__post_init__", counting)
    assert shor_factor(ShorInstance(15, 7), set4).factors == (3, 5)
    assert typical_state("ghz", set4, 5).state.terms == {"00000": 1, "11111": 1}
    assert built == []
    assert ghz_array(3).node_counts()["ModeGate"] == 6  # reading the graph spells it
    assert len(built) == 1


# sha256 over save_circuit(w_array(n)) for n = 2..63 in turn: the files the
# W builder wrote when it returned the node graph itself
_W_CIRCUITS_SHA256 = "b3a67598eaaeb630490b003c4a019d91920778d5d05a7b0b7db149b6e80444d3"


def test_w_state_builds_no_node_graph_and_saves_the_same_circuit(monkeypatch, tmp_path, set4):
    built = []
    post_init = GateArray.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GateArray, "__post_init__", counting)
    assert typical_state("w", set4, 5).state.terms == {format(1 << k, "05b"): 1 for k in range(5)}
    assert built == []
    pset = build_pps_set(6)
    digest = hashlib.sha256()
    for n in range(2, 64):
        path = tmp_path / f"w{n}.json"
        save_circuit(w_array(n), path)
        digest.update(path.read_bytes())
        inputs = canonical_inputs(pset, n)
        want = [f.samples.tobytes() for f in w_array(n).run(inputs)]
        assert [f.samples.tobytes() for f in load_circuit(path).run(inputs)] == want
    assert digest.hexdigest() == _W_CIRCUITS_SHA256


def test_search_builds_no_node_graph_and_skips_the_oracle(monkeypatch, set4):
    built = []
    post_init = GateArray.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    def oracle(*args, **kwargs):
        raise AssertionError("the search pipeline called its symbolic oracle")

    monkeypatch.setattr(GateArray, "__post_init__", counting)
    for module, name in (
        (symbolic, "to_waveform"),
        (gates, "apply_mode_gate"),
        (algorithms, "to_waveform"),
        (algorithms, "apply_mode_gate"),
        (algorithms, "grover_symbolic"),
        (algorithms, "grover_encode"),
    ):
        monkeypatch.setattr(module, name, oracle, raising=False)
    db = GroverDatabase(8, [61, 63, 117, 125, 140, 142, 148, 212, 187, 59, 238, 247, 76])
    assert grover_search(db, 148, set4).witness == 7
    assert not grover_search(db, 240, set4).found
    assert built == []


@st.composite
def _placements(draw):
    n = draw(st.integers(1, 8) | st.integers(63, 70))
    count = draw(st.integers(1, 6))
    kets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    rotations = draw(st.lists(st.integers(1, n), min_size=count, max_size=count))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=count, max_size=count))
    return n, kets, rotations, signs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_placements())
def test_place_writes_each_ket_on_its_rotation(placement):
    n, kets, rotations, signs = placement
    cells = np.zeros((n, n, 2), dtype=np.int8)
    for ket, r in zip(kets, rotations):  # field 1 reads the ket's MSB
        for i in range(n):
            cells[i, (i + r - 1) % n, (ket >> (n - 1 - i)) & 1] = 1
    for ket, r, sign in zip(kets, rotations, signs):
        cells[n - 1, (n + r - 2) % n, ket & 1] = sign
    assert np.array_equal(_place(n, kets, rotations, signs).cells, cells)
    assert np.array_equal(_place(n, kets, rotations).cells, np.abs(cells))


@pytest.mark.parametrize(
    "variant, state", [("psi+", "|00> + |11>"), ("psi-", "|00> - |11>"),
                       ("phi+", "|01> + |10>"), ("phi-", "|01> - |10>")],
)
def test_bell_tables_carry_their_kets(variant, state):
    assert reconstruct(bell_array(variant).table).pretty() == state
