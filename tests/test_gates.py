"""Gate arrays: node semantics, validation, builders, placement compiler."""
import tracemalloc

import numpy as np
import pytest

from ppsim import (
    BELL_VARIANTS,
    ClassicalField,
    Combine,
    DimensionMismatchError,
    GateArray,
    Input,
    ModeGate,
    Output,
    PhaseFlip,
    PlacementTable,
    Split,
    Unitary,
    apply_mode_gate,
    bell_array,
    build_pps_set,
    canonical_inputs,
    compile_placement,
    format_cell,
    ghz_array,
    make_single_pps_field,
    mode_status_matrix,
    parse_cell,
    product_array,
    reconstruct,
    typical_state,
    w_array,
)
from ppsim.fixtures import typical_reference


def test_mode_gate_semantics(set3):
    fld = make_single_pps_field(set3, 1, mode_weights=(2.0, 3.0))
    assert not apply_mode_gate(fld, "A").samples.any()
    passed_b = apply_mode_gate(fld, "B")
    assert np.array_equal(passed_b.samples[:, 0], fld.samples[:, 0])
    assert not passed_b.samples[:, 1].any()
    passed_c = apply_mode_gate(fld, "C")
    assert not passed_c.samples[:, 0].any()
    assert np.array_equal(passed_c.samples[:, 1], fld.samples[:, 1])
    assert np.array_equal(apply_mode_gate(fld, "D").samples, fld.samples)
    with pytest.raises(ValueError):
        apply_mode_gate(fld, "E")
    with pytest.raises(ValueError):
        ModeGate("Q")


def test_cell_text_round_trip():
    for pair in [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1), (1, -1), (-1, -1)]:
        assert parse_cell(format_cell(pair)) == pair
    assert parse_cell("0") == (0, 0)
    assert parse_cell(" ( 1 , -1 ) ") == (1, -1)
    for bad in ["", "(2,0)", "(1 0)", "1,0", "()"]:
        with pytest.raises(ValueError, match="bad status cell"):
            parse_cell(bad)


def _identity_array():
    return GateArray(
        nodes={"in0": Input(0), "g": ModeGate("D"), "out0": Output(0)},
        edges=[("in0", "g"), ("g", "out0")],
    )


def test_array_runs_identity(set3):
    fld = make_single_pps_field(set3, 1)
    (out,) = _identity_array().run([fld])
    assert np.array_equal(out.samples, fld.samples)


def test_array_validation_errors():
    with pytest.raises(ValueError, match="unknown node"):
        GateArray(nodes={"in0": Input(0)}, edges=[("in0", "ghost")])
    with pytest.raises(ValueError, match="expected"):
        GateArray(  # split declares 2 branches but only one edge leaves
            nodes={"in0": Input(0), "s": Split(2), "out0": Output(0)},
            edges=[("in0", "s"), ("s", "out0")],
        )
    with pytest.raises(ValueError, match="at least one input"):
        GateArray(nodes={}, edges=[])
    with pytest.raises(ValueError, match="input indexes"):
        GateArray(
            nodes={"a": Input(0), "b": Input(0), "c": Combine(2), "out0": Output(0)},
            edges=[("a", "c"), ("b", "c"), ("c", "out0")],
        )
    with pytest.raises(ValueError, match="output indexes"):
        GateArray(
            nodes={"in0": Input(0), "out0": Output(1)},
            edges=[("in0", "out0")],
        )


def test_cycle_detection():
    nodes = {
        "in0": Input(0),
        "g": ModeGate("D"),
        "out0": Output(0),
        "l1": PhaseFlip(),
        "l2": PhaseFlip(),
    }
    edges = [("in0", "g"), ("g", "out0"), ("l1", "l2"), ("l2", "l1")]
    with pytest.raises(ValueError, match="cycle"):
        GateArray(nodes=nodes, edges=edges)


def test_node_parameter_validation():
    with pytest.raises(ValueError):
        Split(1)
    with pytest.raises(ValueError):
        Split(3, gains=(1.0, 1.0))
    with pytest.raises(ValueError):
        Combine(1)


def test_node_integer_parameters(set3):
    split = Split(2.0)
    assert split.fanout == 2 and type(split.fanout) is int
    nodes = {"in0": Input(0.0), "s": split, "c": Combine(2.0), "out0": Output(0)}
    array = GateArray(nodes, [("in0", "s"), ("s", "c"), ("s", "c"), ("c", "out0")])
    (fld,) = canonical_inputs(set3, 1)
    (out,) = array.run([fld])
    assert np.array_equal(out.samples, 2 * fld.samples)
    for node, value in ((Output, False), (Input, True), (Split, 2.5), (Combine, float("nan"))):
        with pytest.raises(ValueError, match="expected an integer"):
            node(value)


def test_builders_apply_the_integer_rule(set3):
    for builder, n in ((product_array, 2), (ghz_array, 3), (w_array, 3)):
        built, given = builder(n), builder(float(n))
        assert given.nodes == built.nodes and given.edges == built.edges
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="expected an integer"):
                builder(bad)
    assert typical_state("ghz", set3, 3.0).state == typical_state("ghz", set3, 3).state


def test_run_input_checks(set3):
    arr = _identity_array()
    with pytest.raises(DimensionMismatchError):
        arr.run([])
    with pytest.raises(DimensionMismatchError):
        bell_array().run([make_single_pps_field(set3, 1), ClassicalField(np.zeros((4, 2)))])


def test_unitary_and_flip_nodes(set3):
    fld = make_single_pps_field(set3, 2, mode_weights=(0.7, -0.2j))
    arr = GateArray(
        nodes={"in0": Input(0), "u": Unitary(0.6, 1.1), "out0": Output(0)},
        edges=[("in0", "u"), ("u", "out0")],
    )
    (out,) = arr.run([fld])
    assert np.allclose(out.samples, fld.samples @ Unitary(0.6, 1.1).matrix.T)
    flip = GateArray(
        nodes={"in0": Input(0), "f": PhaseFlip(), "out0": Output(0)},
        edges=[("in0", "f"), ("f", "out0")],
    )
    (out,) = flip.run([fld])
    assert np.allclose(out.samples, -fld.samples)


def test_split_gains_and_combine(set3):
    fld = make_single_pps_field(set3, 1)
    arr = GateArray(
        nodes={
            "in0": Input(0),
            "s": Split(2, gains=(0.25, 0.5)),
            "c": Combine(2),
            "out0": Output(0),
        },
        edges=[("in0", "s"), ("s", "c"), ("s", "c"), ("c", "out0")],
    )
    (out,) = arr.run([fld])
    assert np.allclose(out.samples, 0.75 * fld.samples, atol=1e-12)


def test_array_linearity(set3):
    arr = bell_array("psi+")
    fields = canonical_inputs(set3, 2)
    plain = arr.run(fields)
    scaled_in = [type(f)(2.5j * f.samples) for f in fields]
    scaled_out = arr.run(scaled_in)
    for a, b in zip(plain, scaled_out):
        assert np.allclose(2.5j * a.samples, b.samples, atol=1e-12)


@pytest.mark.parametrize("variant", BELL_VARIANTS)
def test_bell_builders_match_reference(set3, variant):
    arr = bell_array(variant)
    outputs = arr.run(canonical_inputs(set3, 2))
    matrix = mode_status_matrix(outputs, pset=set3)
    ref = typical_reference(variant)
    assert matrix == ref.matrix
    assert reconstruct(matrix) == ref.state


def test_bell_variant_validation():
    with pytest.raises(ValueError):
        bell_array("sigma+")


def test_ghz_builder_matches_reference(set3):
    arr = ghz_array(3)
    matrix = mode_status_matrix(arr.run(canonical_inputs(set3, 3)), pset=set3)
    ref = typical_reference("ghz3")
    assert matrix == ref.matrix
    assert reconstruct(matrix) == ref.state
    with pytest.raises(ValueError):
        ghz_array(2)


def test_ghz_larger_width(set3):
    matrix = mode_status_matrix(
        ghz_array(5).run(canonical_inputs(set3, 5)), pset=set3
    )
    state = reconstruct(matrix)
    assert state.terms == {"00000": 1, "11111": 1}


def test_w_builder_matches_reference(set3):
    arr = w_array(3)
    matrix = mode_status_matrix(arr.run(canonical_inputs(set3, 3)), pset=set3)
    ref = typical_reference("w3")
    assert matrix == ref.matrix
    assert reconstruct(matrix) == ref.state
    with pytest.raises(ValueError):
        w_array(1)


def test_w_larger_width(set3):
    matrix = mode_status_matrix(w_array(4).run(canonical_inputs(set3, 4)), pset=set3)
    state = reconstruct(matrix)
    assert state.terms == {"1000": 1, "0100": 1, "0010": 1, "0001": 1}


def test_product_array_matches_reference(set3):
    matrix = mode_status_matrix(
        product_array(2).run(canonical_inputs(set3, 2)), pset=set3
    )
    ref = typical_reference("product2")
    assert matrix == ref.matrix
    assert reconstruct(matrix) == ref.state


_BELL_COUNTS = {"Combine": 2, "Input": 2, "ModeGate": 4, "Output": 2, "Split": 2}
_BELL_FLIP_COUNTS = {
    "Combine": 2, "Input": 2, "ModeGate": 4, "Output": 2, "PhaseFlip": 1, "Split": 2
}


# rewiring a named builder must not change its resource count
@pytest.mark.parametrize(
    "build, arg, counts",
    [
        (product_array, 1, {"Input": 1, "ModeGate": 1, "Output": 1}),
        (product_array, 2, {"Input": 2, "ModeGate": 2, "Output": 2}),
        (product_array, 3, {"Input": 3, "ModeGate": 3, "Output": 3}),
        (product_array, 4, {"Input": 4, "ModeGate": 4, "Output": 4}),
        (bell_array, "psi+", _BELL_COUNTS),
        (bell_array, "psi-", _BELL_FLIP_COUNTS),
        (bell_array, "phi+", _BELL_COUNTS),
        (bell_array, "phi-", _BELL_FLIP_COUNTS),
        (ghz_array, 3, {"Combine": 3, "Input": 3, "ModeGate": 6, "Output": 3, "Split": 3}),
        (ghz_array, 4, {"Combine": 4, "Input": 4, "ModeGate": 8, "Output": 4, "Split": 4}),
        (ghz_array, 5, {"Combine": 5, "Input": 5, "ModeGate": 10, "Output": 5, "Split": 5}),
        (ghz_array, 6, {"Combine": 6, "Input": 6, "ModeGate": 12, "Output": 6, "Split": 6}),
        (w_array, 2, {"Combine": 1, "Input": 2, "ModeGate": 2, "Output": 2, "Split": 1}),
        (w_array, 3, {"Combine": 1, "Input": 3, "ModeGate": 3, "Output": 3, "Split": 2}),
        (w_array, 4, {"Combine": 1, "Input": 4, "ModeGate": 4, "Output": 4, "Split": 3}),
        (w_array, 5, {"Combine": 1, "Input": 5, "ModeGate": 5, "Output": 5, "Split": 4}),
    ],
)
def test_named_builder_node_counts(build, arg, counts):
    assert build(arg).node_counts() == counts


def test_placement_table_api():
    table = PlacementTable.from_strings([["(1,1)", "0"], ["(0,-1)", "(1,0)"]])
    assert table.size == 2
    assert table.cell(1, 1) == (1, 1)
    assert table.cell(2, 1) == (0, -1)
    assert table.to_strings() == [["(1,1)", "0"], ["(0,-1)", "(1,0)"]]
    assert table == PlacementTable.from_strings(table.to_strings())
    assert table != PlacementTable.from_strings([["(1,1)", "0"], ["0", "(1,0)"]])
    with pytest.raises(DimensionMismatchError):
        PlacementTable(np.zeros((2, 3, 2), dtype=np.int8))
    with pytest.raises(ValueError):
        PlacementTable(np.full((2, 2, 2), 3, dtype=np.int8))


def _random_table(rng, n):
    cells = rng.integers(-1, 2, size=(n, n, 2))
    return PlacementTable(cells.astype(np.int8))


def test_compile_round_trip_random_tables(set3):
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        table = _random_table(rng, n)
        array = compile_placement(table, set3)
        outputs = array.run(canonical_inputs(set3, n))
        matrix = mode_status_matrix(outputs, pset=set3)
        assert PlacementTable.from_status_matrix(matrix) == table


def test_compile_identity_has_no_fanout(set3):
    table = PlacementTable.from_strings([["(1,1)", "0"], ["0", "(1,1)"]])
    counts = compile_placement(table, set3).node_counts()
    assert "Split" not in counts and "Combine" not in counts
    assert counts["ModeGate"] == 2


def test_compile_resource_bound_single_permutation(set3):
    # one tap per bus, one term per row, and a cell shape a single gate can
    # realize (equal signs or one live mode): no fan-out, <= 2 nodes per field
    single_gate_cells = [(1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1)]
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        perm = rng.permutation(n)
        cells = np.zeros((n, n, 2), dtype=np.int8)
        for i in range(n):
            cells[i, perm[i]] = single_gate_cells[int(rng.integers(6))]
        array = compile_placement(PlacementTable(cells), set3)
        counts = array.node_counts()
        internal = sum(
            v for k, v in counts.items() if k not in ("Input", "Output")
        )
        assert internal <= 2 * n
        assert "Split" not in counts and "Combine" not in counts


def test_compile_opposite_sign_cell_fans_out(set3):
    # a (1,-1) cell needs a B branch and a C branch merged back together
    table = PlacementTable.from_strings([["(1,-1)"]])
    counts = compile_placement(table, set3).node_counts()
    assert counts["Split"] == 1 and counts["Combine"] == 1
    assert counts["ModeGate"] == 2 and counts["PhaseFlip"] == 1


def test_compile_empty_row_blocks_bus(set3):
    table = PlacementTable.from_strings([["0", "0"], ["(1,0)", "(0,1)"]])
    array = compile_placement(table, set3)
    matrix = mode_status_matrix(array.run(canonical_inputs(set3, 2)), pset=set3)
    assert matrix.to_strings() == [["0", "0"], ["(1,0)", "(0,1)"]]


def test_compile_too_large_for_set(set3):
    with pytest.raises(DimensionMismatchError):
        compile_placement(_random_table(np.random.default_rng(0), 8), set3)


def test_nonfinite_node_parameters_rejected():
    with pytest.raises(ValueError, match="finite"):
        Unitary(float("nan"), 0.0)
    with pytest.raises(ValueError, match="finite"):
        Unitary(0.0, float("inf"))
    for gains in ((float("nan"), 1.0), (1.0, float("inf")), (-0.5, 1.0)):
        with pytest.raises(ValueError, match="split gains"):
            Split(2, gains=gains)
    assert Split(2, gains=(0.0, 1.0)).branch_gains() == (0.0, 1.0)


def test_run_frees_edge_values_once_read():
    # GHZ n = 63 on a degree-12 set: holding all 378 edge values peaks near 50 MB
    pset = build_pps_set(12)
    array = ghz_array(63)
    inputs = canonical_inputs(pset, array.input_count)
    tracemalloc.start()
    try:
        array.run(inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_run_output_does_not_alias_input(set3):
    array = GateArray(nodes={"in0": Input(0), "out0": Output(0)}, edges=[("in0", "out0")])
    fld = make_single_pps_field(set3, 1)
    (out,) = array.run([fld])
    assert np.array_equal(out.samples, fld.samples)
    assert not np.shares_memory(out.samples, fld.samples)
