"""Serialization round-trips and malformed-file rejection."""
import json
import re

import numpy as np
import pytest

from ppsim import (
    Combine,
    FormatError,
    GateArray,
    GroverDatabase,
    Input,
    ModeGate,
    Output,
    PhaseFlip,
    SimulatedState,
    Split,
    SymbolicField,
    Unitary,
    bell_array,
    build_pps_set,
    canonical_inputs,
    ghz_array,
    load_circuit,
    load_fields,
    load_grover_db,
    load_matrix,
    load_placement,
    load_pps_set,
    load_state,
    load_symbolic_field,
    mode_status_matrix,
    save_circuit,
    save_fields,
    save_grover_db,
    save_matrix,
    save_pps_set,
    save_state,
    save_symbolic_field,
)
from ppsim.fixtures import factoring_reference


def test_pps_set_round_trip(tmp_path, set3):
    path = tmp_path / "set.pps"
    save_pps_set(set3, path)
    loaded = load_pps_set(path)
    assert loaded.degree == set3.degree
    assert loaded.polynomial == set3.polynomial
    assert loaded.mapping_phase == set3.mapping_phase
    assert np.array_equal(loaded.bit_rows, set3.bit_rows)


def test_pps_set_half_pi_and_float_mappings(tmp_path):
    for mapping in ("pi/2", 0.75):
        pset = build_pps_set(2, mapping_phase=mapping)
        path = tmp_path / "m.pps"
        save_pps_set(pset, path)
        assert load_pps_set(path).mapping_phase == pset.mapping_phase


def test_pps_set_mapping_names_only_exact_values(tmp_path):
    phase = float(np.nextafter(np.pi, 4))
    path = tmp_path / "m.pps"
    save_pps_set(build_pps_set(3, mapping_phase=phase), path)
    assert f"mapping: {phase!r}\n" in path.read_text()
    assert load_pps_set(path).mapping_phase == phase


def test_pps_set_comments_and_blanks(tmp_path, set3):
    path = tmp_path / "set.pps"
    save_pps_set(set3, path)
    text = "# generated file\n\n" + path.read_text()
    path.write_text(text)
    assert np.array_equal(load_pps_set(path).bit_rows, set3.bit_rows)


def test_pps_set_malformed(tmp_path):
    path = tmp_path / "bad.pps"
    path.write_text("degree: 2\npolynomial: 1,1,1\nmapping: pi\n0,0,0,0\n")
    with pytest.raises(FormatError, match="expected 4 rows"):
        load_pps_set(path)
    path.write_text("polynomial: 1,1,1\nmapping: pi\n")
    with pytest.raises(FormatError):
        load_pps_set(path)
    path.write_text("degree: 2\npolynomial: 1,1,1\nmapping: pi\n" + "0,0,2,0\n" * 4)
    with pytest.raises(FormatError, match="only 0 and 1"):
        load_pps_set(path)


def test_fields_round_trip_bit_exact(tmp_path, set3):
    rng = np.random.default_rng(21)
    fields = canonical_inputs(set3, 3)
    noisy = [type(f)(f.samples * rng.standard_normal()) for f in fields]
    path = tmp_path / "fields.json"
    save_fields(noisy, path)
    loaded = load_fields(path)
    assert len(loaded) == 3
    for a, b in zip(noisy, loaded):
        assert np.array_equal(a.samples, b.samples)  # bit-exact, not approx


def test_fields_errors(tmp_path):
    with pytest.raises(ValueError, match="empty field list"):
        save_fields([], tmp_path / "x.json")
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_fields(path)
    path.write_text(json.dumps({"slot_count": 2, "fields": []}))
    with pytest.raises(FormatError, match="no fields"):
        load_fields(path)
    path.write_text(
        json.dumps({"slot_count": 3, "fields": [{"mode0": [[0, 0]], "mode1": [[0, 0]]}]})
    )
    with pytest.raises(FormatError, match="bad field dump"):
        load_fields(path)


def test_matrix_round_trip_json_and_csv(tmp_path, set3):
    fields = bell_array("psi-").run(canonical_inputs(set3, 2))
    matrix = mode_status_matrix(fields, pset=set3)
    for name in ("m.json", "m.csv"):
        path = tmp_path / name
        save_matrix(matrix, path)
        assert load_matrix(path) == matrix


def test_matrix_format_follows_the_suffix(tmp_path, set3):
    matrix = mode_status_matrix(bell_array("psi-").run(canonical_inputs(set3, 2)), pset=set3)
    for name in ("m.txt", "m.CSV", "m"):
        save_matrix(matrix, tmp_path / name)
        assert load_matrix(tmp_path / name) == matrix
    assert json.loads((tmp_path / "m.txt").read_text()) == {"cells": matrix.to_strings()}
    assert (tmp_path / "m.CSV").read_text().splitlines()[0] == '"(1,0)","(0,1)"'


def test_matrix_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cells": [["0", "0"], ["0"]]}))
    with pytest.raises(FormatError, match="ragged"):
        load_matrix(path)
    path.write_text(json.dumps({"cells": [["0", "(9,9)"]]}))
    with pytest.raises(FormatError, match="bad status cell"):
        load_matrix(path)
    path.write_text(json.dumps({"rows": []}))
    with pytest.raises(FormatError):
        load_matrix(path)


@pytest.mark.parametrize("cells", [["00", "00"], "0000"])
def test_matrix_cells_must_be_a_list_of_lists(tmp_path, cells):
    # ["00", "00"] loaded as a 2x2 grid of empty cells, "0000" as a 4x1 one
    path = tmp_path / "strings.json"
    path.write_text(json.dumps({"cells": cells}))
    with pytest.raises(FormatError, match="bad matrix file"):
        load_matrix(path)


def test_placement_round_trip(tmp_path):
    ref = factoring_reference()
    for name in ("p.json", "p.csv"):
        path = tmp_path / name
        save_matrix(ref.placement_derived, path)
        assert load_placement(path) == ref.placement_derived


def test_save_matrix_rejects_other_types(tmp_path):
    with pytest.raises(TypeError):
        save_matrix([[0]], tmp_path / "x.json")


def test_state_round_trip(tmp_path):
    state = SimulatedState(3, {"000": 1, "111": -1})
    path = tmp_path / "state.json"
    save_state(state, path)
    assert load_state(path) == state
    save_state(SimulatedState(2, {}), path)
    loaded = load_state(path)
    assert loaded.is_zero and loaded.width == 0
    path.write_text(json.dumps([{"bitstring": "01"}]))
    with pytest.raises(FormatError, match="bad state file"):
        load_state(path)


def test_state_file_lists_each_ket_once(tmp_path):
    # a repeated ket is malformed, not overwritten by its later entry
    path = tmp_path / "state.json"
    terms = [{"bitstring": "01", "coefficient": 1}, {"bitstring": "01", "coefficient": -1}]
    path.write_text(json.dumps(terms))
    with pytest.raises(FormatError, match=re.escape("bad state file (ket '01' listed twice)")):
        load_state(path)


def test_state_file_coefficients_fit_in_64_bits(tmp_path):
    path = tmp_path / "state.json"
    top = 2**63 - 1
    path.write_text(json.dumps([{"bitstring": "0", "coefficient": top}, {"bitstring": "1", "coefficient": 2}]))
    assert load_state(path).terms == {"0": top, "1": 2}
    for big in (2**63, -(2**63), 10**30):
        path.write_text(json.dumps([{"bitstring": "0", "coefficient": big}]))
        with pytest.raises(FormatError, match=re.escape("bad state file (coefficients must lie within +-(2**63 - 1))")):
            load_state(path)


def test_circuit_round_trip(tmp_path, set3):
    for array in (bell_array("phi-"), ghz_array(3)):
        path = tmp_path / "circuit.json"
        save_circuit(array, path)
        loaded = load_circuit(path)
        assert loaded.node_counts() == array.node_counts()
        assert loaded.edges == array.edges
        inputs = canonical_inputs(set3, array.input_count)
        for a, b in zip(array.run(inputs), loaded.run(inputs)):
            assert np.array_equal(a.samples, b.samples)


def test_circuit_round_trip_every_node_kind(tmp_path, set3):
    # one array holding every node kind, gated split gains and a unitary
    nodes = {
        "in0": Input(0),
        "in1": Input(1),
        "in2": Input(2),
        "s": Split(2, gains=(0.25, 0.5)),
        "gB": ModeGate("B"),
        "u": Unitary(0.6, 1.1),
        "gD": ModeGate("D"),
        "f": PhaseFlip(),
        "c": Combine(2),
        "gC": ModeGate("C"),
        "gA": ModeGate("A"),
        "out0": Output(0),
        "out1": Output(1),
        "out2": Output(2),
    }
    edges = [
        ("in0", "s"),
        ("s", "gB"),
        ("s", "gD"),
        ("gB", "u"),
        ("gD", "f"),
        ("u", "c"),
        ("f", "c"),
        ("c", "out0"),
        ("in1", "gC"),
        ("gC", "out1"),
        ("in2", "gA"),
        ("gA", "out2"),
    ]
    array = GateArray(nodes, edges)
    path = tmp_path / "circuit.json"
    save_circuit(array, path)
    loaded = load_circuit(path)
    assert loaded.nodes == array.nodes
    assert loaded.edges == array.edges
    inputs = canonical_inputs(set3, array.input_count)
    for a, b in zip(array.run(inputs), loaded.run(inputs), strict=True):
        assert np.array_equal(a.samples.view(np.float64), b.samples.view(np.float64))


def test_circuit_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [{"id": "x", "kind": "teleport"}], "edges": []}))
    with pytest.raises(FormatError, match="bad circuit file"):
        load_circuit(path)
    path.write_text(
        json.dumps(
            {
                "nodes": [
                    {"id": "in0", "kind": "input", "index": 0},
                    {"id": "out0", "kind": "output", "index": 0},
                    {"id": "g", "kind": "gate", "gate": "D"},
                ],
                "edges": [["in0", "out0"], ["g", "g"]],
            }
        )
    )
    with pytest.raises(FormatError, match="invalid circuit"):
        load_circuit(path)


def test_circuit_file_lists_each_node_id_once(tmp_path):
    # a repeated id is malformed, not overwritten by its later node
    path = tmp_path / "circuit.json"
    nodes = [
        {"id": "in0", "kind": "input", "index": 0},
        {"id": "g", "kind": "gate", "gate": "B"},
        {"id": "g", "kind": "gate", "gate": "C"},
        {"id": "out0", "kind": "output", "index": 0},
    ]
    path.write_text(json.dumps({"nodes": nodes, "edges": [["in0", "g"], ["g", "out0"]]}))
    with pytest.raises(FormatError, match=re.escape("bad circuit file (node id 'g' listed twice)")):
        load_circuit(path)


def test_symbolic_field_round_trip(tmp_path):
    sf = SymbolicField(mode0={1: 0.5 - 2j, 7: 1.0}, mode1={3: -1.5})
    path = tmp_path / "sym.json"
    save_symbolic_field(sf, path)
    loaded = load_symbolic_field(path)
    assert loaded.mode0 == sf.mode0 and loaded.mode1 == sf.mode1
    path.write_text(json.dumps({"mode0": [{"pps": 1}], "mode1": []}))
    with pytest.raises(FormatError):
        load_symbolic_field(path)


@pytest.mark.parametrize("text", ["[1, 2]", '"mode0"', "3"])
def test_symbolic_field_file_must_be_an_object(tmp_path, text):
    path = tmp_path / "sym.json"
    path.write_text(text)
    with pytest.raises(FormatError, match="bad symbolic field file"):
        load_symbolic_field(path)


def test_grover_db_round_trip(tmp_path):
    db = GroverDatabase(width=8, entries=(61, 63, 148), rotations={61: 1, 63: 1, 148: 4})
    path = tmp_path / "db.json"
    save_grover_db(db, path)
    loaded = load_grover_db(path)
    assert loaded.width == 8 and loaded.entries == db.entries
    assert loaded.rotations == db.rotations


def test_grover_db_bare_list(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps([5, 9, 200]))
    db = load_grover_db(path)
    assert db.width == 8  # 200 needs eight bits
    assert db.entries == (5, 9, 200)
    assert db.rotations is None
    path.write_text(json.dumps({"entries": [1, 1]}))
    with pytest.raises(FormatError):
        load_grover_db(path)


def test_matrix_file_with_empty_rows_is_format_error(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"cells": [[]]}))
    with pytest.raises(FormatError, match=re.escape(f"{path}: matrix rows are empty or ragged")):
        load_matrix(path)


def test_grover_db_rotation_map_names_each_entry_once(tmp_path):
    # "61" and "061" both read as entry 61: neither silently wins
    path = tmp_path / "db.json"
    rotations = {"61": 1, "061": 2, "63": 3}
    path.write_text(json.dumps({"width": 8, "entries": [61, 63], "rotations": rotations}))
    with pytest.raises(
        FormatError, match=re.escape("bad database file (rotation map lists entry 61 twice)")
    ):
        load_grover_db(path)


@pytest.mark.parametrize(
    "node",
    [
        {"id": "u", "kind": "unitary", "chi": float("nan"), "theta": 0.0},
        {"id": "u", "kind": "unitary", "chi": 0.0, "theta": float("inf")},
        {"id": "u", "kind": "split", "fanout": 2, "gains": [float("nan"), 1.0]},
        {"id": "u", "kind": "split", "fanout": 2, "gains": [-1.0, 1.0]},
    ],
)
def test_circuit_nonfinite_or_negative_parameters(tmp_path, node):
    nodes = [
        {"id": "in0", "kind": "input", "index": 0},
        node,
        {"id": "out0", "kind": "output", "index": 0},
    ]
    edges = [["in0", "u"], ["u", "out0"]]
    if node["kind"] == "split":
        nodes.append({"id": "out1", "kind": "output", "index": 1})
        edges.append(["u", "out1"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
    with pytest.raises(FormatError, match="bad circuit file"):
        load_circuit(path)


@pytest.mark.parametrize(
    "loader, suffix",
    [
        (load_pps_set, ".pps"),
        (load_fields, ".json"),
        (load_matrix, ".json"),
        (load_matrix, ".csv"),
        (load_placement, ".csv"),
        (load_state, ".json"),
        (load_circuit, ".json"),
        (load_symbolic_field, ".json"),
        (load_grover_db, ".json"),
    ],
)
def test_non_utf8_file_names_the_path(tmp_path, loader, suffix):
    path = tmp_path / ("bad" + suffix)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(FormatError, match=re.escape(f"{path}: not UTF-8 text")):
        loader(path)


_CIRCUIT_NODES = [
    {"id": "in0", "kind": "input", "index": 0},
    {"id": "s", "kind": "split", "fanout": 2},
    {"id": "c", "kind": "combine", "fanin": 2},
    {"id": "out0", "kind": "output", "index": 0},
]


def _circuit(key, value):
    nodes = [dict(n, **{key: value}) if key in n else n for n in _CIRCUIT_NODES]
    edges = [["in0", "s"], ["s", "c"], ["s", "c"], ["c", "out0"]]
    return {"nodes": nodes, "edges": edges}


@pytest.mark.parametrize(
    "loader, obj",
    [
        (load_state, [{"bitstring": "01", "coefficient": 1.5}]),
        (load_state, [{"bitstring": "01", "coefficient": True}]),
        (load_grover_db, [61.9, 63]),
        (load_grover_db, [True]),
        (load_grover_db, [float("inf")]),
        (load_grover_db, {"width": 8.5, "entries": [61]}),
        (load_grover_db, {"width": 8, "entries": [61.5]}),
        (load_grover_db, {"width": 8, "entries": [61], "rotations": {"61": 1.5}}),
        (load_grover_db, {"width": 8, "entries": [61], "rotations": {"61": False}}),
        (load_fields, {"slot_count": 2.5, "fields": []}),
        (load_circuit, _circuit("index", 0.5)),
        (load_circuit, _circuit("fanout", 2.5)),
        (load_circuit, _circuit("fanin", True)),
        (load_symbolic_field, {"mode0": [{"pps": 1.5, "re": 1.0, "im": 0.0}]}),
    ],
)
def test_non_integral_numbers_are_rejected(tmp_path, loader, obj):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=re.escape(f"{path}: ") + ".*expected an integer"):
        loader(path)


def test_integral_numbers_load_as_before(tmp_path):
    path = tmp_path / "file.json"
    path.write_text(json.dumps([{"bitstring": "01", "coefficient": 2.0}]))
    assert load_state(path) == SimulatedState(2, {"01": 1})
    db_obj = {"width": 8.0, "entries": [61.0, "63"], "rotations": {"61": 2.0, "63": 1}}
    path.write_text(json.dumps(db_obj))
    db = load_grover_db(path)
    assert (db.width, db.entries, db.rotations) == (8, (61, 63), {61: 2, 63: 1})
    path.write_text(json.dumps(_circuit("fanout", 2.0)))
    split = load_circuit(path).nodes["s"]
    assert split.fanout == 2 and type(split.fanout) is int


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_symbolic_field_file_with_non_finite_coefficient(tmp_path, value):
    path = tmp_path / "sym.json"
    path.write_text(f'{{"mode0": [{{"pps": 1, "re": {value}, "im": 0.0}}], "mode1": []}}')
    with pytest.raises(FormatError, match="bad symbolic field file .*must be finite"):
        load_symbolic_field(path)
