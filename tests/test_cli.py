"""End-to-end command-line checks via subprocess: chains, codes, determinism."""
import json
import subprocess
import sys

import numpy as np
import pytest

from ppsim import (
    build_pps_set,
    bell_array,
    canonical_inputs,
    load_fields,
    load_matrix,
    load_pps_set,
    save_circuit,
    save_fields,
    save_grover_db,
    save_pps_set,
)
from ppsim.fixtures import search_reference, typical_reference


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ppsim", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_no_command_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage" in (proc.stdout + proc.stderr).lower()


def test_unknown_flag_is_usage_error():
    proc = run_cli("shor", "--modulus", "15", "--base", "7", "--frobnicate")
    assert proc.returncode == 2


def test_pps_gen_round_trip(tmp_path):
    out = tmp_path / "set.pps"
    proc = run_cli("pps", "gen", "--degree", "3", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert "degree 3" in proc.stdout
    loaded = load_pps_set(out)
    reference = build_pps_set(3)
    assert np.array_equal(loaded.bit_rows, reference.bit_rows)


def test_pps_gen_bad_poly_csv(tmp_path):
    proc = run_cli(
        "pps", "gen", "--degree", "3", "--poly", "one,one", "--out", tmp_path / "x"
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_pps_gen_nonprimitive_poly_is_pipeline_error(tmp_path):
    proc = run_cli(
        "pps", "gen", "--degree", "4", "--poly", "1,0,1,0,1", "--out", tmp_path / "x"
    )
    assert proc.returncode == 5
    assert "not primitive" in proc.stderr


def test_simulate_requires_exactly_one_source(tmp_path):
    assert run_cli("simulate").returncode == 2
    pps = tmp_path / "set.pps"
    save_pps_set(build_pps_set(3), pps)
    proc = run_cli("simulate", "--canonical", "2")
    assert proc.returncode == 2  # --canonical without --pps


def test_simulate_dump_is_bit_exact(tmp_path, set3):
    pps = tmp_path / "set.pps"
    save_pps_set(set3, pps)
    dump = tmp_path / "fields.json"
    proc = run_cli(
        "simulate", "--canonical", "3", "--pps", pps, "--dump-fields", dump
    )
    assert proc.returncode == 0, proc.stderr
    loaded = load_fields(dump)
    for a, b in zip(loaded, canonical_inputs(set3, 3)):
        assert np.array_equal(a.samples, b.samples)


def test_simulate_prints_powers(tmp_path, set3):
    pps = tmp_path / "set.pps"
    save_pps_set(set3, pps)
    proc = run_cli("simulate", "--canonical", "2", "--pps", pps)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "field 1: mode0 power 1, mode1 power 1"
    assert len(lines) == 2


def test_full_chain_bell_state(tmp_path, set3):
    pps = tmp_path / "set.pps"
    circuit = tmp_path / "bell.json"
    fields = tmp_path / "fields.json"
    matrix = tmp_path / "matrix.json"
    save_pps_set(set3, pps)
    save_circuit(bell_array("psi+"), circuit)

    sim = run_cli(
        "simulate",
        "--canonical", "2",
        "--pps", pps,
        "--circuit", circuit,
        "--dump-fields", fields,
    )
    assert sim.returncode == 0, sim.stderr

    dem = run_cli("demod", "--fields", fields, "--pps", pps, "--out", matrix)
    assert dem.returncode == 0, dem.stderr
    assert load_matrix(matrix) == typical_reference("psi+").matrix

    rec = run_cli("reconstruct", "--matrix", matrix)
    assert rec.returncode == 0, rec.stderr
    lines = rec.stdout.strip().splitlines()
    assert lines[0] == "state: |00> + |11>"
    assert lines[1] == "00 +1"
    assert lines[2] == "11 +1"


def test_demod_prints_grid(tmp_path, set3):
    pps = tmp_path / "set.pps"
    fields = tmp_path / "fields.json"
    save_pps_set(set3, pps)
    save_fields(bell_array("phi-").run(canonical_inputs(set3, 2)), fields)
    proc = run_cli("demod", "--fields", fields, "--pps", pps)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["(1,0) (0,1)", "(-1,0) (0,1)"]


def test_reconstruct_sampling_deterministic(tmp_path, set3):
    pps = tmp_path / "set.pps"
    fields = tmp_path / "fields.json"
    matrix = tmp_path / "matrix.json"
    save_pps_set(set3, pps)
    save_fields(bell_array("psi+").run(canonical_inputs(set3, 2)), fields)
    assert run_cli("demod", "--fields", fields, "--pps", pps, "--out", matrix).returncode == 0
    first = run_cli("reconstruct", "--matrix", matrix, "--sample", "50", "--seed", "9")
    second = run_cli("reconstruct", "--matrix", matrix, "--sample", "50", "--seed", "9")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "samples: 50 seed 9" in first.stdout
    counts = dict(
        line.split() for line in first.stdout.splitlines() if line[:1] in "01"
    )
    assert set(counts) <= {"00", "11"}


def test_shor_json_output():
    proc = run_cli("shor", "--modulus", "15", "--base", "7", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "modulus": 15,
        "base": 7,
        "period": 4,
        "factors": [3, 5],
    }
    again = run_cli("shor", "--modulus", "15", "--base", "7", "--json")
    assert again.stdout == proc.stdout  # byte-identical reruns


def test_shor_human_output():
    proc = run_cli("shor", "--modulus", "15", "--base", "11")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["period: 2", "factors: 3 5"]


def test_shor_error_paths():
    unusable = run_cli("shor", "--modulus", "15", "--base", "14")
    assert unusable.returncode == 5
    assert "period unusable" in unusable.stderr
    shared = run_cli("shor", "--modulus", "15", "--base", "5")
    assert shared.returncode == 5
    assert "coprime" in shared.stderr


def test_grover_json_output(tmp_path):
    db_path = tmp_path / "db.json"
    save_grover_db(search_reference().database, db_path)
    found = run_cli("grover", "--db", db_path, "--query", "148", "--json")
    assert found.returncode == 0, found.stderr
    assert json.loads(found.stdout) == {"found": True, "query": 148, "witness": 4}
    absent = run_cli("grover", "--db", db_path, "--query", "240", "--json")
    assert json.loads(absent.stdout) == {"found": False, "query": 240, "witness": None}


def test_grover_human_output(tmp_path):
    db_path = tmp_path / "db.json"
    save_grover_db(search_reference().database, db_path)
    found = run_cli("grover", "--db", db_path, "--query", "148")
    assert found.stdout.splitlines() == ["found: yes", "witness: 4"]
    absent = run_cli("grover", "--db", db_path, "--query", "240")
    assert absent.stdout.splitlines() == ["found: no"]


def test_grover_bare_list_database(tmp_path):
    db_path = tmp_path / "db.json"
    db_path.write_text(json.dumps([61, 63, 117]))
    proc = run_cli("grover", "--db", db_path, "--query", "61", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["found"] is True


def test_missing_file_exit_code(tmp_path):
    proc = run_cli("demod", "--fields", tmp_path / "nope.json", "--pps", tmp_path / "x")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")


def test_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    proc = run_cli("reconstruct", "--matrix", bad)
    assert proc.returncode == 3
    assert "not valid JSON" in proc.stderr


def test_dimension_mismatch_exit_code(tmp_path, set3):
    fields = tmp_path / "fields.json"
    save_fields(canonical_inputs(set3, 2), fields)  # 8 slots per field
    small = tmp_path / "small.pps"
    save_pps_set(build_pps_set(2), small)  # 4-slot references
    proc = run_cli("demod", "--fields", fields, "--pps", small)
    assert proc.returncode == 4
    assert "error:" in proc.stderr


def test_bench_runs():
    proc = run_cli("bench")
    assert proc.returncode == 0, proc.stderr
    assert "ms" in proc.stdout
    assert "factor(15,7)" in proc.stdout
    assert "search(w=8,k=13)" in proc.stdout


def test_reconstruct_negative_sample_is_usage_error(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"cells": [["(1,1)"]]}')
    proc = run_cli("reconstruct", "--matrix", matrix, "--sample", "-3")
    assert proc.returncode == 2
    assert "--sample" in proc.stderr
    assert proc.stdout == ""


def test_shor_degree_zero_is_not_the_default():
    proc = run_cli("shor", "--modulus", "15", "--base", "7", "--degree", "0")
    assert proc.returncode == 5
    assert "no built-in polynomial for degree 0" in proc.stderr


def test_grover_degree_zero_is_not_the_default(tmp_path):
    db_path = tmp_path / "db.json"
    save_grover_db(search_reference().database, db_path)
    proc = run_cli("grover", "--db", db_path, "--query", "148", "--degree", "0")
    assert proc.returncode == 5
    assert "no built-in polynomial for degree 0" in proc.stderr


@pytest.mark.parametrize("tau", ["-3", "nan"])
def test_shor_bad_threshold_names_tau(tau):
    proc = run_cli("shor", "--modulus", "15", "--base", "7", "--tau", tau)
    assert proc.returncode == 5
    assert "threshold tau" in proc.stderr
    assert "period unusable" not in proc.stderr


def test_simulate_nonfinite_circuit_parameter_is_format_error(tmp_path):
    circuit = tmp_path / "nan.json"
    circuit.write_text(
        '{"nodes": [{"id": "in0", "kind": "input", "index": 0},'
        ' {"id": "u", "kind": "unitary", "chi": NaN, "theta": 0.0},'
        ' {"id": "out0", "kind": "output", "index": 0}],'
        ' "edges": [["in0", "u"], ["u", "out0"]]}'
    )
    pps = tmp_path / "set3.pps"
    save_pps_set(build_pps_set(3), pps)
    proc = run_cli("simulate", "--canonical", 1, "--pps", pps, "--circuit", circuit)
    assert proc.returncode == 3
    assert "finite" in proc.stderr


@pytest.mark.parametrize(
    "header, rows",
    [
        ("degree: -1\npolynomial: 1,1,1\n", ["0,0,0,0"] + ["1,1,0,0"] * 3),
        ("degree: 2\npolynomial: 1,1,1\n", ["0,0,0,0"] + ["1,1,0,0"] * 3),
    ],
)
def test_demod_bad_pps_file_is_format_error(tmp_path, header, rows):
    fields = tmp_path / "fields.json"
    save_fields(canonical_inputs(build_pps_set(2), 2), fields)
    bad = tmp_path / "bad.pps"
    bad.write_text(header + "mapping: pi\n" + "\n".join(rows) + "\n")
    proc = run_cli("demod", "--fields", fields, "--pps", bad)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ["demod", "--fields", "{bad}.json", "--pps", "{pps}"],
        ["demod", "--fields", "{fields}", "--pps", "{bad}.pps"],
        ["reconstruct", "--matrix", "{bad}.json"],
        ["reconstruct", "--matrix", "{bad}.csv"],
        ["grover", "--db", "{bad}.json", "--query", "1"],
        ["simulate", "--inputs", "{fields}", "--circuit", "{bad}.json"],
        ["simulate", "--inputs", "{bad}.json"],
        ["simulate", "--canonical", "2", "--pps", "{bad}.pps"],
    ],
    ids=[
        "demod-fields",
        "demod-pps",
        "reconstruct-json",
        "reconstruct-csv",
        "grover-db",
        "simulate-circuit",
        "simulate-inputs",
        "simulate-pps",
    ],
)
def test_non_utf8_file_is_format_error(tmp_path, set3, args):
    paths = {"pps": tmp_path / "set3.pps", "fields": tmp_path / "fields.json"}
    save_pps_set(set3, paths["pps"])
    save_fields(canonical_inputs(set3, 2), paths["fields"])
    paths["bad"] = tmp_path / "bad"
    argv = [arg.format(**paths) for arg in args]
    bad = next(arg for arg in argv if arg.startswith(str(paths["bad"])))
    with open(bad, "wb") as fh:
        fh.write(b"\xff\xfe")
    proc = run_cli(*argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: {bad}: not UTF-8 text")


def test_grover_fractional_entry_is_format_error(tmp_path):
    db_path = tmp_path / "db.json"
    db_path.write_text("[61.9, 63]")
    proc = run_cli("grover", "--db", db_path, "--query", "61")
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: {db_path}: bad database file")
    assert "61.9" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("entry", ["Infinity", "NaN"])
def test_grover_non_finite_entry_is_format_error(tmp_path, entry):
    db_path = tmp_path / "db.json"
    db_path.write_text(f"[{entry}, 63]")
    proc = run_cli("grover", "--db", db_path, "--query", "63")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: {db_path}: bad database file")
    assert f"expected an integer, got {entry}" in proc.stderr
    assert proc.stdout == ""
