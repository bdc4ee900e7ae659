"""The PPS set layer in whole-array form, against per-bit reference versions.

Each reference here is the plain construction the set layer replaced: a
per-bit ",".join writer, np.roll row shifts, the complex exponential over
every bit and a scan of every row for the closure product.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import (
    HALF_PI,
    PI,
    PRIMITIVE_POLYNOMIALS,
    FormatError,
    build_pps_set,
    canonical_inputs,
    generate_m_sequence,
    load_pps_set,
    SymbolicField,
    save_pps_set,
    sequence_product,
    to_waveform,
)

MAPPINGS = [(PI, "pi"), (HALF_PI, "pi/2"), (0.75, "0.75")]


def _header_lines(pset, mapping_text):
    return [
        f"degree: {pset.degree}",
        "polynomial: " + ",".join(str(int(c)) for c in pset.polynomial),
        "mapping: " + mapping_text,
    ]


def _row1_text(pset, mapping_text):
    """The four-header file: the three headers plus row 1, no row lines."""
    row1 = "row1: " + ",".join(str(int(b)) for b in pset.bit_rows[1])
    return "\n".join(_header_lines(pset, mapping_text) + [row1]) + "\n"


def _reference_text(pset, mapping_text):
    """The legacy file: the three headers, then every bit row."""
    lines = _header_lines(pset, mapping_text)
    lines += [",".join(str(int(b)) for b in row) for row in pset.bit_rows]
    return "\n".join(lines) + "\n"


def _rolled_rows(degree, seed=None):
    core = np.array(
        generate_m_sequence(PRIMITIVE_POLYNOMIALS[degree], seed=seed), dtype=np.uint8
    )
    n = 1 << degree
    rows = np.zeros((n, n), dtype=np.uint8)
    for j in range(1, n):
        rows[j, : n - 1] = np.roll(core, -(j - 1))
    return rows


def _scan_product(i, j, rows):
    matches = np.nonzero((rows == np.bitwise_xor(rows[i], rows[j])).all(axis=1))[0]
    assert matches.size == 1
    return int(matches[0])


@pytest.mark.parametrize("mapping, mapping_text", MAPPINGS)
def test_save_matches_per_bit_writer(tmp_path, mapping, mapping_text):
    path = tmp_path / "set.pps"
    for degree in range(2, 9):
        pset = build_pps_set(degree, mapping_phase=mapping)
        save_pps_set(pset, path)
        assert path.read_bytes() == _row1_text(pset, mapping_text).encode()
        path.write_text(_reference_text(pset, mapping_text))
        legacy = load_pps_set(path)
        assert np.array_equal(legacy.bit_rows, pset.bit_rows)
        assert (legacy.degree, legacy.polynomial) == (pset.degree, pset.polynomial)
        assert legacy.mapping_phase == pset.mapping_phase


@pytest.mark.parametrize("mapping, mapping_text", MAPPINGS)
def test_carriers_match_complex_exponential(mapping, mapping_text):
    for degree in (2, 3, 6):
        pset = build_pps_set(degree, mapping_phase=mapping)
        expect = np.exp(1j * pset.mapping_phase * pset.bit_rows)
        assert pset.carriers.dtype == np.complex128
        assert np.array_equal(pset.carriers.view(np.float64), expect.view(np.float64))


def test_build_matches_rolled_rows():
    for degree in range(2, 11):
        assert np.array_equal(build_pps_set(degree).bit_rows, _rolled_rows(degree))
    for degree, seed in [(3, (0, 1, 0)), (5, (1, 0, 0, 1, 1)), (8, (0,) * 7 + (1,))]:
        built = build_pps_set(degree, seed=seed)
        assert np.array_equal(built.bit_rows, _rolled_rows(degree, seed))
        assert tuple(built.bit_rows[1, :degree]) == seed


def test_product_matches_row_scan_on_every_pair():
    for degree in range(2, 8):
        pset = build_pps_set(degree)
        n = pset.length
        for i in range(n):
            for j in range(n):
                assert sequence_product(i, j, pset) == _scan_product(i, j, pset.bit_rows)


def test_product_matches_row_scan_on_large_sets():
    rng = np.random.default_rng(12)
    for degree in (10, 11, 12):
        pset = build_pps_set(degree)
        for i, j in rng.integers(0, pset.length, size=(200, 2)):
            assert sequence_product(int(i), int(j), pset) == _scan_product(i, j, pset.bit_rows)


def test_canonical_inputs_skip_the_carrier_table():
    pset = build_pps_set(12)
    tracemalloc.start()
    try:
        canonical_inputs(pset, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6
    small = build_pps_set(3)
    for k, fld in enumerate(canonical_inputs(small, 7), start=1):
        expect = small.carriers[k].view(np.float64)
        for mode in (0, 1):
            assert np.array_equal(fld.samples[:, mode].copy().view(np.float64), expect)


def test_to_waveform_skips_the_carrier_table():
    pset = build_pps_set(12)
    tracemalloc.start()
    try:
        to_waveform(SymbolicField({1: 1.0}, {2: 1.0}), pset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


@pytest.mark.parametrize("degree", [2, 3, 5, 8])
def test_to_waveform_matches_carrier_sum(degree):
    # the reference adds coeff * carriers[j] one index after another
    pset = build_pps_set(degree)
    rng = np.random.default_rng(degree)
    for _ in range(20):
        maps = []
        for _ in range(2):
            k = int(rng.integers(0, min(12, pset.length) + 1))
            idx = rng.choice(pset.length, size=k, replace=False).tolist()
            coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
            coeffs[rng.random(k) < 0.3] = -1.0
            maps.append(dict(zip(idx, coeffs.tolist())))
        sf = SymbolicField(*maps)
        expect = np.zeros((pset.length, 2), dtype=np.complex128)
        for mode, coeffs in enumerate((sf.mode0, sf.mode1)):
            for j, coeff in coeffs.items():
                expect[:, mode] += coeff * pset.carriers[j]
        got = to_waveform(sf, pset).samples
        assert np.array_equal(got.view(np.float64), expect.view(np.float64))


def test_load_accepts_comments_spaces_and_late_headers(tmp_path, set3):
    lines = [" , ".join(str(int(b)) for b in row) for row in set3.bit_rows]
    lines[2] = "\t" + lines[2].replace(" ", "\t") + "  "
    text = "\n".join(
        ["# a PPS set", "", *lines[:4], "# halfway", "", *lines[4:], ""]
        + ["degree: 3", "polynomial: 1,1,0,1", "mapping: pi", ""]
    )
    path = tmp_path / "set.pps"
    path.write_text(text)
    loaded = load_pps_set(path)
    assert np.array_equal(loaded.bit_rows, set3.bit_rows)
    assert (loaded.degree, loaded.polynomial, loaded.mapping_phase) == (3, set3.polynomial, PI)


def test_load_round_trips_a_custom_seed(tmp_path):
    pset = build_pps_set(5, seed=(0, 1, 1, 0, 1), mapping_phase=0.75)
    path = tmp_path / "set.pps"
    save_pps_set(pset, path)
    loaded = load_pps_set(path)
    assert np.array_equal(loaded.bit_rows, pset.bit_rows)
    assert loaded.mapping_phase == 0.75


def _write_set(path, degree, polynomial, rows):
    head = f"degree: {degree}\npolynomial: {polynomial}\nmapping: pi\n"
    path.write_text(head + "".join(row + "\n" for row in rows))


@pytest.mark.parametrize(
    "degree, polynomial, match",
    [
        (-1, "1,1,1", "degree must be >= 2"),
        (1, "1,1", "degree must be >= 2"),
        (0, "1", "degree must be >= 2"),
        (3, "1,1,1", "needs 4 polynomial coefficients"),
        (2, "1,1,0,1", "needs 3 polynomial coefficients"),
    ],
)
def test_load_rejects_bad_degree(tmp_path, degree, polynomial, match):
    path = tmp_path / "bad.pps"
    _write_set(path, degree, polynomial, ["0,0,0,0"] + ["1,1,0,0"] * 3)
    with pytest.raises(FormatError, match=match):
        load_pps_set(path)


def test_load_rejects_rows_outside_the_family(tmp_path, set3):
    path = tmp_path / "bad.pps"
    # right shape, only 0 and 1, but not the degree-2 family
    _write_set(path, 2, "1,1,1", ["0,0,0,0"] + ["1,1,0,0"] * 3)
    with pytest.raises(FormatError, match="differ from the family"):
        load_pps_set(path)
    lines = _reference_text(set3, "pi").splitlines()
    lines[3 + 5] = lines[3 + 5].replace("0", "1", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="differ from the family"):
        load_pps_set(path)


def test_load_maps_register_errors(tmp_path):
    path = tmp_path / "bad.pps"
    _write_set(path, 2, "1,1,1", ["0,0,0,0"] * 4)
    with pytest.raises(FormatError, match="degenerate"):
        load_pps_set(path)
    save_pps_set(build_pps_set(4), path)
    path.write_text(path.read_text().replace("polynomial: 1,1,0,0,1", "polynomial: 1,0,1,0,1"))
    with pytest.raises(FormatError, match="not primitive"):
        load_pps_set(path)
    _write_set(path, 2, "1,2,1", ["0,0,0,0", "1,1,0,0", "1,0,1,0", "0,1,1,0"])
    with pytest.raises(FormatError, match="coefficients must be 0 or 1"):
        load_pps_set(path)


@pytest.mark.parametrize("row", ["0 1,1,0,0", "0,,1,0", "0,1,1,01", "0,1,1,x", "0,1,1, "])
def test_load_rejects_bad_tokens(tmp_path, row):
    path = tmp_path / "bad.pps"
    _write_set(path, 2, "1,1,1", ["0,0,0,0", "1,1,0,0", "1,0,1,0", row])
    with pytest.raises(FormatError, match="only 0 and 1"):
        load_pps_set(path)


def test_load_checks_shape_before_tokens(tmp_path):
    path = tmp_path / "bad.pps"
    _write_set(path, 2, "1,1,1", ["0,0,0,0", "1,1,0", "1,0,1,0", "x,1,1,0"])
    with pytest.raises(FormatError, match="expected 4 rows of 4 bits, got 4 rows of 3..4"):
        load_pps_set(path)


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(2, 12),
    window=st.integers(0, 1 << 12),
    mapping=st.sampled_from([PI, HALF_PI, 0.75, float(np.nextafter(PI, 4))]),
)
def test_round_trip_is_exact(tmp_path_factory, degree, window, mapping):
    window = window % ((1 << degree) - 1) + 1  # a nonzero seed
    seed = tuple((window >> t) & 1 for t in range(degree))
    pset = build_pps_set(degree, mapping_phase=mapping, seed=seed)
    path = tmp_path_factory.mktemp("round") / "set.pps"
    save_pps_set(pset, path)
    loaded = load_pps_set(path)
    assert loaded.bit_rows.dtype == pset.bit_rows.dtype
    assert loaded.bit_rows.tobytes() == pset.bit_rows.tobytes()
    assert (loaded.degree, loaded.polynomial) == (pset.degree, pset.polynomial)
    assert loaded.mapping_phase == mapping


def test_degree12_file_holds_no_rows(tmp_path):
    path = tmp_path / "set12.pps"
    save_pps_set(build_pps_set(12), path)
    assert path.stat().st_size < 10_000


def test_load_rejects_row1_with_row_lines(tmp_path, set3):
    path = tmp_path / "both.pps"
    rows = _reference_text(set3, "pi").splitlines(keepends=True)[3:]
    path.write_text(_row1_text(set3, "pi") + "".join(rows))
    with pytest.raises(FormatError, match="row1 header and row lines"):
        load_pps_set(path)


@pytest.mark.parametrize(
    "row1, match",
    [
        ("1,1,1,0,1,0,0", "expected 1 rows of 8 bits, got 1 rows of 7..7"),
        ("1,1,1,0,1,0,0,0,0", "expected 1 rows of 8 bits, got 1 rows of 9..9"),
        ("", "expected 1 rows of 8 bits"),
        ("1,1,1,0,1,0,x,0", "only 0 and 1"),
    ],
)
def test_load_rejects_a_malformed_row1(tmp_path, set3, row1, match):
    path = tmp_path / "bad.pps"
    path.write_text("\n".join(_header_lines(set3, "pi") + ["row1: " + row1]) + "\n")
    with pytest.raises(FormatError, match=match):
        load_pps_set(path)


def test_load_rejects_a_row1_outside_the_family(tmp_path):
    pset = build_pps_set(4)
    path = tmp_path / "bad.pps"
    for t in range(pset.degree, pset.length):  # past the seed, padding unit included
        bits = pset.bit_rows[1].copy()
        bits[t] ^= 1
        row1 = "row1: " + ",".join(map(str, bits.tolist()))
        path.write_text("\n".join(_header_lines(pset, "pi") + [row1]) + "\n")
        with pytest.raises(FormatError, match="differ from the family"):
            load_pps_set(path)
