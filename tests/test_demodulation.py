"""Quadrature demodulation and mode-status quantization."""
import itertools

import numpy as np
import pytest

from ppsim import (
    ClassicalField,
    DimensionMismatchError,
    ModeStatus,
    ModeStatusMatrix,
    bell_array,
    canonical_inputs,
    correlate,
    demodulate_mode,
    format_cell,
    make_single_pps_field,
    mode_status,
    mode_status_matrix,
    quantize,
)


def _field_from_sets(pset, mode0_idx, mode1_idx, coeffs=None):
    """Sum of unit carriers per mode; coeffs maps (mode, j) to a weight."""
    samples = np.zeros((pset.length, 2), dtype=np.complex128)
    for j in mode0_idx:
        samples[:, 0] += (coeffs or {}).get((0, j), 1.0) * pset.carriers[j]
    for j in mode1_idx:
        samples[:, 1] += (coeffs or {}).get((1, j), 1.0) * pset.carriers[j]
    return ClassicalField(samples)


def test_demodulate_recovers_coefficients(set3):
    fld = _field_from_sets(
        set3, [1, 2], [3], coeffs={(0, 1): 0.3, (0, 2): -1.0, (1, 3): 2.5j}
    )
    assert demodulate_mode(fld, 0, set3.sequence(1)) == pytest.approx(0.3, abs=1e-12)
    assert demodulate_mode(fld, 0, set3.sequence(2)) == pytest.approx(-1.0, abs=1e-12)
    assert demodulate_mode(fld, 0, set3.sequence(3)) == pytest.approx(0.0, abs=1e-12)
    assert demodulate_mode(fld, 1, set3.sequence(3)) == pytest.approx(2.5j, abs=1e-12)


def test_demodulate_length_mismatch(set3, set4):
    fld = ClassicalField(np.zeros((8, 2)))
    with pytest.raises(DimensionMismatchError):
        demodulate_mode(fld, 0, set4.sequence(1))


def test_quantize_thresholds():
    assert quantize(0.9) == 1
    assert quantize(-0.9) == -1
    assert quantize(0.3) == 0
    assert quantize(0.5) == 1  # boundary counts as a hit
    assert quantize(-0.5) == -1
    assert quantize(0.4 + 9j) == 0  # decision reads the real part only
    assert quantize(0.3, tau=0.25) == 1


@pytest.mark.parametrize(
    "raw",
    [
        float("nan"),
        float("inf"),
        complex(0.9, float("nan")),
        np.array([0.9, float("nan")]),
        np.array([[float("-inf"), 0.0]]),
    ],
)
def test_quantize_refuses_non_finite_raws(raw):
    # NaN once quantized to an empty cell, and [nan, inf] to [0, 1]
    with pytest.raises(ValueError, match="raw correlations must be finite"):
        quantize(raw)


def test_mode_status_and_strings(set3):
    fld = make_single_pps_field(set3, 2, mode_weights=(1.0, -1.0))
    status = mode_status(fld, set3.sequence(2))
    assert status.pair == (1, -1)
    assert format_cell(status.pair) == "(1,-1)"
    off = mode_status(fld, set3.sequence(5))
    assert off.is_zero and format_cell(off.pair) == "0"
    with pytest.raises(ValueError):
        mode_status(fld, set3.sequence(2), tau=0.0)


def test_separability_all_subsets(set3):
    # every subset on mode0 (complement on mode1) demodulates exactly
    indices = range(1, 8)
    for size in range(8):
        for subset in itertools.combinations(indices, size):
            chosen = set(subset)
            rest = [j for j in indices if j not in chosen]
            fld = _field_from_sets(set3, sorted(chosen), rest)
            for j in indices:
                status = mode_status(fld, set3.sequence(j))
                expect = (1, 0) if j in chosen else (0, 1)
                assert status.pair == expect


def test_matrix_construction_and_access(set3):
    fields = canonical_inputs(set3, 3)
    matrix = mode_status_matrix(fields, pset=set3)
    assert matrix.field_count == 3 and matrix.reference_count == 3
    for i in range(1, 4):
        for j in range(1, 4):
            assert matrix.status(i, j).pair == ((1, 1) if i == j else (0, 0))
    assert matrix.to_strings()[0] == ["(1,1)", "0", "0"]


def test_matrix_against_explicit_references(set3):
    fields = canonical_inputs(set3, 2)
    refs = [set3.sequence(1), set3.sequence(2), set3.sequence(3)]
    matrix = mode_status_matrix(fields, refs=refs)
    assert matrix.field_count == 2 and matrix.reference_count == 3
    assert matrix.status(1, 1).pair == (1, 1)
    assert matrix.status(2, 3).pair == (0, 0)


def test_matrix_takes_one_reference_source(set3):
    fields = canonical_inputs(set3, 2)
    refs = [set3.sequence(1), set3.sequence(2)]
    with pytest.raises(TypeError):
        mode_status_matrix(fields, refs=refs, pset=set3)
    with pytest.raises(TypeError):
        mode_status_matrix(fields, refs=set3)
    with pytest.raises(TypeError):
        mode_status_matrix(fields, set3)
    with pytest.raises(TypeError):
        mode_status_matrix(fields, pset=refs)
    with pytest.raises(DimensionMismatchError):
        mode_status_matrix(fields)
    assert mode_status_matrix(fields, refs=refs) == mode_status_matrix(fields, pset=set3)


def test_matrix_equality_and_from_pairs(set3):
    fields = canonical_inputs(set3, 2)
    m1 = mode_status_matrix(fields, pset=set3)
    m2 = ModeStatusMatrix.from_pairs([[(1, 1), (0, 0)], [(0, 0), (1, 1)]])
    m3 = ModeStatusMatrix.from_pairs([[(1, 1), (0, 0)], [(0, 0), (-1, 1)]])
    assert m1 == m2
    assert m1 != m3
    assert m1 != ModeStatusMatrix.from_pairs([[(1, 1)]])
    assert (m1 == "nope") is False


def test_threshold_robustness(set3):
    fields = canonical_inputs(set3, 4)
    baseline = mode_status_matrix(fields, pset=set3, tau=0.5)
    for tau in (0.25, 0.4, 0.6, 0.75):
        assert mode_status_matrix(fields, pset=set3, tau=tau) == baseline


def test_too_many_fields_for_set(set3):
    fields = [ClassicalField(np.zeros((8, 2))) for _ in range(8)]
    with pytest.raises(DimensionMismatchError):
        mode_status_matrix(fields, pset=set3)


def test_matrix_slot_mismatch(set3):
    with pytest.raises(DimensionMismatchError):
        mode_status_matrix([ClassicalField(np.zeros((4, 2)))], pset=set3)


def test_matrix_fields_of_unequal_length(set3):
    fields = canonical_inputs(set3, 2) + [ClassicalField(np.zeros((4, 2)))]
    with pytest.raises(DimensionMismatchError, match="input fields differ in length"):
        mode_status_matrix(fields, pset=set3)
    with pytest.raises(DimensionMismatchError, match="input fields differ in length"):
        mode_status_matrix(fields[::-1], refs=[set3.sequence(1)])


def test_mode_status_raw_retained(set3):
    fld = _field_from_sets(set3, [2], [], coeffs={(0, 2): 0.75})
    status = mode_status(fld, set3.sequence(2))
    assert status.pair == (1, 0)
    assert status.raw[0] == pytest.approx(0.75, abs=1e-12)
    frozen = ModeStatus(1, 0)
    assert frozen.pair == (1, 0) and frozen.raw == (0j, 0j)


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_threshold_rejected(set3, tau):
    # without the check, tau <= 0 or NaN quantized psi+ to |00> - |01> - |10> + |11>
    outputs = bell_array("psi+").run(canonical_inputs(set3, 2))
    with pytest.raises(ValueError, match="threshold tau"):
        mode_status_matrix(outputs, pset=set3, tau=tau)
    with pytest.raises(ValueError, match="threshold tau"):
        mode_status(outputs[0], set3.sequence(1), tau=tau)


def test_zero_slot_inputs_fail(set3):
    with pytest.raises(DimensionMismatchError, match="N >= 1"):
        ClassicalField(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatchError, match="empty"):
        correlate(np.zeros(0), np.zeros(0))
    # a one-slot field is still a field
    assert ClassicalField(np.ones((1, 2))).slot_count == 1


def test_matrix_refs_must_be_rows(set3):
    fields = canonical_inputs(set3, 1)
    with pytest.raises(DimensionMismatchError, match="2-D array of carrier rows"):
        mode_status_matrix(fields, refs=set3.sequence(1))
    with pytest.raises(DimensionMismatchError, match="reference length differs"):
        mode_status_matrix(fields, refs=[set3.sequence(1)[:-1]])


def test_matrix_refs_of_ragged_rows_raise_a_dimension_error(set3):
    # numpy's untyped "inhomogeneous shape" ValueError once escaped
    fields = canonical_inputs(set3, 2)
    with pytest.raises(DimensionMismatchError, match="differ in length"):
        mode_status_matrix(fields, refs=[set3.sequence(1), set3.sequence(2)[:-1]])


def test_matrix_refuses_bool_refs(set3):
    # bool rows once demodulated to an all-empty grid
    fields = canonical_inputs(set3, 2)
    with pytest.raises(TypeError, match="carrier rows must be numbers"):
        mode_status_matrix(fields, refs=np.ones((2, set3.length), dtype=bool))


@pytest.mark.parametrize("unit", ["1", None, object()])
def test_matrix_refuses_string_and_object_refs(set3, unit):
    # these once failed in the product with "cannot conjugate non-numeric dtype"
    fields = canonical_inputs(set3, 2)
    with pytest.raises(TypeError, match="carrier rows must be numbers"):
        mode_status_matrix(fields, refs=[[unit] * set3.length])


@pytest.mark.parametrize(
    "fields",
    [np.zeros((8, 2)), np.zeros((2, 8, 2)), [np.zeros((8, 2))], (np.zeros((8, 2)),), "ab"],
)
def test_matrix_refuses_what_is_not_fields(set3, fields):
    # a bare ndarray once gave numpy's ambiguous-truth ValueError, a list of
    # arrays an AttributeError on slot_count
    with pytest.raises(TypeError, match="ClassicalField"):
        mode_status_matrix(fields, pset=set3)
    with pytest.raises(TypeError, match="ClassicalField"):
        mode_status_matrix(fields, refs=[set3.sequence(1)])


@pytest.mark.parametrize("tau", [True, False, np.True_])
def test_bool_threshold_rejected(set3, set4, tau):
    from ppsim import GroverDatabase, ShorInstance, grover_search, shor_factor

    # quantize(0.7, True) once read True as tau = 1 and returned 0
    with pytest.raises(ValueError, match="threshold tau"):
        quantize(0.7, tau)
    outputs = bell_array("psi+").run(canonical_inputs(set3, 2))
    with pytest.raises(ValueError, match="threshold tau"):
        mode_status_matrix(outputs, pset=set3, tau=tau)
    with pytest.raises(ValueError, match="threshold tau"):
        shor_factor(ShorInstance(15, 7), set4, tau=tau)
    with pytest.raises(ValueError, match="threshold tau"):
        grover_search(GroverDatabase(3, [5], {5: 1}), 5, set3, tau=tau)
    assert quantize(0.7, 1) == 0 and quantize(0.7, np.float64(0.5)) == 1
