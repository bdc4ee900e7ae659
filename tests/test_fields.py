"""Two-mode fields: construction, modulation, rotations, combining."""
import numpy as np
import pytest

from ppsim import (
    MODE0,
    MODE1,
    ClassicalField,
    DimensionMismatchError,
    Unitary,
    apply_mode_gate,
    build_pps_set,
    canonical_inputs,
    make_single_pps_field,
    modulate,
    sequence_product,
)


def test_field_validation():
    with pytest.raises(DimensionMismatchError):
        ClassicalField(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatchError):
        ClassicalField(np.zeros(4))
    with pytest.raises(ValueError):
        ClassicalField(np.full((4, 2), np.nan))


def test_zero_field_and_copy():
    fld = ClassicalField(np.zeros((6, 2)))
    assert fld.slot_count == 6 and not fld.samples.any()
    dup = fld.copy()
    dup.samples[0, 0] = 1.0
    assert fld.samples[0, 0] == 0.0


def test_unitary_random_sweep():
    rng = np.random.default_rng(2)
    eye = np.eye(2)
    for _ in range(100):
        chi = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        u = Unitary(chi, theta).matrix
        assert np.abs(u @ u.conj().T - eye).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_unitary_basis_action():
    u = Unitary(0.3, 0.9)
    col = u.matrix[:, 0]
    assert col[0] == pytest.approx(np.cos(0.3), abs=1e-12)
    assert col[1] == pytest.approx(1j * np.exp(-0.9j) * np.sin(0.3), abs=1e-12)


def test_half_turn_squares_to_minus_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = float(rng.uniform(-np.pi, np.pi))
        u = Unitary(np.pi / 2, theta).matrix
        assert np.abs(u @ u + np.eye(2)).max() < 1e-12


def test_make_single_pps_field(set3):
    fld = make_single_pps_field(set3, 3, mode_weights=(2.0, 1j))
    assert np.allclose(fld.samples[:, MODE0], 2.0 * set3.carriers[3])
    assert np.allclose(fld.samples[:, MODE1], 1j * set3.carriers[3])


def test_canonical_inputs(set3):
    fields = canonical_inputs(set3, 4)
    assert len(fields) == 4
    for k, fld in enumerate(fields, start=1):
        assert np.allclose(fld.samples[:, MODE0], set3.carriers[k])
        assert np.allclose(fld.samples[:, MODE1], set3.carriers[k])
    with pytest.raises(DimensionMismatchError):
        canonical_inputs(set3, 8)


@pytest.mark.parametrize("mapping", ["pi", "pi/2", 0.75])
def test_canonical_inputs_equal_single_fields_bytewise(mapping):
    for degree in range(2, 9):
        pset = build_pps_set(degree, mapping_phase=mapping)
        fields = canonical_inputs(pset, pset.usable_count)
        for k, fld in enumerate(fields, start=1):
            want = make_single_pps_field(pset, k).samples
            assert fld.samples.view(np.float64).tobytes() == want.view(np.float64).tobytes()


def test_single_field_index_is_checked(set3):
    with pytest.raises(IndexError):
        make_single_pps_field(set3, -1)
    with pytest.raises(IndexError):
        make_single_pps_field(set3, 8)
    with pytest.raises(ValueError, match="expected an integer"):
        make_single_pps_field(set3, True)


def test_canonical_inputs_count_is_nonnegative(set3):
    assert canonical_inputs(set3, 0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        canonical_inputs(set3, -3)
    for n in (True, 1.5):
        with pytest.raises(ValueError, match="expected an integer"):
            canonical_inputs(set3, n)
    assert len(canonical_inputs(set3, 2.0)) == 2


def test_modulate_is_group_action(set3):
    fld = canonical_inputs(set3, 1)[0]
    double = modulate(modulate(fld, set3.sequence(2)), set3.sequence(5))
    k = sequence_product(2, 5, set3)
    direct = modulate(fld, set3.sequence(k))
    assert np.allclose(double.samples, direct.samples, atol=1e-12)


def test_modulate_mismatch(set3, set4):
    fld = canonical_inputs(set3, 1)[0]
    with pytest.raises(DimensionMismatchError):
        modulate(fld, set4.sequence(1))


def test_mode_split_and_combine(set3):
    fld = make_single_pps_field(set3, 4, mode_weights=(0.8, -0.6j))
    only0, only1 = apply_mode_gate(fld, "B"), apply_mode_gate(fld, "C")
    assert not only0.samples[:, MODE1].any()
    assert not only1.samples[:, MODE0].any()
    back = ClassicalField(only0.samples + only1.samples)
    assert np.allclose(back.samples, fld.samples, atol=1e-12)


@pytest.mark.parametrize("chi, theta", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0)])
def test_unitary_rejects_nonfinite_parameters(chi, theta):
    # NaN compares false, so the unitarity check alone let Unitary(nan, 0) pass
    with pytest.raises(ValueError, match="finite"):
        Unitary(chi, theta)


@pytest.mark.parametrize(
    "samples",
    [
        np.array([["1", "2"]]),
        np.array([[b"1", b"2"]]),
        np.array([[True, False]]),
        [[1, "2"]],
        np.array([[1, 2]], dtype=object),
    ],
)
def test_field_refuses_samples_that_are_not_numbers(samples):
    # string samples were once parsed into complex numbers, bools read as 0/1
    with pytest.raises(TypeError, match="field samples must be numbers"):
        ClassicalField(samples)


def test_field_takes_integer_real_and_complex_samples():
    for dtype in (np.int8, np.uint16, np.int64, np.float32, np.float64, np.complex64):
        fld = ClassicalField(np.ones((3, 2), dtype=dtype))
        assert fld.samples.dtype == np.complex128 and (fld.samples == 1).all()
    assert ClassicalField([[1, 2j]]).samples.tolist() == [[1, 2j]]
