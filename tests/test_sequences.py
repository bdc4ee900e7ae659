"""Sequence generation and algebra: periods, orthogonality, closure."""
import math

import numpy as np
import pytest

from ppsim import (
    HALF_PI,
    PI,
    PRIMITIVE_POLYNOMIALS,
    ClassicalField,
    DegenerateStateError,
    DimensionMismatchError,
    NonPrimitivePolynomialError,
    balance_sum,
    build_pps_set,
    correlate,
    demodulate_mode,
    generate_m_sequence,
    sequence_product,
)
from ppsim.fixtures import reference_sequence_rows


def test_degree3_rows_match_reference(set3):
    degree, polynomial, rows = reference_sequence_rows()
    assert set3.degree == degree
    assert set3.polynomial == polynomial
    assert np.array_equal(set3.bit_rows, rows)


def test_builtin_polynomials_are_primitive():
    for degree, poly in PRIMITIVE_POLYNOMIALS.items():
        seq = generate_m_sequence(poly)
        assert len(seq) == 2**degree - 1


def test_m_sequence_balance_counts():
    # one more 1 than 0 in every maximal-length period
    for degree in (2, 3, 4, 5, 6):
        bits = generate_m_sequence(PRIMITIVE_POLYNOMIALS[degree])
        assert sum(bits) == 2 ** (degree - 1)


def test_m_sequence_custom_seed_is_cyclic_shift():
    poly = PRIMITIVE_POLYNOMIALS[3]
    base = generate_m_sequence(poly)
    shifted = generate_m_sequence(poly, seed=base[2:5])
    assert shifted == base[2:] + base[:2]


def test_degenerate_seed_rejected():
    with pytest.raises(DegenerateStateError, match="degenerate LFSR state"):
        generate_m_sequence(PRIMITIVE_POLYNOMIALS[4], seed=(0, 0, 0, 0))


def test_nonprimitive_polynomial_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has period 6, not 15
    with pytest.raises(NonPrimitivePolynomialError, match="polynomial not primitive"):
        generate_m_sequence((1, 0, 1, 0, 1))


def test_polynomial_validation():
    with pytest.raises(ValueError):
        generate_m_sequence((1, 1))  # degree 1
    with pytest.raises(ValueError):
        generate_m_sequence((0, 1, 1, 1))  # c0 = 0
    with pytest.raises(ValueError):
        generate_m_sequence((1, 2, 1))  # non-binary coefficient
    with pytest.raises(ValueError):
        generate_m_sequence(PRIMITIVE_POLYNOMIALS[3], degree=4)
    with pytest.raises(ValueError):
        generate_m_sequence(PRIMITIVE_POLYNOMIALS[3], seed=(1, 1))
    with pytest.raises(ValueError):
        build_pps_set(40)  # no built-in polynomial that large


@pytest.mark.parametrize("bad", [1.5, 0.5, np.float32(1.25), "1"])
def test_lfsr_inputs_are_bits_not_truncated(bad):
    with pytest.raises(ValueError, match="coefficients must be 0 or 1"):
        generate_m_sequence((1, 1, 0, bad))
    with pytest.raises(ValueError, match="seed must be 3 bits"):
        build_pps_set(3, seed=(bad, 0, 1))
    # integral values of other types are the same bits
    poly = (1.0, np.uint8(1), 0, True)
    assert generate_m_sequence(poly, seed=(1.0, 0, np.int64(1))) == generate_m_sequence(
        (1, 1, 0, 1), seed=(1, 0, 1)
    )


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, np.float32("nan")])
def test_lfsr_inputs_reject_non_finite_values(bad):
    with pytest.raises(ValueError, match="coefficients must be 0 or 1"):
        generate_m_sequence((1, 1, 0, bad))
    with pytest.raises(ValueError, match="seed must be 3 bits"):
        generate_m_sequence((1, 1, 0, 1), seed=(1, bad, 1))


def test_set_structure(set3):
    n = set3.length
    assert n == 8 and set3.usable_count == 7
    assert not set3.bit_rows[0].any()
    assert not set3.bit_rows[:, n - 1].any()  # trailing unit is always 0
    base = set3.bit_rows[1, : n - 1]
    for j in range(2, n):
        assert np.array_equal(set3.bit_rows[j, : n - 1], np.roll(base, -(j - 1)))


def test_window_property():
    # first s bits of rows 1..N-1 enumerate every nonzero s-bit pattern
    for degree in (2, 3, 4, 5):
        pset = build_pps_set(degree)
        windows = {tuple(row[:degree]) for row in pset.bit_rows[1:]}
        assert len(windows) == pset.usable_count
        assert tuple([0] * degree) not in windows


def test_sequence_accessors(set3):
    carrier = set3.sequence(3)
    assert carrier.shape == (8,)
    assert np.allclose(carrier, np.exp(1j * PI * set3.bit_rows[3]))
    with pytest.raises(IndexError):
        set3.sequence(8)
    with pytest.raises(IndexError):
        set3.sequence(-1)


@pytest.mark.parametrize("mapping", [PI, HALF_PI, 0.75])
def test_carrier_rows_match_the_phase_formulas(mapping):
    # sequence(j) is carriers[j] bit for bit, and the carrier-row forms of
    # correlate, balance_sum and demodulate_mode equal the phase-domain ones
    rng = np.random.default_rng(3)
    for degree in range(2, 9):
        pset = build_pps_set(degree, mapping_phase=mapping)
        n = pset.length
        phases = mapping * pset.bit_rows.astype(float)
        table = pset.carriers.view(np.float64)
        rows = [pset.sequence(j) for j in range(n)]
        samples = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        fld = ClassicalField(samples)
        for j, row in enumerate(rows):
            assert np.array_equal(row.view(np.float64), table[j])
            for i in (0, 1, n // 2, n - 1):
                want = np.mean(np.exp(1j * (phases[i] - phases[j])))
                assert abs(correlate(rows[i], row) - want) <= 1e-15
            assert balance_sum(row) == np.sum(np.exp(1j * phases[j]))
            want = np.sum(np.exp(1j * (phases[j] + 0.4)))
            # a sum of n unit terms: compared per unit
            assert abs(balance_sum(row, 0.4) - want) / n <= 1e-15
            for mode in (0, 1):
                want = np.vdot(np.exp(1j * phases[j]), samples[:, mode]) / n
                assert abs(demodulate_mode(fld, mode, row) - want) <= 1e-15


def test_orthonormality_pi_mapping():
    for degree in (2, 3, 4, 5, 6):
        pset = build_pps_set(degree)
        c = pset.carriers
        gram = (c @ c.conj().T) / pset.length
        assert np.abs(gram - np.eye(pset.length)).max() < 1e-12


def test_correlate_matches_gram(set3):
    c = set3.carriers
    gram = (c @ c.conj().T) / set3.length
    for i in (0, 1, 4):
        for j in (0, 2, 7):
            assert correlate(set3.sequence(i), set3.sequence(j)) == pytest.approx(
                complex(gram[i, j]), abs=1e-12
            )


def test_correlate_length_mismatch(set3, set4):
    with pytest.raises(DimensionMismatchError):
        correlate(set3.sequence(1), set4.sequence(1))


def test_half_pi_mapping_breaks_orthogonality(set3_half):
    # documented deviation: nonzero cross-correlation under the pi/2 map
    value = correlate(set3_half.sequence(1), set3_half.sequence(2))
    assert abs(value.real - 0.5) < 1e-12


def test_balance(set3):
    for j in range(1, set3.length):
        assert abs(balance_sum(set3.sequence(j))) < 1e-12
    theta = 0.7
    assert balance_sum(set3.sequence(0), theta) == pytest.approx(
        8 * np.exp(1j * theta), abs=1e-12
    )


def test_mapping_tokens():
    assert build_pps_set(2, mapping_phase="pi").mapping_phase == PI
    assert build_pps_set(2, mapping_phase="pi/2").mapping_phase == HALF_PI
    assert build_pps_set(2, mapping_phase=1.25).mapping_phase == 1.25
    with pytest.raises(ValueError):
        build_pps_set(2, mapping_phase="tau")


@pytest.mark.parametrize("mapping", [float("nan"), float("inf"), -np.inf, "nan", " -Inf "])
def test_mapping_must_be_finite(mapping):
    with pytest.raises(ValueError, match="mapping phase must be finite"):
        build_pps_set(3, mapping_phase=mapping)


def test_degree_is_an_integer():
    assert np.array_equal(build_pps_set(3.0).bit_rows, build_pps_set(3).bit_rows)
    assert build_pps_set(3.0).degree == 3 and type(build_pps_set(3.0).degree) is int
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="expected an integer"):
            build_pps_set(bad)


def test_closure_forms_group(set3):
    n = set3.length
    table = [[sequence_product(i, j, set3) for j in range(n)] for i in range(n)]
    for i in range(n):
        assert table[0][i] == i and table[i][0] == i  # identity
        assert table[i][i] == 0  # self-inverse
        for j in range(n):
            assert table[i][j] == table[j][i]  # abelian
            # matches the direct GF(2) row sum
            combined = np.bitwise_xor(set3.bit_rows[i], set3.bit_rows[j])
            assert np.array_equal(set3.bit_rows[table[i][j]], combined)
    for row in table:
        assert sorted(row) == list(range(n))  # Latin square


def test_sequence_product_index_range(set3):
    with pytest.raises(IndexError):
        sequence_product(0, 8, set3)


def test_sequence_product_integer_rule(set3):
    for one in (1.0, np.int64(1)):
        assert sequence_product(one, 2, set3) == 4
        assert sequence_product(2, one, set3) == 4
    for bad in (True, 1.5):
        with pytest.raises(ValueError, match="expected an integer"):
            sequence_product(bad, 2, set3)
        with pytest.raises(ValueError, match="expected an integer"):
            sequence_product(2, bad, set3)


def test_random_closure_sweep():
    rng = np.random.default_rng(5)
    for degree in (4, 5, 6):
        pset = build_pps_set(degree)
        n = pset.length
        for _ in range(50):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            k = sequence_product(i, j, pset)
            assert np.array_equal(
                pset.bit_rows[k], np.bitwise_xor(pset.bit_rows[i], pset.bit_rows[j])
            )
            # carriers multiply accordingly under the pi mapping
            assert np.allclose(
                pset.carriers[i] * pset.carriers[j], pset.carriers[k], atol=1e-12
            )
