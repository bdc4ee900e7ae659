"""A PPS set is its generator: rows gathered on demand, closure by window XOR.

The references here rebuild the whole N x N table the way a set held it
before: n copies of the m-sequence written over rows 1.., the last column
zeroed, carriers by np.where over every bit, and the closure product found
by scanning every row for the XOR of two others.
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
    PpsSet,
    TableTooLargeError,
    build_pps_set,
    canonical_inputs,
    generate_m_sequence,
    sequence_product,
)
from ppsim.sequences import MAX_TABLE_UNITS


def _reference_rows(degree, seed):
    core = np.array(
        generate_m_sequence(PRIMITIVE_POLYNOMIALS[degree], seed=seed), dtype=np.uint8
    )
    n = 1 << degree
    rows = np.zeros((n, n), dtype=np.uint8)
    rows[1:].reshape(n, n - 1)[:] = core
    rows[1:, n - 1] = 0
    return rows


def _traced_peak(fn):
    """(result or raised error, traced peak bytes) of one call."""
    tracemalloc.start()
    try:
        try:
            out = fn()
        except Exception as exc:  # the caller checks the type
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(2, 12),
    window=st.integers(1, (1 << 12) - 1),
    mapping=st.sampled_from([PI, HALF_PI, 0.75]),
    data=st.data(),
)
def test_gathered_rows_tables_and_products_match_the_reference(degree, window, mapping, data):
    n = 1 << degree
    window = window % (n - 1) + 1  # a nonzero seed
    seed = tuple((window >> t) & 1 for t in range(degree))
    pset = build_pps_set(degree, mapping_phase=mapping, seed=seed)
    rows = _reference_rows(degree, seed)
    drawn = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
    index = [0, n - 1, *drawn]

    gathered = pset._rows(index)
    assert gathered.dtype == np.uint8
    assert gathered.tobytes() == rows[index].tobytes()
    bits = pset.bit_rows
    assert bits.dtype == np.uint8 and bits.tobytes() == rows.tobytes()
    del bits
    carriers = pset.carriers
    assert carriers.dtype == np.complex128 and carriers.shape == (n, n)
    for start in range(0, n, 256):  # the reference a block of rows at a time
        expect = np.where(rows[start : start + 256], np.exp(1j * mapping), 1)
        assert np.array_equal(
            carriers[start : start + 256].view(np.float64), expect.view(np.float64)
        )
    del carriers
    for j in index:
        expect = np.where(rows[j], np.exp(1j * mapping), 1)
        assert np.array_equal(pset.sequence(j).view(np.float64), expect.view(np.float64))

    for i in index:
        for j in index[:3]:
            scan = np.flatnonzero((rows == (rows[i] ^ rows[j])).all(axis=1))
            assert scan.tolist() == [sequence_product(i, j, pset)]


def test_a_set_holds_no_table():
    tracemalloc.start()
    try:
        pset = build_pps_set(12)
        sequence_product(5, 9, pset)  # builds the label tables
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6  # the bit table alone is 16.8 MB


def test_a_set_is_not_built_from_rows(set3):
    # the fourth field is the seed: a table of rows is not one
    with pytest.raises(ValueError, match="seed must be 3 bits"):
        PpsSet(3, set3.polynomial, PI, set3.bit_rows)
    built = PpsSet(3.0, list(set3.polynomial), "pi", [0, 1, 0])
    assert built.seed == (0, 1, 0) and built.polynomial == set3.polynomial
    assert built.bit_rows.tobytes() == build_pps_set(3, seed=(0, 1, 0)).bit_rows.tobytes()


def test_degree16_builds_small():
    pset, peak = _traced_peak(lambda: build_pps_set(16))
    assert isinstance(pset, PpsSet) and pset.length == 65536
    assert peak < 50e6


def test_degree16_tables_refuse_before_they_allocate():
    pset = build_pps_set(16)
    for read in (lambda: pset.carriers, lambda: pset.bit_rows):
        err, peak = _traced_peak(read)
        assert isinstance(err, TableTooLargeError)
        assert "allowed" in str(err)
        assert peak < 1e6
    rows = MAX_TABLE_UNITS // pset.length + 1  # one row past the cap
    err, peak = _traced_peak(lambda: canonical_inputs(pset, rows))
    assert isinstance(err, TableTooLargeError) and peak < 1e6
    # below the cap, rows are gathered: the last usable one included
    last = pset.length - 1
    assert pset.sequence(last).shape == (pset.length,)
    assert sequence_product(1, last, pset) == sequence_product(last, 1, pset)
