"""The shared sign grid and the one rotation scan, against plain per-cell scans."""
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ppsim.algorithms as algorithms
from ppsim import (
    ClassicalField,
    DimensionMismatchError,
    GroverDatabase,
    ModeStatusMatrix,
    PlacementTable,
    SignGrid,
    SimulatedState,
    UnrepresentableStateError,
    build_pps_set,
    canonical_inputs,
    grover_search,
    mode_status,
    mode_status_matrix,
    reconstruct,
    sample_measurement,
    usable_rotations,
)


def _random_grids(seed=2024, per_size=12):
    """Seeded (n, n, 2) sign grids, n = 1..8, with extra empty cells."""
    rng = np.random.default_rng(seed)
    for n in range(1, 9):
        for _ in range(per_size):
            cells = rng.integers(-1, 2, size=(n, n, 2))
            cells[rng.random((n, n)) < 0.15] = 0
            yield ModeStatusMatrix(cells)


def _plain_usable(cells):
    """Per-cell scan: rotations whose every diagonal cell is nonzero."""
    n = len(cells)
    return [
        r
        for r in range(1, n + 1)
        if all(cells[i][(i + r - 1) % n] != [0, 0] for i in range(n))
    ]


def _plain_support(cells):
    """Every ket some usable rotation can yield, by per-cell expansion."""
    n = len(cells)
    kets = set()
    for r in _plain_usable(cells):
        choices = []
        for i in range(n):
            a, b = cells[i][(i + r - 1) % n]
            choices.append(("0" if a else "") + ("1" if b else ""))
        kets.update("".join(p) for p in itertools.product(*choices))
    return kets


def _plain_draw(cells, gen):
    """One draw by a per-cell scan: the rotation by one integers(len(usable)),
    then one coin per both-mode field, in field order."""
    n = len(cells)
    usable = _plain_usable(cells)
    r = usable[int(gen.integers(len(usable)))]
    digits = ""
    for i in range(n):
        a, b = cells[i][(i + r - 1) % n]
        digits += "01"[int(gen.integers(2))] if a and b else "01"[a == 0]
    return digits


def _reference_term(cells, r):
    """Rotation r's product term, grown field by field by doubling a ket dict."""
    n = len(cells)
    terms = {"": 1}
    for i in range(n):
        a, b = cells[i][(i + r - 1) % n]
        if a == 0 and b == 0:
            return {}
        grown = {}
        for bits, coeff in terms.items():
            if a != 0:
                grown[bits + "0"] = coeff * a
            if b != 0:
                grown[bits + "1"] = coeff * b
        terms = grown
    return terms


@st.composite
def _sign_grids(draw):
    """(n, n, 2) sign grids, n = 1..8, any signs."""
    n = draw(st.integers(1, 8))
    return ModeStatusMatrix(draw(arrays(np.int8, (n, n, 2), elements=st.integers(-1, 1))))


def _reference_state(cells):
    """Ordered terms of the summed usable rotations by itertools.product:
    zeros dropped, reduced by the common factor, labels ascending."""
    n = len(cells)
    total = Counter()
    for r in _plain_usable(cells):
        pairs = [cells[i][(i + r - 1) % n] for i in range(n)]
        choices = [[(d, s) for d, s in zip("01", pair) if s] for pair in pairs]
        for picks in itertools.product(*choices):
            total["".join(d for d, _ in picks)] += math.prod(s for _, s in picks)
    common = math.gcd(*total.values()) or 1
    return [(bits, c // common) for bits, c in sorted(total.items()) if c]


@st.composite
def _expanding_grids(draw):
    """(n, n, 2) sign grids, n = 1..12, with one rotation made usable and
    given both-mode cells (at least one) and signs of either kind."""
    n = draw(st.integers(1, 12))
    cells = draw(arrays(np.int8, (n, n, 2), elements=st.integers(-1, 1)))
    r = draw(st.integers(1, n))
    signs = draw(arrays(np.int8, (n, 2), elements=st.sampled_from([-1, 1])))
    modes = draw(arrays(np.int8, n, elements=st.integers(0, 2)))  # a, b or both
    modes[draw(st.integers(0, n - 1))] = 2
    signs[modes == 1, 0] = 0
    signs[modes == 0, 1] = 0
    rows = np.arange(n)
    cells[rows, (rows + r - 1) % n] = signs
    return ModeStatusMatrix(cells)


def test_random_grids_cover_both_outcomes():
    usable_counts = Counter(bool(usable_rotations(g).size) for g in _random_grids())
    assert usable_counts[True] > 10 and usable_counts[False] > 10


def test_usable_rotations_match_plain_scan():
    for grid in _random_grids():
        assert usable_rotations(grid).tolist() == _plain_usable(grid.cells.tolist())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sign_grids())
def test_reconstruct_matches_sum_over_all_rotations(grid):
    cells = grid.cells.tolist()
    n = len(cells)
    total = Counter()
    for r in range(1, n + 1):
        total.update(_reference_term(cells, r))
    assert reconstruct(grid) == SimulatedState(n, {b: c for b, c in total.items() if c})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_expanding_grids())
def test_reconstruct_terms_and_order_match_itertools(grid):
    assert list(reconstruct(grid).terms.items()) == _reference_state(grid.cells.tolist())


def test_sample_support_matches_plain_scan():
    gen = np.random.default_rng(7)
    for grid in _random_grids():
        support = _plain_support(grid.cells.tolist())
        if not support:
            with pytest.raises(UnrepresentableStateError):
                sample_measurement(grid, gen)
            continue
        draws = {sample_measurement(grid, gen) for _ in range(400)}
        assert draws <= support
        if len(support) <= 16:
            assert draws == support


def test_sample_draw_stream_matches_plain_sampler():
    grids = itertools.islice(_random_grids(seed=31, per_size=38), 300)
    drawn = 0
    for seed, grid in enumerate(grids):
        cells = grid.cells.tolist()
        if not _plain_usable(cells):
            with pytest.raises(UnrepresentableStateError):
                sample_measurement(grid, seed)
            continue
        ours, plain = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [sample_measurement(grid, ours) for _ in range(20)]
        assert draws == [_plain_draw(cells, plain) for _ in range(20)]
        drawn += 1
    assert drawn > 150


def test_grover_witness_matches_plain_scan(monkeypatch):
    pset = build_pps_set(4)
    for grid in _random_grids():
        n = grid.field_count
        monkeypatch.setattr(algorithms, "_slab_matrix", lambda *a, **k: grid)
        result = grover_search(GroverDatabase(n, (0,)), 0, pset)
        plain = _plain_usable(grid.cells.tolist())
        assert result.witness == (plain[0] if plain else None)
        assert result.found == bool(plain)


def test_non_square_grid_rejected():
    grid = ModeStatusMatrix(np.ones((2, 3, 2), dtype=np.int8))
    with pytest.raises(DimensionMismatchError):
        reconstruct(grid)
    with pytest.raises(DimensionMismatchError):
        sample_measurement(grid, 0)
    with pytest.raises(DimensionMismatchError):
        usable_rotations(grid)


def test_matrix_and_table_share_the_grid():
    cells = np.array([[[1, 1], [0, 0]], [[0, -1], [1, 0]]], dtype=np.int8)
    matrix = ModeStatusMatrix(cells)
    table = PlacementTable(cells)
    assert isinstance(matrix, SignGrid) and isinstance(table, SignGrid)
    assert matrix.to_strings() == table.to_strings()
    assert ModeStatusMatrix.from_strings(matrix.to_strings()) == matrix
    assert PlacementTable.from_status_matrix(matrix) == table
    assert (matrix == table) is False  # distinct grid kinds never compare equal
    status = matrix.status(2, 1)
    assert status.pair == (0, -1) and status.raw == (0j, -1 + 0j)
    assert matrix.cells.dtype == np.int8 and matrix.raw.dtype == np.complex128
    with pytest.raises(ValueError):
        ModeStatusMatrix(np.full((1, 1, 2), 2))
    with pytest.raises(DimensionMismatchError):
        ModeStatusMatrix(cells, raw=np.zeros((2, 2)))


def test_reconstruct_reads_a_placement_table():
    for grid in _random_grids(seed=7, per_size=3):
        table = PlacementTable(grid.cells)
        assert reconstruct(table) == reconstruct(grid)
        if usable_rotations(grid).size:
            assert sample_measurement(table, 5) == sample_measurement(grid, 5)


def test_matrix_matches_per_cell_demodulation():
    # the grid contraction sums in another order than the per-cell vdot,
    # so raws agree to a complex128 tolerance and signs exactly
    pset = build_pps_set(4)
    rng = np.random.default_rng(11)
    fields = [
        ClassicalField(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)))
        for _ in range(5)
    ]
    fields += canonical_inputs(pset, 3)
    for refs in (pset, [pset.sequence(j) for j in (3, 1, 15)]):
        given = {"refs": refs} if isinstance(refs, list) else {"pset": refs}
        matrix = mode_status_matrix(fields[:8], tau=0.4, **given)
        seqs = refs if isinstance(refs, list) else [pset.sequence(j) for j in range(1, 9)]
        for i, fld in enumerate(fields[:8], start=1):
            for j, seq in enumerate(seqs, start=1):
                expect = mode_status(fld, seq, tau=0.4)
                got = matrix.status(i, j)
                assert got.pair == expect.pair
                assert got.raw == pytest.approx(expect.raw, abs=1e-12)



@pytest.mark.parametrize(
    "cells, refused",
    [
        (np.ones((2, 2, 2), dtype=np.int64), None),
        (np.array([[[1.0, -1.0]]]), None),
        (np.array([[[0.5, 0.0]]]), ValueError),
        (np.array([[[2, 0]]]), ValueError),
        (np.ones((1, 1, 2), dtype=bool), None),
        (np.array([[[1 + 0j, 0j]]]), np.exceptions.ComplexWarning),  # from the int8 cast
        (np.array([[[1j, 0j]]]), ValueError),
        (np.array([[[1, 0]]], dtype=object), None),
        (np.array([[[1, "x"]]], dtype=object), ValueError),
        (np.array([[["1", "0"]]]), ValueError),
        (np.array([[[b"1", b"0"]]]), ValueError),
        (np.array([[[np.nan, 0.0]]]), ValueError),
    ],
    ids=["int", "float", "half", "two", "bool", "complex-real", "complex", "object",
         "object-str", "str", "bytes", "nan"],
)
def test_sign_grid_cell_verdicts_with_warnings_as_errors(cells, refused):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused is None:
            assert np.array_equal(SignGrid(cells).cells, cells.astype(np.int8))
        else:
            with pytest.raises(refused, match="cell entries" if refused is ValueError else None):
                SignGrid(cells)
