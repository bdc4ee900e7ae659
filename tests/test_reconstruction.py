"""State reconstruction from mode-status matrices and measurement sampling."""
from collections import Counter

import numpy as np
import pytest

from ppsim import (
    DimensionMismatchError,
    ModeStatusMatrix,
    SimulatedState,
    UnrepresentableStateError,
    reconstruct,
    sample_measurement,
)
from ppsim.fixtures import factoring_reference, typical_reference


def _matrix(rows):
    return ModeStatusMatrix.from_pairs(rows)


def test_term_expands_mixed_cells():
    matrix = _matrix([[(1, -1), (0, 0)], [(0, 0), (1, 1)]])
    assert reconstruct(matrix).terms == {"00": 1, "01": 1, "10": -1, "11": -1}


def test_reconstruct_diagonal_full_superposition():
    # all-diagonal (1,1) cells: rotation 1 contributes every ket once
    n = 3
    rows = [[(1, 1) if i == j else (0, 0) for j in range(n)] for i in range(n)]
    state = reconstruct(_matrix(rows))
    assert state.terms == {format(v, "03b"): 1 for v in range(8)}


def test_reconstruct_applies_common_factor():
    # both rotations contribute |00> once; the pair reduces to coefficient 1
    rows = [[(1, 0), (1, 0)], [(1, 0), (1, 0)]]
    state = reconstruct(_matrix(rows))
    assert state.terms == {"00": 1}


def test_reconstruct_cancellation():
    # R1 gives +|00>, R2 gives -|00> + |10>: the |00> terms cancel
    rows = [[(1, 0), (-1, 1)], [(1, 0), (1, 0)]]
    state = reconstruct(_matrix(rows))
    assert state.terms == {"10": 1}


def test_reconstruct_requires_square():
    with pytest.raises(DimensionMismatchError):
        reconstruct(_matrix([[(1, 0), (0, 1), (0, 0)], [(1, 0), (0, 1), (0, 0)]]))


def test_reconstruct_signs():
    ref = typical_reference("psi-")
    state = reconstruct(ref.matrix)
    assert state == ref.state
    assert state.coefficient("11") == -1
    assert state.pretty() == "|00> - |11>"


def test_reconstruct_placement_table():
    # the derived placement table is the factoring state's own sign grid
    ref = factoring_reference()
    state = reconstruct(ref.placement_derived)
    assert state.width == ref.placement_derived.size
    assert list(state.terms) == list(ref.state_kets) and len(state.terms) == 16


def test_simulated_state_api():
    state = SimulatedState(2, {"00": 2, "11": -2, "01": 0})
    assert state.terms == {"00": 1, "11": -1}  # pruned and reduced
    assert state.coefficient("01") == 0
    assert not state.is_zero
    assert SimulatedState(2, {}).is_zero
    assert SimulatedState(2, {}).pretty() == "0"
    assert SimulatedState(1, {"1": -3}).pretty() == "-|1>"
    assert SimulatedState(1, {"0": 2, "1": 4}).pretty() == "|0> + 2|1>"
    with pytest.raises(ValueError):
        SimulatedState(2, {"012": 1})
    with pytest.raises(ValueError):
        SimulatedState(2, {"00": 0.5})


def test_sampling_deterministic_and_supported():
    matrix = typical_reference("psi+").matrix
    draws = [sample_measurement(matrix, np.random.default_rng(1)) for _ in range(5)]
    assert len(set(draws)) == 1  # fresh generator with equal seed repeats
    gen = np.random.default_rng(9)
    seen = Counter(sample_measurement(matrix, gen) for _ in range(300))
    assert set(seen) == {"00", "11"}


def test_sampling_accepts_int_seed():
    matrix = typical_reference("psi+").matrix
    assert sample_measurement(matrix, 42) == sample_measurement(matrix, 42)


def test_sampling_w_collapse():
    matrix = typical_reference("w3").matrix
    gen = np.random.default_rng(4)
    for _ in range(200):
        draw = sample_measurement(matrix, gen)
        assert draw.count("1") == 1
        if draw[0] == "1":
            assert draw[1:] == "00"


def test_sampling_mixed_cells_cover_product_kets():
    matrix = typical_reference("product2").matrix
    gen = np.random.default_rng(8)
    seen = Counter(sample_measurement(matrix, gen) for _ in range(400))
    assert set(seen) == {"00", "01", "10", "11"}


def test_sampling_ignores_signs():
    plus = typical_reference("psi+").matrix
    minus = typical_reference("psi-").matrix
    draws_plus = [sample_measurement(plus, np.random.default_rng(s)) for s in range(40)]
    draws_minus = [sample_measurement(minus, np.random.default_rng(s)) for s in range(40)]
    assert draws_plus == draws_minus


def test_sampling_unrepresentable():
    rows = [[(0, 0), (0, 0)], [(1, 0), (1, 0)]]
    with pytest.raises(UnrepresentableStateError, match="unrepresentable state"):
        sample_measurement(_matrix(rows), 0)


def test_sampling_requires_square():
    with pytest.raises(DimensionMismatchError):
        sample_measurement(_matrix([[(1, 0), (0, 1), (1, 1)]]), 0)
