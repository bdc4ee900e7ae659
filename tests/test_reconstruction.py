"""State reconstruction from mode-status matrices and measurement sampling."""
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ppsim import (
    DimensionMismatchError,
    ModeStatusMatrix,
    SimulatedState,
    StateTooLargeError,
    UnrepresentableStateError,
    build_pps_set,
    reconstruct,
    sample_measurement,
    typical_state,
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


def test_simulated_state_checks_every_label():
    # zero-coefficient labels are checked too, and the first bad one is named
    for terms, label in (({"00": 1, "0a": 0}, "'0a'"), ({"000": 0, "11": 1}, "'000'")):
        with pytest.raises(ValueError, match=f"bad ket label {label} for width 2"):
            SimulatedState(2, terms)
    with pytest.raises(ValueError, match="coefficients must be integers"):
        SimulatedState(2, {"00": 1, "11": 1.5})
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            SimulatedState(2, {"00": 1, "11": bad})
    state = SimulatedState(2, {"00": 2.0, "11": np.uint8(1), "01": np.int64(4)})
    assert state.terms == {"00": 2, "01": 4, "11": 1}
    assert {type(c) for c in state.terms.values()} == {int}


def test_simulated_state_width_is_a_nonnegative_integer():
    assert SimulatedState(0, {}).is_zero  # what load_state gives for []
    assert SimulatedState(2.0, {"01": 2}) == SimulatedState(2, {"01": 1})
    for width in (2.5, True):
        with pytest.raises(ValueError, match="expected an integer"):
            SimulatedState(width, {})
    with pytest.raises(ValueError, match="nonnegative"):
        SimulatedState(-1, {})


@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_simulated_state_rejects_bool_coefficients(flag):
    with pytest.raises(ValueError, match="coefficients must be integers"):
        SimulatedState(2, {"01": flag})


def test_simulated_state_rejects_non_ascii_digits():
    # a surrogate, an Arabic-Indic one and a fullwidth one are not ket digits
    for label in ("0\udc80", "0\u0661", "0\uff11"):
        with pytest.raises(ValueError, match=re.escape(f"bad ket label {label!r} for width 2")):
            SimulatedState(2, {label: 1})


def test_simulated_state_owns_sorted_reduced_terms():
    terms = {"00": 1, "11": -1}  # already ascending and reduced
    state = SimulatedState(2, terms)
    assert state.terms == terms and state.terms is not terms
    unsorted = {"11": 1, "01": -1, "00": 1}
    assert list(SimulatedState(2, unsorted).terms.items()) == [
        ("00", 1),
        ("01", -1),
        ("11", 1),
    ]
    assert list(unsorted) == ["11", "01", "00"]  # the caller's dict is left alone
    # a negative common factor divides out by its magnitude, signs kept
    negative = SimulatedState(2, {"10": -4, "01": -6})
    assert list(negative.terms.items()) == [("01", -3), ("10", -2)]


def test_product_past_the_ket_cap_raises_before_allocating():
    # 2**31 kets: the count is checked before any of them is allocated
    pset = build_pps_set(5)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(StateTooLargeError, match="2147483648 kets"):
            typical_state("product", pset, 31)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 64 << 20


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
