"""State reconstruction from mode-status matrices and measurement sampling."""
import importlib
import math
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    usable_rotations,
)
from ppsim.fixtures import factoring_reference, typical_reference

reconstruct_module = importlib.import_module("ppsim.reconstruct")


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


def _reference_terms(cells: list) -> list[tuple[str, int]]:
    """Plain per-rotation expansion: each rotation with no empty cell adds the
    product of its (a|0> + b|1>) factors; zero sums are dropped and the rest
    divided by their gcd, in ascending label order."""
    n = len(cells)
    sums: dict[str, int] = {}
    for r in range(1, n + 1):
        pairs = [cells[i][(i + r - 1) % n] for i in range(n)]
        if not all(a or b for a, b in pairs):
            continue
        kets = {"": 1}
        for a, b in pairs:
            factor = (("0", a), ("1", b))
            kets = {k + d: c * s for k, c in kets.items() for d, s in factor if s}
        for bits, coeff in kets.items():
            sums[bits] = sums.get(bits, 0) + coeff
    common = math.gcd(*sums.values())
    return [(bits, c // common) for bits, c in sorted(sums.items()) if c]


def _reference_draw(cells: list, gen: np.random.Generator) -> str:
    """The per-draw loop that sampling ran before it kept its read of the
    grid: list the usable rotations, pick one, then resolve field by field."""
    n = len(cells)
    rotations = [[cells[i][(i + r - 1) % n] for i in range(n)] for r in range(1, n + 1)]
    usable = [pairs for pairs in rotations if all(a or b for a, b in pairs)]
    if not usable:
        raise UnrepresentableStateError("unrepresentable state")
    digits = []
    for a, b in usable[int(gen.integers(len(usable)))]:
        if a != 0 and b != 0:
            digits.append("01"[int(gen.integers(2))])
        else:
            digits.append("0" if a != 0 else "1")
    return "".join(digits)


@st.composite
def _sign_cells(draw):
    """(n, n) nested lists of sign pairs, n = 1..8, with or without -1."""
    n = draw(st.integers(1, 8))
    signs = (-1, 1) if draw(st.booleans()) else (1,)
    cell = st.sampled_from(
        [(0, 0)] + [(s, 0) for s in signs] + [(0, s) for s in signs]
        + [(a, b) for a in signs for b in signs]
    )
    return [[draw(cell) for _ in range(n)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(_sign_cells())
@example([[(1, 0), (-1, 0)], [(1, 0), (1, 0)]])  # the two rotations cancel to zero
@example([[(1, 1), (1, 1)], [(1, 1), (1, 1)]])  # every ket twice: divided by 2
@example([[(1, -1), (-1, 0)], [(1, 0), (1, 1)]])  # |00> cancels, three kets remain
def test_reconstruct_matches_per_rotation_expansion(cells):
    state = reconstruct(_matrix(cells))
    expected = _reference_terms(cells)
    assert list(state.terms.items()) == expected
    assert state.is_zero == (not expected)
    assert state == SimulatedState(len(cells), dict(expected))


def _wide_cells(n: int, seed: int) -> list:
    """An n-field grid with four usable rotations, three sharing most fields
    so that their kets coincide, and four both-mode cells on each."""
    rng = np.random.default_rng(seed)
    cells = np.zeros((n, n, 2), dtype=np.int8)
    rows = np.arange(n)
    shared = None
    for r in (0, 3, 7, 11):
        diag = np.zeros((n, 2), dtype=np.int8)
        diag[rows, rng.integers(0, 2, n)] = rng.choice([-1, 1], size=n)
        if shared is None:
            shared = diag
        elif r != 11:
            diag[: n - 5] = shared[: n - 5]
        diag[rng.choice(n, size=4, replace=False)] = rng.choice([-1, 1], size=(4, 2))
        cells[rows, (rows + r) % n] = diag
    return cells.tolist()


@pytest.mark.parametrize("n", [64, 65, 70])
def test_reconstruct_wide_grids_match_per_rotation_expansion(n):
    # above 64 fields the labels are byte rows rather than one uint64
    cells = _wide_cells(n, n)
    state = reconstruct(_matrix(cells))
    expected = _reference_terms(cells)
    assert len(expected) > 16  # rotations overlap, yet more than one block remains
    assert list(state.terms.items()) == expected
    gen, ref_gen = np.random.default_rng(n), np.random.default_rng(n)
    draws = [sample_measurement(_matrix(cells), gen) for _ in range(50)]
    assert draws == [_reference_draw(cells, ref_gen) for _ in range(50)]


@settings(max_examples=200, deadline=None)
@given(_sign_cells(), st.integers(0, 2**32 - 1))
def test_sampling_matches_the_per_draw_loop(cells, seed):
    matrix = _matrix(cells)
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = [_reference_draw(cells, ref_gen) for _ in range(12)]
    except UnrepresentableStateError:
        with pytest.raises(UnrepresentableStateError):
            sample_measurement(matrix, gen)
        return
    assert [sample_measurement(matrix, gen) for _ in range(12)] == expected
    # and the generator was consumed exactly as the loop consumed it
    assert gen.integers(1 << 62) == ref_gen.integers(1 << 62)


def test_sampling_typical_states_match_the_per_draw_loop():
    pset = build_pps_set(6)
    for kind, n in (("ghz", 63), ("w", 40), ("product", 12), ("ghz", 5)):
        matrix = typical_state(kind, pset, n).matrix
        cells = matrix.cells.tolist()
        for seed in (0, 7, 123):
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = [sample_measurement(matrix, gen) for _ in range(40)]
            assert draws == [_reference_draw(cells, ref_gen) for _ in range(40)]


def test_grid_cells_are_read_only():
    matrix = _matrix([[(1, 0), (0, 0)], [(0, 0), (0, 1)]])
    with pytest.raises(ValueError, match="read-only"):
        matrix.cells[0, 1] = (1, 1)
    with pytest.raises(ValueError, match="read-only"):
        matrix.cells.fill(0)
    assert reconstruct(matrix).terms == {"01": 1}


def test_a_grid_is_read_once(monkeypatch):
    reads = []
    columns = reconstruct_module.rotation_columns

    def counted(*args):
        reads.append(args)
        return columns(*args)

    monkeypatch.setattr(reconstruct_module, "rotation_columns", counted)
    matrix = typical_reference("w3").matrix
    matrix = ModeStatusMatrix(matrix.cells, matrix.raw)  # a grid no test has read
    gen = np.random.default_rng(2)
    draws = {sample_measurement(matrix, gen) for _ in range(100)}
    assert draws == {"100", "010", "001"}
    assert reconstruct(matrix).terms == {"001": 1, "010": 1, "100": 1}
    assert usable_rotations(matrix).tolist() == [1, 2, 3]
    assert len(reads) == 1
    # cells that are replaced, and writable, are read on every call
    matrix.cells = np.zeros((3, 3, 2), dtype=np.int8)
    matrix.cells[[0, 1, 2], [0, 1, 2], 1] = 1
    assert reconstruct(matrix).terms == {"111": 1}
    matrix.cells[0, 0] = (1, 0)
    assert reconstruct(matrix).terms == {"011": 1}
    assert len(reads) == 3
    # and so are cells made writable again, as a write may follow
    grid = _matrix([[(1, 0), (0, 0)], [(0, 0), (0, 1)]])
    assert reconstruct(grid).terms == {"01": 1}
    grid.cells.flags.writeable = True
    grid.cells[1, 1] = (1, 0)
    assert reconstruct(grid).terms == {"00": 1}
