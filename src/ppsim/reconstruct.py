"""Reconstruction of simulated states from mode status matrices.

A square status matrix is read along its cyclic diagonals: rotation r
pairs each field with one reference column, by `rotation_columns`. Each rotation
whose statuses are all nonzero is usable and contributes one product term;
the sum over rotations, with integer coefficients reduced by their common
factor, is the simulated state. One vectorised scan of the sign grid
finds the usable rotations for reconstruction, sampling and search.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .demod import ModeStatusMatrix, SignGrid
from .errors import DimensionMismatchError, UnrepresentableStateError


def rotation_columns(n: int, rotations) -> np.ndarray:
    """(n, len(rotations)) 0-based columns: [i, k] pairs 0-based field i
    with column (i + r - 1) mod n of 1-based rotation r = rotations[k]."""
    return (np.arange(n)[:, None] + np.asarray(rotations, dtype=np.int64) - 1) % n


@dataclass(frozen=True)
class SequencePermutation:
    """Cyclic column rotation R_r acting on n reference columns."""

    order: int
    rotation: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if not 1 <= self.rotation <= self.order:
            raise ValueError("rotation must lie in 1..order")

    def column_for(self, i: int) -> int:
        """Reference column paired with field i (both 1-based)."""
        return int(self.columns0()[i - 1]) + 1

    def columns0(self) -> np.ndarray:
        """0-based column indexes for fields 0..n-1."""
        return rotation_columns(self.order, [self.rotation])[:, 0]


def cyclic_permutations(n: int) -> list[SequencePermutation]:
    """All n cyclic rotations R_1 (identity) through R_n."""
    return [SequencePermutation(n, r) for r in range(1, n + 1)]


@dataclass
class SimulatedState:
    """Integer-coefficient superposition over n-digit binary kets.

    Coefficients are reduced by their greatest common factor on
    construction (signs are kept), so equal states compare equal.
    """

    width: int
    terms: dict[str, int]

    def __post_init__(self):
        cleaned: dict[str, int] = {}
        for bits, coeff in self.terms.items():
            if len(bits) != self.width or set(bits) - {"0", "1"}:
                raise ValueError(f"bad ket label {bits!r} for width {self.width}")
            if int(coeff) != coeff:
                raise ValueError("coefficients must be integers")
            if coeff:
                cleaned[bits] = int(coeff)
        common = math.gcd(*(abs(c) for c in cleaned.values())) if cleaned else 1
        self.terms = {bits: c // common for bits, c in sorted(cleaned.items())}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[str, int]]:
        return sorted(self.terms.items())

    def coefficient(self, bits: str) -> int:
        return self.terms.get(bits, 0)

    def pretty(self) -> str:
        """Readable rendering such as "|00> + |11>" or "|01> - |10>"."""
        if self.is_zero:
            return "0"
        parts = []
        for bits, coeff in self.sorted_terms():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = f"|{bits}>" if mag == 1 else f"{mag}|{bits}>"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def usable_rotations(grid: SignGrid) -> np.ndarray:
    """Rotations r (1-based, ascending) whose cyclic diagonal has no empty cell."""
    occupied = grid.cells.any(axis=2)
    n, m = occupied.shape
    if n != m:
        raise DimensionMismatchError(f"matrix is {n}x{m}, rotations need a square grid")
    rotations = np.arange(1, n + 1)
    diagonals = occupied[np.arange(n)[:, None], rotation_columns(n, rotations)]
    return rotations[diagonals.all(axis=0)]


def _diagonal(grid: SignGrid, perm: SequencePermutation) -> list[list[int]]:
    """Sign pairs [a, b] the rotation reads, field by field."""
    return grid.cells[np.arange(perm.order), perm.columns0()].tolist()


def term_for_permutation(
    matrix: ModeStatusMatrix, perm: SequencePermutation
) -> dict[str, int]:
    """Product term of one rotation, expanded over ket labels.

    Field i contributes the factor (a|0> + b|1>) read from its rotated
    status; any zero status kills the whole term (empty result).
    """
    if matrix.field_count != perm.order:
        raise DimensionMismatchError("permutation order differs from matrix size")
    terms = {"": 1}
    for a, b in _diagonal(matrix, perm):
        if a == 0 and b == 0:
            return {}
        grown: dict[str, int] = {}
        for bits, coeff in terms.items():
            if a != 0:
                grown[bits + "0"] = coeff * a
            if b != 0:
                grown[bits + "1"] = coeff * b
        terms = grown
    return terms


def reconstruct(matrix: ModeStatusMatrix) -> SimulatedState:
    """Sum the product terms of the usable rotations of a square matrix."""
    n = matrix.field_count
    total: Counter[str] = Counter()
    for r in usable_rotations(matrix).tolist():
        for bits, coeff in term_for_permutation(matrix, SequencePermutation(n, r)).items():
            total[bits] += coeff
    return SimulatedState(n, {b: c for b, c in total.items() if c != 0})


def sample_measurement(
    matrix: ModeStatusMatrix, rng: np.random.Generator | int | None = None
) -> str:
    """Draw one ket label the way a projective readout would.

    A rotation is picked uniformly from those with no zero status, then
    each field resolves to 0 or 1: deterministically when only one mode is
    set, by fair coin when both are. Signs carry no probability weight.
    Raises UnrepresentableStateError when every rotation has a hole.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    usable = usable_rotations(matrix)
    if not usable.size:
        raise UnrepresentableStateError("unrepresentable state")
    rotation = int(usable[int(gen.integers(len(usable)))])
    digits = []
    for a, b in _diagonal(matrix, SequencePermutation(matrix.field_count, rotation)):
        if a != 0 and b != 0:
            digits.append("01"[int(gen.integers(2))])
        else:
            digits.append("0" if a != 0 else "1")
    return "".join(digits)
