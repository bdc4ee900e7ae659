"""Reconstruction of simulated states from mode status matrices.

A square status matrix is read along its cyclic diagonals: rotation r
pairs each field with one reference column, by `rotation_columns`, and one
gather reads the sign pairs of any set of rotations. Each rotation whose
statuses are all nonzero is usable and contributes one product term; the
sum over rotations, with integer coefficients reduced by their common
factor, is the simulated state. One vectorised scan of the sign grid
finds the usable rotations for reconstruction, sampling and search.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .demod import SignGrid
from .errors import DimensionMismatchError, UnrepresentableStateError


def rotation_columns(n: int, rotations) -> np.ndarray:
    """(n, len(rotations)) 0-based columns: [i, k] pairs 0-based field i
    with column (i + r - 1) mod n of 1-based rotation r = rotations[k]."""
    return (np.arange(n)[:, None] + np.asarray(rotations, dtype=np.int64) - 1) % n


@dataclass
class SimulatedState:
    """Integer-coefficient superposition over n-digit binary kets.

    Coefficients are reduced by their greatest common factor on
    construction (signs are kept), so equal states compare equal.
    """

    width: int
    terms: dict[str, int]

    def __post_init__(self):
        labels, coeffs = self.terms.keys(), self.terms.values()
        if (
            set(map(type, labels)) <= {str}
            and set(map(len, labels)) <= {self.width}
            and set("".join(labels)) <= {"0", "1"}
            and set(map(type, coeffs)) <= {int}
        ):
            cleaned = {bits: coeff for bits, coeff in self.terms.items() if coeff}
        else:  # check term by term, to name the first bad one
            cleaned = {}
            for bits, coeff in self.terms.items():
                if len(bits) != self.width or bits.strip("01"):
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
        return list(self.terms.items())

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


def _diagonals(grid: SignGrid, rotations) -> np.ndarray:
    """(len(rotations), n, 2) sign pairs: [k, i] is what rotation rotations[k]
    reads on field i, gathered in one step through `rotation_columns`."""
    n = grid.cells.shape[0]
    return grid.cells[np.arange(n), rotation_columns(n, rotations).T]


def _ket_labels(diagonal: list) -> Iterator[str]:
    """Kets, ascending, that a diagonal's factor list (a|0> + b|1>) per field
    expands to; a cell with both signs set gives both digits."""
    digits = [("0" if a else "") + ("1" if b else "") for a, b in diagonal]
    return map("".join, itertools.product(*digits))


def usable_rotations(grid: SignGrid) -> np.ndarray:
    """Rotations r (1-based, ascending) whose cyclic diagonal has no empty cell."""
    n, m = grid.cells.shape[:2]
    if n != m:
        raise DimensionMismatchError(f"matrix is {n}x{m}, rotations need a square grid")
    rotations = np.arange(1, n + 1)
    diagonals = _diagonals(grid, rotations)
    # a | b is nonzero exactly when the cell is not empty
    return rotations[(diagonals[..., 0] | diagonals[..., 1]).all(axis=1)]


def reconstruct(matrix: SignGrid) -> SimulatedState:
    """Sum the product terms of the usable rotations of a square sign grid.

    Field i of a rotation contributes the factor (a|0> + b|1>) read from its
    rotated status; the factor list expands in one product, kets ascending.
    """
    total: Counter[str] = Counter()
    for diagonal in _diagonals(matrix, usable_rotations(matrix)).tolist():
        signs = [[s for s in pair if s] for pair in diagonal]
        labels = _ket_labels(diagonal)
        total.update(dict(zip(labels, map(math.prod, itertools.product(*signs)))))
    return SimulatedState(matrix.cells.shape[0], total)


def sample_measurement(
    matrix: SignGrid, rng: np.random.Generator | int | None = None
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
    rotation = usable[int(gen.integers(len(usable)))]
    digits = []
    for a, b in _diagonals(matrix, [rotation])[0].tolist():
        if a != 0 and b != 0:
            digits.append("01"[int(gen.integers(2))])
        else:
            digits.append("0" if a != 0 else "1")
    return "".join(digits)
