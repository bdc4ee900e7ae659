"""Quadrature demodulation of fields against reference sequences.

Each mode of a field is correlated coherently against a reference carrier;
the real part of the correlation is the decision statistic. Quantizing both
modes gives a mode status (a, b) with a, b in {-1, 0, +1}; the statuses of
n fields against m references form an (n, m, 2) sign grid, the mode status
matrix that downstream reconstruction consumes. Placement tables are the
square case of the same grid.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .fields import MODE0, MODE1, ClassicalField, _field_slab
from .sequences import PpsSet, bit_carriers, correlate

DEFAULT_THRESHOLD = 0.5


def demodulate_mode(fld: ClassicalField, mode: int, ref: np.ndarray) -> complex:
    """Correlation (1/N) sum samples[k, mode] e^{-i lambda_k} against carrier `ref`."""
    return correlate(fld.samples[:, mode], ref)


def _check_tau(tau) -> None:
    """Raise ValueError unless tau is a positive, finite real number.

    A zero, negative or NaN tau would call empty cells occupied, an
    infinite one every cell empty. A bool is not a threshold (True would
    read as 1), nor is None, a string or a complex number.
    """
    if isinstance(tau, bool) or not isinstance(tau, numbers.Real):  # np.bool_ is not Real
        raise ValueError(f"threshold tau must be a real number, got {tau!r}")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"threshold tau must be positive and finite, got {tau!r}")


def quantize(raw, tau: float = DEFAULT_THRESHOLD):
    """Map raw correlations to -1/0/+1 by thresholding their real parts.

    A scalar gives an int; an array gives an int8 array of the same shape.
    tau must pass `_check_tau`. A non-finite raw has no sign to read and is
    refused too.
    """
    _check_tau(tau)
    if not np.isfinite(raw).all():
        raise ValueError("raw correlations must be finite")
    re_part = np.real(raw)
    signs = np.where(np.abs(re_part) < tau, 0, np.sign(re_part)).astype(np.int8)
    return int(signs) if signs.ndim == 0 else signs


_CELL_RE = re.compile(r"\(\s*(-?[01])\s*,\s*(-?[01])\s*\)")


def parse_cell(text: str) -> tuple[int, int]:
    """Parse the cell grammar "0" or "(a,b)" with a, b in {-1, 0, 1}."""
    stripped = text.strip()
    if stripped == "0":
        return (0, 0)
    match = _CELL_RE.fullmatch(stripped)
    if match is None:
        raise ValueError(f"bad status cell {text!r}")
    return (int(match.group(1)), int(match.group(2)))


def format_cell(pair: tuple[int, int]) -> str:
    """Inverse of parse_cell; (0, 0) renders as "0"."""
    a, b = pair
    return "0" if a == 0 and b == 0 else f"({a},{b})"


@dataclass(frozen=True)
class ModeStatus:
    """Quantized demodulation result of one field against one reference."""

    a_tilde: int
    b_tilde: int
    raw: tuple[complex, complex] = (0j, 0j)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a_tilde, self.b_tilde)

    @property
    def is_zero(self) -> bool:
        return self.a_tilde == 0 and self.b_tilde == 0


def mode_status(
    fld: ClassicalField, ref: np.ndarray, tau: float = DEFAULT_THRESHOLD
) -> ModeStatus:
    """Demodulate both modes of one field and quantize."""
    raw0 = demodulate_mode(fld, MODE0, ref)
    raw1 = demodulate_mode(fld, MODE1, ref)
    return ModeStatus(quantize(raw0, tau), quantize(raw1, tau), (raw0, raw1))


@dataclass(eq=False)
class SignGrid:
    """(n, m, 2) int8 grid of sign pairs; cell (i, j) is (a, b), 1-based.

    Entries are -1, 0 or +1; (0, 0) is an empty cell. Grids of the same
    class compare equal when their shapes and signs agree. The grid owns its
    cells and they are read-only, so what is read off them can be kept.
    """

    cells: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cells)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise DimensionMismatchError(
                f"sign cells must have shape (n, m, 2), got {arr.shape}"
            )
        if not ((arr == -1) | (arr == 0) | (arr == 1)).all():
            raise ValueError("cell entries must be -1, 0, or +1")
        self.cells = arr.astype(np.int8)
        self.cells.flags.writeable = False

    def cell(self, i: int, j: int) -> tuple[int, int]:
        """Sign pair for row i, column j (both 1-based)."""
        a, b = self.cells[i - 1, j - 1]
        return (int(a), int(b))

    def to_strings(self) -> list[list[str]]:
        return [[format_cell(pair) for pair in row] for row in self.cells.tolist()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(self.cells, other.cells))

    @classmethod
    def from_strings(cls, rows: list[list[str]]):
        return cls(np.array([[parse_cell(c) for c in row] for row in rows], dtype=np.int8))


@dataclass(eq=False)
class ModeStatusMatrix(SignGrid):
    """Sign grid of statuses (rows index fields, columns references) plus
    the (n, m, 2) complex raw correlations they were quantized from.

    Without measured raws, each raw is set to its sign.
    """

    raw: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        raw = self.cells if self.raw is None else self.raw
        self.raw = np.asarray(raw, dtype=np.complex128)
        if self.raw.shape != self.cells.shape:
            raise DimensionMismatchError("raw and sign grids differ in shape")

    @property
    def field_count(self) -> int:
        return int(self.cells.shape[0])

    @property
    def reference_count(self) -> int:
        return int(self.cells.shape[1])

    def status(self, i: int, j: int) -> ModeStatus:
        """Cell for field i against reference j (both 1-based)."""
        r0, r1 = self.raw[i - 1, j - 1]
        return ModeStatus(*self.cell(i, j), (complex(r0), complex(r1)))

    def signs(self) -> np.ndarray:
        """(fields, references, 2) int8 array of quantized pairs."""
        return self.cells.copy()

    @classmethod
    def from_pairs(cls, pairs: list[list[tuple[int, int]]]) -> "ModeStatusMatrix":
        """Build a matrix from quantized pairs alone (raws set to the pair)."""
        return cls(np.array(pairs, dtype=np.int8))


def mode_status_matrix(
    fields: list[ClassicalField],
    refs: list[np.ndarray] | np.ndarray | None = None,
    tau: float = DEFAULT_THRESHOLD,
    pset: PpsSet | None = None,
) -> ModeStatusMatrix:
    """Demodulate every field against every reference.

    Give exactly one reference source: `refs`, carrier rows such as
    `pset.sequence(j)` (a list or a 2-D array), or `pset`, a sequence set
    whose references 1..len(fields) are used (the canonical square matrix).
    """
    if refs is not None and pset is not None:
        raise TypeError("pass refs or pset, not both")
    if isinstance(refs, PpsSet) or (pset is not None and not isinstance(pset, PpsSet)):
        raise TypeError("refs takes carrier rows and pset a sequence set")
    slab = _field_slab(fields)
    if pset is None and (refs is None or len(refs) == 0):
        raise DimensionMismatchError("need at least one field and one reference")
    return _slab_matrix(slab, refs if pset is None else pset, tau)


def _slab_matrix(slab: np.ndarray, refs, tau: float) -> ModeStatusMatrix:
    """Status matrix of an (N, n, 2) field slab against carrier rows `refs`,
    or against references 1..n of `refs` if it is a sequence set."""
    slot_count, count = slab.shape[:2]
    if isinstance(refs, PpsSet):
        if count > refs.usable_count:
            raise DimensionMismatchError(
                f"{count} fields but set has {refs.usable_count} usable references"
            )
        carriers = bit_carriers(refs._rows(np.arange(1, count + 1)), refs.mapping_phase)
    else:
        try:
            carriers = np.asarray(refs)
        except ValueError:  # numpy's "inhomogeneous shape"
            raise DimensionMismatchError("carrier rows differ in length") from None
        if carriers.dtype.kind not in "iufc":  # bools and strings are not amplitudes
            raise TypeError(f"carrier rows must be numbers, got dtype {carriers.dtype}")
    if carriers.ndim != 2:
        raise DimensionMismatchError(
            f"refs must be a 2-D array of carrier rows, got shape {carriers.shape}"
        )
    if carriers.shape[1] != slot_count:
        raise DimensionMismatchError("reference length differs from field length")
    if slot_count == 1:  # einsum multiplies one-slot pairs without BLAS; keep its roundings
        sums = np.einsum("kfm,rk->frm", slab, carriers.conj(), optimize=True)
    else:  # one (nr, N) @ (N, nf * 2) product, read as (nf, nr, 2)
        sums = carriers.conj() @ slab.reshape(slot_count, -1)
        sums = sums.reshape(len(carriers), count, 2).transpose(1, 0, 2)
    raw = sums / slot_count
    return ModeStatusMatrix(quantize(raw, tau), raw)
