"""Classical two-mode fields as sampled waveforms.

A field is N complex samples per mode, one sample per phase unit of the
governing sequence set. The two orthogonal modes play the roles of |0> and
|1>; modulation, rotations and combining act slotwise and are linear in
the samples. The devices themselves are the gate-array nodes of ppsim.gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, _as_int
from .sequences import PpsSet, bit_carriers

MODE0 = 0
MODE1 = 1

UNITARITY_TOL = 1e-12


@dataclass(eq=False)
class ClassicalField:
    """Sampled waveform: samples[k, m] is slot k of mode m."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise DimensionMismatchError(
                f"field samples must have shape (N, 2), got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("field samples must be finite")

    @property
    def slot_count(self) -> int:
        return self.samples.shape[0]

    def copy(self) -> "ClassicalField":
        return ClassicalField(self.samples.copy())


def zero_field(slot_count: int) -> ClassicalField:
    return ClassicalField(np.zeros((slot_count, 2), dtype=np.complex128))


@dataclass(frozen=True)
class Unitary2:
    """Two-mode rotation U(chi, theta) acting slotwise on (mode0, mode1).

    The matrix is cos(chi) I + i sin(chi) (sx cos(theta) - sy sin(theta)):

        [[cos chi,              i e^{i theta} sin chi],
         [i e^{-i theta} sin chi,             cos chi]]

    so U|0> = cos chi |0> + i e^{-i theta} sin chi |1>. Determinant is 1 and
    U(pi/2, theta) squares to -I for every theta.
    """

    chi: float
    theta: float

    @property
    def matrix(self) -> np.ndarray:
        c = math.cos(self.chi)
        s = math.sin(self.chi)
        return np.array(
            [
                [c, 1j * np.exp(1j * self.theta) * s],
                [1j * np.exp(-1j * self.theta) * s, c],
            ],
            dtype=np.complex128,
        )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi) and math.isfinite(self.theta)):
            raise ValueError("unitary parameters chi and theta must be finite")
        u = self.matrix
        if np.abs(u @ u.conj().T - np.eye(2)).max() > UNITARITY_TOL:
            raise ValueError("matrix is not unitary")


def make_single_pps_field(
    pset: PpsSet, j: int, mode_weights: tuple[complex, complex] = (1.0, 1.0)
) -> ClassicalField:
    """Field carrying one sequence on both modes: e^{i lambda^(j)} (a|0> + b|1>)."""
    carrier = pset.sequence(j)
    alpha, beta = mode_weights
    return ClassicalField(np.stack([alpha * carrier, beta * carrier], axis=1))


def canonical_inputs(pset: PpsSet, n: int) -> list[ClassicalField]:
    """The standard gate-array inputs e^{i lambda^(k)} (|0> + |1>), k = 1..n."""
    n = _as_int(n)
    if n < 0:
        raise ValueError(f"field count must be nonnegative, got {n}")
    if n > pset.usable_count:
        raise DimensionMismatchError(
            f"{n} fields requested but set has {pset.usable_count} usable sequences"
        )
    rows = pset.bit_rows[1 : n + 1, :, None]
    bits = np.broadcast_to(rows, rows.shape[:2] + (2,))  # one bit row, both modes
    return [ClassicalField(samples) for samples in bit_carriers(bits, pset.mapping_phase)]


def modulate(fld: ClassicalField, carrier: np.ndarray) -> ClassicalField:
    """Multiply both modes of every slot by the carrier row e^{i lambda_k}."""
    if fld.slot_count != len(carrier):
        raise DimensionMismatchError(
            f"field has {fld.slot_count} slots, sequence has {len(carrier)} units"
        )
    return ClassicalField(fld.samples * carrier[:, None])


def apply_unitary(fld: ClassicalField, u: Unitary2) -> ClassicalField:
    """Apply the two-mode rotation to every slot."""
    return ClassicalField(fld.samples @ u.matrix.T)


def combine(fields: list[ClassicalField]) -> ClassicalField:
    """Slotwise sum of any number of equal-length fields."""
    if not fields:
        raise DimensionMismatchError("no fields to combine")
    n = fields[0].slot_count
    if any(f.slot_count != n for f in fields):
        raise DimensionMismatchError("fields have differing slot counts")
    return ClassicalField(sum(f.samples for f in fields))


def field_inner_product(a: ClassicalField, b: ClassicalField) -> complex:
    """(1/N) sum over slots and modes of conj(a) * b."""
    if a.slot_count != b.slot_count:
        raise DimensionMismatchError(
            f"fields have differing slot counts: {a.slot_count} vs {b.slot_count}"
        )
    return complex(np.vdot(a.samples, b.samples) / a.slot_count)
