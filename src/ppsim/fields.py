"""Classical two-mode fields as sampled waveforms.

A field is N complex samples per mode, one sample per phase unit of the
governing sequence set. The two orthogonal modes play the roles of |0> and
|1>; modulation, rotations and combining act slotwise and are linear in
the samples. The devices themselves are the gate-array nodes of ppsim.gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, _as_int
from .sequences import PpsSet, bit_carriers

MODE0 = 0
MODE1 = 1


@dataclass(eq=False)
class ClassicalField:
    """Sampled waveform: samples[k, m] is slot k of mode m."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        shape = self.samples.shape
        if len(shape) != 2 or shape[1] != 2 or shape[0] == 0:
            raise DimensionMismatchError(
                f"field samples must have shape (N, 2) with N >= 1, got {shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("field samples must be finite")

    @property
    def slot_count(self) -> int:
        return self.samples.shape[0]

    def copy(self) -> "ClassicalField":
        return ClassicalField(self.samples.copy())


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
    rows = pset._rows(np.arange(1, n + 1))[:, :, None]
    bits = np.broadcast_to(rows, rows.shape[:2] + (2,))  # one bit row, both modes
    return [ClassicalField(samples) for samples in bit_carriers(bits, pset.mapping_phase)]


def modulate(fld: ClassicalField, carrier: np.ndarray) -> ClassicalField:
    """Multiply both modes of every slot by the carrier row e^{i lambda_k}."""
    if fld.slot_count != len(carrier):
        raise DimensionMismatchError(
            f"field has {fld.slot_count} slots, sequence has {len(carrier)} units"
        )
    return ClassicalField(fld.samples * carrier[:, None])
