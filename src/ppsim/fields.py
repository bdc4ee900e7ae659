"""Classical two-mode fields as sampled waveforms.

A field is N complex samples per mode, one sample per phase unit of the
governing sequence set. The two orthogonal modes play the roles of |0> and
|1>; modulation, rotations and combining act slotwise and are linear in
the samples. The devices themselves are the gate-array nodes of ppsim.gates.
Array runs and demodulation take n fields as one (N, n, 2) slot-major slab.
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
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "iufc":  # bools and strings are not amplitudes
            raise TypeError(f"field samples must be numbers, got dtype {samples.dtype}")
        self.samples = samples.astype(np.complex128, copy=False)
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


def _input_slab(pset: PpsSet, n: int) -> np.ndarray:
    """`canonical_inputs` as one (N, n, 2) slot-major slab: field k is
    slab[:, k - 1]."""
    n = _as_int(n)
    if n < 0:
        raise ValueError(f"field count must be nonnegative, got {n}")
    pset._need("canonical input", n)
    bits = np.repeat(pset._rows(np.arange(1, n + 1)).T[:, :, None], 2, axis=2)  # both modes
    return bit_carriers(bits, pset.mapping_phase)


def _fields_of(slab: np.ndarray) -> list[ClassicalField]:
    """The fields of an (N, n, 2) slab, one view of it each."""
    return [ClassicalField(slab[:, k]) for k in range(slab.shape[1])]


def _field_slab(fields: list[ClassicalField], count: int | None = None) -> np.ndarray:
    """Fields stacked slot-major, (N, len(fields), 2): `count` (if given)
    ClassicalFields of one length, at least one."""
    for fld in fields:
        if not isinstance(fld, ClassicalField):
            raise TypeError(f"expected ClassicalField objects, got {type(fld).__name__}")
    if count is not None and len(fields) != count:
        raise DimensionMismatchError(f"array has {count} inputs, got {len(fields)} fields")
    if not fields:
        raise DimensionMismatchError("need at least one field")
    if len({f.slot_count for f in fields}) > 1:
        raise DimensionMismatchError("input fields differ in length")
    return np.stack([f.samples for f in fields], axis=1)


def canonical_inputs(pset: PpsSet, n: int) -> list[ClassicalField]:
    """The standard gate-array inputs e^{i lambda^(k)} (|0> + |1>), k = 1..n,
    as views of one `_input_slab`."""
    return _fields_of(_input_slab(pset, n))


def modulate(fld: ClassicalField, carrier: np.ndarray) -> ClassicalField:
    """Multiply both modes of every slot by the carrier row e^{i lambda_k}."""
    if fld.slot_count != len(carrier):
        raise DimensionMismatchError(
            f"field has {fld.slot_count} slots, sequence has {len(carrier)} units"
        )
    return ClassicalField(fld.samples * carrier[:, None])
