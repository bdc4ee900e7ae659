"""Exact symbolic field model: per-mode sequence-index bookkeeping.

A symbolic field stores, for each mode, the complex coefficient attached
to each sequence index. Synthesis (to_waveform) and exact demodulation by
coefficient lookup make this the independent oracle against which the
sampled-waveform pipeline is checked: with the pi mapping, distinct
carriers are exactly orthogonal, so waveform demodulation must agree with
the lookup.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import _as_int
from .fields import ClassicalField
from .sequences import PpsSet, bit_carriers


@dataclass
class SymbolicField:
    """Coefficient maps {sequence index: complex} for modes 0 and 1.

    Zero coefficients are never stored; an empty pair of maps is the zero
    field. A coefficient that is not finite is refused.
    """

    mode0: dict[int, complex] = field(default_factory=dict)
    mode1: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        self.mode0 = {_as_int(j): complex(c) for j, c in self.mode0.items() if complex(c)}
        self.mode1 = {_as_int(j): complex(c) for j, c in self.mode1.items() if complex(c)}
        for c in (*self.mode0.values(), *self.mode1.values()):
            if not cmath.isfinite(c):
                raise ValueError(f"coefficients must be finite, got {c!r}")

    def indices(self) -> set[int]:
        """All sequence indices present on either mode."""
        return set(self.mode0) | set(self.mode1)


def to_waveform(sf: SymbolicField, pset: PpsSet) -> ClassicalField:
    """Synthesize the sampled waveform: mode m slot k = sum_j c_j e^{i lambda_k^(j)}."""
    n = pset.length
    for j in sf.indices():
        if not 0 <= j < n:
            raise IndexError(f"sequence index {j} out of range 0..{n - 1}")
    samples = np.zeros((n, 2), dtype=np.complex128)
    carriers = bit_carriers(pset._rows([*sf.mode0, *sf.mode1]), pset.mapping_phase)
    split = len(sf.mode0)
    for mode, (coeffs, rows) in enumerate(
        ((sf.mode0, carriers[:split]), (sf.mode1, carriers[split:]))
    ):
        weights = np.array(list(coeffs.values()), dtype=np.complex128)
        terms = weights[:, None] * rows
        # an axis-0 sum adds the rows one after another, in dict order, so
        # each slot is the running sum of coeff * carrier bit for bit
        samples[:, mode] = terms.sum(axis=0, initial=0)
    return ClassicalField(samples)


def symbolic_demodulate(sf: SymbolicField, j: int) -> tuple[complex, complex]:
    """Exact demodulation against reference j: plain coefficient lookup."""
    return (sf.mode0.get(j, 0j), sf.mode1.get(j, 0j))
