"""Pseudorandom phase sequence (PPS) sets built from LFSR m-sequences.

A set of degree s holds N = 2**s sequences of N phase units each. Sequence 0
is all zero; sequences 1..N-1 are the cyclic shifts of one maximal-length
LFSR output over GF(2), each padded with a trailing zero unit and mapped
0 -> 0, 1 -> mapping_phase. With mapping_phase = pi the complex carriers
e^{i lambda} of distinct sequences are exactly orthogonal under the
normalized correlation, every nonzero sequence sums to zero (balance), and
the elementwise product of two carriers is another carrier of the same set
(closure under bit-row XOR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClosureError,
    DegenerateStateError,
    DimensionMismatchError,
    NonPrimitivePolynomialError,
    _as_int,
)

PI = math.pi
HALF_PI = math.pi / 2.0

_MAPPING_NAMES = {"pi": PI, "pi/2": HALF_PI}  # phases named in files and the CLI

# Feedback polynomials over GF(2), ascending coefficients [c0, c1, ..., cs]
# for c0 + c1 x + ... + cs x^s. Every entry is verified primitive by the
# full-period check in generate_m_sequence (tests sweep the whole table).
PRIMITIVE_POLYNOMIALS: dict[int, tuple[int, ...]] = {
    2: (1, 1, 1),
    3: (1, 1, 0, 1),
    4: (1, 1, 0, 0, 1),
    5: (1, 0, 1, 0, 0, 1),
    6: (1, 1, 0, 0, 0, 0, 1),
    7: (1, 1, 0, 0, 0, 0, 0, 1),
    8: (1, 0, 1, 1, 1, 0, 0, 0, 1),
    9: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    10: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    11: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    12: (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    13: (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    14: (1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    15: (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    16: (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
}


def _bits(values: tuple, message: str) -> tuple[int, ...]:
    """`values` as 0/1 ints; any other value, 1.5, inf or NaN among them,
    raises ValueError(message)."""
    try:
        bits = tuple(int(v) for v in values)
    except (OverflowError, ValueError):  # inf, NaN
        raise ValueError(message) from None
    # int() truncates 1.5 to 1, so a value it changed is not 0 or 1
    if bits != values or any(b not in (0, 1) for b in bits):
        raise ValueError(message)
    return bits


def _poly_taps(polynomial: tuple[int, ...]) -> tuple[int, int]:
    """Validate an ascending coefficient list; return (degree, tap mask)."""
    coeffs = _bits(polynomial, "polynomial coefficients must be 0 or 1")
    degree = len(coeffs) - 1
    if degree < 2 or coeffs[0] != 1 or coeffs[-1] != 1:
        raise ValueError("polynomial must have degree >= 2 with c0 = cs = 1")
    mask = 0
    for t in range(degree):
        if coeffs[t]:
            mask |= 1 << t
    return degree, mask


def generate_m_sequence(
    polynomial: tuple[int, ...] | list[int],
    degree: int | None = None,
    seed: tuple[int, ...] | list[int] | None = None,
) -> tuple[int, ...]:
    """Run a Fibonacci LFSR for one full period and return its output bits.

    `polynomial` is the ascending coefficient list of a degree-s feedback
    polynomial; the recurrence is b[k+s] = sum(c[t] * b[k+t], t < s) mod 2.
    `seed` is the first s output bits (default all ones). The state cycle is
    walked completely: anything shorter than period 2**s - 1 means the
    polynomial is not primitive and is rejected.
    """
    s, mask = _poly_taps(tuple(polynomial))
    if degree is not None and degree != s:
        raise ValueError(f"polynomial degree {s} does not match degree={degree}")
    bits = _bits((1,) * s if seed is None else tuple(seed), f"seed must be {s} bits")
    if len(bits) != s:
        raise ValueError(f"seed must be {s} bits")
    state = 0
    for t, b in enumerate(bits):  # bit t of state is output bit t
        state |= b << t
    if state == 0:
        raise DegenerateStateError("degenerate LFSR state")

    period = (1 << s) - 1
    out: list[int] = []
    cur = state
    for step in range(period):
        out.append(cur & 1)
        feedback = (cur & mask).bit_count() & 1
        cur = (cur >> 1) | (feedback << (s - 1))
        if cur == state and step != period - 1:
            raise NonPrimitivePolynomialError("polynomial not primitive")
    if cur != state:
        raise NonPrimitivePolynomialError("polynomial not primitive")
    return tuple(out)


def _parse_mapping(mapping_phase: float | str) -> float:
    """Finite mapping phase from a number, a name in _MAPPING_NAMES or float text."""
    if isinstance(mapping_phase, str):
        token = mapping_phase.strip().lower()
        mapping_phase = _MAPPING_NAMES.get(token, token)
    phase = float(mapping_phase)
    if not math.isfinite(phase):
        raise ValueError(f"mapping phase must be finite, got {mapping_phase!r}")
    return phase


@dataclass(eq=False)
class PpsSet:
    """A full PPS family: generation parameters plus all N bit rows."""

    degree: int
    polynomial: tuple[int, ...]
    mapping_phase: float
    bit_rows: np.ndarray  # (N, N) uint8; row j holds lambda^(j) bits
    _window_rows: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def length(self) -> int:
        """Units per sequence, N = 2**degree."""
        return self.bit_rows.shape[1]

    @property
    def usable_count(self) -> int:
        """Sequences available for fields: all but the all-zero sequence 0."""
        return self.length - 1

    @property
    def carriers(self) -> np.ndarray:
        """(N, N) complex carriers, row j is e^{i lambda^(j)}; computed per access."""
        return bit_carriers(self.bit_rows, self.mapping_phase)

    def _rows_by_window(self) -> np.ndarray:
        """Table w -> index of the row whose first `degree` bits read w.

        Bit t of w is bit t of the row. Each nonzero window occurs once per
        m-sequence period, so the N rows (row 0 reads 0) fill the N keys.
        """
        if self._window_rows is None:
            keys = self.bit_rows[:, : self.degree] @ (1 << np.arange(self.degree))
            table = np.full(self.length, -1, dtype=np.intp)
            table[keys] = np.arange(self.length)
            if (table < 0).any():
                raise ClosureError("closure violated: row windows are not distinct")
            self._window_rows = table
        return self._window_rows

    def sequence(self, j: int) -> np.ndarray:
        """Carrier row e^{i lambda^(j)} of sequence j, equal to carriers[j]."""
        j = _as_int(j)
        if not 0 <= j < self.length:
            raise IndexError(f"sequence index {j} out of range 0..{self.length - 1}")
        return bit_carriers(self.bit_rows[j], self.mapping_phase)


def bit_carriers(bits: np.ndarray, mapping_phase: float) -> np.ndarray:
    """Carriers e^{i mapping_phase * b} of bit rows, elementwise.

    A bit takes only two carrier values, e^0 and e^{i mapping_phase}, so this
    selects between them; the values equal the complex exponential bit for bit.
    """
    return np.where(bits, np.exp(1j * mapping_phase), 1)


def degree_for(width: int) -> int:
    """Smallest degree whose set has at least `width` usable sequences."""
    return max(2, width.bit_length())


def build_pps_set(
    degree: int,
    polynomial: tuple[int, ...] | list[int] | None = None,
    mapping_phase: float | str = PI,
    seed: tuple[int, ...] | list[int] | None = None,
) -> PpsSet:
    """Build the N = 2**degree sequence family from one m-sequence.

    Row 0 is all zero. Row 1 is the base m-sequence with a zero unit
    appended; each following row rotates the previous one left by one
    position over the first N-1 units, keeping the final unit zero. `seed`
    is the first `degree` bits of row 1 (default all ones).
    """
    degree, mapping_phase = _as_int(degree), _parse_mapping(mapping_phase)
    if polynomial is None:
        if degree not in PRIMITIVE_POLYNOMIALS:
            raise ValueError(f"no built-in polynomial for degree {degree}; supply one")
        polynomial = PRIMITIVE_POLYNOMIALS[degree]
    base = generate_m_sequence(polynomial, degree=degree, seed=seed)
    n = 1 << degree
    rows = np.zeros((n, n), dtype=np.uint8)
    core = np.array(base, dtype=np.uint8)
    # rows 1.. read flat are n copies of the core: as N = 1 mod N-1, row j + 1
    # is the core rotated left by j, plus one unit that is then zeroed
    rows[1:].reshape(n, n - 1)[:] = core
    rows[1:, n - 1] = 0
    return PpsSet(degree, tuple(int(c) for c in polynomial), mapping_phase, rows)


def correlate(a: np.ndarray, b: np.ndarray) -> complex:
    """Normalized correlation (1/N) sum a_k conj(b_k) of two length-N rows.

    For two carrier rows this is (1/N) sum e^{i(lambda_a - lambda_b)}.
    """
    if len(a) != len(b):
        raise DimensionMismatchError(f"sequence lengths differ: {len(a)} vs {len(b)}")
    return complex(np.vdot(b, a) / len(a))


def balance_sum(carrier: np.ndarray, theta: float = 0.0) -> complex:
    """Sum of e^{i(lambda + theta)} over all units of one carrier row.

    Zero for every nonzero sequence of a pi-mapped set; N e^{i theta} for
    sequence 0.
    """
    return complex(np.sum(carrier * np.exp(1j * theta)))


def sequence_product(i: int, j: int, pset: PpsSet) -> int:
    """Index k with lambda^(i) + lambda^(j) = lambda^(k) as bit rows.

    Bit rows add over GF(2); for mapping_phase = pi this matches the
    elementwise carrier product e^{i lambda^(i)} e^{i lambda^(j)}. The
    candidate k is the row whose first `degree` bits match the XOR's; the
    whole row k is then checked against the XOR.
    """
    n, i, j = pset.length, _as_int(i), _as_int(j)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"sequence indices {i}, {j} out of range 0..{n - 1}")
    rows = pset.bit_rows
    combined = np.bitwise_xor(rows[i], rows[j])
    window = int(combined[: pset.degree] @ (1 << np.arange(pset.degree)))
    k = int(pset._rows_by_window()[window])
    if not np.array_equal(rows[k], combined):
        raise ClosureError(f"closure violated: row {k} is not row {i} xor row {j}")
    return k
