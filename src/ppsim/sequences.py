"""Pseudorandom phase sequence (PPS) sets built from LFSR m-sequences.

A set of degree s holds N = 2**s sequences of N phase units each. Sequence 0
is all zero; sequences 1..N-1 are the cyclic shifts of one maximal-length
LFSR output over GF(2), each padded with a trailing zero unit and mapped
0 -> 0, 1 -> mapping_phase. With mapping_phase = pi the complex carriers
e^{i lambda} of distinct sequences are exactly orthogonal under the
normalized correlation, every nonzero sequence sums to zero (balance), and
the elementwise product of two carriers is another carrier of the same set
(closure under bit-row XOR).

A set is held as its generator. The m-sequence is built once, and rows are
gathered from it on demand, so no pipeline builds the N x N table. The
whole-table properties `bit_rows` and `carriers` are built per access and
refused past MAX_TABLE_UNITS units before they allocate, as is a gather of
that many. The XOR of two shifts is another shift, and a row is fixed by its
first s bits: so closure is an XOR of two s-bit windows and one lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionMismatchError,
    NonPrimitivePolynomialError,
    TableTooLargeError,
    _as_int,
)

PI = math.pi
HALF_PI = math.pi / 2.0

_MAPPING_NAMES = {"pi": PI, "pi/2": HALF_PI}  # phases named in files and the CLI

# Bit rows or carriers past this many units are refused before they are
# allocated: degree 12's whole table, whose carriers take 256 MiB.
MAX_TABLE_UNITS = 1 << 24

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
    except (OverflowError, TypeError, ValueError):  # inf, NaN, None, a row
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
    """A PPS family held as its generator: degree, polynomial, mapping, seed.

    The m-sequence that the generator runs is built once and kept; every row
    is a rotation of it, gathered on demand. `seed` is the first `degree`
    bits of row 1 (default all ones).
    """

    degree: int
    polynomial: tuple[int, ...]
    mapping_phase: float
    seed: tuple[int, ...] | None = None
    # The strip is the m-sequence (row 1's first N-1 units), its first N-2
    # units again and N zeros. _windows[j - 1], its window at unit j - 1, is
    # row j but for the last unit; _windows[-1] is row 0.
    _windows: np.ndarray = field(init=False, repr=False)  # (2N - 2, N) view
    _labels: tuple[list[int], list[int]] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.degree = _as_int(self.degree)
        self.mapping_phase = _parse_mapping(self.mapping_phase)
        base = generate_m_sequence(self.polynomial, degree=self.degree, seed=self.seed)
        self.polynomial = tuple(map(int, self.polynomial))
        self.seed = base[: self.degree]
        n, core = 1 << self.degree, bytes(base)
        strip = core + core[:-1] + bytes(n)
        self._windows = np.ndarray((2 * n - 2, n), np.uint8, strip, 0, (1, 1))

    @property
    def length(self) -> int:
        """Units per sequence, N = 2**degree."""
        return 1 << self.degree

    @property
    def usable_count(self) -> int:
        """Sequences available for fields: all but the all-zero sequence 0."""
        return self.length - 1

    def _need(self, what: str, count: int) -> None:
        """Refuse `what` if its `count` sequences exceed the usable ones."""
        if count > self.usable_count:
            raise DimensionMismatchError(
                f"{what} needs {count} sequences, set provides {self.usable_count}"
            )

    @property
    def bit_rows(self) -> np.ndarray:
        """(N, N) uint8 bits, row j holds lambda^(j); built per access."""
        return self._rows(np.arange(self.length))

    @property
    def carriers(self) -> np.ndarray:
        """(N, N) complex carriers, row j is e^{i lambda^(j)}; built per access,
        and past MAX_TABLE_UNITS refused before anything is allocated."""
        n = self.length
        _check_units(n, n)
        core = bit_carriers(self._windows[0, : n - 1], self.mapping_phase)
        table = np.empty((n, n), dtype=core.dtype)
        table[0] = 1
        # rows 1.. read flat are n copies of the core: as N = 1 mod N-1, row j + 1
        # is the core rotated left by j, plus one unit that is then overwritten
        table[1:].reshape(n, n - 1)[:] = core
        table[1:, n - 1] = 1
        return table

    def _rows(self, index) -> np.ndarray:
        """Bit rows `index` (1-D, each in 0..N-1): row j + 1 is row 1's first
        N-1 units rotated left by j, then a zero unit; row 0 is all zero."""
        n = self.length
        _check_units(len(index), n)
        rows = self._windows[np.asarray(index, dtype=np.intp) - 1]
        rows[:, n - 1] = 0
        return rows

    def _label_tables(self) -> tuple[list[int], list[int]]:
        """(label, index_of): label[j] reads row j's first `degree` bits, bit t
        of the label being unit t; index_of inverts it. Built on first use.

        Each nonzero window occurs once per m-sequence period, so the N rows
        (row 0 reads 0) take the N labels. Both are lists, so that a lookup
        is plain int indexing.
        """
        if self._labels is None:
            n, s = self.length, self.degree
            label = np.zeros(n, dtype=np.intp)
            label[1:] = self._windows[: n - 1, :s] @ (1 << np.arange(s))  # rows 1..N-1
            index_of = np.empty(n, dtype=np.intp)
            index_of[label] = np.arange(n)
            self._labels = (label.tolist(), index_of.tolist())
        return self._labels

    def sequence(self, j: int) -> np.ndarray:
        """Carrier row e^{i lambda^(j)} of sequence j, equal to carriers[j]."""
        j = _as_int(j)
        if not 0 <= j < self.length:
            raise IndexError(f"sequence index {j} out of range 0..{self.length - 1}")
        return bit_carriers(self._rows([j])[0], self.mapping_phase)


def _check_units(rows: int, n: int) -> None:
    """Refuse a table of `rows` rows of n units past MAX_TABLE_UNITS."""
    if rows * n > MAX_TABLE_UNITS:
        raise TableTooLargeError(
            f"{rows} rows of {n} units are {rows * n} units, more than the "
            f"{MAX_TABLE_UNITS} allowed"
        )


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
    """The N = 2**degree sequence family of one m-sequence.

    Row 0 is all zero. Row 1 is the base m-sequence with a zero unit
    appended; each following row rotates the previous one left by one
    position over the first N-1 units, keeping the final unit zero. `seed`
    is the first `degree` bits of row 1 (default all ones). `polynomial`
    defaults to the built-in one of that degree.
    """
    degree = _as_int(degree)
    if polynomial is None:
        if degree not in PRIMITIVE_POLYNOMIALS:
            raise ValueError(f"no built-in polynomial for degree {degree}; supply one")
        polynomial = PRIMITIVE_POLYNOMIALS[degree]
    return PpsSet(degree, polynomial, mapping_phase, seed)


def correlate(a: np.ndarray, b: np.ndarray) -> complex:
    """Normalized correlation (1/N) sum a_k conj(b_k) of two length-N rows.

    For two carrier rows this is (1/N) sum e^{i(lambda_a - lambda_b)}.
    """
    if len(a) != len(b):
        raise DimensionMismatchError(f"sequence lengths differ: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise DimensionMismatchError("cannot correlate empty sequences")
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
    elementwise carrier product e^{i lambda^(i)} e^{i lambda^(j)}. The rows of
    a set are the shifts of one m-sequence, which are closed under XOR
    (shift-and-add), and a row is fixed by its first `degree` bits: so k is
    the row whose label is label[i] XOR label[j].
    """
    n, i, j = pset.length, _as_int(i), _as_int(j)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"sequence indices {i}, {j} out of range 0..{n - 1}")
    label, index_of = pset._label_tables()
    return index_of[label[i] ^ label[j]]
