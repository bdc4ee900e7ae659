"""End-to-end simulations: typical states, factoring, and membership search.

The factoring pipeline encodes x and f(x) = a^x mod N bit-by-bit onto
placement-table cells, one cyclic rotation per residue class of f, then
runs encode -> compile -> run -> demodulate and reads the period off the
usable diagonals of the status grid. The membership pipeline stores each
database entry on one rotation and tests a query by gating every field to
the query's bit pattern and looking for a rotation whose statuses survive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .demod import DEFAULT_THRESHOLD, ModeStatusMatrix, SignGrid, mode_status_matrix
from .errors import (
    DimensionMismatchError,
    PeriodUnusableError,
    StateTooLargeError,
    _as_int,
)
from .fields import ClassicalField, canonical_inputs
from .gates import GateArray, apply_mode_gate, w_array
from .placement import (
    BELL_VARIANTS,
    CompiledArray,
    PlacementTable,
    _construction_name,
    bell_array,
    compile_placement,
    ghz_array,
    product_array,
)
from .reconstruct import (
    MAX_KETS,
    SimulatedState,
    _expand,
    _usable,
    reconstruct,
    rotation_columns,
    usable_rotations,
)
from .sequences import PpsSet
from .symbolic import SymbolicField, to_waveform


def _msb_bits(values, width: int) -> np.ndarray:
    """(len(values), width) bits, MSB first; read from bytes, so any width works."""
    size = (width + 7) // 8
    raw = b"".join(int(v).to_bytes(size, "big") for v in values)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).reshape(-1, 8 * size)
    return bits[:, 8 * size - width :]


@dataclass
class ShorInstance:
    """A factoring instance: find the period of f(x) = base^x mod modulus.

    Both registers are (modulus - 1).bit_length() bits wide: register 1
    spans all 2**x_bits arguments, register 2 holds the function values.
    """

    modulus: int
    base: int

    def __post_init__(self):
        self.modulus = _as_int(self.modulus)
        self.base = _as_int(self.base)
        if self.modulus < 4:
            raise ValueError("modulus must be a composite integer >= 4")
        if not 1 < self.base < self.modulus:
            raise ValueError("base must satisfy 1 < base < modulus")
        if math.gcd(self.base, self.modulus) != 1:
            raise ValueError("base shares a factor with the modulus; pick a coprime base")

    @property
    def x_bits(self) -> int:
        return (self.modulus - 1).bit_length()

    f_bits = x_bits

    @property
    def register_width(self) -> int:
        return self.x_bits + self.f_bits

    def f(self, x: int) -> int:
        return pow(self.base, x, self.modulus)


def shor_encode(inst: ShorInstance, pset: PpsSet) -> PlacementTable:
    """Placement table carrying every joint ket |x>|f(x)> of the instance.

    Argument x lies in residue class x mod r, r the order of the base, and
    rides rotation R = R_(x mod r + 1): bit i of x||f(x) (MSB first) picks
    the mode of cell (i, R(i)). A cell touched on both modes reads (1, 1).
    """
    n = inst.register_width
    if n > pset.usable_count:
        raise DimensionMismatchError(
            f"instance needs {n} sequences, set provides {pset.usable_count}"
        )
    powers = [1]  # f(0), ..., f(r - 1)
    while (value := powers[-1] * inst.base % inst.modulus) != 1:
        if len(powers) == n:
            raise DimensionMismatchError("more residue classes than table rotations")
        powers.append(value)
    kets = 1 << inst.x_bits
    if kets * n > MAX_KETS:
        raise StateTooLargeError(
            f"{kets} kets of {n} bits are {kets * n} bits, more than the {MAX_KETS} allowed"
        )
    x = np.arange(kets)
    classes = x % len(powers)
    joints = (x << inst.f_bits) | np.array(powers)[classes]
    cells = np.zeros((n, n, 2), dtype=np.int8)
    columns = rotation_columns(n, classes + 1)  # [i, x]
    cells[np.arange(n)[:, None], columns, _msb_bits(joints.tolist(), n).T] = 1
    return PlacementTable(cells)


@dataclass
class ShorResult:
    """Factoring outcome plus the intermediate evidence."""

    factors: tuple[int, int]
    period: int
    matrix: ModeStatusMatrix

    @functools.cached_property
    def state(self) -> SimulatedState:
        """The reconstructed state, built on first access."""
        return reconstruct(self.matrix)


def period_from_state(state: SimulatedState, f_bits: int) -> int:
    """Number of distinct function-register kets in a reconstructed state."""
    if not 1 <= f_bits <= state.width:
        raise ValueError(f"f_bits must be 1..{state.width}, got {f_bits}")
    return len({bits[-f_bits:] for bits in state.terms})


def _period_from_grid(matrix: SignGrid, f_bits: int) -> int:
    """period_from_state(reconstruct(matrix), f_bits), expanding only the
    function register where no term can cancel.

    With no -1 on a usable diagonal every term adds with a positive sign, so
    the function kets are the suffixes the diagonals' last f_bits fields
    generate, counted as distinct digit rows. Otherwise the state is
    reconstructed.
    """
    diagonals = _usable(matrix)[1]
    if (diagonals < 0).any():
        return period_from_state(reconstruct(matrix), f_bits)
    return len(set(map(bytes, _expand(diagonals[:, -f_bits:])[0])))


def shor_factor(
    inst: ShorInstance, pset: PpsSet, tau: float = DEFAULT_THRESHOLD
) -> ShorResult:
    """Run the whole factoring pipeline and extract the factors.

    The period r is the count of distinct function kets in the
    reconstructed state, read off the usable diagonals of the status grid;
    no Fourier step is involved. An odd period, or base**(r/2) = -1
    (mod modulus), or a trivial gcd, aborts with the retry error. The
    state itself is reconstructed on first access to `result.state`.
    """
    table = shor_encode(inst, pset)
    array = compile_placement(table, pset)
    outputs = array.run(canonical_inputs(pset, inst.register_width))
    matrix = mode_status_matrix(outputs, pset=pset, tau=tau)
    period = _period_from_grid(matrix, inst.f_bits)
    if period % 2:
        raise PeriodUnusableError("period unusable, retry with different a")
    half = pow(inst.base, period // 2, inst.modulus)
    low = math.gcd(half - 1, inst.modulus)
    high = math.gcd(half + 1, inst.modulus)
    factors = tuple(sorted((low, high)))
    if factors[0] <= 1 or factors[1] >= inst.modulus:
        raise PeriodUnusableError("period unusable, retry with different a")
    return ShorResult(factors, period, matrix)


@dataclass
class GroverDatabase:
    """Stored set of distinct width-bit integers, one rotation per entry.

    Without an explicit assignment, entry k (0-based position) takes
    rotation (k mod width) + 1; reuse is allowed and mirrors storing more
    entries than there are rotations.
    """

    width: int
    entries: tuple[int, ...]
    rotations: dict[int, int] | None = None

    def __post_init__(self):
        self.width = _as_int(self.width)
        if self.width < 1:
            raise ValueError("width must be positive")
        self.entries = tuple(_as_int(x) for x in self.entries)
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("entries must be distinct")
        for x in self.entries:
            if not 0 <= x < (1 << self.width):
                raise ValueError(f"entry {x} does not fit in {self.width} bits")
        if self.rotations is not None:
            self.rotations = {_as_int(k): _as_int(r) for k, r in self.rotations.items()}
            missing = set(self.entries) - set(self.rotations)
            if missing:
                raise ValueError(f"rotation map misses entries {sorted(missing)}")
            for r in self.rotations.values():
                if not 1 <= r <= self.width:
                    raise ValueError(f"rotation {r} out of range 1..{self.width}")

    def rotation_for(self, entry: int) -> int:
        return self.assignment()[entry]

    def assignment(self) -> dict[int, int]:
        """Rotation of every entry, in entry order, built in one pass."""
        if self.rotations is not None:
            return {x: self.rotations[x] for x in self.entries}
        return {x: k % self.width + 1 for k, x in enumerate(self.entries)}


def grover_symbolic(db: GroverDatabase) -> list[SymbolicField]:
    """Symbolic encoded fields: field k holds, per entry x with rotation
    R_r, sequence R_r(k) on mode bit_k(x); duplicates collapse to 1."""
    columns = rotation_columns(db.width, list(db.assignment().values())) + 1
    bits = _msb_bits(db.entries, db.width).T  # [k, x]
    fields = [SymbolicField() for _ in range(db.width)]
    for fld, field_columns, field_bits in zip(fields, columns, bits):
        # dict.fromkeys keeps the entries' order, as to_waveform sums in it
        fld.mode0.update(dict.fromkeys(field_columns[field_bits == 0].tolist(), 1.0))
        fld.mode1.update(dict.fromkeys(field_columns[field_bits == 1].tolist(), 1.0))
    return fields


def grover_encode(db: GroverDatabase, pset: PpsSet) -> list[ClassicalField]:
    """Sampled-waveform realization of the encoded database fields."""
    if db.width > pset.usable_count:
        raise DimensionMismatchError(
            f"database needs {db.width} sequences, set provides {pset.usable_count}"
        )
    return [to_waveform(sf, pset) for sf in grover_symbolic(db)]


@dataclass
class GroverResult:
    """Membership verdict plus the gated evidence matrix."""

    found: bool
    witness: int | None
    matrix: ModeStatusMatrix


def grover_search(
    db: GroverDatabase,
    query: int,
    pset: PpsSet,
    tau: float = DEFAULT_THRESHOLD,
) -> GroverResult:
    """Test a query by mode-gating the encoded fields to its bit pattern.

    Query bit 0 keeps mode 0 (gate B), bit 1 keeps mode 1 (gate C). The
    query is a member iff some rotation R_r leaves a nonzero status at
    every cell (i, R_r(i)); the witness is the first such rotation.
    """
    query = _as_int(query)
    if not 0 <= query < (1 << db.width):
        raise ValueError(f"query {query} does not fit in {db.width} bits")
    encoded = grover_encode(db, pset)
    gated = [
        apply_mode_gate(fld, "C" if bit else "B")
        for fld, bit in zip(encoded, _msb_bits([query], db.width)[0])
    ]
    matrix = mode_status_matrix(gated, pset=pset, tau=tau)
    usable = usable_rotations(matrix)
    witness = int(usable[0]) if usable.size else None
    return GroverResult(witness is not None, witness, matrix)


@dataclass
class TypicalState:
    """Builder output: the fields, their status matrix, and the state."""

    fields: list[ClassicalField]
    matrix: ModeStatusMatrix
    state: SimulatedState


TYPICAL_KINDS = ("product", *BELL_VARIANTS, "ghz", "w")


def typical_state(kind: str, pset: PpsSet, n: int | None = None) -> TypicalState:
    """Build, demodulate, and reconstruct one of the named constructions.

    `kind` is one of product / psi+ / psi- / phi+ / phi- / ghz / w; `n`
    sets the field count for product, ghz, and w (defaults 2, 3, 3); the
    paired states take only n = 2.
    """
    array = builder_for(kind, n)
    outputs = array.run(canonical_inputs(pset, array.input_count))
    matrix = mode_status_matrix(outputs, pset=pset)
    return TypicalState(outputs, matrix, reconstruct(matrix))


def builder_for(kind: str, n: int | None = None) -> CompiledArray | GateArray:
    """The gate array a typical_state call would run, without running it."""
    token = _construction_name(kind)
    if token in BELL_VARIANTS:
        if n is not None and _as_int(n) != 2:
            raise ValueError(f"{token} pairs 2 fields, got n = {n}")
        return bell_array(token)
    if token == "ghz":
        return ghz_array(3 if n is None else n)
    if token == "w":
        return w_array(3 if n is None else n)
    if token == "product":
        return product_array(2 if n is None else n)
    raise ValueError(f"unknown kind {kind!r}; choose from {TYPICAL_KINDS}")
