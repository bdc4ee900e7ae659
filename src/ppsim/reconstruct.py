"""Reconstruction of simulated states from mode status matrices.

A square status matrix is read along its cyclic diagonals: rotation r
pairs each field with one reference column, by `rotation_columns`, and one
gather (`_usable`) reads the sign pairs of all n rotations. Each rotation
whose statuses are all nonzero is usable and contributes one product term;
the sum over rotations, with integer coefficients reduced by their common
factor, is the simulated state. That one read serves reconstruction,
sampling, search and the factoring period.

A state has one form: its width, ascending distinct labels (`_pack`, one
ket each, in ket order) and reduced int64 coefficients. A checked dict and
the 0/1 digit rows that `reconstruct` expands in whole-array steps
(`_expand`) are packed and pass through one canonical-form step,
`SimulatedState._canonical`; only `terms` spells labels (`_spell`). A state
of more than `MAX_KETS` kets raises StateTooLargeError before anything is
allocated. A grid's cells are read-only, so the read of its diagonals is
kept on the grid and sampling reads them once per grid.
"""

from __future__ import annotations

import functools

import numpy as np

from .demod import SignGrid
from .errors import (
    DimensionMismatchError,
    StateTooLargeError,
    UnrepresentableStateError,
    _as_int,
)

MAX_KETS = 1 << 22  # kets one reconstruction may expand to


def rotation_columns(n: int, rotations) -> np.ndarray:
    """(n, len(rotations)) 0-based columns: [i, k] pairs 0-based field i
    with column (i + r - 1) mod n of 1-based rotation r = rotations[k]."""
    return (np.arange(n)[:, None] + np.asarray(rotations, dtype=np.int64) - 1) % n


class SimulatedState:
    """Integer-coefficient superposition over n-digit binary kets, held as
    its width, ascending distinct `_pack` labels and nonzero int64
    coefficients within +-(2**63 - 1), reduced by their greatest common
    factor (signs kept), so equal states compare equal. `terms` spells
    them on first access and keeps them."""

    def __init__(self, width: int, terms: dict[str, int]):
        self.width = _as_int(width)
        if self.width < 0:
            raise ValueError(f"ket width must be nonnegative, got {self.width}")
        labels, coeffs = terms.keys(), terms.values()
        if not (
            set(map(type, labels)) <= {str}
            and set(map(len, labels)) <= {self.width}
            and (text := "".join(labels)).isascii()  # so encode() cannot fail
            and not (raw := text.encode()).translate(None, b"01")  # digits 0 and 1 only
            and set(map(type, coeffs)) <= {int}
        ):  # check term by term, to name the first bad one
            for bits, coeff in terms.items():
                if len(bits) != self.width or bits.strip("01"):
                    raise ValueError(f"bad ket label {bits!r} for width {self.width}")
                try:
                    whole = int(coeff)
                except (OverflowError, ValueError):  # inf, NaN
                    whole = None
                if whole != coeff or isinstance(coeff, (bool, np.bool_)):
                    raise ValueError("coefficients must be integers")
            raw, coeffs = "".join(labels).encode(), map(int, coeffs)
        try:
            coeffs = np.fromiter(coeffs, dtype=np.int64, count=len(terms))
            if (coeffs == np.iinfo(np.int64).min).any():
                raise OverflowError
        except OverflowError:
            raise ValueError("coefficients must lie within +-(2**63 - 1)") from None
        digits = np.frombuffer(raw, dtype=np.uint8).reshape(len(terms), self.width)
        self._canonical(_pack(digits - ord("0")), coeffs)

    def _canonical(self, labels: np.ndarray, coeffs: np.ndarray) -> None:
        """Hold `_pack` labels and int64 coefficients in canonical form: sorted
        unless strictly ascending already, equal labels summed in int64, zero
        sums dropped, the rest divided by their gcd (`coeffs` may change)."""
        if len(labels) > 1 and not (labels[1:] > labels[:-1]).all():
            order = np.argsort(labels, kind="stable")
            labels, coeffs = labels[order], coeffs[order]
            starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
            labels, coeffs = labels[starts], np.add.reduceat(coeffs, starts)
        if not coeffs.all():
            labels, coeffs = labels[coeffs != 0], coeffs[coeffs != 0]
        coeffs //= np.gcd.reduce(coeffs)  # an empty array stays empty
        self._labels, self._coeffs = labels, coeffs

    @functools.cached_property
    def terms(self) -> dict[str, int]:
        """Ket label -> coefficient, in ascending label order."""
        packed = self._labels.view(np.uint8).reshape(-1, self._labels.itemsize)
        digits = np.unpackbits(packed, axis=1, count=self.width)
        return dict(zip(_spell(digits), self._coeffs.tolist()))

    @property
    def is_zero(self) -> bool:
        return not len(self._coeffs)

    def coefficient(self, bits: str) -> int:
        return self.terms.get(bits, 0)

    def pretty(self) -> str:
        """Readable rendering such as "|00> + |11>" or "|01> - |10>"."""
        text = ""
        for bits, coeff in self.terms.items():
            sign = "-" if coeff < 0 else "+"
            text += f" {sign} " if text else ("-" if coeff < 0 else "")
            text += f"|{bits}>" if abs(coeff) == 1 else f"{abs(coeff)}|{bits}>"
        return text or "0"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = (self.width, self._labels.tobytes(), self._coeffs.tobytes())
        return mine == (other.width, other._labels.tobytes(), other._coeffs.tobytes())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(width={self.width!r}, terms={self.terms!r})"


def _kept(read):
    """`read(grid)`, kept on the grid for as long as its cells are the same
    read-only array; SignGrid makes them read-only, so it cannot go stale."""
    name = f"_kept{read.__name__}"

    @functools.wraps(read)
    def kept_read(grid: SignGrid):
        cells = grid.cells
        kept = vars(grid).get(name)
        if kept is not None and kept[0] is cells and not cells.flags.writeable:
            return kept[1]
        value = read(grid)
        if not cells.flags.writeable:
            setattr(grid, name, (cells, value))
        return value

    return kept_read


@_kept
def _usable(grid: SignGrid) -> tuple[np.ndarray, np.ndarray]:
    """Usable rotations r (1-based, ascending) and their (R, n, 2) sign pairs:
    [k, i] is what rotation rotations[k] reads on field i. All n diagonals
    are gathered in one step through `rotation_columns`; the arrays are
    read-only, as they are kept on the grid."""
    n, m = grid.cells.shape[:2]
    if n != m:
        raise DimensionMismatchError(f"matrix is {n}x{m}, rotations need a square grid")
    rotations = np.arange(1, n + 1)
    diagonals = grid.cells[np.arange(n), rotation_columns(n, rotations).T]
    # a | b is nonzero exactly when the cell is not empty
    usable = (diagonals[..., 0] | diagonals[..., 1]).all(axis=1)
    read = rotations[usable], diagonals[usable]
    for arr in read:
        arr.flags.writeable = False
    return read


def _expand(diagonals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, n) uint8 0/1 digit rows and int64 coefficients of the kets that
    (R, n, 2) diagonals expand to.

    Field i of a diagonal is the factor (a|0> + b|1>); a both-mode cell
    gives both digits, so a diagonal with k of them expands to 2**k kets,
    ascending, each with the product of the signs it picked. Diagonals
    without one come first, in order, then each other diagonal's block.
    Raises StateTooLargeError past MAX_KETS kets, before allocating them.
    """
    a, b = diagonals[..., 0], diagonals[..., 1]
    both = (a != 0) & (b != 0)
    widths = both.sum(axis=1).tolist()
    kets = sum(1 << k for k in widths)
    if kets > MAX_KETS:
        raise StateTooLargeError(
            f"state would expand to {kets} kets, more than the {MAX_KETS} allowed"
        )
    digits = np.empty((kets, diagonals.shape[1]), dtype=np.uint8)
    fixed = (a == 0).astype(np.uint8)  # the digit of a single-mode cell
    signs = np.where(both, 1, a + b).prod(axis=1)  # product of single-mode signs
    mixed = both.any(axis=1)
    plain = np.flatnonzero(~mixed)
    digits[: len(plain)] = fixed[plain]
    coeffs = [signs[plain]]
    row = len(plain)
    for r in np.flatnonzero(mixed).tolist():
        cols = np.flatnonzero(both[r])
        block = digits[row : row + (1 << widths[r])]
        block[:] = fixed[r]
        # bits of 0 .. 2**k - 1, first both-mode cell most significant
        index = np.arange(len(block), dtype="<u4").view(np.uint8).reshape(-1, 4)
        bits = np.unpackbits(index, axis=1, count=widths[r], bitorder="little")
        block[:, cols] = bits[:, ::-1]
        coeff = signs[r : r + 1]
        for pair in diagonals[r, cols]:
            coeff = np.multiply.outer(coeff, pair).ravel()
        coeffs.append(coeff)
        row += len(block)
    return digits, np.concatenate(coeffs)


def _pack(digits: np.ndarray) -> np.ndarray:
    """(K,) labels of (K, n) 0/1 digit rows, the first digit most significant,
    so that label order is ket order: big-endian uint64 for n <= 64, and the
    np.packbits byte rows as byte strings above."""
    kets, n = digits.shape
    size = -(-n // 8)  # bytes per row
    bits = np.zeros((kets, 8 * size), dtype=np.uint8)  # whole bytes: rows pack in one run
    bits[:, :n] = digits
    packed = np.packbits(bits).reshape(kets, size)
    if n > 64:
        return packed.view(f"S{size}").ravel()
    wide = np.zeros((kets, 8), dtype=np.uint8)
    wide[:, :size] = packed
    return wide.view(">u8").ravel()


def _spell(digits: np.ndarray) -> list[str]:
    """Ket labels of (K, n) 0/1 digit rows, from one decode of an ASCII
    buffer whose rows end in a newline."""
    kets, n = digits.shape
    text = np.full((kets, n + 1), ord("\n"), dtype=np.uint8)
    np.add(digits, ord("0"), out=text[:, :n])
    return str(text.data, "ascii").splitlines()


def usable_rotations(grid: SignGrid) -> np.ndarray:
    """Rotations r (1-based, ascending) whose cyclic diagonal has no empty cell."""
    return _usable(grid)[0].copy()


def reconstruct(matrix: SignGrid) -> SimulatedState:
    """Sum the product terms of the usable rotations of a square sign grid.

    Field i of a rotation contributes the factor (a|0> + b|1>) read from its
    rotated status; all usable rotations expand together, by `_expand`, and
    the canonical form sums the kets they share, drops zero sums and divides
    by the gcd. Raises StateTooLargeError past MAX_KETS kets.
    """
    digits, coeffs = _expand(_usable(matrix)[1])
    labels = _pack(digits)
    del digits
    state = SimulatedState.__new__(SimulatedState)
    state.width = matrix.cells.shape[0]
    state._canonical(labels, coeffs)
    return state


@_kept
def _draw_table(grid: SignGrid) -> list[tuple[str, list[int]]]:
    """Per usable rotation: its label with every single-mode digit set, and
    the fields (ascending) whose both-mode cell a fair coin resolves."""
    diagonals = _usable(grid)[1]
    labels = _spell((diagonals[..., 0] == 0).astype(np.uint8))
    both = (diagonals[..., 0] != 0) & (diagonals[..., 1] != 0)
    return [(label, np.flatnonzero(row).tolist()) for label, row in zip(labels, both)]


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
    table = _draw_table(matrix)
    if not table:
        raise UnrepresentableStateError("unrepresentable state")
    label, coins = table[int(gen.integers(len(table)))]
    digits = list(label)
    for i in coins:
        digits[i] = "01"[int(gen.integers(2))]
    return "".join(digits)
