"""Error taxonomy shared by the library and the command line front end.

Library code raises these instead of bare ValueError so callers (and the
CLI exit-code mapping) can tell input-shape problems apart from pipeline
failures. The integer rule for numbers from callers and files, `_as_int`,
lives here too, in the one module every other module may import.
"""

from __future__ import annotations

import json

import numpy as np


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateStateError(SimulationError):
    """The shift register was seeded with the all-zero state."""


class NonPrimitivePolynomialError(SimulationError):
    """A feedback polynomial failed the full-period primitivity check."""


class TableTooLargeError(SimulationError):
    """A sequence table would take more units than it may allocate."""


class DimensionMismatchError(SimulationError):
    """Operands disagree on length, shape, or arity."""


class PeriodUnusableError(SimulationError):
    """The recovered period cannot produce nontrivial factors."""


class UnrepresentableStateError(SimulationError):
    """Every permutation term of a status matrix is empty."""


class StateTooLargeError(SimulationError):
    """A reconstruction would expand to more kets than it may allocate."""


class FormatError(SimulationError):
    """A serialized artifact could not be parsed, or a value cannot be
    written in its format."""


def _as_int(value) -> int:
    """An integer given by a caller or a file: an integral number or a numeric string.

    A bool, inf, NaN or a number that int() would change is an error,
    whatever its type. So is a float at or past the magnitude where its type
    stops holding every integer (2**53 for a float), as it may not be the
    number that was written.
    """
    if type(value) is int:  # the common case, decided without numpy
        return value
    if isinstance(value, str):
        return int(value)
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf, NaN
        whole = None
    if isinstance(value, (float, np.floating)):
        if abs(value) >= 2.0 ** (np.finfo(type(value)).nmant + 1):
            whole = None
    if isinstance(value, (bool, np.bool_)) or whole is None or whole != value:
        shown = json.dumps(value) if isinstance(value, (int, float)) else repr(value)
        raise ValueError(f"expected an integer, got {shown}")
    return whole
