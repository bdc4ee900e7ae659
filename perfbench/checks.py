"""Output checks that do not rely on ppsim.

Every expected value here is computed in plain Python from the op's inputs:
closed-form states, multiplicative orders, the membership predicate and an
LFSR run. Nothing is compared against a stored copy of the program's output.
Each check raises CheckError with a message naming what differs.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(Exception):
    """An op's output disagrees with its independent computation."""


# The four paired states as the paper writes them: psi variants pair equal
# bits, phi variants pair opposite bits, minus variants flip the second term.
BELL_STATES = {
    "psi+": {"00": 1, "11": 1},
    "psi-": {"00": 1, "11": -1},
    "phi+": {"01": 1, "10": 1},
    "phi-": {"01": 1, "10": -1},
}


def expected_state(kind: str, n: int) -> dict[str, int]:
    """Closed form of a named construction over n fields."""
    if kind in BELL_STATES:
        return dict(BELL_STATES[kind])
    if kind == "ghz":
        return {"0" * n: 1, "1" * n: 1}
    if kind == "w":
        return {"0" * i + "1" + "0" * (n - i - 1): 1 for i in range(n)}
    if kind == "product":
        return {format(k, f"0{n}b"): 1 for k in range(1 << n)}
    raise ValueError(f"no closed form for {kind!r}")


def check_state(kind: str, n: int, terms: dict[str, int]) -> None:
    want = expected_state(kind, n)
    if terms != want:
        extra = sorted(set(terms) - set(want))[:3]
        missing = sorted(set(want) - set(terms))[:3]
        wrong = sorted(k for k in set(want) & set(terms) if want[k] != terms[k])[:3]
        raise CheckError(
            f"{kind} n={n}: state differs from closed form"
            f" (extra {extra}, missing {missing}, wrong coefficient {wrong})"
        )


def check_samples(kind: str, n: int, samples: list[str]) -> None:
    """Every sampled ket lies in the support of the closed-form state."""
    support = expected_state(kind, n)
    for ket in samples:
        if ket not in support:
            raise CheckError(f"{kind} n={n}: sampled ket {ket} outside the support")


def multiplicative_order(a: int, modulus: int, limit: int | None = None) -> int | None:
    """Smallest r >= 1 with a**r = 1 (mod modulus); None past `limit` steps."""
    if math.gcd(a, modulus) != 1:
        return None
    value = a % modulus
    r = 1
    while value != 1:
        if limit is not None and r >= limit:
            return None
        value = value * a % modulus
        r += 1
    return r


def register_width(modulus: int) -> int:
    """x and f registers of ceil(log2(modulus)) bits each."""
    return 2 * (modulus - 1).bit_length()


def shor_preconditions(modulus: int, a: int) -> int | None:
    """The order of a mod N if (N, a) meets the method's stated preconditions.

    N is composite, 1 < a < N is coprime to N, the order is at most the
    register width (one table rotation per residue class), the order is
    even, and a**(r/2) is not -1 (mod N). Otherwise None.
    """
    if modulus < 4 or not 1 < a < modulus:
        return None
    if all(modulus % p for p in range(2, math.isqrt(modulus) + 1)):
        return None
    r = multiplicative_order(a, modulus, limit=register_width(modulus))
    if r is None or r % 2:
        return None
    if pow(a, r // 2, modulus) == modulus - 1:
        return None
    return r


def check_factor(modulus: int, a: int, period: int, factors: tuple[int, int]) -> None:
    want = multiplicative_order(a, modulus)
    if period != want:
        raise CheckError(f"N={modulus} a={a}: period {period}, order is {want}")
    for f in factors:
        if not 1 < f < modulus or modulus % f:
            raise CheckError(f"N={modulus} a={a}: {f} is not a nontrivial divisor")


def membership_witness(
    width: int, rotations: dict[int, int], query: int
) -> int | None:
    """First rotation r whose entries cover every query bit, else None.

    Field k carries, on the cell of rotation r, mode bit_k(x) for each entry
    x stored on rotation r. Gating field k to the query's bit k keeps that
    cell alive iff some entry on rotation r shares bit k with the query.
    """
    groups: dict[int, list[int]] = {}
    for entry, r in rotations.items():
        groups.setdefault(r, []).append(entry)
    for r in range(1, width + 1):
        members = groups.get(r, [])
        if members and all(
            any((x >> (width - k)) & 1 == (query >> (width - k)) & 1 for x in members)
            for k in range(1, width + 1)
        ):
            return r
    return None


def check_search(
    width: int,
    rotations: dict[int, int],
    query: int,
    found: bool,
    witness: int | None,
) -> None:
    want = membership_witness(width, rotations, query)
    if witness != want or found != (want is not None):
        raise CheckError(
            f"w={width} query={query}: witness {witness} (found={found}), predicate gives {want}"
        )
    if query in rotations and not found:
        raise CheckError(f"w={width}: member {query} not found")


def lfsr_row(polynomial: tuple[int, ...]) -> list[int]:
    """Row 1 of a PPS set: one LFSR period from the all-ones seed, then a 0.

    Fibonacci recurrence b[k+s] = sum(c[t] * b[k+t], t < s) mod 2 for the
    ascending coefficients c of a degree-s polynomial.
    """
    s = len(polynomial) - 1
    bits = [1] * s
    while len(bits) < (1 << s) - 1:
        k = len(bits) - s
        bits.append(sum(polynomial[t] * bits[k + t] for t in range(s)) % 2)
    return bits[: (1 << s) - 1] + [0]


def check_row_one(degree: int, polynomial: tuple[int, ...], row: np.ndarray) -> None:
    want = lfsr_row(polynomial)
    if [int(b) for b in row] != want:
        raise CheckError(f"degree {degree}: row 1 differs from the LFSR run")


def check_carrier_pairs(
    degree: int, carriers: np.ndarray, pairs: list[tuple[int, int]]
) -> None:
    """Distinct carriers are orthogonal, equal ones have unit correlation,
    and every nonzero carrier sums to zero (balance)."""
    n = carriers.shape[1]
    for i, j in pairs:
        corr = complex(np.vdot(carriers[j], carriers[i])) / n
        want = 1.0 if i == j else 0.0
        if abs(corr - want) > 1e-9:
            raise CheckError(f"degree {degree}: correlation of {i},{j} is {corr}")
        for k in (i, j):
            if k and abs(complex(carriers[k].sum())) > 1e-9 * n:
                raise CheckError(f"degree {degree}: carrier {k} is not balanced")


def check_product(rows: np.ndarray, i: int, j: int, k: int) -> None:
    """sequence_product(i, j) names the row equal to row i XOR row j."""
    if not 0 <= k < rows.shape[0] or not np.array_equal(rows[k], rows[i] ^ rows[j]):
        raise CheckError(f"product of rows {i},{j}: row {k} is not their XOR")
