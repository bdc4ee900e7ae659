#!/usr/bin/env python3
"""Build the named multi-field constructions and read their states back.

Each construction routes canonical input fields through a small gate
array, demodulates the outputs into a status matrix, and reconstructs an
integer-coefficient state over bit-string kets. Sampling the matrix then
mimics projective measurement, correlations included.
"""
from collections import Counter

import numpy as np

from ppsim import build_pps_set, sample_measurement, typical_state


def show(kind, pset, n=None):
    result = typical_state(kind, pset, n)
    size = result.matrix.field_count
    print(f"{kind} ({size} fields)")
    for row in result.matrix.to_strings():
        print("   " + " ".join(f"{cell:>7}" for cell in row))
    print(f"   state: {result.state.pretty()}\n")
    return result


def main():
    pset = build_pps_set(3)

    print("= Bell pairs =\n")
    bell = show("psi+", pset)
    show("phi-", pset)

    print("= three-field constructions =\n")
    show("ghz", pset, 3)
    w = show("w", pset, 3)

    print("= separable baseline =\n")
    show("product", pset, 2)

    # measurement statistics: correlated for psi+, one-hot for w
    rng = np.random.default_rng(7)
    draws = 4000
    bell_counts = Counter(sample_measurement(bell.matrix, rng) for _ in range(draws))
    print(f"psi+ sampled {draws} times: {dict(sorted(bell_counts.items()))}")
    print("   00 and 11 only, each near half: the fields read out together\n")

    w_counts = Counter(sample_measurement(w.matrix, rng) for _ in range(draws))
    print(f"w sampled {draws} times:    {dict(sorted(w_counts.items()))}")
    print("   exactly one field reads 1 per draw, evenly spread")


if __name__ == "__main__":
    main()
