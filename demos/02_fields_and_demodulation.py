#!/usr/bin/env python3
"""From phase-stamped fields to a mode-status matrix.

Shows the round trip at the heart of the simulator: stamp sequences onto
the two modes of a classical field, superpose several such fields, then
recover per-sequence occupancy by quadrature demodulation. Sequence
orthogonality is what keeps the mixed contributions separable.
"""
import numpy as np

from ppsim import (
    ClassicalField,
    build_pps_set,
    demodulate_mode,
    make_single_pps_field,
    mode_status_matrix,
    modulate,
    quantize,
)


def main():
    pset = build_pps_set(3)
    n = pset.length

    # one field per sequence: mode 0 carries lambda^(j), mode 1 stays dark
    f1 = make_single_pps_field(pset, 1, mode_weights=(1.0, 0.0))
    f2 = make_single_pps_field(pset, 2, mode_weights=(1.0, 0.0))
    print("field 1 carries lambda^(1) on mode 0, field 2 carries lambda^(2)")

    # demodulating against the right sequence returns the amplitude, the
    # wrong sequence integrates to zero
    for j in (1, 2, 3):
        raw = demodulate_mode(f1, 0, pset.sequence(j))
        print(f"  <field 1 mode 0 | lambda^({j})> = {raw.real:+.3f}")

    # superpose both fields and pull each component back out
    mixed = ClassicalField(f1.samples + f2.samples)
    print("\nsuperposed field, demodulated on mode 0:")
    for j in range(1, n):
        raw = demodulate_mode(mixed, 0, pset.sequence(j))
        print(f"  lambda^({j}): raw {raw.real:+.3f} -> status {quantize(raw):+d}")

    # stamping a second sequence multiplies carriers: lambda^(1) * lambda^(2)
    # lands on another row of the set, so the product is still separable
    restamped = modulate(f1, pset.sequence(2))
    hits = [
        j
        for j in range(1, n)
        if quantize(demodulate_mode(restamped, 0, pset.sequence(j))) != 0
    ]
    print(f"\nfield 1 restamped with lambda^(2) now answers to rows {hits}")

    # the status matrix gathers every field/sequence pairing at once
    refs = [pset.sequence(j) for j in (1, 2, 3, 4)]
    matrix = mode_status_matrix([f1, restamped], refs=refs)
    print("\nstatus matrix, rows = fields, columns = lambda^(1..4):")
    for row in matrix.to_strings():
        print("  " + " ".join(f"{cell:>7}" for cell in row))

    # a raw amplitude below the threshold tau quantizes to unoccupied
    weak = ClassicalField(0.3 * f1.samples)
    raw = demodulate_mode(weak, 0, pset.sequence(1))
    print(f"\nweak copy: raw {raw.real:+.3f} quantizes to {quantize(raw)} (tau = 0.5)")


if __name__ == "__main__":
    main()
