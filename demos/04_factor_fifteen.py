#!/usr/bin/env python3
"""Factor 15 by period finding over phase-stamped fields.

Encodes f(x) = 7^x mod 15 into a placement table: arguments sharing a
function value share a cyclic rotation of the sequence assignment, one
field per argument, joint bits x || f(x). Reconstruction only keeps the
aligned rotations, so counting distinct function kets in the recovered
state reads off the period, and the period gives the factors.
"""
from ppsim import (
    ShorInstance,
    build_pps_set,
    period_from_state,
    shor_encode,
    shor_factor,
)


def main():
    inst = ShorInstance(15, 7)
    print(f"f(x) = {inst.base}^x mod {inst.modulus}, x in 0..{(1 << inst.x_bits) - 1}")

    # arguments grouped by function value, in first-appearance order
    groups = {}
    for x in range(1 << inst.x_bits):
        groups.setdefault(inst.f(x), []).append(x)
    for value, xs in groups.items():
        print(f"  f = {value:2d} at x = {xs}")
    print(f"{len(groups)} residue classes -> the period must be {len(groups)}\n")

    pset = build_pps_set(4)
    table = shor_encode(inst, pset)
    print(f"placement table, {table.size} fields x {table.size} sequences:")
    for row in table.to_strings():
        print("  " + " ".join(f"{cell:>7}" for cell in row))

    result = shor_factor(inst, pset)
    print(f"\nreconstructed state, {len(result.state.terms)} kets of {inst.register_width} bits:")
    for bits, coeff in result.state.terms.items():
        x = int(bits[: inst.x_bits], 2)
        f = int(bits[inst.x_bits :], 2)
        print(f"  |{bits}>  (x = {x:2d}, f = {f:2d}, coeff {coeff:+d})")

    r = period_from_state(result.state, inst.f_bits)
    print(f"\nperiod r = {r}")
    print(f"gcd({inst.base}^{r // 2} - 1, {inst.modulus}) and "
          f"gcd({inst.base}^{r // 2} + 1, {inst.modulus}) give the factors")
    print(f"{inst.modulus} = {result.factors[0]} * {result.factors[1]}")


if __name__ == "__main__":
    main()
