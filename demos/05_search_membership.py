#!/usr/bin/env python3
"""Database membership by gated demodulation.

Thirteen 8-bit entries are written onto a placement table: field k carries
the rotated sequence for an entry on the mode selected by the entry's
k-th bit. A query sets the mode gates by its own bits; they sit on the
taps of the compiled table (field k keeps only the mode of query bit k),
which runs and demodulates like the factoring table. A member lights up
one full diagonal of the status matrix (its rotation); a non-member
leaves every diagonal broken. One table serves every query, only the
gate settings change.
"""
from ppsim import GroverDatabase, build_pps_set, grover_search

ENTRIES = [61, 63, 117, 125, 140, 142, 148, 212, 187, 59, 238, 247, 76]
ROTATIONS = {
    61: 1, 63: 1, 117: 2, 125: 2, 140: 3, 142: 3, 148: 4,
    212: 4, 187: 5, 59: 5, 238: 6, 247: 7, 76: 8,
}


def show_query(db, query, pset):
    result = grover_search(db, query, pset)
    verdict = f"found, witness rotation R_{result.witness}" if result.found else "not found"
    print(f"query {query} ({query:08b}): {verdict}")
    for row in result.matrix.to_strings():
        print("   " + " ".join(f"{cell:>7}" for cell in row))
    print()
    return result


def main():
    db = GroverDatabase(8, ENTRIES, ROTATIONS)
    pset = build_pps_set(4)
    print(f"database: {len(db.entries)} entries of {db.width} bits, "
          f"{db.width} available rotations\n")
    for entry in db.entries:
        print(f"  {entry:3d} = {entry:08b}  rotation R_{db.rotation_for(entry)}")
    print()

    member = show_query(db, 148, pset)
    assert member.found

    absent = show_query(db, 240, pset)
    assert not absent.found

    # thirteen entries over eight rotations forces shared rotations, so in
    # principle a non-member could complete a diagonal by accident; scan
    # the whole query space and count what actually happens
    false_hits = [
        q
        for q in range(256)
        if q not in set(ENTRIES) and grover_search(db, q, pset).found
    ]
    total = 256 - len(ENTRIES)
    if false_hits:
        print(f"shared rotations admit {len(false_hits)} false positives "
              f"out of {total} non-members: {false_hits}")
    else:
        print(f"full scan: all {total} non-members correctly rejected, even "
              f"with shared rotations")
    print("one rotation per entry removes the possibility altogether")


if __name__ == "__main__":
    main()
