"""The one rotation rule and the MSB-first bit rule, against per-element loops.

`_reference_shor_encode` and `_reference_grover_symbolic` are the
per-element loops the vectorised writers replaced: one rotation per entry
(or residue class), one cell per field, column (i + r - 2) mod n + 1 for
1-based field i on rotation r, and bit k read MSB first by shifting.
"""
import math
import random
import time

import numpy as np
import pytest

from ppsim import (
    DimensionMismatchError,
    GroverDatabase,
    PlacementTable,
    ShorInstance,
    StateTooLargeError,
    SymbolicField,
    apply_mode_gate,
    build_pps_set,
    grover_encode,
    grover_search,
    grover_symbolic,
    mode_status_matrix,
    shor_encode,
    to_waveform,
    usable_rotations,
)
from ppsim.reconstruct import rotation_columns
from ppsim.sequences import degree_for


def _column(i, r, n):
    """1-based column of 1-based field i on rotation r, cell by cell."""
    return (i + r - 2) % n + 1


def _bit(value, k, width):
    """Bit k (1-based, MSB first) of a width-bit integer."""
    return (value >> (width - k)) & 1


def _reference_shor_encode(inst, pset):
    n = inst.register_width
    if n > pset.usable_count:
        raise DimensionMismatchError(
            f"instance needs {n} sequences, set provides {pset.usable_count}"
        )
    groups = {}
    for x in range(1 << inst.x_bits):
        value = inst.f(x)
        if value not in groups:
            groups[value] = len(groups) + 1
    if len(groups) > n:
        raise DimensionMismatchError("more residue classes than table rotations")
    cells = np.zeros((n, n, 2), dtype=np.int8)
    for x in range(1 << inst.x_bits):
        rotation = groups[inst.f(x)]
        joint = (x << inst.f_bits) | inst.f(x)
        for i in range(1, n + 1):
            j = _column(i, rotation, n)
            cells[i - 1, j - 1, _bit(joint, i, n)] = 1
    return PlacementTable(cells)


def _reference_grover_symbolic(db):
    fields = [SymbolicField() for _ in range(db.width)]
    for x in db.entries:
        rotation = db.rotation_for(x)
        for k in range(1, db.width + 1):
            j = _column(k, rotation, db.width)
            target = fields[k - 1].mode1 if _bit(x, k, db.width) else fields[k - 1].mode0
            target[j] = 1.0
    return fields


def _same_encode(inst, pset):
    try:
        expected = _reference_shor_encode(inst, pset)
    except DimensionMismatchError as exc:
        with pytest.raises(DimensionMismatchError, match=str(exc)):
            shor_encode(inst, pset)
        return False
    table = shor_encode(inst, pset)
    assert table == expected, (inst.modulus, inst.base)
    assert table.cells.dtype == np.int8
    return True


def test_shor_encode_every_coprime_base_up_to_63(set4):
    encoded = 0
    for modulus in range(15, 64):
        for base in range(2, modulus):
            if math.gcd(base, modulus) == 1:
                encoded += _same_encode(ShorInstance(modulus, base), set4)
    assert encoded > 300  # the rest have more residue classes than rotations


def test_shor_encode_seeded_sample_up_to_511():
    pset = build_pps_set(5)
    rng = random.Random(511)
    encoded = 0
    for _ in range(120):
        modulus = rng.randrange(64, 512)
        base = rng.randrange(2, modulus)
        if math.gcd(base, modulus) == 1:
            encoded += _same_encode(ShorInstance(modulus, base), pset)
    assert encoded >= 20
    assert _same_encode(ShorInstance(511, 3), pset)
    assert _same_encode(ShorInstance(365, 361), pset)


def test_shor_encode_refuses_before_enumerating():
    pset = build_pps_set(6)
    start = time.perf_counter()
    # 2 has order 524291 modulo 1048583, past the 42 rotations
    with pytest.raises(DimensionMismatchError, match="more residue classes"):
        shor_encode(ShorInstance(1048583, 2), pset)
    # order 2, but 2**21 arguments of 42 bits pass the MAX_KETS bound
    with pytest.raises(StateTooLargeError, match="allowed$"):
        shor_encode(ShorInstance(1048583, 1048582), pset)
    assert time.perf_counter() - start < 0.5


def _items(fields):
    return [(list(f.mode0.items()), list(f.mode1.items())) for f in fields]


def _random_databases(seed=20):
    rng = random.Random(seed)
    for width in [*range(1, 21), *range(65, 71)]:
        yield GroverDatabase(width, ())
        for explicit in (False, True):
            count = rng.randint(1, min(1 << width, 3 * width))
            if width < 63:
                entries = rng.sample(range(1 << width), count)
            else:  # sample() needs len(range), which stops at 2**63
                entries = list({rng.getrandbits(width): None for _ in range(count)})
            rotations = {x: rng.randint(1, width) for x in entries} if explicit else None
            yield GroverDatabase(width, entries, rotations)


def test_grover_symbolic_matches_per_element_loop():
    for db in _random_databases():
        assert _items(grover_symbolic(db)) == _items(_reference_grover_symbolic(db))


def _oracle_search(db, query, pset):
    """The symbolic route: encoded fields, gated one by one, demodulated."""
    gated = [
        apply_mode_gate(to_waveform(sf, pset), "C" if _bit(query, k, db.width) else "B")
        for k, sf in enumerate(grover_symbolic(db), start=1)
    ]
    matrix = mode_status_matrix(gated, pset=pset)
    usable = usable_rotations(matrix)
    return matrix, int(usable[0]) if usable.size else None


def test_grover_search_matches_the_symbolic_oracle():
    rng = random.Random(26)
    searched = 0
    for db in _random_databases():
        pset = build_pps_set(degree_for(db.width))
        for carriers in (pset, build_pps_set(pset.degree, mapping_phase="pi/2")):
            encoded = grover_encode(db, carriers)
            for fld, sf in zip(encoded, grover_symbolic(db), strict=True):
                assert np.abs(fld.samples - to_waveform(sf, carriers).samples).max() <= 1e-12
        drawn = (rng.getrandbits(db.width) for _ in range(12))
        outside = [q for q in drawn if q not in db.entries][:3]
        for query in [*db.entries[:3], *outside]:
            result = grover_search(db, query, pset)
            matrix, witness = _oracle_search(db, query, pset)
            assert result.matrix.cells.tobytes() == matrix.cells.tobytes(), (db, query)
            assert result.matrix.raw.tobytes() == matrix.raw.tobytes(), (db, query)
            assert result.witness == witness and result.found == (witness is not None)
            searched += 1
    assert searched > 200


def test_grover_symbolic_large_default_database():
    entries = random.Random(4000).sample(range(1 << 20), 4000)
    db = GroverDatabase(20, entries)
    assert _items(grover_symbolic(db)) == _items(_reference_grover_symbolic(db))


def test_grover_seventy_bit_database():
    rng = random.Random(70)
    entries = [rng.randrange(1 << 70) for _ in range(5)] + [(1 << 70) - 1]
    db = GroverDatabase(70, entries)
    assert _items(grover_symbolic(db)) == _items(_reference_grover_symbolic(db))
    pset = build_pps_set(7)
    for x in entries:
        result = grover_search(db, x, pset)
        assert result.found and result.witness == db.rotation_for(x)
    for query in (0, 1 << 69, entries[0] ^ 1):
        assert not grover_search(db, query, pset).found


def test_columns_match_per_cell_formula():
    for n in range(1, 65):
        expected = [[_column(i, r, n) for r in range(1, n + 1)] for i in range(1, n + 1)]
        assert (rotation_columns(n, range(1, n + 1)) + 1).tolist() == expected


def test_usable_rotations_match_per_cell_formula():
    rng = np.random.default_rng(64)
    for n in range(1, 65):
        occupied = rng.random((n, n)) < 0.9
        for r in rng.choice(np.arange(1, n + 1), size=min(n, 3), replace=False):
            for i in range(1, n + 1):
                occupied[i - 1, _column(i, r, n) - 1] = True
        cells = np.zeros((n, n, 2), dtype=np.int8)
        cells[occupied, rng.integers(2, size=int(occupied.sum()))] = 1
        expected = [
            r
            for r in range(1, n + 1)
            if all(occupied[i - 1, _column(i, r, n) - 1] for i in range(1, n + 1))
        ]
        assert usable_rotations(PlacementTable(cells)).tolist() == expected
