"""Factoring and membership-search pipelines plus typical-state wrappers."""
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import (
    DimensionMismatchError,
    GroverDatabase,
    ModeStatusMatrix,
    PeriodUnusableError,
    ShorInstance,
    SimulatedState,
    TYPICAL_KINDS,
    bell_array,
    builder_for,
    build_pps_set,
    canonical_inputs,
    compile_placement,
    grover_encode,
    grover_search,
    grover_symbolic,
    mode_status_matrix,
    period_from_state,
    quantize,
    reconstruct,
    shor_encode,
    shor_factor,
    typical_state,
)
from ppsim.algorithms import _period_from_grid
from ppsim.fixtures import factoring_reference, search_reference, typical_reference
from ppsim.gates import apply_mode_gate
from ppsim.symbolic import to_waveform


def _order(a, n):
    k, value = 1, a % n
    while value != 1:
        value = (value * a) % n
        k += 1
    return k


def _witnesses(matrix):
    n = matrix.field_count
    return [
        r
        for r in range(1, n + 1)
        if all(
            not matrix.status(i, (i + r - 2) % n + 1).is_zero for i in range(1, n + 1)
        )
    ]


def test_shor_instance_validation():
    inst = ShorInstance(15, 7)
    assert inst.x_bits == 4 and inst.f_bits == 4 and inst.register_width == 8
    assert inst.f(3) == pow(7, 3, 15)
    with pytest.raises(ValueError):
        ShorInstance(3, 2)
    with pytest.raises(ValueError):
        ShorInstance(15, 1)
    with pytest.raises(ValueError):
        ShorInstance(15, 15)
    with pytest.raises(ValueError, match="coprime"):
        ShorInstance(15, 5)


def test_shor_instance_follows_the_integer_rule():
    inst = ShorInstance(15.0, np.int64(7))
    values = (inst.modulus, inst.base, inst.x_bits, inst.f_bits)
    assert values == (15, 7, 4, 4) and all(type(v) is int for v in values)
    for args in [(15.5, 7), (15, True)]:
        with pytest.raises(ValueError, match="expected an integer"):
            ShorInstance(*args)


def test_shor_register_widths_follow_the_modulus():
    for modulus in range(4, 601):
        inst = ShorInstance(modulus, modulus - 1)
        width = (modulus - 1).bit_length()
        assert inst.x_bits == inst.f_bits == width and 2**inst.x_bits >= modulus
    with pytest.raises(TypeError):
        ShorInstance(15, 7, x_bits=4)
    with pytest.raises(AttributeError):
        inst.x_bits = 3


def test_shor_encode_matches_reference(set4):
    ref = factoring_reference()
    table = shor_encode(ShorInstance(15, 7), set4)
    assert table == ref.placement_derived
    # row 3: sequences 3, 4 ride mode0 and 5, 6 ride mode1
    assert table.cell(3, 3) == (1, 0) and table.cell(3, 4) == (1, 0)
    assert table.cell(3, 5) == (0, 1) and table.cell(3, 6) == (0, 1)
    # row 8 corrected placement: 2 on mode0; 1, 3, 8 on mode1
    assert table.cell(8, 2) == (1, 0)
    assert table.cell(8, 1) == (0, 1)
    assert table.cell(8, 3) == (0, 1)
    assert table.cell(8, 8) == (0, 1)


def test_shor_encode_width_checks(set3):
    with pytest.raises(DimensionMismatchError):
        shor_encode(ShorInstance(15, 7), set3)


def test_shor_factor_full_run(set4):
    ref = factoring_reference()
    result = shor_factor(ShorInstance(15, 7), set4)
    assert result.period == ref.period
    assert result.factors == ref.factors
    assert sorted(result.state.terms) == list(ref.state_kets)
    assert set(result.state.terms.values()) == {1}
    assert period_from_state(result.state, 4) == 4


def test_period_from_state_needs_f_bits_inside_the_state():
    ghz = SimulatedState(3, {"000": 1, "111": 1})
    assert [period_from_state(ghz, f_bits) for f_bits in (1, 2, 3)] == [2, 2, 2]
    # f_bits 0 once read whole kets, as bits[-0:] is the whole label
    for f_bits in (0, -1, 4, 9):
        with pytest.raises(ValueError, match=f"f_bits must be 1..3, got {f_bits}"):
            period_from_state(ghz, f_bits)


def test_period_from_state_reads_f_bits_by_the_integer_rule():
    ghz = SimulatedState(3, {"000": 1, "111": 1})
    assert period_from_state(ghz, 2.0) == period_from_state(ghz, "2") == 2
    # True once counted 1-bit suffixes, and 1.5 failed in slicing
    for f_bits in (True, 1.5, float("nan")):
        with pytest.raises(ValueError, match="expected an integer"):
            period_from_state(ghz, f_bits)


def test_shor_result_state_is_built_on_first_access(set4):
    result = shor_factor(ShorInstance(15, 7), set4)
    assert "state" not in vars(result)
    assert result.state == reconstruct(result.matrix)
    assert "state" in vars(result)


@st.composite
def _grids_and_widths(draw):
    """Square sign grids, with or without -1 signs, and a function-register width."""
    n = draw(st.integers(1, 7))
    signs = (-1, 0, 1, 1) if draw(st.booleans()) else (0, 1, 1)
    cells = draw(st.lists(st.sampled_from(signs), min_size=2 * n * n, max_size=2 * n * n))
    grid = ModeStatusMatrix(np.array(cells, dtype=np.int8).reshape(n, n, 2))
    return grid, draw(st.integers(1, n))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_grids_and_widths())
def test_period_from_grid_matches_reconstructed_state(case):
    grid, f_bits = case
    assert _period_from_grid(grid, f_bits) == period_from_state(reconstruct(grid), f_bits)


def test_period_from_grid_on_every_small_instance(set4):
    checked = 0
    for modulus in range(4, 64):
        for base in range(2, modulus):
            try:
                inst = ShorInstance(modulus, base)
                table = shor_encode(inst, set4)
            except (ValueError, DimensionMismatchError):
                continue
            period = period_from_state(reconstruct(table), inst.f_bits)
            assert _period_from_grid(table, inst.f_bits) == period
            checked += 1
    assert checked > 500


def test_shor_factor_base_four(set4):
    result = shor_factor(ShorInstance(15, 4), set4)
    assert result.period == 2
    assert result.factors == (3, 5)


def test_shor_factor_unusable_period(set4):
    with pytest.raises(PeriodUnusableError, match="period unusable"):
        shor_factor(ShorInstance(15, 14), set4)


def test_shor_sweep_matches_order_oracle(set4):
    for a in (2, 4, 7, 8, 11, 13):
        result = shor_factor(ShorInstance(15, a), set4)
        assert result.period == _order(a, 15)
        assert result.factors == (3, 5)


def test_shor_literal_vs_corrected_placement(set4):
    # the transcribed table leaks a function-value-0 group; the derived one
    # reproduces exactly the sixteen argument/value kets
    ref = factoring_reference()

    def kets_of(table):
        array = compile_placement(table, set4)
        outputs = array.run(canonical_inputs(set4, table.size))
        return sorted(reconstruct(mode_status_matrix(outputs, pset=set4)).terms)

    assert kets_of(ref.placement_derived) == list(ref.state_kets)
    literal = kets_of(ref.placement_literal)
    assert literal == list(ref.literal_kets)
    assert literal != list(ref.state_kets)
    extras = set(literal) - set(ref.state_kets)
    assert extras and all(k.endswith("0000") for k in extras)


def test_grover_database_validation():
    GroverDatabase(width=8, entries=(1, 2, 3))
    with pytest.raises(ValueError):
        GroverDatabase(width=3, entries=(9,))
    with pytest.raises(ValueError):
        GroverDatabase(width=3, entries=(1, 1))
    with pytest.raises(ValueError):
        GroverDatabase(width=3, entries=(1, 2), rotations={1: 1})
    with pytest.raises(ValueError):
        GroverDatabase(width=3, entries=(1,), rotations={1: 4})


@pytest.mark.parametrize(
    "entries, rotations",
    [
        ((61.9, 63), None),
        ((True, 63), None),
        ((61, 63), {61.5: 1, 63: 2}),
        ((61, 63), {61: 1, 63: 1.7}),
        ((61, 63), {61: True, 63: 2}),
        ((np.float32(61.9), 63), None),
        ((np.float64(61.9), 63), None),
        ((Fraction(123, 2), 63), None),
        ((Decimal("61.5"), 63), None),
        ((np.float32("nan"), 63), None),
        ((np.True_, 63), None),
        ((61, 63), {61: 1, 63: Decimal("Infinity")}),
        ((61, 63), {61: 1, 63: np.float32(1.5)}),
        ((2.0**53, 63), None),
        ((np.float32(2.0**24), 63), None),
    ],
)
def test_grover_database_rejects_non_integers(entries, rotations):
    with pytest.raises(ValueError, match="expected an integer"):
        GroverDatabase(8, entries, rotations)


@pytest.mark.parametrize(
    "value",
    [np.int16(61), np.float32(61.0), np.float64(61.0), Fraction(122, 2), Decimal("61")],
)
def test_grover_database_keeps_integral_numbers_of_any_type(value):
    db = GroverDatabase(8, (value, 63), {value: 2, 63: 1})
    assert db.entries == (61, 63) and db.assignment() == {61: 2, 63: 1}
    assert all(type(v) is int for v in (*db.entries, *db.assignment().values()))


def test_grover_database_keeps_integral_floats():
    db = GroverDatabase(8, (61.0, 63), {61.0: 2.0, 63: 1})
    assert db.entries == (61, 63) and db.assignment() == {61: 2, 63: 1}
    assert all(type(v) is int for v in (*db.entries, *db.assignment().values()))


def test_grover_database_keeps_floats_below_their_exact_range():
    db = GroverDatabase(53, (2.0**53 - 1, np.float32(2.0**24 - 1)))
    assert db.entries == (2**53 - 1, 2**24 - 1)


def test_grover_database_width_follows_the_integer_rule():
    with pytest.raises(ValueError, match="expected an integer, got true"):
        GroverDatabase(True, (1,))
    db = GroverDatabase(8.0, (61,))
    assert db.width == 8 and type(db.width) is int


def test_grover_database_rotation_map_names_each_entry_once():
    with pytest.raises(ValueError, match="rotation map lists entry 61 twice"):
        GroverDatabase(8, (61, 63), {61: 1, "061": 2, 63: 3})


def test_grover_rotation_for_non_member_is_key_error():
    for rotations in (None, {5: 2, 9: 1}):
        with pytest.raises(KeyError):
            GroverDatabase(4, (5, 9), rotations).rotation_for(12)


def test_grover_default_rotation_round_robin():
    db = GroverDatabase(width=4, entries=(5, 9, 12))
    assert [db.rotation_for(e) for e in db.entries] == [1, 2, 3]
    assert db.assignment() == {5: 1, 9: 2, 12: 3}


def test_grover_symbolic_single_entry():
    db = GroverDatabase(width=4, entries=(0,))
    fields = grover_symbolic(db)
    for k, sf in enumerate(fields, start=1):
        assert sf.mode0 == {k: 1.0}
        assert sf.mode1 == {}


def test_grover_queries_match_reference(set4):
    ref = search_reference()
    for query, expect in ref.queries.items():
        result = grover_search(ref.database, query, set4)
        assert result.found == expect.found
        assert result.witness == expect.witness
        # derived encoding differs from the reference matrix in exactly the
        # one documented cell
        dev = ref.encode_deviation
        diff = [
            (i, j)
            for i in range(1, 9)
            for j in range(1, 9)
            if result.matrix.status(i, j).pair != expect.matrix.status(i, j).pair
        ]
        assert diff == [(dev["field"], dev["pps"])]


def test_grover_reference_fields_reproduce_reference_matrices(set4):
    ref = search_reference()
    for query, expect in ref.queries.items():
        gated = []
        for k, sf in enumerate(ref.reference_fields, start=1):
            bit = (query >> (8 - k)) & 1
            gated.append(apply_mode_gate(to_waveform(sf, set4), "C" if bit else "B"))
        assert mode_status_matrix(gated, pset=set4) == expect.matrix


def test_grover_encode_deviation_cell(set4):
    # the derived field 4 carries sequence 8 on mode1 where the reference
    # display put it on mode0; everything else matches
    ref = search_reference()
    derived = grover_symbolic(ref.database)
    dev = ref.encode_deviation
    for k, (sym, pub) in enumerate(zip(derived, ref.reference_fields), start=1):
        if k == dev["field"]:
            assert set(sym.mode0) == set(pub.mode0) - {dev["pps"]}
            assert set(sym.mode1) == set(pub.mode1) | {dev["pps"]}
        else:
            assert set(sym.mode0) == set(pub.mode0)
            assert set(sym.mode1) == set(pub.mode1)


def test_grover_every_entry_recoverable(set4):
    ref = search_reference()
    for entry in ref.database.entries:
        result = grover_search(ref.database, entry, set4)
        assert result.found
        assert ref.database.rotation_for(entry) in _witnesses(result.matrix)


def test_grover_collision_rate_reported(set4):
    # rotation reuse (13 entries over 8 rotations) can assemble ghost
    # diagonals; the false-positive rate is measured, not asserted
    ref = search_reference()
    entries = set(ref.database.entries)
    hits = {
        q for q in range(256) if grover_search(ref.database, q, set4).found
    }
    assert entries <= hits
    ghost_rate = len(hits - entries) / (256 - len(entries))
    print(f"collision false-positive rate over absent queries: {ghost_rate:.3f}")


def test_grover_random_distinct_rotation_sweep(set4):
    rng = np.random.default_rng(17)
    absent_checked = 0
    for _ in range(100):
        count = int(rng.integers(1, 9))
        entries = tuple(
            int(v) for v in rng.choice(np.arange(256), size=count, replace=False)
        )
        db = GroverDatabase(width=8, entries=entries)
        for entry in entries:
            result = grover_search(db, entry, set4)
            assert result.found
            assert result.witness == db.rotation_for(entry)
        for _ in range(2):
            query = int(rng.integers(256))
            if query in entries:
                continue
            assert not grover_search(db, query, set4).found
            absent_checked += 1
    assert absent_checked >= 100


def test_grover_empty_database(set4):
    db = GroverDatabase(width=8, entries=())
    result = grover_search(db, 5, set4)
    assert not result.found and result.witness is None


def test_grover_query_range(set4):
    db = GroverDatabase(width=8, entries=(1,))
    with pytest.raises(ValueError):
        grover_search(db, 256, set4)
    with pytest.raises(ValueError):
        grover_search(db, -1, set4)


def test_grover_query_follows_the_integer_rule(set4):
    db = GroverDatabase(8, (1, 148))
    for query in (148.7, True):
        with pytest.raises(ValueError, match="expected an integer"):
            grover_search(db, query, set4)
    whole = grover_search(db, 148.0, set4)
    assert whole.found and whole.witness == grover_search(db, 148, set4).witness


def test_grover_width_budget(set3):
    db = GroverDatabase(width=8, entries=(1,))
    with pytest.raises(DimensionMismatchError):
        grover_encode(db, set3)


def test_typical_state_kinds(set3):
    assert set(TYPICAL_KINDS) == {
        "product",
        "psi+",
        "psi-",
        "phi+",
        "phi-",
        "ghz",
        "w",
    }
    for kind, n, ref_kind in [
        ("psi+", None, "psi+"),
        ("Bell Psi-", None, "psi-"),
        ("bellphi+", None, "phi+"),
        ("phi-", 2, "phi-"),
        ("ghz", 3, "ghz3"),
        ("w", None, "w3"),
        ("product", 2, "product2"),
    ]:
        result = typical_state(kind, set3, n)
        ref = typical_reference(ref_kind)
        assert result.matrix == ref.matrix
        assert result.state == ref.state
    with pytest.raises(ValueError):
        typical_state("cluster", set3)


def test_typical_product_scales(set3):
    result = typical_state("product", set3, 4)
    assert result.state.terms == {format(v, "04b"): 1 for v in range(16)}


def test_builder_for(set3):
    arr = builder_for("ghz", 4)
    assert arr.input_count == 4 and arr.output_count == 4
    with pytest.raises(ValueError):
        builder_for("cluster")


def test_pair_kinds_take_only_two_fields(set3):
    want = typical_state("phi-", set3).state
    assert typical_state("phi-", set3, 2).state == want
    assert typical_state("phi-", set3, 2.0).state == want
    for n in (1, 3, 5):
        with pytest.raises(ValueError, match="pairs 2 fields"):
            builder_for("psi+", n)
        with pytest.raises(ValueError, match="pairs 2 fields"):
            typical_state("Bell Psi+", set3, n)
    with pytest.raises(ValueError, match="expected an integer"):
        builder_for("psi-", True)


@pytest.mark.parametrize("kind", [None, 3, b"psi+", ("psi+",)])
def test_construction_names_must_be_text(set3, kind):
    for build in (builder_for, bell_array):
        with pytest.raises(ValueError, match="construction name must be a string"):
            build(kind)
    with pytest.raises(ValueError, match="construction name must be a string"):
        typical_state(kind, set3)


def test_bell_array_reads_the_same_names_as_builder_for(set3):
    inputs = canonical_inputs(set3, 2)
    for name, variant in (("Bell Psi-", "psi-"), ("bellphi+", "phi+"), (" PHI- ", "phi-")):
        got = [f.samples for f in bell_array(name).run(inputs)]
        want = [f.samples for f in bell_array(variant).run(inputs)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert builder_for(name).node_counts() == bell_array(variant).node_counts()


@pytest.mark.parametrize("tau", [1.01, 2])
def test_pipelines_refuse_a_threshold_above_one(set4, tau):
    # a placed cell demodulates to exactly +-1: such a tau emptied every
    # cell, so members read "not found" and 15/7 blamed its base
    with pytest.raises(ValueError, match="threshold tau"):
        shor_factor(ShorInstance(15, 7), set4, tau=tau)
    db = search_reference().database
    with pytest.raises(ValueError, match="threshold tau"):
        grover_search(db, 148, set4, tau=tau)


@pytest.mark.parametrize("tau", [None, "0.5", 0.5j])
def test_pipelines_refuse_a_threshold_that_is_not_a_real_number(set4, tau):
    # the "at most 1" comparison once ran first and raised "'>' not supported"
    with pytest.raises(ValueError, match="threshold tau must be a real number"):
        shor_factor(ShorInstance(15, 7), set4, tau=tau)
    with pytest.raises(ValueError, match="threshold tau must be a real number"):
        grover_search(search_reference().database, 148, set4, tau=tau)
    with pytest.raises(ValueError, match="threshold tau must be a real number"):
        quantize(0.7, tau)


def test_pipelines_keep_a_threshold_of_one(set4):
    assert shor_factor(ShorInstance(15, 7), set4, tau=1).factors == (3, 5)
    db = search_reference().database
    for entry in db.entries:
        result = grover_search(db, entry, set4, tau=1.0)
        assert result.found and result.witness == db.rotation_for(entry)
    assert not grover_search(db, 240, set4, tau=1).found


@pytest.mark.parametrize("mapping", ["pi/2", 0.75, 1.0])
def test_pipelines_refuse_a_correlated_set(mapping):
    # under these mappings all 243 non-members of this database read as
    # found at degree 4, and 15/7 blamed its base
    pset = build_pps_set(4, mapping_phase=mapping)
    with pytest.raises(ValueError, match="mapping phase"):
        typical_state("ghz", pset, 3)
    with pytest.raises(ValueError, match="mapping phase"):
        shor_factor(ShorInstance(15, 7), pset)
    with pytest.raises(ValueError, match="mapping phase"):
        grover_search(search_reference().database, 240, pset)


def test_pipelines_run_where_the_cosine_is_exactly_minus_one(set4):
    pset = build_pps_set(4, mapping_phase=np.nextafter(np.pi, 4))
    assert pset.mapping_phase != np.pi
    assert typical_state("ghz", pset, 3).state == typical_state("ghz", set4, 3).state
    assert shor_factor(ShorInstance(15, 7), pset).factors == (3, 5)
    db = search_reference().database
    assert grover_search(db, 148, pset).witness == grover_search(db, 148, set4).witness
