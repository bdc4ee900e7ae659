"""The slot-major field slab: every pipeline carries one (N, n, 2) array
from the canonical inputs to the demodulation, builds no field object, and
equals the list path byte for byte; compiled and W runs equal the spelled
graph whatever the slot blocking, and the slab path keeps its memory bound."""
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import (
    TYPICAL_KINDS,
    ClassicalField,
    CompiledArray,
    GateArray,
    GroverDatabase,
    PlacementTable,
    ShorInstance,
    SimulationError,
    build_pps_set,
    builder_for,
    canonical_inputs,
    compile_placement,
    grover_search,
    mode_status_matrix,
    shor_encode,
    shor_factor,
    typical_state,
    w_array,
)
from ppsim import gates, placement
from ppsim.fields import _input_slab
from ppsim.sequences import degree_for

from test_compiled_array import _PARTS, _tables

_SIZES = {"product": (1, 12), "ghz": (3, 63), "w": (2, 63)}  # a product state has 2**n kets


@functools.lru_cache(maxsize=None)
def _set(degree):
    return build_pps_set(degree)


@st.composite
def _typical(draw):
    kind = draw(st.sampled_from(TYPICAL_KINDS))
    n = draw(st.integers(*_SIZES[kind])) if kind in _SIZES else 2
    return kind, n, draw(st.integers(degree_for(n), 8))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=_typical())
def test_typical_state_slab_equals_the_list_path(case):
    kind, n, degree = case
    pset = _set(degree)
    ts = typical_state(kind, pset, n)
    outputs = builder_for(kind, n).run(canonical_inputs(pset, n))
    matrix = mode_status_matrix(outputs, pset=pset)
    assert [f.samples.tobytes() for f in ts.fields] == [f.samples.tobytes() for f in outputs]
    assert ts.matrix.raw.tobytes() == matrix.raw.tobytes()
    assert ts.matrix == matrix
    # the fields are views of the one slab, not copies
    assert all(np.shares_memory(f.samples, ts.slab) for f in ts.fields)


def _no_field(self):
    raise AssertionError("a pipeline built a ClassicalField")


def test_no_pipeline_builds_a_field(set4):
    db = GroverDatabase(8, (61, 63, 117, 148))
    with mock.patch.object(ClassicalField, "__post_init__", _no_field):
        for kind in TYPICAL_KINDS:
            typical_state(kind, set4)
        assert shor_factor(ShorInstance(15, 7), set4).factors == (3, 5)
        assert grover_search(db, 148, set4).found
        assert not grover_search(db, 240, set4).found
        with pytest.raises(AssertionError, match="built a ClassicalField"):
            canonical_inputs(set4, 2)  # the list API does build them


def test_factoring_slab_equals_the_list_path():
    # every instance below 128 that factors, at its smallest degree and two above
    checked = 0
    for modulus in range(4, 128):
        for base in range(2, modulus):
            if math.gcd(base, modulus) != 1:
                continue
            inst = ShorInstance(modulus, base)
            smallest = degree_for(inst.register_width)
            for pset in (_set(smallest), _set(smallest + 2)):
                try:
                    result = shor_factor(inst, pset)
                except SimulationError:  # no usable period: nothing to compare
                    continue
                array = compile_placement(shor_encode(inst, pset), pset)
                outputs = array.run(canonical_inputs(pset, inst.register_width))
                replay = mode_status_matrix(outputs, pset=pset)
                assert result.matrix.raw.tobytes() == replay.raw.tobytes(), (inst, pset.degree)
                assert result.matrix == replay
                checked += 1
    assert checked > 2000  # 1,092 instances factor, each at two degrees


def test_canonical_inputs_are_views_of_the_input_slab(set4):
    slab = _input_slab(set4, 5)
    assert slab.shape == (16, 5, 2) and slab.flags.c_contiguous
    fields = canonical_inputs(set4, 5)
    for k, fld in enumerate(fields):
        assert fld.samples.tobytes() == slab[:, k].tobytes()
        assert np.array_equal(fld.samples[:, 0], set4.sequence(k + 1))
        assert np.array_equal(fld.samples[:, 1], set4.sequence(k + 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), table=_tables())
def test_compiled_run_slab_equals_the_spelled_graph(set4, data, table):
    array = compile_placement(table, set4)
    n = table.size
    slots = data.draw(st.integers(1, 9))
    parts = data.draw(st.lists(st.sampled_from(_PARTS), min_size=4 * n * slots, max_size=4 * n * slots))
    values = np.array(parts).reshape(2, slots, n, 2)
    slab = values[0] + 1j * values[1]
    inputs = [ClassicalField(slab[:, k].copy()) for k in range(n)]
    want = [fld.samples.tobytes() for fld in GateArray(array.nodes, array.edges).run(inputs)]
    # a block of one slot, of a few, and of all of them
    block = data.draw(st.sampled_from([1, n, 3 * n, placement._BLOCK]))
    with mock.patch.object(placement, "_BLOCK", block):
        got = array._run_slab(slab)
    assert got.shape == slab.shape and got.flags.c_contiguous
    assert [got[:, k].tobytes() for k in range(n)] == want


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_compiled_run_of_wide_sparse_tables_over_several_blocks(data):
    # about three taps per bus, so most buses split and some do not, over
    # two to four blocks of the real size
    n = data.draw(st.integers(20, 70))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    live = rng.random((n, n, 1)) < 3 / n
    array = CompiledArray(PlacementTable(np.where(live, rng.integers(-1, 2, (n, n, 2)), 0)))
    width = placement._BLOCK // n
    slots = data.draw(st.integers(width + 1, 4 * width))
    # (re, im) pairs viewed as complex, so both parts carry signed zeros
    slab = rng.choice(_PARTS, size=(slots, n, 2, 2)).view(np.complex128)[..., 0]
    want = GateArray(array.nodes, array.edges)._run_slab(slab)
    assert array._run_slab(slab).tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_w_broadcast_equals_the_spelled_graph(data):
    n = data.draw(st.integers(2, 70))
    slots = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # (re, im) pairs viewed as complex, so both parts carry signed zeros
    slab = rng.choice(_PARTS, size=(slots, n, 2, 2)).view(np.complex128)[..., 0]
    inputs = [ClassicalField(slab[:, k].copy()) for k in range(n)]
    array = w_array(n)
    want = [fld.samples.tobytes() for fld in GateArray(array.nodes, array.edges).run(inputs)]
    # blocks of one slot, of a few, and of all of them
    block = data.draw(st.sampled_from([1, n, 2 * n + 1, 3 * n, gates._BLOCK]))
    with mock.patch.object(gates, "_BLOCK", block):
        got = array._run_slab(slab)
        fields = array.run(inputs)
    assert got.shape == slab.shape and got.flags.c_contiguous
    assert [got[:, k].tobytes() for k in range(n)] == want
    assert [fld.samples.tobytes() for fld in fields] == want


def test_typical_state_slab_peak_memory():
    # the list path held the inputs, the outputs and a stacked copy of them:
    # 100 MB traced for GHZ n = 63 at degree 14, where one slab is 33 MB
    pset = build_pps_set(14)
    tracemalloc.start()
    try:
        typical_state("ghz", pset, 63)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 85e6
