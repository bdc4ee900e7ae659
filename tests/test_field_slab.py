"""The slot-major field slab: the typical-state path that carries one
(N, n, 2) array from the canonical inputs to the demodulation equals the
list path byte for byte, compiled and W runs equal the spelled graph
whatever the slot blocking, and the slab path keeps its memory bound."""
import functools
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import (
    TYPICAL_KINDS,
    ClassicalField,
    CompiledArray,
    GateArray,
    PlacementTable,
    build_pps_set,
    builder_for,
    canonical_inputs,
    compile_placement,
    mode_status_matrix,
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
