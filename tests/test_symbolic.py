"""Symbolic fields as the demodulation oracle."""
import numpy as np
import pytest

from ppsim import (
    SymbolicField,
    build_pps_set,
    demodulate_mode,
    quantize,
    symbolic_demodulate,
    to_waveform,
)

# magnitudes keep raw readings far from the 0.5 decision threshold
_SAFE_MAGNITUDES = (0.2, 1.0, 2.0)


def _random_symbolic(rng, pset):
    field = {0: {}, 1: {}}
    for mode in (0, 1):
        count = int(rng.integers(0, pset.usable_count + 1))
        chosen = rng.choice(np.arange(1, pset.length), size=count, replace=False)
        for j in chosen:
            magnitude = _SAFE_MAGNITUDES[int(rng.integers(len(_SAFE_MAGNITUDES)))]
            sign = -1.0 if rng.integers(2) else 1.0
            field[mode][int(j)] = sign * magnitude
    return SymbolicField(mode0=field[0], mode1=field[1])


def test_symbolic_field_prunes_zeros():
    sf = SymbolicField(mode0={1: 0.0, 2: 1.0}, mode1={3: 0j})
    assert sf.mode0 == {2: 1.0}
    assert sf.mode1 == {}
    assert sf.indices() == {2}


def test_symbolic_field_indices_are_integers():
    sf = SymbolicField(mode0={np.int64(2): 1.0, 3.0: 2.0}, mode1={"5": 1j})
    assert sf.mode0 == {2: 1.0, 3: 2.0} and sf.mode1 == {5: 1j}
    assert {type(j) for j in sf.indices()} == {int}
    for bad in ({1.5: 1.0}, {True: 1.0}):
        with pytest.raises(ValueError, match="expected an integer"):
            SymbolicField(mode0=bad)
        with pytest.raises(ValueError, match="expected an integer"):
            SymbolicField(mode1=bad)


def test_to_waveform_matches_manual_sum(set3):
    sf = SymbolicField(mode0={1: 0.5, 4: -2.0}, mode1={2: 1j})
    fld = to_waveform(sf, set3)
    expect0 = 0.5 * set3.carriers[1] - 2.0 * set3.carriers[4]
    expect1 = 1j * set3.carriers[2]
    assert np.allclose(fld.samples[:, 0], expect0, atol=1e-12)
    assert np.allclose(fld.samples[:, 1], expect1, atol=1e-12)


def test_to_waveform_index_range(set3):
    with pytest.raises(IndexError, match="out of range"):
        to_waveform(SymbolicField(mode0={8: 1.0}, mode1={}), set3)


def test_symbolic_demodulate_is_lookup():
    sf = SymbolicField(mode0={3: 0.25}, mode1={3: -1.0, 5: 2.0})
    assert symbolic_demodulate(sf, 3) == (0.25, -1.0)
    assert symbolic_demodulate(sf, 5) == (0j, 2.0)
    assert symbolic_demodulate(sf, 1) == (0j, 0j)


def test_oracle_equivalence_sweep():
    # waveform and symbolic demodulation agree on 500 random fields
    rng = np.random.default_rng(11)
    for trial in range(500):
        pset = build_pps_set(3 if trial % 2 else 4)
        sf = _random_symbolic(rng, pset)
        fld = to_waveform(sf, pset)
        for j in range(1, pset.length):
            sym_a, sym_b = symbolic_demodulate(sf, j)
            raw_a = demodulate_mode(fld, 0, pset.sequence(j))
            raw_b = demodulate_mode(fld, 1, pset.sequence(j))
            assert abs(raw_a - sym_a) < 1e-9
            assert abs(raw_b - sym_b) < 1e-9
            assert quantize(raw_a) == quantize(sym_a)
            assert quantize(raw_b) == quantize(sym_b)


def test_to_waveform_linearity(set3):
    rng = np.random.default_rng(13)
    f = _random_symbolic(rng, set3)
    g = _random_symbolic(rng, set3)
    scale = 1.5 - 0.5j
    summed = SymbolicField(
        mode0={
            j: scale * f.mode0.get(j, 0) + g.mode0.get(j, 0)
            for j in set(f.mode0) | set(g.mode0)
        },
        mode1={
            j: scale * f.mode1.get(j, 0) + g.mode1.get(j, 0)
            for j in set(f.mode1) | set(g.mode1)
        },
    )
    direct = to_waveform(summed, set3).samples
    composed = scale * to_waveform(f, set3).samples + to_waveform(g, set3).samples
    assert np.abs(direct - composed).max() < 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(1, float("nan"))])
def test_symbolic_field_refuses_non_finite_coefficients(bad):
    # a NaN would otherwise be stored and read back by symbolic_demodulate
    with pytest.raises(ValueError, match="coefficients must be finite"):
        SymbolicField(mode0={1: bad})
    with pytest.raises(ValueError, match="coefficients must be finite"):
        SymbolicField(mode0={1: 1.0}, mode1={2: bad})
