"""The benchmark's own tests: each check passes on real output and fails on a
corrupted copy of it. Run with `python3 -m pytest perfbench`."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from ppsim import (  # noqa: E402
    GroverDatabase,
    ModeStatusMatrix,
    ShorInstance,
    build_pps_set,
    grover_search,
    reconstruct,
    sample_measurement,
    sequence_product,
    shor_factor,
    typical_state,
)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


@pytest.fixture(scope="module")
def pset():
    return build_pps_set(4)


@pytest.mark.parametrize(
    "kind,n", [("psi+", 2), ("psi-", 2), ("phi+", 2), ("phi-", 2), ("ghz", 5), ("w", 6), ("product", 4)]
)
def test_state_checks_pass_on_real_output(pset, kind, n):
    ts = typical_state(kind, pset, n)
    checks.check_state(kind, n, ts.state.terms)
    samples = [sample_measurement(ts.matrix, seed) for seed in range(8)]
    checks.check_samples(kind, n, samples)


@pytest.mark.parametrize("kind,n", [("psi-", 2), ("ghz", 5), ("w", 6), ("product", 3)])
def test_one_flipped_matrix_sign_fails(pset, kind, n):
    signs = typical_state(kind, pset, n).matrix.signs()
    i, j, m = np.argwhere(signs != 0)[-1]
    signs[i, j, m] = -signs[i, j, m]
    state = reconstruct(ModeStatusMatrix.from_pairs(signs.tolist()))
    with pytest.raises(CheckError):
        checks.check_state(kind, n, state.terms)


def test_sample_outside_support_fails():
    with pytest.raises(CheckError):
        checks.check_samples("ghz", 3, ["000", "010"])


def test_factor_checks(pset):
    res = shor_factor(ShorInstance(15, 7), pset)
    checks.check_factor(15, 7, res.period, res.factors)
    with pytest.raises(CheckError):
        checks.check_factor(15, 7, res.period, (3, 7))
    with pytest.raises(CheckError):
        checks.check_factor(15, 7, 2, res.factors)
    with pytest.raises(CheckError):
        checks.check_factor(15, 7, res.period, (1, 15))


def test_preconditions():
    assert checks.shor_preconditions(15, 7) == 4
    assert checks.shor_preconditions(21, 2) == 6
    assert checks.shor_preconditions(15, 14) is None  # 14 = -1 (mod 15)
    assert checks.shor_preconditions(17, 3) is None  # prime
    assert checks.shor_preconditions(21, 5) is None  # order 6 ok, but 5**3 = -1
    assert checks.shor_preconditions(33, 2) is None  # order 10, but 2**5 = -1
    assert checks.multiplicative_order(2, 33) == 10


def test_search_checks(pset):
    entries = [61, 63, 117, 125, 140, 142, 148, 212, 187, 59, 238, 247, 76]
    rotations = {x: k % 8 + 1 for k, x in enumerate(entries)}
    db = GroverDatabase(8, entries, rotations)
    for query in (148, 59, 0, 255, 100):
        res = grover_search(db, query, pset)
        checks.check_search(8, rotations, query, res.found, res.witness)
    res = grover_search(db, 148, pset)
    with pytest.raises(CheckError):
        checks.check_search(8, rotations, 148, res.found, (res.witness or 0) % 8 + 1)
    with pytest.raises(CheckError):
        checks.check_search(8, rotations, 148, False, None)


def test_sequence_checks():
    pset = build_pps_set(5)
    checks.check_row_one(5, pset.polynomial, pset.bit_rows[1])
    flipped = pset.bit_rows[1].copy()
    flipped[3] ^= 1
    with pytest.raises(CheckError):
        checks.check_row_one(5, pset.polynomial, flipped)
    pairs = [(1, 2), (3, 3), (0, 7)]
    checks.check_carrier_pairs(5, pset.carriers, pairs)
    quarter = build_pps_set(5, mapping_phase="pi/2")
    with pytest.raises(CheckError):
        checks.check_carrier_pairs(5, quarter.carriers, pairs)
    k = sequence_product(3, 9, pset)
    checks.check_product(pset.bit_rows, 3, 9, k)
    with pytest.raises(CheckError):
        checks.check_product(pset.bit_rows, 3, 9, k % 31 + 1)


@pytest.mark.parametrize("name", ["entangle", "factor", "search", "spread"])
def test_plans_follow_the_seed(name):
    plan = workloads.WORKLOADS[name].plan
    assert plan(3) == plan(3)
    assert plan(3) != plan(4)
    assert len(plan(3)) >= run.MIN_ROUND_OPS


class _WrongFactor(workloads.FactorOp):
    def run(self, sets):
        res = super().run(sets)
        res.factors = (1, self.modulus)
        return res


class _Raises(workloads.FactorOp):
    def run(self, sets):
        raise ValueError("boom")


def test_loop_reports_wrong_output_and_failures():
    sets = {4: build_pps_set(4)}
    ops = [workloads.FactorOp(15, 7, 4), _WrongFactor(21, 2, 4), _Raises(15, 7, 4)]
    loop = run.Loop(ops, sets)

    loop.repeat(0, lambda k, op: loop.call(op), lambda: None)
    assert loop.rounds == run.MIN_ROUNDS
    assert loop.attempted == loop.rounds * len(ops)
    assert loop.failures == {"ValueError": loop.rounds}
    assert len(loop.errors) == loop.rounds


def test_staged_pipelines_equal_one_call():
    from spans import Tracer

    sets = {4: build_pps_set(4), 5: build_pps_set(5)}
    tracer = Tracer()
    ops = [
        workloads.StateOp("ghz", 5, 4, draws=4, draw_seed=1),
        workloads.StateOp("phi-", 2, 4, draws=2, draw_seed=2),
        workloads.FactorOp(21, 2, 5),
        workloads.ProductOp(3, 9, 5),
    ]
    ops += workloads.plan_search(1)[:3]
    for op in ops:
        assert op.same(op.run(sets), op.staged(sets, tracer))
    spans = tracer.self_seconds()
    assert spans[-1, "demod.matrix"][1] == 6 and spans[-1, "reconstruct.sample"][1] == 6
    assert all(sec >= 0 for sec, _ in spans.values())
