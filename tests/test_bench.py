"""The benchmark suite's labels and node tallies, pinned."""
from ppsim import run_benchmarks

_PAIR = {"Combine": 2, "Input": 2, "ModeGate": 4, "Output": 2, "Split": 2}
_GHZ3 = {"Combine": 3, "Input": 3, "ModeGate": 6, "Output": 3, "Split": 3}
_W3 = {"Combine": 1, "Input": 3, "ModeGate": 3, "Output": 3, "Split": 2}
_PRODUCT2 = {"Input": 2, "ModeGate": 2, "Output": 2}
_FACTOR = {"Combine": 8, "Input": 8, "ModeGate": 32, "Output": 8, "Split": 8}
_SEARCH = {"Combine": 8, "Input": 8, "ModeGate": 43, "Output": 8, "Split": 8}


def test_suite_labels_and_node_tallies():
    assert [(r.label, r.node_counts) for r in run_benchmarks()] == [
        ("state(psi+,n=2)", _PAIR),
        ("state(ghz,n=3)", _GHZ3),
        ("state(w,n=3)", _W3),
        ("state(product,n=2)", _PRODUCT2),
        ("factor(15,7)", _FACTOR),
        ("search(w=8,k=13)", _SEARCH),
    ]
