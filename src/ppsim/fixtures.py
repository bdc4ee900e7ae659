"""Bundled reference data for tests, demos, and cross-checks.

The JSON files under ``ppsim/data`` hold small frozen references: the
degree-3 sequence table, mode-status matrices and kets for the typical
entangled states, the order-finding placement for factoring 15, and a
13-entry membership-search database with its expected query matrices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .algorithms import GroverDatabase
from .gates import PlacementTable
from .demod import ModeStatusMatrix
from .reconstruct import SimulatedState
from .symbolic import SymbolicField


def _load(name):
    text = resources.files("ppsim.data").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


def reference_sequence_rows():
    """Return (degree, polynomial, rows) for the bundled degree-3 set."""
    data = _load("pps_degree3.json")
    rows = np.asarray(data["rows"], dtype=np.uint8)
    return data["degree"], tuple(data["polynomial"]), rows


@dataclass(frozen=True)
class TypicalReference:
    """Expected mode-status matrix and state for one typical construction."""

    kind: str
    matrix: ModeStatusMatrix
    state: SimulatedState


def typical_reference(kind):
    data = _load("typical_states.json")
    if kind not in data:
        raise KeyError(f"no reference for kind {kind!r}")
    entry = data[kind]
    matrix = ModeStatusMatrix.from_strings(entry["matrix"])
    state = SimulatedState(matrix.field_count, dict(entry["state"]))
    return TypicalReference(kind, matrix, state)


@dataclass(frozen=True)
class FactoringReference:
    """Order-finding reference for modulus 15 with base 7."""

    modulus: int
    base: int
    x_bits: int
    f_bits: int
    degree: int
    period: int
    factors: tuple[int, int]
    placement_derived: PlacementTable
    placement_literal: PlacementTable
    state_kets: tuple[str, ...]
    literal_kets: tuple[str, ...]


def factoring_reference():
    data = _load("factor15.json")
    return FactoringReference(
        modulus=data["modulus"],
        base=data["base"],
        x_bits=data["x_bits"],
        f_bits=data["f_bits"],
        degree=data["degree"],
        period=data["period"],
        factors=tuple(data["factors"]),
        placement_derived=PlacementTable.from_strings(data["placement_derived"]),
        placement_literal=PlacementTable.from_strings(data["placement_literal"]),
        state_kets=tuple(data["state_kets"]),
        literal_kets=tuple(data["literal_kets"]),
    )


@dataclass(frozen=True)
class QueryReference:
    """Published outcome of one membership query."""

    query: int
    found: bool
    witness: int | None
    matrix: ModeStatusMatrix


@dataclass(frozen=True)
class SearchReference:
    """13-entry membership-search database with its frozen reference data."""

    database: GroverDatabase
    degree: int
    reference_fields: tuple[SymbolicField, ...]
    encode_deviation: dict
    queries: dict[int, QueryReference]


def search_reference():
    data = _load("search_db13.json")
    db = GroverDatabase(
        width=data["width"],
        entries=tuple(data["entries"]),
        rotations={int(k): v for k, v in data["rotations"].items()},
    )
    fields = tuple(
        SymbolicField(
            mode0={j: 1.0 for j in entry["mode0"]},
            mode1={j: 1.0 for j in entry["mode1"]},
        )
        for entry in data["reference_fields"]
    )
    queries = {}
    for key in ("query_148", "query_240"):
        q = int(key.split("_")[1])
        entry = data[key]
        queries[q] = QueryReference(
            query=q,
            found=entry["found"],
            witness=entry["witness"],
            matrix=ModeStatusMatrix.from_strings(entry["matrix"]),
        )
    return SearchReference(
        database=db,
        degree=data["degree"],
        reference_fields=fields,
        encode_deviation=dict(data["encode_deviation"]),
        queries=queries,
    )
