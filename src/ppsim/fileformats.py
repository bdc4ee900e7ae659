"""Readers and writers for every artifact the pipelines exchange.

All JSON output is deterministic (sorted keys, trailing newline) and every
loader raises FormatError on malformed content, so the command-line front
end can map parse failures to a single exit code. Field dumps serialize
floats with full repr precision and therefore round-trip bit-exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .algorithms import GroverDatabase
from .demod import ModeStatusMatrix, SignGrid
from .errors import FormatError, SimulationError, _as_int
from .fields import ClassicalField
from .gates import (
    Combine,
    GateArray,
    Input,
    ModeGate,
    Node,
    Output,
    PhaseFlip,
    Split,
    Unitary,
    WArray,
)
from .placement import CompiledArray, PlacementTable
from .reconstruct import SimulatedState
from .sequences import _MAPPING_NAMES, PpsSet, _parse_mapping, build_pps_set
from .symbolic import SymbolicField


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True) + "\n")


# a missing key, a wrong type or a bad value in a parsed JSON file
_CONTENT_ERRORS = (KeyError, TypeError, ValueError)


@contextmanager
def _malformed(path, what: str, errors):
    """Turn the listed errors into FormatError("<path>: <what> (<error>)")."""
    try:
        yield
    except errors as exc:
        raise FormatError(f"{path}: {what} ({exc})") from None


def _read_text(path) -> str:
    with _malformed(path, "not UTF-8 text", UnicodeDecodeError):
        return Path(path).read_text(encoding="utf-8")


def _read_json(path):
    text = _read_text(path)
    with _malformed(path, "not valid JSON", json.JSONDecodeError):
        return json.loads(text)


def _format_mapping(phase: float) -> str:
    for name, value in _MAPPING_NAMES.items():
        if phase == value:
            return name
    return repr(float(phase))


def save_pps_set(pset: PpsSet, path) -> None:
    """Text format: degree, polynomial, mapping and row1 headers, no row lines.

    Row 1 and the polynomial fix every row of the set, so the file is O(N),
    not N**2 bits."""
    lines = [
        f"degree: {pset.degree}",
        "polynomial: " + ",".join(str(int(c)) for c in pset.polynomial),
        "mapping: " + _format_mapping(pset.mapping_phase),
        "row1: " + ",".join(map(str, pset._rows([1])[0].tolist())),
    ]
    _write_text(path, "\n".join(lines) + "\n")


def _parse_bit_rows(row_lines: list[str], k: int, n: int, path) -> np.ndarray:
    """(k, n) uint8 bits from k lines of n comma-separated 0/1 tokens.

    Spaces and tabs around a token are ignored; any other token is an error.
    """
    widths = [line.count(",") + 1 for line in row_lines]
    if len(row_lines) != k or set(widths) != {n}:
        raise FormatError(
            f"{path}: expected {k} rows of {n} bits, got {len(row_lines)} rows of "
            f"{min(widths, default=0)}..{max(widths, default=0)} bits"
        )
    # one buffer of k * n (token, comma) byte pairs
    chars = np.frombuffer(",".join(row_lines + [""]).encode("utf-8"), dtype=np.uint8)
    if chars.size != 2 * k * n:
        chars = chars[(chars != ord(" ")) & (chars != ord("\t"))]
    if chars.size == 2 * k * n:
        pairs = chars.reshape(k * n, 2)
        bits = pairs[:, 0] - ord("0")  # wraps any other byte past 1
        if not ((bits > 1).any() or (pairs[:, 1] != ord(",")).any()):
            return bits.reshape(k, n)
    raise FormatError(f"{path}: bit rows must contain only 0 and 1")


def load_pps_set(path) -> PpsSet:
    """Read a PPS set file; the rows it lists must be the family its headers generate.

    It lists row 1 in a `row1` header, or all 2**S rows as row lines (legacy)."""
    text = _read_text(path)
    header: dict[str, str] = {}
    row_lines: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            header[key.strip().lower()] = value.strip()
        else:
            row_lines.append(line)
    del text  # a legacy degree-12 file's text and row lines are 33 MB each
    with _malformed(path, "bad PPS set file", (KeyError, ValueError)):
        degree = int(header["degree"])
        polynomial = tuple(int(t) for t in header["polynomial"].split(","))
        mapping = _parse_mapping(header["mapping"])
    if degree < 2:
        raise FormatError(f"{path}: degree must be >= 2, got {degree}")
    if len(polynomial) != degree + 1:
        raise FormatError(
            f"{path}: degree {degree} needs {degree + 1} polynomial coefficients, "
            f"got {len(polynomial)}"
        )
    if "row1" not in header:  # legacy: the rows are 0..N-1
        rows, first = _parse_bit_rows(row_lines, 1 << degree, 1 << degree, path), 0
    elif row_lines:
        raise FormatError(f"{path}: a row1 header and row lines cannot both be given")
    else:
        rows, first = _parse_bit_rows([header["row1"]], 1, 1 << degree, path), 1
    del row_lines
    with _malformed(path, "rows are not a PPS family", (SimulationError, ValueError)):
        seed = tuple(rows[1 - first, :degree])  # row 1's first S bits
        family = build_pps_set(degree, polynomial, mapping, seed=seed)
    expect = family._rows([1]) if first else family.bit_rows
    if not np.array_equal(expect, rows):
        raise FormatError(
            f"{path}: rows differ from the family that the headers and row 1 generate"
        )
    return family


def save_fields(fields: list[ClassicalField], path) -> None:
    """JSON field dump: slot_count plus per-slot [re, im] pairs per mode."""
    if not fields:
        raise ValueError("nothing to save: empty field list")
    obj = {
        "slot_count": fields[0].slot_count,
        "fields": [
            {
                "mode0": [[z.real, z.imag] for z in fld.samples[:, 0]],
                "mode1": [[z.real, z.imag] for z in fld.samples[:, 1]],
            }
            for fld in fields
        ],
    }
    _write_json(path, obj)


def load_fields(path) -> list[ClassicalField]:
    obj = _read_json(path)
    with _malformed(path, "bad field dump", _CONTENT_ERRORS):
        slot_count = _as_int(obj["slot_count"])
        out = []
        for entry in obj["fields"]:
            samples = np.empty((slot_count, 2), dtype=np.complex128)
            for mode, key in enumerate(("mode0", "mode1")):
                pairs = entry[key]
                if len(pairs) != slot_count:
                    raise ValueError(f"{key} has {len(pairs)} slots, not {slot_count}")
                samples[:, mode] = [complex(float(re), float(im)) for re, im in pairs]
            out.append(ClassicalField(samples))
    if not out:
        raise FormatError(f"{path}: field dump holds no fields")
    return out


def _is_csv(path) -> bool:
    """A matrix file's format is its suffix: .csv is CSV, any other is JSON."""
    return str(path).lower().endswith(".csv")


def save_matrix(obj, path) -> None:
    """Write a status matrix or placement table as a JSON or CSV cell grid."""
    if not isinstance(obj, SignGrid):
        raise TypeError(f"cannot serialize {type(obj).__name__} as a status grid")
    rows = obj.to_strings()
    if _is_csv(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    else:
        _write_json(path, {"cells": rows})


def load_matrix_cells(path) -> list[list[str]]:
    """Raw cell-string grid from a JSON or CSV matrix file."""
    if _is_csv(path):
        rows = [row for row in csv.reader(_read_text(path).splitlines()) if row]
    else:
        obj = _read_json(path)
        with _malformed(path, "bad matrix file", (KeyError, TypeError)):
            cells = obj["cells"]
            if not isinstance(cells, list) or not all(isinstance(row, list) for row in cells):
                raise TypeError("cells must be a list of rows, each a list")
            rows = [[str(c) for c in row] for row in cells]
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise FormatError(f"{path}: matrix rows are empty or ragged")
    return rows


def _load_grid(path, cls):
    rows = load_matrix_cells(path)
    try:
        return cls.from_strings(rows)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_matrix(path) -> ModeStatusMatrix:
    return _load_grid(path, ModeStatusMatrix)


def load_placement(path) -> PlacementTable:
    return _load_grid(path, PlacementTable)


def save_state(state: SimulatedState, path) -> None:
    """JSON list of {bitstring, coefficient}, sorted by bitstring."""
    _write_json(
        path,
        [{"bitstring": b, "coefficient": c} for b, c in state.terms.items()],
    )


def load_state(path) -> SimulatedState:
    obj = _read_json(path)
    with _malformed(path, "bad state file", _CONTENT_ERRORS):
        terms = {}
        for entry in obj:
            if (bits := str(entry["bitstring"])) in terms:
                raise ValueError(f"ket {bits!r} listed twice")
            terms[bits] = _as_int(entry["coefficient"])
        width = len(next(iter(terms))) if terms else 0
        return SimulatedState(width, terms)


def _split_gains(value) -> tuple[float, ...] | None:
    """Split gains of a circuit file; null or absent means unit gains."""
    return None if value is None else tuple(float(g) for g in value)


# circuit form of each node kind: its class and a reader per parameter key,
# keys in the order of the class's fields
_NODE_FORMS = {
    "input": (Input, {"index": _as_int}),
    "output": (Output, {"index": _as_int}),
    "split": (Split, {"fanout": _as_int, "gains": _split_gains}),
    "gate": (ModeGate, {"gate": lambda kind: str(kind).upper()}),
    "unitary": (Unitary, {"chi": float, "theta": float}),
    "flip": (PhaseFlip, {}),
    "combine": (Combine, {"fanin": _as_int}),
}
_NODE_KINDS = {cls: kind for kind, (cls, _) in _NODE_FORMS.items()}


def _node_obj(nid: str, node: Node) -> dict:
    kind = _NODE_KINDS[type(node)]
    values = (getattr(node, f.name) for f in dataclasses.fields(node))
    params = zip(_NODE_FORMS[kind][1], values)
    # unit gains (None) are saved by leaving the key out
    return {"id": nid, "kind": kind, **{k: v for k, v in params if v is not None}}


def _node_from_obj(entry: dict) -> Node:
    kind = str(entry["kind"]).lower()
    if kind not in _NODE_FORMS:
        raise ValueError(f"unknown node kind {entry['kind']!r}")
    cls, readers = _NODE_FORMS[kind]
    # gains may be absent; any other absent key is a KeyError
    values = (entry.get(k) if k == "gains" else entry[k] for k in readers)
    return cls(*(read(v) for read, v in zip(readers.values(), values)))


def save_circuit(array: CompiledArray | GateArray | WArray, path) -> None:
    """Circuit JSON: node list (id, kind, parameters) plus [from, to] edges;
    a compiled or W array is saved as the node graph it spells."""
    obj = {
        "nodes": [_node_obj(nid, node) for nid, node in array.nodes.items()],
        "edges": [[src, dst] for src, dst in array.edges],
    }
    _write_json(path, obj)


def load_circuit(path) -> GateArray:
    obj = _read_json(path)
    with _malformed(path, "bad circuit file", _CONTENT_ERRORS):
        nodes = {}
        for entry in obj["nodes"]:
            if (nid := str(entry["id"])) in nodes:
                raise ValueError(f"node id {nid!r} listed twice")
            nodes[nid] = _node_from_obj(entry)
        edges = [(str(src), str(dst)) for src, dst in obj["edges"]]
    with _malformed(path, "invalid circuit", ValueError):
        return GateArray(nodes, edges)


def save_symbolic_field(sf: SymbolicField, path) -> None:
    """Symbolic field JSON: per-mode lists of {pps, re, im}."""
    obj = {
        key: [
            {"pps": j, "re": c.real, "im": c.imag}
            for j, c in sorted(coeffs.items())
        ]
        for key, coeffs in (("mode0", sf.mode0), ("mode1", sf.mode1))
    }
    _write_json(path, obj)


def load_symbolic_field(path) -> SymbolicField:
    obj = _read_json(path)
    with _malformed(path, "bad symbolic field file", _CONTENT_ERRORS):
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        maps = [
            {e["pps"]: complex(float(e["re"]), float(e["im"])) for e in obj.get(key, [])}
            for key in ("mode0", "mode1")
        ]
        return SymbolicField(*maps)  # which reads each index by the integer rule


def save_grover_db(db: GroverDatabase, path) -> None:
    """Database JSON: width and entry list, plus the rotation map if explicit."""
    obj: dict = {"width": db.width, "entries": list(db.entries)}
    if db.rotations is not None:
        obj["rotations"] = {str(k): v for k, v in sorted(db.rotations.items())}
    _write_json(path, obj)


def load_grover_db(path) -> GroverDatabase:
    """Accepts the object form or a bare JSON list of integers, its entries.

    Without a width, the width is the bit length of the largest entry.
    """
    obj = _read_json(path)
    with _malformed(path, "bad database file", _CONTENT_ERRORS):
        if isinstance(obj, list):
            obj = {"entries": obj}
        entries = tuple(_as_int(x) for x in obj["entries"])
        width = _as_int(obj.get("width", max([1, *(x.bit_length() for x in entries)])))
        return GroverDatabase(width, entries, obj.get("rotations"))
