"""Readers and writers for every artifact the pipelines exchange.

All JSON output is deterministic (sorted keys, trailing newline) and every
loader raises FormatError on malformed content, so the command-line front
end can map parse failures to a single exit code. Field dumps serialize
floats with full repr precision and therefore round-trip bit-exactly.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .algorithms import GroverDatabase, _as_int
from .demod import ModeStatusMatrix, SignGrid
from .errors import FormatError, SimulationError
from .fields import ClassicalField
from .gates import (
    Combine,
    GateArray,
    Input,
    ModeGate,
    Node,
    Output,
    PhaseFlip,
    PlacementTable,
    Split,
    Unitary,
)
from .reconstruct import SimulatedState
from .sequences import HALF_PI, PI, PpsSet, _parse_mapping, build_pps_set
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
    if math.isclose(phase, PI, rel_tol=0, abs_tol=1e-15):
        return "pi"
    if math.isclose(phase, HALF_PI, rel_tol=0, abs_tol=1e-15):
        return "pi/2"
    return repr(float(phase))


def save_pps_set(pset: PpsSet, path) -> None:
    """Text format: degree/polynomial/mapping headers, then one bit row per line."""
    header = "\n".join(
        [
            f"degree: {pset.degree}",
            "polynomial: " + ",".join(str(int(c)) for c in pset.polynomial),
            "mapping: " + _format_mapping(pset.mapping_phase),
        ]
    )
    # each row is its N digits at even offsets, a comma or the newline after each
    n = pset.length
    body = np.full((n, 2 * n), ord(","), dtype=np.uint8)
    np.add(pset.bit_rows, ord("0"), out=body[:, 0::2], casting="unsafe")
    body[:, -1] = ord("\n")
    with open(path, "wb") as out:
        out.write(header.encode("utf-8") + b"\n")
        out.write(body)


def _parse_bit_rows(row_lines: list[str], n: int, path) -> np.ndarray:
    """(n, n) uint8 bits from n lines of n comma-separated 0/1 tokens.

    Spaces and tabs around a token are ignored; any other token is an error.
    """
    widths = [line.count(",") + 1 for line in row_lines]
    if len(row_lines) != n or set(widths) != {n}:
        raise FormatError(
            f"{path}: expected {n} rows of {n} bits, got {len(row_lines)} rows of "
            f"{min(widths, default=0)}..{max(widths, default=0)} bits"
        )
    # one buffer of n * n (token, comma) byte pairs
    chars = np.frombuffer(",".join(row_lines + [""]).encode("utf-8"), dtype=np.uint8)
    if chars.size != 2 * n * n:
        chars = chars[(chars != ord(" ")) & (chars != ord("\t"))]
    if chars.size == 2 * n * n:
        pairs = chars.reshape(n * n, 2)
        bits = pairs[:, 0] - ord("0")  # wraps any other byte past 1
        if not ((bits > 1).any() or (pairs[:, 1] != ord(",")).any()):
            return bits.reshape(n, n)
    raise FormatError(f"{path}: bit rows must contain only 0 and 1")


def load_pps_set(path) -> PpsSet:
    """Read a PPS set file; its rows must be the family its headers generate."""
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
    del text  # at degree 12 the text and the row lines are 33 MB each
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
    rows = _parse_bit_rows(row_lines, 1 << degree, path)
    del row_lines
    with _malformed(path, "rows are not a PPS family", (SimulationError, ValueError)):
        family = build_pps_set(degree, polynomial, mapping, seed=tuple(rows[1, :degree]))
    if not np.array_equal(family.bit_rows, rows):
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


def save_matrix(obj, path, fmt: str | None = None) -> None:
    """Write a status matrix or placement table as a JSON or CSV cell grid.

    Format follows `fmt` ("json"/"csv") or, when omitted, the file suffix.
    """
    if not isinstance(obj, SignGrid):
        raise TypeError(f"cannot serialize {type(obj).__name__} as a status grid")
    rows = obj.to_strings()
    chosen = fmt or ("csv" if str(path).lower().endswith(".csv") else "json")
    if chosen == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    elif chosen == "json":
        _write_json(path, {"cells": rows})
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def load_matrix_cells(path) -> list[list[str]]:
    """Raw cell-string grid from a JSON or CSV matrix file."""
    if str(path).lower().endswith(".csv"):
        rows = [row for row in csv.reader(_read_text(path).splitlines()) if row]
    else:
        obj = _read_json(path)
        with _malformed(path, "bad matrix file", (KeyError, TypeError)):
            rows = [[str(c) for c in row] for row in obj["cells"]]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
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
        [{"bitstring": b, "coefficient": c} for b, c in state.sorted_terms()],
    )


def load_state(path) -> SimulatedState:
    obj = _read_json(path)
    with _malformed(path, "bad state file", _CONTENT_ERRORS):
        terms = {str(e["bitstring"]): _as_int(e["coefficient"]) for e in obj}
        width = len(next(iter(terms))) if terms else 0
        return SimulatedState(width, terms)


def _node_obj(nid: str, node: Node) -> dict:
    if isinstance(node, Input):
        return {"id": nid, "kind": "input", "index": node.index}
    if isinstance(node, Output):
        return {"id": nid, "kind": "output", "index": node.index}
    if isinstance(node, Split):
        obj = {"id": nid, "kind": "split", "fanout": node.fanout}
        if node.gains is not None:
            obj["gains"] = list(node.gains)
        return obj
    if isinstance(node, ModeGate):
        return {"id": nid, "kind": "gate", "gate": node.kind}
    if isinstance(node, Unitary):
        return {"id": nid, "kind": "unitary", "chi": node.chi, "theta": node.theta}
    if isinstance(node, PhaseFlip):
        return {"id": nid, "kind": "flip"}
    if isinstance(node, Combine):
        return {"id": nid, "kind": "combine", "fanin": node.fanin}
    raise TypeError(f"cannot serialize node {type(node).__name__}")


def _node_from_obj(entry: dict) -> Node:
    kind = str(entry["kind"]).lower()
    if kind == "input":
        return Input(_as_int(entry["index"]))
    if kind == "output":
        return Output(_as_int(entry["index"]))
    if kind == "split":
        gains = entry.get("gains")
        return Split(
            _as_int(entry["fanout"]),
            None if gains is None else tuple(float(g) for g in gains),
        )
    if kind == "gate":
        return ModeGate(str(entry["gate"]).upper())
    if kind == "unitary":
        return Unitary(float(entry["chi"]), float(entry["theta"]))
    if kind == "flip":
        return PhaseFlip()
    if kind == "combine":
        return Combine(_as_int(entry["fanin"]))
    raise ValueError(f"unknown node kind {entry['kind']!r}")


def save_circuit(array: GateArray, path) -> None:
    """Circuit JSON: node list (id, kind, parameters) plus [from, to] edges."""
    obj = {
        "nodes": [_node_obj(nid, node) for nid, node in array.nodes.items()],
        "edges": [[src, dst] for src, dst in array.edges],
    }
    _write_json(path, obj)


def load_circuit(path) -> GateArray:
    obj = _read_json(path)
    with _malformed(path, "bad circuit file", _CONTENT_ERRORS):
        nodes = {str(entry["id"]): _node_from_obj(entry) for entry in obj["nodes"]}
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
        maps = {}
        for key in ("mode0", "mode1"):
            maps[key] = {
                _as_int(e["pps"]): complex(float(e["re"]), float(e["im"]))
                for e in obj.get(key, [])
            }
    return SymbolicField(maps["mode0"], maps["mode1"])


def save_grover_db(db: GroverDatabase, path) -> None:
    """Database JSON: width and entry list, plus the rotation map if explicit."""
    obj: dict = {"width": db.width, "entries": list(db.entries)}
    if db.rotations is not None:
        obj["rotations"] = {str(k): v for k, v in sorted(db.rotations.items())}
    _write_json(path, obj)


def load_grover_db(path) -> GroverDatabase:
    """Accepts the object form or a bare JSON list of integers.

    For a bare list the width is the bit length of the largest entry.
    """
    obj = _read_json(path)
    with _malformed(path, "bad database file", _CONTENT_ERRORS):
        if isinstance(obj, list):
            entries = tuple(_as_int(x) for x in obj)
            width = max((x.bit_length() for x in entries), default=1)
            return GroverDatabase(max(width, 1), entries)
        entries = tuple(_as_int(x) for x in obj["entries"])
        fallback = max(max((x.bit_length() for x in entries), default=1), 1)
        width = _as_int(obj.get("width", fallback))
        rotations = obj.get("rotations")
        if rotations is not None:
            rotations = {_as_int(k): _as_int(v) for k, v in rotations.items()}
        return GroverDatabase(width, entries, rotations)
