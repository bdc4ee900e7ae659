"""Command-line front end: deterministic, scriptable pipeline access.

Exit codes: 0 success; 2 usage errors; 3 unreadable or unparsable files;
4 dimension or arity mismatches; 5 pipeline errors (degenerate seeds,
non-primitive polynomials, unusable periods, unrepresentable states, bad
parameter values). Every failure prints a single "error: ..." line on
stderr. Outputs are byte-identical for identical arguments and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import numpy as np

from .algorithms import ShorInstance, grover_search, shor_factor
from .bench import format_reports, run_benchmarks
from .demod import DEFAULT_THRESHOLD, mode_status_matrix
from .errors import DimensionMismatchError, FormatError, SimulationError
from .fields import canonical_inputs
from .fileformats import (
    load_circuit,
    load_fields,
    load_grover_db,
    load_matrix,
    load_pps_set,
    save_fields,
    save_matrix,
    save_pps_set,
)
from .reconstruct import reconstruct, sample_measurement
from .sequences import _MAPPING_NAMES, build_pps_set, degree_for

_SCHEMA_NOTES = """\
file schemas:
  PPS set (text):    "degree: S" / "polynomial: c0,...,cS" / "mapping: pi|pi/2|FLOAT"
                     / "row1: b0,...,b(2**S-1)" headers; row1 is row 1 as 0/1
                     bits, comma-separated (spaces or tabs may surround one;
                     "#" and blank lines are skipped). Legacy files that list
                     all 2**S rows as lines instead of row1 still load. The
                     rows listed must be the family the headers generate and
                     a file may not have both forms, else exit 3.
  field dump (JSON): {"slot_count": N, "fields": [{"mode0": [[re,im],...],
                     "mode1": [[re,im],...]}, ...]}; round-trips bit-exactly.
  matrix (JSON/CSV): grid of cells "0" or "(a,b)" with a,b in {-1,0,1};
                     a .csv file is CSV rows, any other is {"cells": [[...],...]}.
  state (JSON):      [{"bitstring": "0101", "coefficient": 1}, ...]; each ket
                     at most once, each |coefficient| at most 2**63 - 1.
  circuit (JSON):    {"nodes": [{"id", "kind": input|output|split|gate|
                     unitary|flip|combine, ...params}], "edges": [[from,to],...]}.
  database (JSON):   [61, 63, ...] or {"width": 8, "entries": [...],
                     "rotations": {"61": 1, ...}}.
"""


class _UsageError(Exception):
    """Bad flag combination detected after parsing."""


# checked in order, so a subclass is listed before its base class
_EXIT_CODES = (
    (_UsageError, 2),
    (FormatError, 3),
    (OSError, 3),
    (DimensionMismatchError, 4),
    (SimulationError, 5),
    (ValueError, 5),
)


def cmd_pps_gen(args: argparse.Namespace) -> None:
    polynomial = None
    if args.poly:
        try:
            polynomial = tuple(int(t) for t in args.poly.split(","))
        except ValueError:
            raise _UsageError(f"--poly must be a CSV of 0/1, got {args.poly!r}") from None
    pset = build_pps_set(args.degree, polynomial=polynomial, mapping_phase=args.mapping)
    save_pps_set(pset, args.out)
    print(
        f"wrote PPS set: degree {pset.degree}, {pset.length} sequences of "
        f"length {pset.length}, mapping {args.mapping} -> {args.out}"
    )


def cmd_simulate(args: argparse.Namespace) -> None:
    if (args.inputs is None) == (args.canonical is None):
        raise _UsageError("provide exactly one of --inputs FILE or --canonical N")
    if args.canonical is not None:
        if args.pps is None:
            raise _UsageError("--canonical requires --pps FILE")
        pset = load_pps_set(args.pps)
        fields = canonical_inputs(pset, args.canonical)
        if not fields:
            raise ValueError("--canonical needs at least one field, got 0")
    else:
        fields = load_fields(args.inputs)
    if args.circuit is not None:
        array = load_circuit(args.circuit)
        fields = array.run(fields)
    if args.dump_fields is not None:
        save_fields(fields, args.dump_fields)
        print(f"wrote {len(fields)} fields -> {args.dump_fields}")
        return
    for i, fld in enumerate(fields, start=1):
        power0 = float(np.mean(np.abs(fld.samples[:, 0]) ** 2))
        power1 = float(np.mean(np.abs(fld.samples[:, 1]) ** 2))
        print(f"field {i}: mode0 power {power0:.6g}, mode1 power {power1:.6g}")


def cmd_demod(args: argparse.Namespace) -> None:
    fields = load_fields(args.fields)
    pset = load_pps_set(args.pps)
    matrix = mode_status_matrix(fields, pset=pset, tau=args.tau)
    if args.out is not None:
        save_matrix(matrix, args.out)
        print(
            f"wrote {matrix.field_count}x{matrix.reference_count} matrix -> {args.out}"
        )
        return
    for row in matrix.to_strings():
        print(" ".join(row))


def cmd_reconstruct(args: argparse.Namespace) -> None:
    if args.sample < 0:
        raise _UsageError(f"--sample must be nonnegative, got {args.sample}")
    matrix = load_matrix(args.matrix)
    state = reconstruct(matrix)
    print(f"state: {state.pretty()}")
    for bits, coeff in state.terms.items():
        print(f"{bits} {coeff:+d}")
    if args.sample:
        rng = np.random.default_rng(args.seed)
        counts = Counter(sample_measurement(matrix, rng) for _ in range(args.sample))
        print(f"samples: {args.sample} seed {args.seed}")
        for bits in sorted(counts):
            print(f"{bits} {counts[bits]}")


def _pipeline_set(args: argparse.Namespace, width: int):
    """The set a pipeline runs on: --degree, else the smallest that holds `width`."""
    return build_pps_set(args.degree if args.degree is not None else degree_for(width))


def _report(args: argparse.Namespace, record: dict, lines: list[str]) -> None:
    """A pipeline's result: one sorted JSON object with --json, else lines."""
    print(json.dumps(record, sort_keys=True) if args.json else "\n".join(lines))


def cmd_shor(args: argparse.Namespace) -> None:
    inst = ShorInstance(args.modulus, args.base)
    result = shor_factor(inst, _pipeline_set(args, inst.register_width), tau=args.tau)
    period, factors = result.period, list(result.factors)
    record = dict(modulus=args.modulus, base=args.base, period=period, factors=factors)
    _report(args, record, [f"period: {period}", "factors: {} {}".format(*factors)])


def cmd_grover(args: argparse.Namespace) -> None:
    db = load_grover_db(args.db)
    result = grover_search(db, args.query, _pipeline_set(args, db.width), tau=args.tau)
    record = {"found": result.found, "query": args.query, "witness": result.witness}
    lines = [f"found: {'yes' if result.found else 'no'}"]
    if result.witness is not None:
        lines.append(f"witness: {result.witness}")
    _report(args, record, lines)


def cmd_bench(args: argparse.Namespace) -> None:
    del args
    print(format_reports(run_benchmarks()))


def build_parser() -> argparse.ArgumentParser:
    schema = dict(
        epilog=_SCHEMA_NOTES, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser = argparse.ArgumentParser(
        prog="ppsim",
        description="Classical two-mode field simulator of quantum-state analogies.",
        **schema,
    )
    sub = parser.add_subparsers(dest="command")

    def command(parent, name, handler, help_text, notes=False):
        """Subcommand `name` running `handler`; `notes` appends the file schemas."""
        cmd = parent.add_parser(name, help=help_text, **(schema if notes else {}))
        cmd.set_defaults(handler=handler)
        return cmd

    pps = sub.add_parser("pps", help="sequence-set utilities")
    pps_sub = pps.add_subparsers(dest="pps_command")
    gen = command(
        pps_sub, "gen", cmd_pps_gen, "generate a PPS set and write it to a file", True
    )
    gen.add_argument("--degree", type=int, required=True, help="LFSR degree s >= 2")
    gen.add_argument(
        "--poly",
        default=None,
        help="ascending feedback coefficients c0,...,cs as CSV (default: built-in)",
    )
    gen.add_argument("--mapping", choices=list(_MAPPING_NAMES), default="pi")
    gen.add_argument("--out", required=True, help="output file")

    sim = command(
        sub, "simulate", cmd_simulate, "run fields through a gate-array circuit", True
    )
    sim.add_argument("--circuit", default=None, help="circuit JSON (omit: passthrough)")
    sim.add_argument("--inputs", default=None, help="input field dump JSON")
    sim.add_argument(
        "--canonical",
        type=int,
        default=None,
        metavar="N",
        help="use the N canonical inputs from --pps instead of --inputs",
    )
    sim.add_argument("--pps", default=None, help="PPS set file (with --canonical)")
    sim.add_argument(
        "--dump-fields",
        dest="dump_fields",
        default=None,
        metavar="FILE",
        help="write the output fields as a bit-exact JSON dump",
    )

    dem = command(
        sub, "demod", cmd_demod, "demodulate fields into a mode status matrix", True
    )
    dem.add_argument("--fields", required=True, help="field dump JSON")
    dem.add_argument("--pps", required=True, help="PPS set file")
    dem.add_argument("--tau", type=float, default=DEFAULT_THRESHOLD)
    dem.add_argument("--out", default=None, help="matrix file: .csv is CSV, else JSON")

    rec = command(
        sub,
        "reconstruct",
        cmd_reconstruct,
        "reconstruct the simulated state from a matrix",
        True,
    )
    rec.add_argument("--matrix", required=True, help="matrix file (.json or .csv)")
    rec.add_argument("--sample", type=int, default=0, metavar="K", help="draw K samples")
    rec.add_argument("--seed", type=int, default=0)

    shor = command(sub, "shor", cmd_shor, "factor a modulus via the period pipeline")
    shor.add_argument("--modulus", type=int, required=True)
    shor.add_argument("--base", type=int, required=True)
    grover = command(
        sub, "grover", cmd_grover, "membership search over a stored database"
    )
    grover.add_argument("--db", required=True, help="database JSON file")
    grover.add_argument("--query", type=int, required=True)
    for cmd in (shor, grover):
        cmd.add_argument("--tau", type=float, default=DEFAULT_THRESHOLD)
        cmd.add_argument("--degree", type=int, default=None, help="PPS degree override")
        cmd.add_argument("--json", action="store_true")

    command(sub, "bench", cmd_bench, "report pipeline node counts and timings")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    try:
        handler(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
