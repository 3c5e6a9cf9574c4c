"""Command line front end.

Subcommands:

* ``compute``  -- read a fibration document (JSON), print its full
  invariant report.  Exit 0 only when the document is valid and the
  two signature paths agree.
* ``examples`` -- generate one of the built-in families (y1: a cycle
  around each pair of holes; y2: boundary-parallel cycles with
  multiplicity) and report on it.
* ``fuzz``     -- seeded random fibrations through the whole invariant
  battery; failures reproduce from the printed document.  An exception
  inside one instance is recorded as a failed check named
  ``exception`` instead of ending the run.

Exit codes: 0 success, 1 fuzz property violation, 2 parse/validation
error, 3 null-homologous cycle without --force, 4 internal signature
disagreement (never expected; indicates a bug).

A reader that closes stdout early (``planarsig compute doc.json | head``)
changes neither: the rest of the output is discarded, nothing is printed
to stderr for it, and the command exits with the code it would have
returned had the reader kept reading.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass

from . import __version__
from .fibration import (
    PlanarFibration,
    expected_sigma_y1,
    expected_sigma_y2,
    family_y1,
    family_y2,
)
from .linalg import RationalMatrix
from .properties import CHECK_NAMES, CheckResult, check_fibration, random_fibration
from .surfaces import CurveClass, NonAllowableCycleError, PlanarSurface
from .wall import standard_triple, wall_correction

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FUZZ_FAILURE = 1
EXIT_INVALID = 2
EXIT_NON_ALLOWABLE = 3
EXIT_ORACLE_DISAGREEMENT = 4


class DocumentError(ValueError):
    """Invalid fibration document; carries the offending field path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


@dataclass
class FibrationDocument:
    """Parsed and validated input document."""

    boundary_components: int
    cycles: list[CurveClass]
    force: bool = False

    @property
    def r(self) -> int:
        return self.boundary_components - 1

    @classmethod
    def from_obj(cls, obj) -> "FibrationDocument":
        if not isinstance(obj, dict):
            raise DocumentError("document must be a JSON object")
        allowed = {"boundary_components", "vanishing_cycles", "force_non_allowable"}
        for key in obj:
            if key not in allowed:
                raise DocumentError(f"unknown key {key!r}", field=key)

        n = obj.get("boundary_components")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DocumentError(
                "must be an integer >= 1", field="boundary_components"
            )
        surface = PlanarSurface(n - 1)

        raw_cycles = obj.get("vanishing_cycles", [])
        if not isinstance(raw_cycles, list):
            raise DocumentError("must be a list", field="vanishing_cycles")
        cycles = [
            cls._parse_cycle(item, i, surface) for i, item in enumerate(raw_cycles)
        ]

        force = obj.get("force_non_allowable", False)
        if not isinstance(force, bool):
            raise DocumentError("must be a boolean", field="force_non_allowable")
        return cls(boundary_components=n, cycles=cycles, force=force)

    @staticmethod
    def _parse_cycle(item, index: int, surface: PlanarSurface) -> CurveClass:
        """Check the JSON shape of one cycle; the library checks the curve."""
        where = f"vanishing_cycles[{index}]"
        if not isinstance(item, dict):
            raise DocumentError("must be an object", field=where)
        if set(item) not in ({"encloses"}, {"class"}):
            raise DocumentError(
                'must have exactly one of the keys "encloses" or "class"', field=where
            )
        ((key, raw),) = item.items()
        field = f"{where}.{key}"
        if not isinstance(raw, list):
            raise DocumentError("must be a list of integers", field=field)
        try:
            if key == "class":
                curve = CurveClass.explicit(raw)
            else:
                curve = CurveClass.enclosing(raw)
                if len(curve.encloses) != len(raw):
                    raise ValueError("indices must be distinct")
            return surface.canonical_curve(curve)
        except ValueError as e:
            raise DocumentError(str(e), field=field) from None

    def to_fibration(self, force: bool = False) -> PlanarFibration:
        return PlanarFibration(
            PlanarSurface(self.r), self.cycles, force=self.force or force
        )

    def echo(self) -> dict:
        """The document as JSON: enclosed sets sorted, explicit classes
        with their sign applied.  The cycles are canonical (enclosed
        sets never contain circle 0), as ``from_obj`` and
        ``document_for`` build them."""
        cycles = [
            {"encloses": sorted(c.encloses)}
            if c.encloses is not None
            else {"class": [c.sign * x for x in c.coefficients]}
            for c in self.cycles
        ]
        return {
            "boundary_components": self.boundary_components,
            "vanishing_cycles": cycles,
            "force_non_allowable": self.force,
        }


def load_document(text: str) -> FibrationDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError:  # Python's limit on the digits of an integer literal
        raise DocumentError("invalid JSON: integer literal too long")
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply")
    return FibrationDocument.from_obj(obj)


def document_for(fib: PlanarFibration) -> FibrationDocument:
    """The document of a fibration, its cycles canonicalized once."""
    return FibrationDocument(
        boundary_components=fib.surface.r + 1,
        cycles=[fib.surface.canonical_curve(c) for c in fib.cycles],
        force=fib.force,
    )


def _matrix_strings(M: RationalMatrix, field: str) -> list[list[str]]:
    """``M.entry_strings()``, with Python's limit on int -> str digits
    reported as a DocumentError on ``field``."""
    try:
        return M.entry_strings()
    except ValueError:
        raise DocumentError(
            "an entry has more digits than Python's limit of "
            f"{sys.get_int_max_str_digits()} for printing an integer",
            field=field,
        ) from None


def assemble_report(doc: FibrationDocument, fib: PlanarFibration) -> dict:
    bmap = fib.boundary_map()
    wc = wall_correction(standard_triple(bmap))
    report = fib.betti_report(wall=wc)
    return {
        "schema_version": SCHEMA_VERSION,
        "input": doc.echo(),
        "m": report.m,
        "r": report.r,
        "d": report.d,
        "sigma": report.sigma,
        "b1": report.b1,
        "b2": report.b2,
        "euler": report.euler,
        "definiteness": report.definiteness,
        "intersection_form": list(report.form.as_tuple()),
        "allowable": report.allowable,
        "oracle_sigma": report.oracle_sigma,
        "oracle_agrees": report.oracle_agrees,
        "wall": {
            "w_dim": wc.w_dim,
            "psi_matrix": _matrix_strings(wc.psi, "wall.psi_matrix"),
            "correction_triple": list(wc.correction.as_tuple()),
        },
        "boundary_map": _matrix_strings(bmap.matrix, "boundary_map"),
    }


def render_table(report: dict) -> str:
    rows = [
        ("vanishing cycles (m)", report["m"]),
        ("fiber parameter (r)", report["r"]),
        ("cycle span dim (d)", report["d"]),
        ("signature", report["sigma"]),
        ("b1", report["b1"]),
        ("b2", report["b2"]),
        ("euler characteristic", report["euler"]),
        ("definiteness", report["definiteness"]),
        ("intersection form (+,-,0)", tuple(report["intersection_form"])),
        ("allowable", report["allowable"]),
        ("oracle signature", report["oracle_sigma"]),
        ("oracle agrees", report["oracle_agrees"]),
        ("wall quotient dim", report["wall"]["w_dim"]),
        ("wall correction (+,-,0)", tuple(report["wall"]["correction_triple"])),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [f"{label.ljust(width)}  {value}" for label, value in rows]

    def matrix_block(title: str, grid: list[list[str]]) -> list[str]:
        out = [f"{title}:"]
        if not grid or not grid[0]:
            out.append("  (empty)")
            return out
        cell = max(len(x) for row in grid for x in row)
        for row in grid:
            out.append("  " + "  ".join(x.rjust(cell) for x in row))
        return out

    lines.extend(matrix_block("psi matrix", report["wall"]["psi_matrix"]))
    lines.extend(matrix_block("boundary map", report["boundary_map"]))
    return "\n".join(lines)


def cmd_compute(args) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return EXIT_INVALID
    try:
        doc = load_document(text)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    try:
        fib = doc.to_fibration(force=args.force)
    except NonAllowableCycleError as e:
        print(
            f"error: vanishing_cycles[{e.index}] is null-homologous on the fiber; "
            'pass --force or set "force_non_allowable": true to compute anyway',
            file=sys.stderr,
        )
        return EXIT_NON_ALLOWABLE
    try:
        report = assemble_report(doc, fib)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    if args.format == "table":
        _print(render_table(report))
    else:
        _print(json.dumps(report, indent=2))
    if not report["oracle_agrees"]:
        print(
            "error: the two signature computations disagree; this is a bug",
            file=sys.stderr,
        )
        return EXIT_ORACLE_DISAGREEMENT
    return EXIT_OK


def cmd_examples(args) -> int:
    if args.r < 2:
        print("error: --r must be >= 2 for the built-in families", file=sys.stderr)
        return EXIT_INVALID
    if args.family == "y1":
        fib, expected = family_y1(args.r), expected_sigma_y1(args.r)
    else:
        fib, expected = family_y2(args.r), expected_sigma_y2(args.r)
    doc = document_for(fib)
    report = assemble_report(doc, fib)
    out = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "r": args.r,
        "expected_sigma": expected,
        "document": doc.echo(),
        "report": report,
    }
    if args.format == "table":
        _print(
            f"family {args.family}, r = {args.r}, expected signature {expected}\n"
            + render_table(report)
        )
    else:
        _print(json.dumps(out, indent=2))
    if report["sigma"] != expected or not report["oracle_agrees"]:
        print(
            "error: computed report contradicts the family's closed form; "
            "this is a bug",
            file=sys.stderr,
        )
        return EXIT_ORACLE_DISAGREEMENT
    return EXIT_OK


def cmd_fuzz(args) -> int:
    if args.count < 0 or args.max_r < 0 or args.max_m < 0:
        print("error: bounds must be nonnegative", file=sys.stderr)
        return EXIT_INVALID
    rng = random.Random(args.seed)
    passed = {name: 0 for name in CHECK_NAMES}
    failures = []
    checks_run = 0
    for index in range(args.count):
        fib = random_fibration(rng, args.max_r, args.max_m)
        try:
            results = check_fibration(fib, rng)
        except Exception as e:  # a crash is one failed check of this instance
            text = " ".join(f"{type(e).__name__}: {e}".splitlines())
            results = [CheckResult("exception", False, text)]
        for result in results:
            checks_run += 1
            if result.passed:
                passed[result.name] += 1
            else:
                failures.append(
                    {
                        "instance": index,
                        "check": result.name,
                        "detail": result.detail,
                        "document": document_for(fib).echo(),
                    }
                )
    failures.sort(key=lambda f: (f["instance"], f["check"]))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "count": args.count,
        "max_r": args.max_r,
        "max_m": args.max_m,
        "checks_run": checks_run,
        "checks_passed": checks_run - len(failures),
        "checks_failed": len(failures),
        "passed_by_check": passed,
        "failures": failures,
        "ok": not failures,
    }
    _print(json.dumps(summary, indent=2))
    return EXIT_OK if not failures else EXIT_FUZZ_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarsig",
        description=(
            "Exact signature and Betti invariants of allowable Lefschetz "
            "fibrations over the disk with planar fiber."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"planarsig {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="report invariants of a fibration document"
    )
    compute.add_argument(
        "file",
        nargs="?",
        default="-",
        help="JSON document path, or - for stdin (default)",
    )
    compute.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    compute.add_argument(
        "--force",
        action="store_true",
        help="accept null-homologous cycles (results lie outside the "
        "range where the signature formula is established)",
    )
    compute.set_defaults(func=cmd_compute)

    examples = sub.add_parser("examples", help="generate a built-in family")
    examples.add_argument("--family", choices=("y1", "y2"), required=True)
    examples.add_argument("--r", type=int, required=True, help="family parameter, >= 2")
    examples.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    examples.set_defaults(func=cmd_examples)

    fuzz = sub.add_parser("fuzz", help="run the invariant battery on random inputs")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--max-r", type=int, default=4, dest="max_r")
    fuzz.add_argument("--max-m", type=int, default=10, dest="max_m")
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _print(text: str) -> None:
    """Print ``text`` and a newline to stdout.  If the reader has gone
    away, the rest of the output is discarded and the command goes on
    to the exit code it would return anyway."""
    try:
        print(text)
    except BrokenPipeError:
        _discard_stdout()


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that every
    later write and flush, the interpreter's last one included, succeeds
    with no reader."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def entry() -> None:
    try:
        sys.exit(main())
    finally:
        # Output that fits the buffer is written only by a flush.  At
        # interpreter exit a closed reader would make that flush print
        # "Exception ignored" and exit 120, so it is done here.
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _discard_stdout()


if __name__ == "__main__":
    entry()
