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
import functools
import json
import os
import random
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

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

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FUZZ_FAILURE = 1
EXIT_INVALID = 2
EXIT_NON_ALLOWABLE = 3
EXIT_ORACLE_DISAGREEMENT = 4


# The built-in families: each name's builder and closed-form signature.
FAMILIES = {"y1": (family_y1, expected_sigma_y1), "y2": (family_y2, expected_sigma_y2)}

# The two keys a cycle may have, and the curve each one builds.
CURVE_KINDS = {"encloses": CurveClass.enclosing, "class": CurveClass.explicit}


class DocumentError(ValueError):
    """Invalid input to a command.  ``main`` reports it with exit code
    2; each raise that has an offending field writes its path at the
    start of the message, as ``"{field}: ..."``."""


@dataclass
class FibrationDocument:
    """Parsed input document: the fibration it describes, and ``force``,
    the document's own ``force_non_allowable``.  That flag is the one
    thing the echo writes that the fibration does not carry: the
    fibration's ``force`` also holds a ``--force`` given on the command
    line."""

    fibration: PlanarFibration
    force: bool = False

    @classmethod
    def from_obj(cls, obj, force: bool = False) -> "FibrationDocument":
        """Check the document, then build its fibration with ``force``
        set when the document or the caller sets it.  The shape and fit
        of every cycle are checked first, then the flag's type (both
        raise DocumentError), and last whether a cycle is
        null-homologous (NonAllowableCycleError)."""
        if not isinstance(obj, dict):
            raise DocumentError("document must be a JSON object")
        allowed = {"boundary_components", "vanishing_cycles", "force_non_allowable"}
        for key in obj:
            if key not in allowed:
                raise DocumentError(f"{key}: unknown key {key!r}")

        n = obj.get("boundary_components")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DocumentError("boundary_components: must be an integer >= 1")
        surface = PlanarSurface(n - 1)

        raw_cycles = obj.get("vanishing_cycles", [])
        if not isinstance(raw_cycles, list):
            raise DocumentError("vanishing_cycles: must be a list")
        cycles = [
            cls._parse_cycle(item, i, surface) for i, item in enumerate(raw_cycles)
        ]

        doc_force = obj.get("force_non_allowable", False)
        if not isinstance(doc_force, bool):
            raise DocumentError("force_non_allowable: must be a boolean")
        return cls(PlanarFibration(surface, cycles, force=doc_force or force), doc_force)

    @staticmethod
    def _parse_cycle(item, index: int, surface: PlanarSurface) -> CurveClass:
        """Check the JSON shape of one cycle; the library checks the curve."""
        where = f"vanishing_cycles[{index}]"
        if not isinstance(item, dict):
            raise DocumentError(f"{where}: must be an object")
        if len(item) != 1 or not item.keys() <= CURVE_KINDS.keys():
            raise DocumentError(
                f'{where}: must have exactly one of the keys "encloses" or "class"'
            )
        ((key, raw),) = item.items()
        field = f"{where}.{key}"
        if not isinstance(raw, list):
            raise DocumentError(f"{field}: must be a list of integers")
        try:
            curve = CURVE_KINDS[key](raw)
            surface.class_vector(curve)
        except ValueError as e:
            raise DocumentError(f"{field}: {e}") from None
        return curve

    def echo(self) -> dict:
        """The document as JSON, in a normal form: an enclosed set that
        holds circle 0 is written as its complement, which describes the
        same unoriented curve, and enclosed sets are sorted."""
        r = self.fibration.surface.r
        circles = frozenset(range(r + 1))
        cycles = [
            {"class": list(c.coefficients)}
            if c.encloses is None
            else {"encloses": sorted(circles - c.encloses if 0 in c.encloses else c.encloses)}
            for c in self.fibration.cycles
        ]
        return {
            "boundary_components": r + 1,
            "vanishing_cycles": cycles,
            "force_non_allowable": self.force,
        }


def load_document(text: str, force: bool = False) -> FibrationDocument:
    """Parse a JSON document and build its fibration, as
    ``FibrationDocument.from_obj(obj, force)``.  Text that is not JSON,
    or not a valid document, raises DocumentError; a null-homologous
    cycle raises NonAllowableCycleError unless the document or
    ``force`` accepts it."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError:  # Python's limit on the digits of an integer literal
        raise DocumentError("invalid JSON: integer literal too long")
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply")
    return FibrationDocument.from_obj(obj, force)


def _matrix_strings(M: RationalMatrix, field: str) -> list[list[str]]:
    """``M.entry_strings()``, with Python's limit on int -> str digits
    reported as a DocumentError on ``field``."""
    try:
        return M.entry_strings()
    except ValueError:
        raise DocumentError(
            f"{field}: an entry has more digits than Python's limit of "
            f"{sys.get_int_max_str_digits()} for printing an integer"
        ) from None


def assemble_report(doc: FibrationDocument) -> dict:
    """The report's keys are the fields of ``InvariantsReport``, in order,
    after ``schema_version`` and ``input``; ``wall`` and ``boundary_map``
    keep their places and are replaced by their printed matrices."""
    report = doc.fibration.betti_report()
    wc = report.wall
    return {
        "schema_version": SCHEMA_VERSION,
        "input": doc.echo(),
        **vars(report),
        "wall": {
            "w_dim": wc.w_dim,
            "psi_matrix": _matrix_strings(wc.psi, "wall.psi_matrix"),
            "correction_triple": wc.correction,
        },
        "boundary_map": _matrix_strings(report.boundary_map.matrix, "boundary_map"),
    }


def _json_text(obj, indent: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2)``, for dicts with str keys.

    With an indent, ``json.dumps`` runs its pure-Python encoder, one
    generator step per value, and a report holds a string per entry of
    the (r + 1) x 2(r + 1) boundary map.  Here a list of strs is joined
    in one pass when a single ``encode_basestring_ascii`` check over
    all its items shows that none needs escaping; otherwise each is
    quoted by it.  A lone int is written by ``int.__repr__``, as
    ``json`` does.  Any other list or dict is written recursively, and
    any other value by ``json.dumps``.
    ``indent`` is the newline and indentation before the closing
    bracket.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        body = ("," + inner).join(
            f"{encode_basestring_ascii(key)}: {_json_text(value, inner)}"
            for key, value in obj.items()
        )
        return "{" + inner + body + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        comma = "," + inner
        kinds = set(map(type, obj))
        if kinds == {str}:
            text = "".join(obj)
            if len(encode_basestring_ascii(text)) == len(text) + 2:
                body = '"' + ('"' + comma + '"').join(obj) + '"'
            else:
                body = comma.join(map(encode_basestring_ascii, obj))
        else:
            body = comma.join(_json_text(x, inner) for x in obj)
        return "[" + inner + body + indent + "]"
    return json.dumps(obj)


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


def _finish(text: str, bug: str) -> int:
    """Print a report command's ``text``; a nonempty ``bug`` names a
    disagreement the program should never reach, and is reported with
    exit code 4."""
    _print(text)
    if bug:
        print(f"error: {bug}; this is a bug", file=sys.stderr)
        return EXIT_ORACLE_DISAGREEMENT
    return EXIT_OK


def cmd_compute(args) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DocumentError(f"cannot read {args.file}: {e}") from None
    report = assemble_report(load_document(text, args.force))
    text = render_table(report) if args.format == "table" else _json_text(report)
    bug = "" if report["oracle_agrees"] else "the two signature computations disagree"
    return _finish(text, bug)


def cmd_examples(args) -> int:
    if args.r < 2:
        raise DocumentError("--r must be >= 2 for the built-in families")
    family, expected_sigma = FAMILIES[args.family]
    fib, expected = family(args.r), expected_sigma(args.r)
    report = assemble_report(FibrationDocument(fib))
    if args.format == "table":
        text = (
            f"family {args.family}, r = {args.r}, expected signature {expected}\n"
            + render_table(report)
        )
    else:
        out = {
            "schema_version": SCHEMA_VERSION,
            "family": args.family,
            "r": args.r,
            "expected_sigma": expected,
            "document": report["input"],
            "report": report,
        }
        text = _json_text(out)
    ok = report["sigma"] == expected and report["oracle_agrees"]
    return _finish(text, "" if ok else "computed report contradicts the family's closed form")


def cmd_fuzz(args) -> int:
    if args.count < 0 or args.max_r < 0 or args.max_m < 0:
        raise DocumentError("bounds must be nonnegative")
    rng = random.Random(args.seed)
    passed = {name: 0 for name in CHECK_NAMES}
    failures = []
    for index in range(args.count):
        fib = random_fibration(rng, args.max_r, args.max_m)
        try:
            results = check_fibration(fib, rng)
        except Exception as e:  # a crash is one failed check of this instance
            text = " ".join(f"{type(e).__name__}: {e}".splitlines())
            results = [CheckResult("exception", False, text)]
        for result in results:
            if result.passed:
                passed[result.name] += 1
            else:
                failures.append(
                    {
                        "instance": index,
                        "check": result.name,
                        "detail": result.detail,
                        "document": FibrationDocument(fib).echo(),
                    }
                )
    failures.sort(key=lambda f: (f["instance"], f["check"]))
    checks_passed = sum(passed.values())
    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "count": args.count,
        "max_r": args.max_r,
        "max_m": args.max_m,
        "checks_run": checks_passed + len(failures),
        "checks_passed": checks_passed,
        "checks_failed": len(failures),
        "passed_by_check": passed,
        "failures": failures,
        "ok": not failures,
    }
    _print(_json_text(summary))
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
    output_format = dict(choices=("json", "table"), default="json", help="output format")

    compute = sub.add_parser(
        "compute", help="report invariants of a fibration document"
    )
    compute.add_argument(
        "file",
        nargs="?",
        default="-",
        help="JSON document path, or - for stdin (default)",
    )
    compute.add_argument("--format", **output_format)
    compute.add_argument(
        "--force",
        action="store_true",
        help="accept null-homologous cycles (results lie outside the "
        "range where the signature formula is established)",
    )

    examples = sub.add_parser("examples", help="generate a built-in family")
    examples.add_argument("--family", choices=tuple(FAMILIES), required=True)
    examples.add_argument("--r", type=int, required=True, help="family parameter, >= 2")
    examples.add_argument("--format", **output_format)

    fuzz = sub.add_parser("fuzz", help="run the invariant battery on random inputs")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--max-r", type=int, default=4, dest="max_r")
    fuzz.add_argument("--max-m", type=int, default=10, dest="max_m")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves
    no state on it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  The commands raise on bad input, and this is
    the one place that reports it: one ``error:`` line on stderr and
    exit code 2, or 3 for a null-homologous cycle."""
    args = _parser().parse_args(argv)
    # Looked up on each call, so a replaced module attribute is the one run.
    command = {"compute": cmd_compute, "examples": cmd_examples, "fuzz": cmd_fuzz}
    try:
        return command[args.command](args)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except NonAllowableCycleError as e:
        print(
            f"error: vanishing_cycles[{e.index}] is null-homologous on the fiber; "
            'pass --force or set "force_non_allowable": true to compute anyway',
            file=sys.stderr,
        )
        return EXIT_NON_ALLOWABLE


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
