"""Mutation gate: hand-made mutants of the package, each run against the
tests expected to kill it.

A mutant is one literal swap of an exact snippet in one module of
``src/planarsig``.  For each mutant, ``src/`` is copied to a fresh
temporary directory, the swap is made there, and the mutant's test
files run in one pytest process (stopping at the first failure) with
``PYTHONPATH`` at the copy.  The outcome is

* ``killed``   -- some test failed;
* ``survived`` -- every test passed;
* ``timeout``  -- pytest ran past ``TIMEOUT`` seconds and was stopped;
* ``error``    -- pytest could not run the tests (for example a
  collection error), so nothing was learnt.

Before any mutant runs, every snippet must occur exactly once in its
module, so the table cannot drift from the code unseen, and the union
of the named test files must pass on the unmutated copy, so a kill
means the mutant was caught.  The script exits 0 only when every
mutant has its expected outcome: ``killed``, or ``survived`` for the
equivalent mutants listed as such.  Standard library only; not a test
module, so pytest does not collect it.

    python tests/mutation.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


class Mutant(NamedTuple):
    name: str
    module: str  # file name in src/planarsig
    old: str  # exact snippet, found exactly once in the module
    new: str
    tests: tuple[str, ...]  # test files in tests/ expected to kill it
    expect: str = "killed"


def mutant(name, module, old, new, *tests, expect="killed"):
    return Mutant(name, module, old, new, tests, expect)


DENSE = "test_dense_reference.py"
# Seconds per pytest run: the unmutated run of every named file takes
# about 17 s and the slowest mutant about 14 s (Python 3.11).
TIMEOUT = 60

MUTANTS = [
    # The one integer-parameter check and each of its call sites.
    mutant("check-int-lets-bools-through", "linalg.py",
           "    if type(value) is not int:\n        _refuse_non_integers((value,), what)",
           "    if not isinstance(value, int):\n        _refuse_non_integers((value,), what)",
           "test_surfaces.py"),
    mutant("check-int-high-exclusive", "linalg.py",
           "    elif not low <= value <= high:",
           "    elif not low <= value < high:",
           "test_surfaces.py"),
    mutant("check-int-site-column-count", "linalg.py",
           '_check_int(n_cols, "column count")',
           '_check_int(n_cols, "column count", -1)',
           "test_surfaces.py"),
    mutant("check-int-site-ambient-dimension", "linalg.py",
           '_check_int(ambient_dim, "ambient dimension")',
           '_check_int(ambient_dim, "ambient dimension", -1)',
           "test_surfaces.py"),
    mutant("check-int-site-planar-surface-r", "surfaces.py",
           '        _check_int(self.r, "boundary count parameter r")\n\n    def class_vector',
           '        _check_int(self.r, "boundary count parameter r", -1)\n\n    def class_vector',
           "test_surfaces.py"),
    # The one check of r for the boundary map and both closed forms.
    mutant("check-int-site-torus-space-r", "surfaces.py",
           '        _check_int(self.r, "boundary count parameter r")\n\n    @property',
           '        _check_int(self.r, "boundary count parameter r", -1)\n\n    @property',
           "test_surfaces.py", "test_wall.py"),
    mutant("check-int-site-m-index", "surfaces.py",
           '        _check_int(i, "torus index", 0, self.r)\n        return 2 * i\n',
           '        _check_int(i, "torus index", 0, self.r + 1)\n        return 2 * i\n',
           "test_surfaces.py"),
    mutant("check-int-site-l-index", "surfaces.py",
           '        _check_int(i, "torus index", 0, self.r)\n        return 2 * i + 1\n',
           '        _check_int(i, "torus index", -1, self.r)\n        return 2 * i + 1\n',
           "test_surfaces.py"),
    mutant("check-int-site-family-y1", "fibration.py",
           '    _check_int(r, "family parameter r", 2)\n    surface = PlanarSurface(r + 1)\n'
           "    cycles = [CurveClass.enclosing(pair)",
           '    _check_int(r, "family parameter r", 1)\n    surface = PlanarSurface(r + 1)\n'
           "    cycles = [CurveClass.enclosing(pair)",
           "test_fibration.py"),
    mutant("check-int-site-expected-y1", "fibration.py",
           '    _check_int(r, "family parameter r", 2)\n    return -(r - 2)',
           '    _check_int(r, "family parameter r", 1)\n    return -(r - 2)',
           "test_fibration.py"),
    mutant("check-int-site-family-y2", "fibration.py",
           '    _check_int(r, "family parameter r", 2)\n    surface = PlanarSurface(r + 1)\n'
           "    cycles = [CurveClass.enclosing({0})]",
           '    _check_int(r, "family parameter r", 1)\n    surface = PlanarSurface(r + 1)\n'
           "    cycles = [CurveClass.enclosing({0})]",
           "test_fibration.py"),
    mutant("check-int-site-expected-y2", "fibration.py",
           '    _check_int(r, "family parameter r", 2)\n    return -r * r',
           '    _check_int(r, "family parameter r", 1)\n    return -r * r',
           "test_fibration.py"),
    mutant("refuse-non-integers-lets-bools-through", "linalg.py",
           "        if not isinstance(x, int) or isinstance(x, bool):",
           "        if not isinstance(x, int):",
           "test_surfaces.py"),
    # cli.main, the one place that maps input errors to exit codes, and
    # the commands that raise into it.
    mutant("main-builds-parser-per-call", "cli.py",
           "    args = _parser().parse_args(argv)",
           "    args = build_parser().parse_args(argv)",
           "test_cli.py"),
    mutant("main-invalid-exit-code", "cli.py",
           "        print(f\"error: {e}\", file=sys.stderr)\n        return EXIT_INVALID",
           "        print(f\"error: {e}\", file=sys.stderr)\n        return EXIT_FUZZ_FAILURE",
           "test_cli.py"),
    mutant("main-invalid-message", "cli.py",
           '        print(f"error: {e}", file=sys.stderr)',
           '        print(f"error: {e!r}", file=sys.stderr)',
           "test_cli.py"),
    mutant("main-non-allowable-exit-code", "cli.py",
           "            file=sys.stderr,\n        )\n        return EXIT_NON_ALLOWABLE",
           "            file=sys.stderr,\n        )\n        return EXIT_INVALID",
           "test_cli.py"),
    mutant("main-non-allowable-message", "cli.py",
           'f"error: vanishing_cycles[{e.index}] is null-homologous on the fiber; "',
           'f"error: vanishing_cycles[{e.index + 1}] is null-homologous on the fiber; "',
           "test_cli.py"),
    mutant("compute-unreadable-file-message", "cli.py",
           'raise DocumentError(f"cannot read {args.file}: {e}")',
           'raise DocumentError(f"cannot read {args.file}")',
           "test_cli.py"),
    mutant("examples-accepts-r-one", "cli.py",
           "    if args.r < 2:",
           "    if args.r < 1:",
           "test_cli.py"),
    mutant("fuzz-accepts-negative-max-m", "cli.py",
           "args.max_r < 0 or args.max_m < 0:",
           "args.max_r < 0:",
           "test_cli.py"),
    mutant("finish-hides-a-disagreement", "cli.py",
           "        return EXIT_ORACLE_DISAGREEMENT",
           "        return EXIT_OK",
           "test_cli.py"),
    mutant("document-accepts-non-bool-force", "cli.py",
           "        if not isinstance(doc_force, bool):",
           "        if False:",
           "test_cli.py"),
    mutant("cycle-accepts-non-list", "cli.py",
           "        if not isinstance(raw, list):",
           "        if False:",
           "test_cli.py"),
    mutant("load-document-drops-the-cli-force", "cli.py",
           "    return FibrationDocument.from_obj(obj, force)",
           "    return FibrationDocument.from_obj(obj)",
           "test_cli.py"),
    mutant("echo-writes-the-fibration-force", "cli.py",
           '"force_non_allowable": self.force,',
           '"force_non_allowable": self.fibration.force,',
           "test_cli.py"),
    mutant("table-without-empty-marker", "cli.py",
           '        if not grid or not grid[0]:\n            out.append("  (empty)")\n'
           "            return out\n",
           "",
           "test_cli.py"),
    # The report's fields, stated once by InvariantsReport.
    mutant("report-allowable-after-oracle-agrees", "fibration.py",
           "    allowable: bool\n    oracle_sigma: int\n    oracle_agrees: bool\n",
           "    oracle_sigma: int\n    oracle_agrees: bool\n    allowable: bool\n",
           "test_cli.py"),
    mutant("report-without-wall-entry", "cli.py",
           '        "wall": {\n            "w_dim": wc.w_dim,\n'
           '            "psi_matrix": _matrix_strings(wc.psi, "wall.psi_matrix"),\n'
           '            "correction_triple": wc.correction,\n        },\n',
           "",
           "test_cli.py"),
    # The word lists of the command line, each stated once.
    mutant("families-pair-y1-with-the-y2-closed-form", "cli.py",
           '"y1": (family_y1, expected_sigma_y1)',
           '"y1": (family_y1, expected_sigma_y2)',
           "test_cli.py"),
    mutant("curve-kinds-swapped", "cli.py",
           '{"encloses": CurveClass.enclosing, "class": CurveClass.explicit}',
           '{"encloses": CurveClass.explicit, "class": CurveClass.enclosing}',
           "test_cli.py"),
    mutant("cycle-library-message-without-field", "cli.py",
           'raise DocumentError(f"{field}: {e}")',
           "raise DocumentError(str(e))",
           "test_cli.py"),
    # Forward elimination (_eliminate and _clear).
    mutant("eliminate-buckets-a-row-at-the-limit", "linalg.py",
           "            if c < limit:",
           "            if c <= limit:",
           DENSE),
    mutant("eliminate-rebuckets-by-max", "linalg.py",
           "            c = min(row)",
           "            c = max(row)",
           DENSE),
    mutant("eliminate-drops-rows-past-the-limit", "linalg.py",
           "            else:\n                rest.append(row)",
           "            else:\n                pass",
           DENSE, "test_linalg.py"),
    mutant("eliminate-skips-the-second-row-of-a-bucket", "linalg.py",
           "        for row in bucket[1:]:",
           "        for row in bucket[2:]:",
           DENSE),
    mutant("eliminate-does-not-rebucket-a-cleared-row", "linalg.py",
           "            _clear(row, pivot, lead, row[c])\n            place(row)",
           "            _clear(row, pivot, lead, row[c])",
           DENSE),
    mutant("clear-does-not-scale-the-row", "linalg.py",
           "    if a != 1:\n        for j in row:",
           "    if False:\n        for j in row:",
           DENSE),
    mutant("clear-takes-no-content", "linalg.py",
           "            del row[j]\n    _divide_content(row)\n",
           "            del row[j]\n",
           DENSE, "test_cost.py"),
    mutant("content-division-skips-two", "linalg.py",
           "    if g > 1:\n        for j in row:\n            row[j] //= g",
           "    if g > 2:\n        for j in row:\n            row[j] //= g",
           DENSE),
    # Equivalent by design: any row of a bucket may be the pivot, and
    # an empty bucket map only ends the loop early.
    mutant("eliminate-takes-the-last-row-of-a-bucket", "linalg.py",
           "        pivot = bucket[0]\n        lead = pivot[c]\n        for row in bucket[1:]:",
           "        pivot = bucket[-1]\n        lead = pivot[c]\n        for row in bucket[:-1]:",
           DENSE, "test_linalg.py", expect="survived"),
    mutant("eliminate-no-early-exit", "linalg.py",
           "        if not buckets:\n            break",
           "        if not buckets:\n            pass",
           DENSE, "test_linalg.py", expect="survived"),
    # The singleton rule and back substitution of _rref.
    mutant("singleton-rule-no-content-after-deletion", "linalg.py",
           "                    _divide_content(row)\n                rest.append(row)",
           "                rest.append(row)",
           DENSE),
    mutant("singleton-rule-columns-not-deleted", "linalg.py",
           "                    for j in hit:\n                        del row[j]",
           "                    for j in hit:\n                        pass",
           DENSE),
    mutant("singleton-rule-merge-unsorted", "linalg.py",
           "        merged = sorted([*zip(pivots, rows), *((j, {j: 1}) for j in units)])",
           "        merged = [*zip(pivots, rows), *((j, {j: 1}) for j in units)]",
           DENSE),
    mutant("singleton-rule-unit-row-two", "linalg.py",
           "*((j, {j: 1}) for j in units)",
           "*((j, {j: 2}) for j in units)",
           DENSE),
    mutant("singleton-rule-takes-two-entry-rows", "linalg.py",
           "    units = {next(iter(row)) for row in work if len(row) == 1}",
           "    units = {next(iter(row)) for row in work if len(row) <= 2}",
           DENSE),
    mutant("rref-no-back-substitution", "linalg.py",
           "            _reduce(row, [(c, where[c]) for c in row if c != p and c in where])",
           "            pass",
           DENSE),
    mutant("rref-top-down-back-substitution", "linalg.py",
           "        for p, row in zip(pivots[-2::-1], rows[-2::-1]):",
           "        for p, row in zip(pivots, rows):",
           DENSE),
    mutant("rref-no-sign-flip", "linalg.py",
           "            if row[p] < 0:",
           "            if False:",
           DENSE),
    # Back substitution is skipped only when the pivot rows hold nothing
    # but the pivots, and then every row is {p: 1}.
    mutant("rref-shortcut-fires-on-ge", "linalg.py",
           "    if len(set().union(*rows)) == len(pivots):",
           "    if len(set().union(*rows)) >= len(pivots):",
           DENSE),
    mutant("rref-shortcut-rows-unreduced", "linalg.py",
           "        rows = [{p: 1} for p in pivots]",
           "        pass",
           DENSE),
    mutant("null-space-pins-nothing", "linalg.py",
           "    pinned = {next(iter(row)) for row in rows if len(row) == 1}",
           "    pinned = set()",
           DENSE),
    mutant("null-space-keeps-all-but-the-last-row", "linalg.py",
           "_solved_rows(columns, pivots, echelon), rows)",
           "_solved_rows(columns, pivots, echelon), rows[:-1])",
           DENSE),
    mutant("kernel-keeps-empty-rows", "linalg.py",
           "[row for row in self._primitive_rows() if row]",
           "self._primitive_rows()",
           DENSE),
    mutant("solved-rows-sign-flipped", "linalg.py",
           "            row[p] = -x * (scale // d)",
           "            row[p] = x * (scale // d)",
           DENSE),
    # The same output, from a tuple built from a generator: each call moves
    # a block between CPython's tuple free lists.
    mutant("solved-rows-lcm-from-generator", "linalg.py",
           "        scale = lcm(*[d for _, _, d in entries])",
           "        scale = lcm(*(d for _, _, d in entries))",
           "test_free_lists.py"),
    # The Fraction edge: vector and integer_row.
    mutant("vector-accepts-floats", "linalg.py",
           "            if isinstance(x, float):",
           "            if isinstance(x, complex):",
           DENSE, "test_linalg.py"),
    mutant("integer-row-first-denominator", "linalg.py",
           "    scale = lcm(*[row[j].denominator for j in columns])",
           "    scale = row[columns[0]].denominator if columns else 1",
           DENSE),
    # solve_many.
    mutant("solve-no-consistency-test", "linalg.py",
           "        if any(col in row for row in rest):",
           "        if False:",
           "test_linalg.py", DENSE),
    mutant("solve-b-not-over-the-denominator", "linalg.py",
           "            w[n + k] = y * den",
           "            w[n + k] = y",
           "test_linalg.py", DENSE),
    mutant("solve-earlier-numerators-not-rescaled", "linalg.py",
           "                    for q in num:\n                        num[q] *= f",
           "                    for q in num:\n                        pass",
           "test_linalg.py", DENSE),
    mutant("solve-denominator-not-grown", "linalg.py",
           "                    denominator *= f",
           "                    denominator *= 1",
           "test_linalg.py", DENSE),
    mutant("solve-sum-sign-flipped", "linalg.py",
           "                    total -= a * y",
           "                    total += a * y",
           "test_linalg.py", DENSE),
    # Subspaces and the quotient.
    mutant("quotient-no-containment-check", "linalg.py",
           "    if len(echelon) != numerator.dim:",
           "    if False:",
           "test_linalg.py"),
    mutant("quotient-new-rows-dropped", "linalg.py",
           "            echelon.append((min(rest), rest))",
           "            pass",
           "test_linalg.py", DENSE),
    mutant("subspace-eq-ignores-rows", "linalg.py",
           "            and self._pivots == other._pivots\n            and self._rows == other._rows\n",
           "            and self._pivots == other._pivots\n",
           "test_linalg.py", DENSE),
    mutant("meet-ignores-the-second-operand", "linalg.py",
           "        return _null_space(self._equations() + other._equations(), self.ambient_dim)",
           "        return _null_space(self._equations(), self.ambient_dim)",
           "test_linalg.py", DENSE),
    mutant("matrix-int-rows-keep-zeros", "linalg.py",
           "{j: row[j] for j in compress(range(n_cols), row)}",
           "{j: row[j] for j in range(n_cols)}",
           "test_linalg.py", DENSE),
    mutant("matrix-width-check-deleted", "linalg.py",
           "            if n_cols is not None and n_cols != width:",
           "            if False:",
           "test_linalg.py"),
    # Inertia (symmetric_signature).
    mutant("inertia-ignores-the-pivot-sign", "linalg.py",
           "                f *= sign\n",
           "",
           "test_linalg.py", DENSE),
    mutant("inertia-takes-no-content", "linalg.py",
           "        if content > 1:",
           "        if False:",
           "test_wall.py", "test_cost.py"),
    mutant("inertia-zero-diagonal-path-skipped", "linalg.py",
           "            if spot is None:\n                break",
           "            if True:\n                break",
           "test_linalg.py", DENSE),
    mutant("inertia-zero-diagonal-path-on-rows-only", "linalg.py",
           "            for r in range(k, n):\n                A[r][i] += A[r][j]",
           "            for r in range(k, n):\n                pass",
           "test_linalg.py", DENSE),
    # Equivalent by design: subtracting row and column j is a congruence
    # too, and also makes the (i, i) entry nonzero.
    mutant("inertia-zero-diagonal-subtracts", "linalg.py",
           "                A[i][c] += A[j][c]\n            for r in range(k, n):\n"
           "                A[r][i] += A[r][j]",
           "                A[i][c] -= A[j][c]\n            for r in range(k, n):\n"
           "                A[r][i] -= A[r][j]",
           "test_linalg.py", DENSE, "test_wall.py", expect="survived"),
    # The class of a curve: [i in S] - [0 in S] at coordinate i.
    mutant("class-vector-plus-holds-zero", "surfaces.py",
           "(i in enclosed) - holds_zero",
           "(i in enclosed) + holds_zero",
           "test_surfaces.py"),
    # Pairing and isotropy.
    mutant("pair-sign-flipped", "surfaces.py",
           "                    total -= a * b",
           "                    total += a * b",
           "test_surfaces.py", DENSE),
    mutant("isotropy-l-entries-not-negated", "surfaces.py",
           "(i + 1, a) if i % 2 == 0 else (i - 1, -a)",
           "(i + 1, a) if i % 2 == 0 else (i - 1, a)",
           DENSE, "test_wall.py"),
    mutant("isotropy-keeps-only-the-last-row", "surfaces.py",
           "                seen.setdefault(i, []).append((k, a))",
           "                seen[i] = [(k, a)]",
           DENSE, "test_wall.py"),
    # The Wall route.
    mutant("wall-defect-is-n-plus", "wall.py",
           "        defect=correction.signature,",
           "        defect=correction.n_plus,",
           DENSE),
    mutant("wall-b-parts-from-lplus", "wall.py",
           "            if k < l0.dim:\n                for j, x in l0._rows[k].items():",
           "            if k >= l0.dim:\n                for j, x in lp._rows[k - l0.dim].items():",
           "test_wall.py", DENSE),
    mutant("wall-b-part-entries-overwritten", "wall.py",
           "                    B[j] += c * x",
           "                    B[j] = c * x",
           "test_wall.py", DENSE),
    mutant("wall-psi-without-t-scale", "wall.py",
           "                row[k] = q * (S // s) * (T // st)",
           "                row[k] = q * (S // s)",
           "test_wall.py", DENSE),
    mutant("wall-denominator-without-lminus-meet-lplus", "wall.py",
           "    denominator = (lm & l0) + (lm & lp)",
           "    denominator = (lm & l0) + (lm & l0)",
           "test_wall.py", DENSE),
    mutant("wall-unsolvable-representative-passes", "wall.py",
           "        if sol is None:\n            raise RuntimeError(",
           "        if sol is None:\n            continue\n            raise RuntimeError(",
           "test_wall.py"),
    mutant("lplus-closed-form-minus-one-at-l-one", "wall.py",
           "        gen[space.l_index(0)] = -1",
           "        gen[space.l_index(1)] = -1",
           "test_wall.py"),
    mutant("cycle-vectors-no-length-check", "wall.py",
           "        if len(x) != r:",
           "        if False:",
           "test_wall.py"),
    mutant("cycle-vectors-let-bools-through", "wall.py",
           "        if set(map(type, x)) - {int}:",
           "        if set(map(type, x)) - {int, bool}:",
           "test_wall.py"),
    mutant("lplus-kernel-expects-r-plus-two", "wall.py",
           "    expected = bmap.space.r + 1",
           "    expected = bmap.space.r + 2",
           "test_wall.py"),
    # The closed-form span rank, and the fuzz battery.
    mutant("span-dim-one-too-large", "fibration.py",
           "        return self.cycle_matrix().rank()",
           "        return self.cycle_matrix().rank() + 1",
           "test_cli.py"),
    mutant("span-dim-one-too-large-with-fewer-cycles-than-r", "fibration.py",
           "            return RationalMatrix(self._vectors, n_cols=self.surface.r).rank()",
           "            return RationalMatrix(self._vectors, n_cols=self.surface.r).rank() + 1",
           "test_fibration.py"),
    mutant("cycle-matrix-r-columns", "fibration.py",
           "        return RationalMatrix(rows, n_cols=self.m)",
           "        return RationalMatrix(rows, n_cols=self.surface.r)",
           "test_fibration.py"),
    mutant("proper-subset-accepts-r-zero", "properties.py",
           "    if r < 1:\n        raise ValueError",
           "    if r < 0:\n        raise ValueError",
           "test_cli.py"),
]


def apply(tree: pathlib.Path, m: Mutant) -> None:
    path = tree / "planarsig" / m.module
    path.write_text(path.read_text().replace(m.old, m.new))


def check_table(mutants: list[Mutant]) -> list[str]:
    """The table's problems: a snippet that is not found exactly once,
    an unknown test file, a repeated name or an unknown expectation."""
    problems = []
    names = [m.name for m in mutants]
    for m in mutants:
        text = (ROOT / "src" / "planarsig" / m.module).read_text()
        count = text.count(m.old)
        if count != 1:
            problems.append(f"{m.name}: snippet found {count} times in {m.module}")
        for test in m.tests:
            if not (TESTS / test).is_file():
                problems.append(f"{m.name}: no test file {test}")
        if names.count(m.name) > 1:
            problems.append(f"{m.name}: name used twice")
        if m.expect not in ("killed", "survived"):
            problems.append(f"{m.name}: unknown expectation {m.expect!r}")
    return problems


def run_tests(tree: pathlib.Path, tests) -> tuple[str, float, str]:
    """Run the test files against the package in ``tree``; returns the
    outcome, the seconds taken and the tail of pytest's output.  pytest
    runs in ``tree``, so what the tests write there (a Hypothesis
    database) goes with it."""
    env = dict(os.environ, PYTHONPATH=str(tree), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *(str(TESTS / test) for test in tests)]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start, ""
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    tail = "\n".join(proc.stdout.decode(errors="replace").splitlines()[-15:])
    return outcome, time.monotonic() - start, tail


def fresh_copy(workdir: pathlib.Path, name: str) -> pathlib.Path:
    tree = workdir / name
    shutil.copytree(ROOT / "src", tree, ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def main() -> int:
    problems = check_table(MUTANTS)
    if problems:
        for problem in problems:
            print(f"table error: {problem}")
        return 1

    unexpected = []
    with tempfile.TemporaryDirectory(prefix="planarsig-mutants-") as workdir:
        workdir = pathlib.Path(workdir)
        tests = sorted({test for m in MUTANTS for test in m.tests})
        outcome, seconds, tail = run_tests(fresh_copy(workdir, "unmutated"), tests)
        if outcome != "survived":
            print(f"{outcome}: the {len(tests)} test files must pass on the unmutated copy "
                  f"before a mutant can be judged\n{tail}")
            return 1
        print(f"the {len(tests)} test files pass on the unmutated copy ({seconds:.1f} s)")
        for index, m in enumerate(MUTANTS):
            tree = fresh_copy(workdir, f"mutant{index}")
            apply(tree, m)
            outcome, seconds, tail = run_tests(tree, m.tests)
            shutil.rmtree(tree)
            if outcome == m.expect:
                print(f"{outcome:9} {m.name} ({seconds:.1f} s)", flush=True)
            else:
                unexpected.append(m.name)
                print(f"{outcome:9} {m.name} ({seconds:.1f} s)  UNEXPECTED, expected "
                      f"{m.expect}\n{tail}", flush=True)
    equivalent = sum(m.expect == "survived" for m in MUTANTS)
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - equivalent} expected killed and "
          f"{equivalent} expected to survive (equivalent); "
          f"{len(unexpected)} unexpected outcomes"
          + (f": {', '.join(unexpected)}" if unexpected else ""))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
