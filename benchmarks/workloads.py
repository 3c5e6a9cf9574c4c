"""Seeded workloads of the planarsig benchmark and the check of each op.

An op is one call of the public entry point ``planarsig.cli.main`` with
its stdin and stdout replaced by in-memory buffers, so it does exactly
what one ``planarsig compute`` or ``planarsig fuzz`` invocation does,
minus interpreter start.

Each workload draws its ops from a fixed pool of inputs.  The run seed
only chooses the order in which a run visits the pool, so the reference
digest of every op the benchmark can run is recorded once, in
``reference/<workload>.txt`` (see ``record_reference.py``).  The pools
are sized to hold every op of a 35 s run even if the program becomes
about six times faster than at the commit that recorded them; past
that a run wraps round its pool and repeats inputs, and says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

DIGEST_CHARS = 16  # leading hex digits of the sha256 kept in the reference
ORDER_BLOCK = 16  # pool entries that a run seed shuffles among themselves


def import_cli():
    """Import ``planarsig.cli`` from the checkout's ``src`` directory.

    Raises ``ImportError`` when the checkout holds no package, so that
    the benchmark fails instead of measuring some other installed copy.
    """
    if not (SRC / "planarsig" / "cli.py").is_file():
        raise ImportError(f"no planarsig package under {SRC}")
    sys.path.insert(0, str(SRC))
    from planarsig import cli

    if Path(cli.__file__).resolve().parent != SRC / "planarsig":
        raise ImportError(f"planarsig was imported from {cli.__file__}, not {SRC}")
    return cli


def fibration_document(rng: random.Random, r: int, m: int) -> str:
    """A compute document: r + 1 boundary circles, m cycles, each around a
    random nonempty proper subset of the circles."""
    cycles = []
    for _ in range(m):
        while True:
            enclosed = [i for i in range(r + 1) if rng.random() < 0.5]
            if enclosed and len(enclosed) <= r:
                break
        cycles.append({"encloses": enclosed})
    return json.dumps({"boundary_components": r + 1, "vanishing_cycles": cycles})


@dataclass(frozen=True)
class Op:
    index: int  # position in the workload's pool
    argv: tuple[str, ...]
    stdin: str


@dataclass(frozen=True)
class Workload:
    name: str
    size: str  # the stated input size
    pool_size: int
    trace_ops: int  # ops in one pass of the traced run
    make: Callable[[int], tuple[tuple[str, ...], str]]

    def op(self, index: int) -> Op:
        argv, stdin = self.make(index)
        return Op(index, argv, stdin)

    def order(self, seed: int) -> list[int]:
        """The run's visiting order of the pool; the last entry is the
        untimed warm-up op.

        The seed shuffles each stretch of ``ORDER_BLOCK`` consecutive pool
        entries, and the blocks keep their pool order.  So a run of any
        seed covers nearly the same inputs, and the spread between runs
        measures the machine and the program rather than the input mix,
        which matters for fuzz ops, whose costs vary widely.
        """
        rng = random.Random(seed)
        order = []
        for start in range(0, self.pool_size, ORDER_BLOCK):
            block = list(range(start, min(start + ORDER_BLOCK, self.pool_size)))
            rng.shuffle(block)
            order.extend(block)
        return order

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.txt"

    def load_reference(self) -> list[str]:
        digests = self.reference_path().read_text(encoding="ascii").split()
        if len(digests) != self.pool_size:
            raise ValueError(
                f"{self.reference_path()} holds {len(digests)} digests, "
                f"expected {self.pool_size}"
            )
        return digests


FUZZ_SMALL = Workload(
    name="fuzz-small",
    size="fuzz --count 2 --max-r 6 --max-m 25 per op",
    pool_size=3072,
    trace_ops=32,
    make=lambda i: (
        ("fuzz", "--seed", str(i), "--count", "2", "--max-r", "6", "--max-m", "25"),
        "",
    ),
)

COMPUTE_LARGE = Workload(
    name="compute-large",
    size="compute, r = 16, m = 80",
    pool_size=512,
    trace_ops=4,
    make=lambda i: (("compute", "-"), fibration_document(random.Random(10_000 + i), 16, 80)),
)

COMPUTE_WIDE = Workload(
    name="compute-wide",
    size="compute, r = 32, m = 2",
    pool_size=256,
    trace_ops=2,
    make=lambda i: (("compute", "-"), fibration_document(random.Random(20_000 + i), 32, 2)),
)

WORKLOADS = {w.name: w for w in (FUZZ_SMALL, COMPUTE_LARGE, COMPUTE_WIDE)}


def run_op(cli, op: Op) -> tuple[int, str, str]:
    """Run one op in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def check_output(op: Op, code: int, stdout: str, stderr: str, reference: str | None) -> str:
    """Why the op's result is wrong, or "" when it is right.

    With ``reference`` None only the report's own verdict is checked;
    that is how the reference itself gets recorded.
    """
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:200]}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON document"
    if op.argv[0] == "compute" and report.get("oracle_agrees") is not True:
        return "oracle_agrees is not true"
    if op.argv[0] == "fuzz" and report.get("ok") is not True:
        return "fuzz summary ok is not true"
    if reference is not None and digest(stdout) != reference:
        return f"stdout digest {digest(stdout)} differs from reference {reference}"
    return ""
