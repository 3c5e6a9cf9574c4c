"""Record the reference stdout digest of every op in a workload's pool.

Run from the root of a checkout, at a commit whose output is known good:

    python3 benchmarks/record_reference.py --workload compute-large

Each op must exit 0 with a passing verdict (``oracle_agrees`` for
``compute``, ``ok`` for ``fuzz``); the leading hex digits of the sha256
of its stdout go to ``reference/<workload>.txt``, one line per pool
entry.  ``run.py`` counts an op whose stdout digest differs as failed,
which holds the package to byte-identical output.  Record again only
when a change to the output is intended.
"""

from __future__ import annotations

import argparse
import sys

from workloads import WORKLOADS, check_output, digest, import_cli, run_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append", required=True)
    args = parser.parse_args(argv)
    cli = import_cli()
    for name in args.workload:
        workload = WORKLOADS[name]
        digests = []
        for index in range(workload.pool_size):
            op = workload.op(index)
            code, stdout, stderr = run_op(cli, op)
            problem = check_output(op, code, stdout, stderr, reference=None)
            if problem:
                print(f"error: {name} op {index}: {problem}", file=sys.stderr)
                return 1
            digests.append(digest(stdout))
        path = workload.reference_path()
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(d + "\n" for d in digests), encoding="ascii")
        print(f"{name}: {len(digests)} digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
