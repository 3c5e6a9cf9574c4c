"""Host-independent cost ceilings: the calls to ``gcd`` that a command
makes, and the summed bit length of their arguments.

Every elimination, content division and inertia step of the package
calls ``planarsig.linalg.gcd``, looked up at call time, so a wrapper
set on that module attribute sees every call.  The counts depend only
on the input, not on the host or its clock, so a change that makes the
arithmetic do more work, or work on larger integers, shows here as a
number above its ceiling.  A change that lowers a count may lower its
ceiling; one that raises a count says why.

Run as a script, it prints the two counts of one command line, for
reports too slow for tier-1:

    PYTHONPATH=src python tests/test_cost.py compute tests/golden/scale_r80_m400.json
"""

import contextlib
import io
import math
import pathlib
import sys

import pytest

from planarsig import cli, linalg

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = "tests/golden"


def gcd_cost(monkeypatch, argv: list[str]) -> tuple[int, int]:
    """Run ``planarsig`` on ``argv`` from the repository root, its
    output discarded, and return the number of ``gcd`` calls and the
    summed bit length of their arguments.  The command must exit 0."""
    cost = [0, 0]

    def counting_gcd(*args):
        cost[0] += 1
        cost[1] += sum(abs(x).bit_length() for x in args)
        return math.gcd(*args)

    monkeypatch.setattr(linalg, "gcd", counting_gcd)
    monkeypatch.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return cost[0], cost[1]


@pytest.mark.parametrize(
    "argv, calls, bits",
    [
        (["compute", f"{GOLDEN}/large_r16_m80.json"], 1_965, 355_760),
        (["compute", f"{GOLDEN}/wide_r32_m2.json"], 1_072, 3_133),
        (["compute", f"{GOLDEN}/scale_r40_m200.json"], 11_271, 14_397_411),
        (["fuzz", "--seed", "1", "--count", "2", "--max-r", "6", "--max-m", "25"], 217, 1_043),
        (["examples", "--family", "y2", "--r", "7"], 510, 3_252),
    ],
    ids=["compute-large", "compute-wide", "compute-r40-m200", "fuzz-small", "examples-y2-r7"],
)
def test_gcd_cost_within_ceiling(monkeypatch, argv, calls, bits):
    got_calls, got_bits = gcd_cost(monkeypatch, argv)
    assert got_calls <= calls
    assert got_bits <= bits


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        print(*gcd_cost(patch, sys.argv[1:]))
