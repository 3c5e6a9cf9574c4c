"""In-process commands must leave CPython's tuple free lists balanced.

``main`` keeps one parser per process, so a run of commands makes no
cyclic garbage and no full collection, the only thing that empties
CPython's free lists, may run for a long time.  A tuple built from a
generator is taken from the 10-slot free list and freed into the list of
its final size, so code that does this on every op moves blocks from
list to list, and the process holds more memory op by op (up to 2,000
blocks per size).  Here about 300 ops run with the collector off, and
the blocks the process holds may grow by less than ``BOUND``.

Measured for 200 fuzz-small and 100 compute-wide ops on Python 3.10 to
3.13: +87 to +619 blocks with the report path building its star-args
from lists; +4,498 to +4,996 with one ``lcm(*genexpr)`` back in
``_solved_rows``; +6,421 to +6,860 with every such tuple built from a
generator.  On 3.11 and 3.12 most of what is left is freed 20-item
tuples, which those versions keep on their free list but never reuse.
"""

import contextlib
import gc
import io
import json
import random
import sys

from planarsig.cli import main

BOUND = 2_000


def compute_wide_document(rng: random.Random) -> str:
    """r = 32 and two cycles, each around a random nonempty proper
    subset of the 33 boundary circles."""
    cycles = []
    while len(cycles) < 2:
        enclosed = [i for i in range(33) if rng.random() < 0.5]
        if enclosed and len(enclosed) < 33:
            cycles.append({"encloses": enclosed})
    return json.dumps({"boundary_components": 33, "vanishing_cycles": cycles})


def run(argv, document=""):
    saved = sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    finally:
        sys.stdin = saved


def fuzz_small(seed: int) -> list[str]:
    return ["fuzz", "--seed", str(seed), "--count", "2", "--max-r", "6", "--max-m", "25"]


def test_commands_keep_the_tuple_free_lists_balanced():
    documents = [compute_wide_document(random.Random(i)) for i in range(120)]
    gc.collect()
    gc.disable()
    try:
        # Warm up with the collector off, so that the free lists fill to
        # what one op needs before the count starts.
        for seed in range(200, 220):
            run(fuzz_small(seed))
        for document in documents[100:]:
            run(["compute", "-"], document)
        before = sys.getallocatedblocks()
        for seed in range(200):
            run(fuzz_small(seed))
        for document in documents[:100]:
            run(["compute", "-"], document)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < BOUND
