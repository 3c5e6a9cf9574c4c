"""Coefficient growth of the integer elimination, row by row.

Bareiss (1968): in fraction-free elimination every entry is a minor of
the input.  A row that ``_clear`` leaves nonzero lies in the span of
the input rows it was combined with, and is zero at the pivots of the
rows it was cleared by; so it is a multiple of the vector of maximal
minors of those input rows, taken at those pivot columns and one more
column.  ``_clear`` divides out the content, so the row's largest entry
is at most the largest minor, and by Hadamard's bound at most the
product of the Euclidean norms of the input rows it combines.  That
holds for every row the forward pass clears, and for a pivot row once
back substitution has cleared it at each later pivot; the rows between
two clears of back substitution are checked as well, and keep to the
bound on the inputs below.

The test wraps ``linalg._eliminate`` and ``linalg._clear``, both looked
up at call time: each input row of an elimination is tagged with its
own index, and each clear gives the row the union of its tags and the
pivot's.  After every clear the row's largest entry must have no more
bits than the bound of its tagged input rows allows.  Rows that carry
no tag (the vectors that ``in`` and ``quotient_basis`` reduce) are
skipped.
"""

import math
import pathlib
import random

import pytest

from planarsig import linalg
from planarsig.cli import load_document
from planarsig.properties import random_fibration

GOLDEN = pathlib.Path(__file__).parent / "golden"


def checked_rows(monkeypatch, run) -> int:
    """Call ``run()`` with both functions wrapped, assert the bound after
    every clear of a tagged row, and return the number of rows checked."""
    eliminate, clear = linalg._eliminate, linalg._clear
    # id(row) -> (row, the half log2 squared norms of its elimination's
    # input rows, the bit mask of its tags).  The row itself is kept, so
    # no id is reused while the test runs.
    tags = {}
    checked = 0

    def tagging_eliminate(work, limit):
        logs = [math.log2(sum(x * x for x in row.values())) / 2 if row else 0.0
                for row in work]
        for i, row in enumerate(work):
            tags[id(row)] = (row, logs, 1 << i)
        return eliminate(work, limit)

    def checking_clear(row, pivot, lead, f):
        nonlocal checked
        clear(row, pivot, lead, f)
        mine, theirs = tags.get(id(row)), tags.get(id(pivot))
        if mine is None or theirs is None:
            return
        _, logs, mask = mine
        assert theirs[1] is logs, "a row cleared by a pivot of another elimination"
        mask |= theirs[2]
        tags[id(row)] = (row, logs, mask)
        if row:
            bits = max(map(abs, row.values())).bit_length()
            bound = math.floor(sum(x for i, x in enumerate(logs) if mask >> i & 1) + 1e-6) + 1
            assert bits <= bound, (
                f"row of {bits} bits over a bound of {bound} bits "
                f"from {mask.bit_count()} input rows"
            )
            checked += 1

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_eliminate", tagging_eliminate)
        patch.setattr(linalg, "_clear", checking_clear)
        run()
    return checked


def test_cleared_rows_stay_within_the_hadamard_bound_on_random_draws(monkeypatch):
    """200 draws of the acceptance corpus's random shape, r <= 6 and
    m <= 25: 2,665 rows checked, some with no bit to spare.  Without the
    content division an early draw fails: 13 bits against 12 over 4
    input rows."""
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        checked += checked_rows(monkeypatch, random_fibration(rng, 6, 25).betti_report)
    assert checked


@pytest.mark.parametrize("name", ["large_r16_m80", "wide_r32_m2", "scale_r40_m200"])
def test_cleared_rows_stay_within_the_hadamard_bound_on_golden_documents(monkeypatch, name):
    """The report of each document keeps to the bound: 318, 51 and 2,067
    rows checked, with 0, 1 and 0 bits to spare.  Without the content
    division the (16, 80) report fails (53 bits against 52) and the
    (40, 200) one too (112 against 96); the (32, 2) one still passes."""
    fib = load_document((GOLDEN / f"{name}.json").read_text()).fibration
    assert checked_rows(monkeypatch, fib.betti_report)
