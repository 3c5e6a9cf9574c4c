"""The mutant table of ``tests/mutation.py`` matches the code.

The gate runs every mutant and takes minutes, so it stays out of this
suite; its table check is fast.  Every snippet must occur exactly once
in its module, so an edit that a snippet no longer matches fails here
within seconds, not only when the gate next runs.
"""

from mutation import MUTANTS, check_table


def test_every_mutant_snippet_occurs_once_in_its_module():
    assert check_table(MUTANTS) == []
