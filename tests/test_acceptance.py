"""Acceptance suite: the package's exit criteria.

Each test covers one criterion at exact (integer / rational) tolerance
and prints a PASS line on success; run with ``pytest -v`` (or ``-s``)
to see one line per criterion.  Over the shared corpus the criteria are
the eleven checks of ``planarsig.properties.check_fibration``, the
battery that ``fuzz`` runs, each asserted by name wherever it applies.
The corpus sweeps every fibration with fiber parameter r <= 3 and at
most 4 cycles drawn from all nonempty proper enclosed sets (as
unordered multisets; the battery's order check permutes them), plus
1000 seeded random instances with r <= 6 and up to 25 cycles.
"""

import random
from itertools import combinations, combinations_with_replacement

import pytest

from planarsig.fibration import (
    PlanarFibration,
    expected_sigma_y1,
    expected_sigma_y2,
    family_y1,
    family_y2,
)
from planarsig.linalg import RationalMatrix, symmetric_signature
from planarsig.properties import check_fibration, random_proper_subset
from planarsig.surfaces import CurveClass, PlanarSurface

from test_linalg import product

CORPUS_SEED = 20170801
RANDOM_INSTANCES = 1000
MATRIX_TRIALS = 500

# Where a battery check runs; every check not listed runs always.
APPLIES = {
    "order-invariance": lambda f: f.m > 0,
    "sign-invariance": lambda f: f.m > 0,
    "append-subadditivity": lambda f: f.surface.r >= 1,
}


def _exhaustive_fibrations():
    yield PlanarFibration(PlanarSurface(0), [])
    for r in range(1, 4):
        subsets = [
            frozenset(c)
            for k in range(1, r + 1)
            for c in combinations(range(r + 1), k)
        ]
        surface = PlanarSurface(r)
        for m in range(5):
            for combo in combinations_with_replacement(subsets, m):
                yield PlanarFibration(
                    surface, [CurveClass.enclosing(s) for s in combo]
                )


def _random_fibrations(count):
    rng = random.Random(CORPUS_SEED)
    for _ in range(count):
        r = rng.randint(1, 6)
        m = rng.randint(0, 25)
        yield PlanarFibration(
            PlanarSurface(r),
            [CurveClass.enclosing(random_proper_subset(rng, r)) for _ in range(m)],
        )


@pytest.fixture(scope="session")
def corpus():
    """Each fibration with its battery results, by check name."""
    fibrations = list(_exhaustive_fibrations())
    assert len(fibrations) >= 3000
    fibrations.extend(_random_fibrations(RANDOM_INSTANCES))
    rng = random.Random(CORPUS_SEED + 2)
    return [(f, {c.name: c for c in check_fibration(f, rng)}) for f in fibrations]


def assert_passed(corpus, *names):
    """Each named check ran exactly where it applies, so none is skipped
    unseen, and passed there."""
    for f, checks in corpus:
        for name in names:
            ran = name in checks
            assert ran == APPLIES.get(name, lambda f: True)(f), f"{name} ran: {ran}, on {f}"
            assert not ran or checks[name].passed, f"{name}: {checks[name].detail} on {f}"


def test_pair_family_signatures_both_paths():
    expected = {2: 0, 3: -2, 4: -5, 5: -9, 6: -14, 7: -20, 8: -27}
    for r, sigma in expected.items():
        f = family_y1(r)
        assert f.signature_from_cycle_span() == sigma == expected_sigma_y1(r)
        assert f.betti_report().oracle_sigma == sigma
    print("PASS: family y1 signatures match -(r-2)(r+1)/2 for r = 2..8, both paths")


def test_parallel_family_signatures_both_paths():
    expected = {2: -1, 3: -5, 4: -11, 5: -19, 6: -29, 7: -41, 8: -55}
    for r, sigma in expected.items():
        f = family_y2(r)
        assert f.signature_from_cycle_span() == sigma == expected_sigma_y2(r)
        assert f.betti_report().oracle_sigma == sigma
    print("PASS: family y2 signatures match -r^2+r+1 for r = 2..8, both paths")


def test_oracle_equivalence_over_corpus(corpus):
    assert_passed(corpus, "span-formula-vs-wall-oracle")
    print(
        f"PASS: span formula and gluing oracle agree on all {len(corpus)} "
        "corpus instances"
    )


def test_correction_form_positive_definite(corpus):
    assert_passed(corpus, "correction-positive-definite")
    print(
        "PASS: induced correction form is positive definite "
        f"(inertia (w_dim, 0, 0)) on all {len(corpus)} instances"
    )


def test_quotient_dimension_equals_cycle_span(corpus):
    assert_passed(corpus, "quotient-dim-equals-cycle-span")
    print(
        "PASS: quotient dimension equals the rank of the cycle matrix "
        f"on all {len(corpus)} instances"
    )


def test_cycle_matrix_holds_the_class_vectors_as_columns(corpus):
    for f, _ in corpus:
        columns = RationalMatrix(f.class_vectors(), n_cols=f.surface.r)
        assert f.cycle_matrix() == columns.transpose()
        assert f.cycle_span_dim() == columns.rank()
    print(
        "PASS: the cycle matrix holds the class vectors as columns, and the "
        f"span rank is its rank, on all {len(corpus)} instances"
    )


def test_closed_form_kernel_consistency(corpus):
    assert_passed(corpus, "lplus-closed-form-vs-kernel")
    print(
        "PASS: closed-form generators span exactly the boundary-map kernel "
        f"on all {len(corpus)} instances"
    )


def test_betti_and_definiteness_identities(corpus):
    # sigma-nonpositive catches a span dimension d > m, where b2 < 0.
    names = "betti-signature-identity", "form-never-indefinite", "sigma-nonpositive"
    assert_passed(corpus, *names)
    print(
        "PASS: sigma = -m + r - b1 and intersection form (0, b2, 0), never "
        f"indefinite, on all {len(corpus)} instances"
    )


def test_remaining_battery_checks_over_corpus(corpus):
    assert_passed(corpus, "gram-psd-of-span-rank", "order-invariance")
    assert_passed(corpus, "sign-invariance", "append-subadditivity")
    print(
        "PASS: Gram inertia (d, 0, r - d), order and sign invariance of the "
        f"boundary map, and append subadditivity on all {len(corpus)} instances"
    )


def test_families_share_boundary_map_but_not_signature():
    for r in range(2, 7):
        assert family_y1(r).boundary_map() == family_y2(r).boundary_map()
    for r in range(2, 9):
        a = family_y1(r).signature_from_cycle_span()
        b = family_y2(r).signature_from_cycle_span()
        assert a != b
        if r == 2:
            assert (a, b) == (0, -1)
    print(
        "PASS: families y1 and y2 have identical boundary maps for r = 2..6 "
        "and different signatures for every r = 2..8"
    )


def test_linear_algebra_substrate():
    rng = random.Random(CORPUS_SEED + 1)
    for _ in range(MATRIX_TRIALS):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        M = RationalMatrix(
            [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)]
        )
        assert M.rank() == product(M, M.transpose()).rank()

        n = rng.randint(1, 5)
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = rng.randint(-4, 4)
        S = RationalMatrix(grid)
        while True:
            P = RationalMatrix(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            if P.rank() == n:
                break
        congruent = product(product(P.transpose(), S), P)
        assert symmetric_signature(congruent) == symmetric_signature(S)
    print(
        f"PASS: rank(M) = rank(M M^T) and congruence-invariant inertia over "
        f"{MATRIX_TRIALS} seeded random matrices"
    )
