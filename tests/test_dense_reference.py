"""The exact kernels skip zero entries; the dense references in
``oracles`` do not.  Both must give the same values on seeded sparse
and dense matrices, integer and rational, up to 40 x 80."""

import random
from fractions import Fraction

import pytest

from planarsig.linalg import (
    RationalMatrix,
    Subspace,
    _echelonize,
    quotient_basis,
    solve_many,
    symmetric_signature,
)
from planarsig.surfaces import TorusBoundarySpace

from oracles import (
    echelonize_dense,
    inertia_dense,
    kernel_dense,
    pair_dense,
    rref_dense,
    solve_dense,
)

DENSITIES = (0.1, 0.3, 1.0)


def random_entry(rng, density, rational):
    if rng.random() >= density:
        return Fraction(0)
    num = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    return Fraction(num, rng.randint(1, 4)) if rational else Fraction(num)


def random_grid(rng, n_rows, n_cols, density, rational):
    """A seeded grid whose last third of rows are sums of two earlier
    rows, so that kernels, inconsistent systems and dependent
    generators all occur."""
    free = n_rows - n_rows // 3
    grid = [
        [random_entry(rng, density, rational) for _ in range(n_cols)]
        for _ in range(free)
    ]
    while len(grid) < n_rows:
        a, b = rng.sample(range(free), 2)
        grid.append([x + y for x, y in zip(grid[a], grid[b])])
    rng.shuffle(grid)
    return grid


def cases(shapes):
    return [
        (shape, density, rational)
        for shape in shapes
        for density in DENSITIES
        for rational in (False, True)
    ]


# Every check runs up to 24 x 48; the canonical basis and the rank,
# which every other routine builds on, also at 40 x 80.
CASES = cases(((6, 9), (17, 11), (24, 48)))
LARGE_CASES = cases(((40, 80),))


def case_id(case):
    (n_rows, n_cols), density, rational = case
    return f"{n_rows}x{n_cols}-{density}-{'rational' if rational else 'integer'}"


def case_grid(case):
    (n_rows, n_cols), density, rational = case
    rng = random.Random((CASES + LARGE_CASES).index(case))
    return random_grid(rng, n_rows, n_cols, density, rational)


@pytest.fixture(params=CASES, ids=case_id)
def grid(request):
    return case_grid(request.param)


def test_echelonize_matches_dense(grid):
    n_cols = len(grid[0])
    for reduced, limit in ((True, None), (False, None), (True, n_cols // 2)):
        ours = [list(row) for row in grid]
        ref = [list(row) for row in grid]
        assert _echelonize(ours, reduced, limit) == echelonize_dense(ref, reduced, limit)
        assert ours == ref


@pytest.mark.parametrize("case", CASES + LARGE_CASES, ids=case_id)
def test_canonical_basis_and_rank_match_dense(case):
    grid = case_grid(case)
    basis = rref_dense(grid)
    assert Subspace(len(grid[0]), grid).columns() == tuple(basis)
    assert RationalMatrix(grid).rank() == len(basis)


def test_kernel_and_solve_match_dense(grid):
    M = RationalMatrix(grid)
    n_cols = M.n_cols
    assert M.kernel().columns() == tuple(kernel_dense(grid, n_cols))

    rng = random.Random(len(grid) * n_cols)
    consistent = M.apply([rng.randint(-3, 3) for _ in range(n_cols)])
    arbitrary = [Fraction(rng.randint(-3, 3)) for _ in range(M.n_rows)]
    rhs = [consistent, arbitrary, [0] * M.n_rows]
    assert solve_many(M, rhs) == solve_dense(grid, n_cols, rhs)


def test_apply_contains_and_quotient_match_dense(grid):
    M = RationalMatrix(grid)
    rng = random.Random(len(grid))
    x = [random_entry(rng, 0.3, True) for _ in range(M.n_cols)]
    image = M.apply(x)
    assert image == tuple(sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in grid)
    assert all(type(e) is Fraction for e in image)

    span = Subspace(M.n_cols, grid)
    basis = list(span.columns())
    for v in (grid[0], x, [a + b for a, b in zip(grid[0], grid[-1])]):
        assert span.contains(v) == (len(rref_dense(basis + [v])) == span.dim)

    # Leftmost pivots of [half | span] pick the span columns that
    # enlarge the half's span, in order.
    half = Subspace(M.n_cols, grid[: len(grid) // 2])
    stacked = [list(h) + list(c) for h, c in zip(half.basis.to_rows(), span.basis.to_rows())]
    pivots = echelonize_dense(stacked) if stacked else []
    expected = [basis[p - half.dim] for p in pivots if p >= half.dim]
    assert quotient_basis(span, half) == expected


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("rational", (False, True))
def test_symmetric_signature_matches_dense(density, rational):
    rng = random.Random(int(density * 10) + 100 * rational)
    for n in (1, 4, 9, 16):
        for _ in range(4):
            A = [[random_entry(rng, density, rational) for _ in range(n)] for _ in range(n)]
            S = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
            if rng.random() < 0.5:
                for i in range(n):
                    S[i][i] = Fraction(0)  # forces the 2x2 pivot trick
            got = symmetric_signature(RationalMatrix(S)).as_tuple()
            assert got == inertia_dense(S)


@pytest.mark.parametrize("density", DENSITIES)
def test_pair_matches_dense_formula(density):
    rng = random.Random(int(density * 10))
    for r in (0, 1, 5, 32):
        z = TorusBoundarySpace(r)
        for rational in (False, True):
            for _ in range(10):
                u = [random_entry(rng, density, rational) for _ in range(z.dim)]
                v = [random_entry(rng, density, rational) for _ in range(z.dim)]
                got = z.pair(u, v)
                assert got == pair_dense(u, v)
                assert type(got) is Fraction


def test_pair_returns_fraction_for_ints():
    z = TorusBoundarySpace(1)
    assert type(z.pair([0, 0, 0, 0], [1, 2, 3, 4])) is Fraction
    got = z.pair([1, 0, 0, 0], [0, 2, 0, 0])
    assert got == 2 and type(got) is Fraction


@pytest.mark.parametrize(
    "u, v",
    [
        ([1.0, 0, 0, 0], [0, 1, 0, 0]),
        ([1, 0, 0, 0], [0, 1.5, 0, 0]),
        ([0.0, 0, 0, 0], [0, 1, 0, 0]),  # a float that no product uses
        ([1, 0, 0, 0], [0, 1, 0, 0.0]),
    ],
)
def test_pair_refuses_floats(u, v):
    with pytest.raises(TypeError):
        TorusBoundarySpace(1).pair(u, v)
