"""The exact kernels skip zero entries, eliminate on integer rows, and
read kernels and intersections off a single elimination; the dense
references in ``oracles`` do none of that.  Both must give the same
values on seeded sparse and dense matrices, integer and rational, up to
40 x 80, and on inputs whose denominators reach about 10^12."""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from planarsig.linalg import (
    RationalMatrix,
    Subspace,
    _eliminate,
    _primitive,
    quotient_basis,
    solve_many,
    symmetric_signature,
    vector,
)
from planarsig.cli import load_document
from planarsig.properties import random_fibration
from planarsig.surfaces import TorusBoundarySpace
from planarsig.wall import WallTriple, mapping_torus_boundary_map, wall_correction

from oracles import (
    echelonize_dense,
    inertia_dense,
    kernel_dense,
    meet_dense,
    pair_dense,
    psi_dense,
    rref_dense,
    solve_dense,
)
from test_linalg import rows_of, times

GOLDEN = pathlib.Path(__file__).parent / "golden"

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


# Every check runs up to 24 x 48; the canonical basis, the rank and the
# kernel, which every other routine builds on, also at 40 x 80.
CASES = cases(((6, 9), (17, 11), (24, 48)))
LARGE_CASES = cases(((40, 80),))


# Grids that steer the pivot search of ``_eliminate`` through each of
# its cases, with and without a pivot limit of half the columns: the
# pivot found below ``rank``, so the row at ``rank`` moves down to the
# pivot's place; that row waiting for a later column, next to a row its
# move passes, or moving again at the next column; that row already
# cleared to zero; the row at ``rank`` holding the column itself, so it
# is the pivot and the rows below are cleared; rows cleared to zero;
# rows that start or end up with their lowest column past the limit.
BUCKET_GRIDS = {
    "moved-row-waits": [
        [0, 0, 3, 0, 1, 0, 0, 2],
        [0, 0, 0, 0, 0, 5, 1, 0],
        [2, 1, 0, 0, 0, 0, 0, 1],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [4, 2, 0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [2, 1, 0, 0, 0, 0, 0, 1],
    ],
    "moved-row-passes-its-bucket": [
        [0, 1, 0, 0, 2, 0],
        [0, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
    ],
    "moved-row-moves-again": [
        [0, 0, 0, 2, 1, 0, 0, 0],
        [3, 0, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0],
        [0, 0, 5, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 2, 1],
    ],
    "moved-row-is-zero": [
        [1, 1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 2, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 3, 2],
        [0, 0, 0, 0, 0, Fraction(1, 2)],
    ],
}


def case_id(case):
    if case in BUCKET_GRIDS:
        return case
    (n_rows, n_cols), density, rational = case
    return f"{n_rows}x{n_cols}-{density}-{'rational' if rational else 'integer'}"


def case_grid(case):
    if case in BUCKET_GRIDS:
        return [[Fraction(x) for x in row] for row in BUCKET_GRIDS[case]]
    (n_rows, n_cols), density, rational = case
    rng = random.Random((CASES + LARGE_CASES).index(case))
    return random_grid(rng, n_rows, n_cols, density, rational)


@pytest.fixture(params=CASES + list(BUCKET_GRIDS), ids=case_id)
def grid(request):
    return case_grid(request.param)


def check_eliminate(grid, reduced, limit):
    """``_eliminate`` on the primitive integer rows of ``grid`` against
    ``echelonize_dense`` on its Fractions: the same pivots, each pivot
    row over its lead equal to the dense row, and each row left without
    a pivot a nonzero multiple of the dense row (both zero without a
    pivot limit)."""
    n_cols = len(grid[0])
    work = [_primitive(row) for row in grid]
    ref = [list(row) for row in grid]
    pivots = _eliminate(work, n_cols if limit is None else limit, reduced)
    assert pivots == echelonize_dense(ref, reduced, limit)
    for i, (row, dense) in enumerate(zip(work, ref)):
        if i < len(pivots):
            lead = row[pivots[i]]
            assert [Fraction(row.get(j, 0), lead) for j in range(n_cols)] == dense
        elif not row:
            assert not any(dense)
        else:
            first = min(row)
            c = dense[first] / row[first]
            assert c != 0
            assert [c * row.get(j, 0) for j in range(n_cols)] == dense


def test_echelonize_matches_dense(grid):
    n_cols = len(grid[0])
    for reduced, limit in ((True, None), (False, None), (True, n_cols // 2)):
        check_eliminate(grid, reduced, limit)


def test_echelonize_unreduced_with_pivot_limit_matches_dense(grid):
    check_eliminate(grid, False, len(grid[0]) // 2)


def big_fraction(rng):
    """A nonzero Fraction whose numerator and denominator reach about 10^12."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.randint(1, 10**12))


def big_grid(rng, n_rows, n_cols, density):
    """Like ``random_grid``, with entries from ``big_fraction`` and the
    dependent rows combinations of two earlier rows with such
    coefficients."""
    free = n_rows - n_rows // 3
    grid = [
        [big_fraction(rng) if rng.random() < density else Fraction(0) for _ in range(n_cols)]
        for _ in range(free)
    ]
    while len(grid) < n_rows:
        a, b = rng.sample(range(free), 2)
        s, t = big_fraction(rng), big_fraction(rng)
        grid.append([s * x + t * y for x, y in zip(grid[a], grid[b])])
    rng.shuffle(grid)
    return grid


BIG_SHAPES = ((6, 9), (17, 11), (12, 24))


@pytest.mark.parametrize("shape", BIG_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("density", DENSITIES)
def test_large_denominators_match_dense(shape, density):
    n_rows, n_cols = shape
    rng = random.Random(1000 * n_rows + n_cols + int(10 * density))
    grid = big_grid(rng, n_rows, n_cols, density)
    for reduced in (True, False):
        for limit in (None, n_cols // 2):
            check_eliminate(grid, reduced, limit)
    M = RationalMatrix(grid)
    assert Subspace(n_cols, grid).basis == tuple(rref_dense(grid))
    assert M.rank() == len(rref_dense(grid))
    assert M.kernel().basis == tuple(kernel_dense(grid, n_cols))
    consistent = times(grid, [big_fraction(rng) for _ in range(n_cols)])
    rhs = [consistent, [big_fraction(rng) for _ in range(n_rows)]]
    assert solve_many(M, rhs) == solve_dense(grid, n_cols, rhs)
    # Meets, sums and quotients hand integer rows from one elimination
    # to the next.
    k = n_rows // 3
    u_gens, v_gens = grid[: n_rows - k], grid[k:]
    U, V = Subspace(n_cols, u_gens), Subspace(n_cols, v_gens)
    check_meet_and_sum(U, V, u_gens, v_gens)
    for numerator, denominator in ((U + V, U), (U, U & V), (V, U & V), (U, V)):
        check_quotient(numerator, denominator)


@pytest.mark.parametrize("case", CASES + LARGE_CASES, ids=case_id)
def test_canonical_basis_and_rank_match_dense(case):
    grid = case_grid(case)
    basis = rref_dense(grid)
    assert Subspace(len(grid[0]), grid).basis == tuple(basis)
    assert RationalMatrix(grid).rank() == len(basis)


@pytest.mark.parametrize("case", LARGE_CASES, ids=case_id)
def test_kernel_matches_dense_at_large_sizes(case):
    grid = case_grid(case)
    n_cols = len(grid[0])
    assert RationalMatrix(grid).kernel().basis == tuple(kernel_dense(grid, n_cols))


def check_meet_and_sum(U, V, u_gens, v_gens):
    n = U.ambient_dim
    assert (U & V).basis == tuple(meet_dense(u_gens, v_gens, n))
    assert (V & U) == (U & V)
    assert (U + V).basis == tuple(rref_dense(list(u_gens) + list(v_gens)))


def check_quotient(numerator, denominator):
    """Leftmost pivots of [D | N] pick the N columns that enlarge the
    span of D, in order; a pivot count other than dim N means that D
    does not lie in N."""
    columns = denominator.basis + numerator.basis
    stacked = [[v[i] for v in columns] for i in range(numerator.ambient_dim)]
    pivots = echelonize_dense(stacked) if stacked else []
    if len(pivots) != numerator.dim:
        with pytest.raises(ValueError):
            quotient_basis(numerator, denominator)
        return
    basis = numerator.basis
    expected = [basis[p - denominator.dim] for p in pivots if p >= denominator.dim]
    quotient = quotient_basis(numerator, denominator)
    assert isinstance(quotient, Subspace)
    assert quotient.ambient_dim == numerator.ambient_dim
    assert list(quotient.basis) == expected


def unit(n, i):
    return [Fraction(int(j == i)) for j in range(n)]


def test_meet_and_sum_of_grid_spans_match_dense(grid):
    # The first and last two thirds of the rows share the middle third,
    # so the meet is never trivial by construction.
    n = len(grid[0])
    k = len(grid) // 3
    u_gens, v_gens = grid[: len(grid) - k], grid[k:]
    check_meet_and_sum(Subspace(n, u_gens), Subspace(n, v_gens), u_gens, v_gens)


@pytest.mark.parametrize("n", [1, 6, 20])
def test_meet_and_sum_of_coordinate_subspaces_match_dense(n):
    rng = random.Random(n)
    for _ in range(6):
        s = rng.sample(range(n), rng.randint(1, n))
        t = rng.sample(range(n), rng.randint(1, n))
        u_gens = [unit(n, i) for i in s]
        v_gens = [unit(n, i) for i in t]
        U, V = Subspace(n, u_gens), Subspace(n, v_gens)
        check_meet_and_sum(U, V, u_gens, v_gens)
        assert (U & V) == Subspace(n, [unit(n, i) for i in set(s) & set(t)])
        # A coordinate subspace against a dense span.
        w_gens = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n // 2 + 1)]
        check_meet_and_sum(U, Subspace(n, w_gens), u_gens, w_gens)


@pytest.mark.parametrize("n", [1, 4, 11])
def test_meet_and_sum_with_zero_and_full_spaces_match_dense(n):
    rng = random.Random(100 + n)
    full_gens = [unit(n, i) for i in range(n)]
    some_gens = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(max(1, n // 2))]
    spaces = [([], Subspace(n))] + [(g, Subspace(n, g)) for g in (full_gens, some_gens)]
    for u_gens, U in spaces:
        for v_gens, V in spaces:
            check_meet_and_sum(U, V, u_gens, v_gens)
    full = Subspace(n, full_gens)
    assert (full & full) == full
    assert (Subspace(n) & full).dim == 0


def test_kernel_and_solve_match_dense(grid):
    M = RationalMatrix(grid)
    n_cols = M.n_cols
    assert M.kernel().basis == tuple(kernel_dense(grid, n_cols))

    rng = random.Random(len(grid) * n_cols)
    consistent = times(grid, [rng.randint(-3, 3) for _ in range(n_cols)])
    arbitrary = [Fraction(rng.randint(-3, 3)) for _ in range(M.n_rows)]
    rhs = [consistent, arbitrary, [0] * M.n_rows]
    assert solve_many(M, rhs) == solve_dense(grid, n_cols, rhs)


def test_apply_contains_and_quotient_match_dense(grid):
    M = RationalMatrix(grid)
    rng = random.Random(len(grid))
    x = [random_entry(rng, 0.3, True) for _ in range(M.n_cols)]
    image = M @ RationalMatrix([[e] for e in x], n_cols=1)
    assert rows_of(image) == [[sum((a * b for a, b in zip(row, x)), Fraction(0))] for row in grid]

    span = Subspace(M.n_cols, grid)
    basis = list(span.basis)
    for v in (grid[0], x, [a + b for a, b in zip(grid[0], grid[-1])]):
        assert (v in span) == (len(rref_dense(basis + [v])) == span.dim)

    check_quotient(span, Subspace(M.n_cols, grid[: len(grid) // 2]))


def nonzero(rng, rational):
    """A nonzero entry: small, or as large as ``big_fraction`` makes it."""
    if rational and rng.random() < 0.3:
        return big_fraction(rng)
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(num, rng.randint(1, 4)) if rational else Fraction(num)


def unit_mix(rng, n, rational):
    """Seeded generators of Q^n: scaled unit vectors at a few coordinates,
    one of them twice, among rows that deleting those coordinates leaves
    with one entry, with none, or with several."""
    units = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
    others = [j for j in range(n) if j not in units]

    def row_on(columns):
        v = [Fraction(0)] * n
        for j in columns:
            v[j] = nonzero(rng, rational)
        return v

    def some(columns):
        return rng.sample(columns, rng.randint(0, len(columns)))

    gens = [row_on([j]) for j in units]
    gens.append(row_on([units[0]]))  # a repeated unit row
    gens.append(row_on(some(units) + others[:1]))  # one entry left
    gens.append(row_on(some(units) + others[-1:]))
    gens.append(row_on(units[:2]))  # nothing left
    for _ in range(rng.randint(0, n)):
        gens.append(row_on(rng.sample(range(n), rng.randint(2, n)) if n > 1 else [0]))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("seed", range(24))
def test_unit_rows_in_spans_kernels_meets_and_sums_match_dense(seed):
    # One-entry rows are their own canonical rows; every routine that
    # eliminates rows must treat them as the dense references do.
    rng = random.Random(500 + seed)
    n = rng.randint(1, 14)
    rational = seed % 2 == 1
    gens = unit_mix(rng, n, rational)
    U = Subspace(n, gens)
    assert U.basis == tuple(rref_dense(gens))
    assert RationalMatrix(gens).rank() == U.dim
    assert RationalMatrix(gens).kernel().basis == tuple(kernel_dense(gens, n))
    # Meets and sums with a coordinate subspace, whose equations have one
    # entry each, and with a second mix.
    c_gens = [unit(n, j) for j in rng.sample(range(n), rng.randint(1, n))]
    C = Subspace(n, c_gens)
    v_gens = unit_mix(rng, n, rational)
    V = Subspace(n, v_gens)
    pairs = [((U, gens), (C, c_gens)), ((C, c_gens), (U, gens)), ((U, gens), (V, v_gens))]
    for (a, a_gens), (b, b_gens) in pairs:
        check_meet_and_sum(a, b, a_gens, b_gens)
    check_quotient(U + C, C)
    check_quotient(U + V, U & V)
    # Equal spans have equal rows, however they were generated: rows the
    # rule shortened end primitive, as the canonical form requires.
    for S, S_gens in ((U, gens), (U + C, gens + c_gens), (U + V, gens + v_gens)):
        assert S == Subspace(n, rref_dense(S_gens))
        assert hash(S) == hash(Subspace(n, rref_dense(S_gens)))


def singleton_system(rng, rational):
    """Seeded rows with singleton columns: rows whose lowest column no
    other row holds, each also holding the last column, which only such
    rows hold, so it is free.  The other rows include a zero row and a
    sum of two of them, so some right-hand sides are inconsistent."""
    n = rng.randint(3, 12)
    singles = sorted(rng.sample(range(n - 1), rng.randint(1, (n - 1) // 2 + 1)))
    shared = [j for j in range(n - 1) if j not in singles]
    rows = []
    for s in singles:
        v = [Fraction(0)] * n
        v[s] = nonzero(rng, rational)
        for j in shared:
            if j > s and rng.random() < 0.5:
                v[j] = nonzero(rng, rational)
        if rng.random() < 0.7:
            v[n - 1] = nonzero(rng, rational)
        rows.append(v)
    others = []
    for _ in range(rng.randint(1, len(shared) + 1)):
        v = [Fraction(0)] * n
        for j in shared:
            if rng.random() < 0.6:
                v[j] = nonzero(rng, rational)
        others.append(v)
    others.append([x + y for x, y in zip(others[0], others[-1])])
    others.append([Fraction(0)] * n)
    rows += others
    rng.shuffle(rows)
    return rows, n


@pytest.mark.parametrize("seed", range(24))
def test_solve_with_singleton_columns_matches_dense(seed):
    rng = random.Random(600 + seed)
    rows, n = singleton_system(rng, seed % 2 == 1)
    M = RationalMatrix(rows)
    consistent = times(rows, [nonzero(rng, True) if rng.random() < 0.7 else 0 for _ in range(n)])
    # Nonzero on the zero row, so never consistent.
    arbitrary = [nonzero(rng, True) for _ in rows]
    # Consistent or not, as the row that moves depends on the others.
    bumped = list(consistent)
    bumped[rng.randrange(len(rows))] += 1
    rhs = [consistent, arbitrary, bumped, [0] * len(rows)]
    got = solve_many(M, rhs)
    assert got == solve_dense(rows, n, rhs)
    assert got[0] is not None and got[1] is None and got[3] == (0,) * n
    assert solve_many(M, []) == [] == solve_dense(rows, n, [])


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


def gram(columns, n):
    """B B^T for the n x len(columns) matrix B with these columns."""
    return [[sum(c[i] * c[j] for c in columns) for j in range(n)] for i in range(n)]


def congruent(S, P):
    """P^T S P."""
    n = len(S)
    SP = [[sum(S[i][k] * P[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(P[k][i] * SP[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [1, 3, 8, 13])
def test_symmetric_signature_matches_dense_on_psi_like_grams(n):
    # Psi is congruent to the Gram matrix B B^T of the cycle classes,
    # and carries large denominators.  Positive semidefinite, negative
    # semidefinite and indefinite Grams of +-1 class vectors go through
    # random congruences with entries from ``big_fraction``, which are
    # invertible or not as chance has it; the dense reference decides.
    rng = random.Random(n)
    for _ in range(3):
        classes = [
            [rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(rng.randint(1, 2 * n))
        ]
        half = len(classes) // 2
        plus = gram(classes, n)
        mixed = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(gram(classes[:half], n), gram(classes[half:], n))
        ]
        for G in (plus, [[-x for x in row] for row in plus], mixed):
            P = [
                [big_fraction(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
                for _ in range(n)
            ]
            diagonal = [
                [big_fraction(rng) if i == j else Fraction(0) for j in range(n)] for i in range(n)
            ]
            for S in (congruent(G, P), congruent(G, diagonal)):
                assert symmetric_signature(RationalMatrix(S)).as_tuple() == inertia_dense(S)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_symmetric_signature_matches_dense_on_zero_diagonals(n):
    rng = random.Random(50 + n)
    for density in DENSITIES:
        for _ in range(4):
            S = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        S[i][j] = S[j][i] = big_fraction(rng)
            assert symmetric_signature(RationalMatrix(S)).as_tuple() == inertia_dense(S)


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


@pytest.mark.parametrize(
    "construct",
    [
        lambda: RationalMatrix([[1.0]]),
        lambda: Subspace(2, [[0.5, 0]]),
        lambda: vector([Fraction(1), 0.5]),
        lambda: [0.5, 0] in Subspace(2, [[1, 0]]),
        lambda: solve_many(RationalMatrix([[1, 0], [0, 1]]), [[1, 2], [0, 0.5]]),
    ],
    ids=["matrix", "subspace", "vector-after-a-fraction", "membership", "solve-rhs"],
)
def test_public_constructors_refuse_floats(construct):
    with pytest.raises(TypeError, match="refusing float"):
        construct()


def far_apart(z, meridians, x):
    """The meridian generators of L- with x l_r added to the first.  In
    row order L- plus that longitude fails only on its first row
    against m_r, its last: r rows apart."""
    out = [list(v) for v in meridians]
    out[0][z.l_index(z.r)] += x
    return out


@pytest.mark.parametrize("r", [1, 2, 5])
def test_is_isotropic_matches_dense_pairing(r):
    # L+ of a boundary map is isotropic; the kernel of a random matrix
    # and the meridians with one entry bumped are usually not.
    rng = random.Random(r)
    z = TorusBoundarySpace(r)
    seen = set()
    for _ in range(8):
        classes = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rng.randint(0, 4))]
        grid = [[Fraction(rng.randint(-2, 2)) for _ in range(z.dim)] for _ in range(r + 1)]
        meridians = [unit(z.dim, z.m_index(i)) for i in range(r + 1)]
        longitudes = [unit(z.dim, z.l_index(i)) for i in range(r + 1)]
        bumped = [list(v) for v in meridians]
        bumped[-1][rng.randrange(z.dim)] += 1
        for vs in (
            mapping_torus_boundary_map(r, classes).matrix.kernel().basis,
            RationalMatrix(grid).kernel().basis,
            bumped,
            meridians,
            longitudes,
            meridians + [unit(z.dim, z.l_index(0))],
            far_apart(z, meridians, 1),
        ):
            expected = all(pair_dense(u, v) == 0 for u in vs for v in vs)
            assert z.is_isotropic(Subspace(z.dim, vs)) == expected
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("r", [1, 3, 6])
def test_is_isotropic_matches_dense_pairing_with_large_denominators(r):
    # L+ stays isotropic when each column is scaled by a Fraction with a
    # large denominator; adding 1/q of a basis vector to one column
    # usually breaks that, by a pairing as small as 1/q.
    rng = random.Random(200 + r)
    coordinate_rng = random.Random(250 + r)
    z = TorusBoundarySpace(r)
    seen = set()
    for _ in range(6):
        classes = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rng.randint(0, 4))]
        lplus = mapping_torus_boundary_map(r, classes).matrix.kernel().basis
        scales = [big_fraction(rng) for _ in lplus]
        scaled = [tuple(s * x for x in c) for s, c in zip(scales, lplus)]
        bumped = [list(c) for c in scaled]
        bump = Fraction(1, rng.randint(2, 10**12))
        bumped[rng.randrange(len(bumped))][rng.randrange(z.dim)] += bump
        # Coordinate subspaces with scaled generators, drawn from their
        # own generator so that the inputs above stay as they were.
        meridians, longitudes = (
            [[big_fraction(coordinate_rng) * x for x in unit(z.dim, k)] for k in indices]
            for indices in (range(0, z.dim, 2), range(1, z.dim, 2))
        )
        far = far_apart(z, meridians, big_fraction(coordinate_rng))
        for vs in (scaled, bumped, meridians, longitudes, meridians + longitudes[:1], far):
            expected = all(pair_dense(u, v) == 0 for u in vs for v in vs)
            assert z.is_isotropic(Subspace(z.dim, vs)) == expected
            seen.add(expected)
    assert seen == {True, False}
    q = 10**12 + 39
    u = [Fraction(0)] * z.dim
    v = [Fraction(0)] * z.dim
    u[z.m_index(r)], v[z.l_index(r)] = Fraction(1, q), Fraction(1)
    assert pair_dense(u, v) == Fraction(1, q)
    assert not z.is_isotropic(Subspace(z.dim, [u, v]))


def standard_generators(r, vectors):
    """Generators of the standard triple of these cycle classes: the
    meridians, the longitudes, and the dense kernel of the boundary
    map."""
    z = TorusBoundarySpace(r)
    grid = rows_of(mapping_torus_boundary_map(r, vectors).matrix)
    l_minus = [unit(z.dim, z.m_index(i)) for i in range(r + 1)]
    l_zero = [unit(z.dim, z.l_index(i)) for i in range(r + 1)]
    return z, (l_minus, l_zero, kernel_dense(grid, z.dim))


def check_psi(z, generators):
    triple = WallTriple(z, *(Subspace(z.dim, g) for g in generators))
    got = wall_correction(triple)
    w_dim, psi, inertia = psi_dense(*generators, z.dim)
    assert got.w_dim == w_dim
    assert rows_of(got.psi) == psi
    assert got.correction.as_tuple() == inertia
    return got


@pytest.mark.parametrize("seed", range(12))
def test_wall_correction_matches_dense_psi(seed):
    rng = random.Random(300 + seed)
    fib = random_fibration(rng, 8, 30)
    check_psi(*standard_generators(fib.surface.r, fib.class_vectors()))


@pytest.mark.parametrize("name", ["large_r16_m80", "wide_r32_m2"])
def test_wall_correction_matches_dense_psi_at_benchmark_sizes(name):
    fib = load_document((GOLDEN / f"{name}.json").read_text()).to_fibration()
    got = check_psi(*standard_generators(fib.surface.r, fib.class_vectors()))
    assert got.w_dim == fib.cycle_span_dim()


def transvection(v):
    """x -> x + Q(x, v) v, which preserves the torus pairing."""
    return lambda x: [a + pair_dense(x, v) * b for a, b in zip(x, v)]


@pytest.mark.parametrize("r", [1, 3, 5])
def test_wall_correction_matches_dense_psi_off_coordinate_subspaces(r):
    # Transvections move L- and L0 off the coordinate subspaces, so the
    # b-parts combine L0 basis vectors with several nonzero entries; the
    # moved triple has the same correction as the standard one.
    rng = random.Random(400 + r)
    for _ in range(3):
        m = rng.randint(1, 3 * r)
        classes = [[rng.choice((-1, 0, 1)) for _ in range(r)] for _ in range(m)]
        z, generators = standard_generators(r, classes)
        standard = check_psi(z, generators)
        moved = generators
        for _ in range(3):
            v = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(z.dim)]
            t = transvection(v)
            moved = [[t(x) for x in gens] for gens in moved]
        columns = Subspace(z.dim, moved[1]).basis
        assert any(sum(1 for x in col if x) > 1 for col in columns)
        assert check_psi(z, moved).correction == standard.correction
