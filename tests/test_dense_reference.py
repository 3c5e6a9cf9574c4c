"""The exact kernels skip zero entries, eliminate on integer rows, and
read kernels and intersections off a single elimination; the dense
references in ``oracles`` do none of that.  Both must give the same
values on seeded sparse and dense matrices, integer and rational, up to
40 x 80, and on inputs whose denominators reach about 10^12."""

import json
import pathlib
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

from planarsig import linalg
from planarsig.linalg import (
    RationalMatrix,
    Subspace,
    _eliminate,
    _primitive,
    _rref,
    quotient_basis,
    solve_many,
    symmetric_signature,
    vector,
)
from planarsig.cli import load_document
from planarsig.properties import random_fibration
from planarsig.surfaces import TorusBoundarySpace
from planarsig.wall import (
    WallTriple,
    mapping_torus_boundary_map,
    psi_gram_closed_form,
    standard_triple,
    wall_correction,
)

from oracles import (
    echelonize_dense,
    inertia_dense,
    kashiwara_dense,
    kernel_dense,
    matmul_dense,
    meet_dense,
    pair_dense,
    psi_dense,
    rref_dense,
    solution_values,
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


# Grids that steer ``_eliminate`` through each of its cases, with and
# without a pivot limit of half the columns: a bucket of several rows,
# whose first row is the pivot and whose other rows are cleared and move
# to a later bucket, to one that holds rows already, to one that no row
# started at, or out of the buckets; rows cleared to zero; a row that
# waits in its bucket while several pivots pass; rows that start or end
# up with their lowest column past the limit.  Their names recall the
# row swaps of the positional elimination they were first drawn for.
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
    "cleared-row-joins-a-bucket": [
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
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


def as_grid(rows, n_cols):
    return [[Fraction(row.get(j, 0)) for j in range(n_cols)] for row in rows]


def check_rref(grid):
    """``_rref`` on the primitive integer rows of ``grid`` against the
    reduced ``echelonize_dense`` on its Fractions: the same pivots, and
    each row primitive, positive at its pivot and, over that entry,
    equal to the dense row."""
    n_cols = len(grid[0])
    ref = [list(row) for row in grid]
    dense_pivots = echelonize_dense(ref)
    pivots, rows = _rref([_primitive(row) for row in grid], n_cols)
    assert pivots == dense_pivots
    assert len(rows) == len(pivots)
    for p, row, dense in zip(pivots, rows, ref):
        assert row[p] > 0 and gcd(*row.values()) == 1
        assert [Fraction(row.get(j, 0), row[p]) for j in range(n_cols)] == dense


def check_eliminate(grid, limit):
    """The forward pass ``_eliminate`` on the primitive integer rows of
    ``grid`` against the unreduced ``echelonize_dense`` on its
    Fractions.  An unreduced echelon form depends on the pivot rows
    taken, so rows are not compared one by one: the pivots are the dense
    pivots, each pivot row has its pivot as its lowest column, every row
    returned is primitive, the pivot rows and ``rest`` span the rows of
    ``grid``, and ``rest`` lies past the limit and spans the rows that
    the dense pass leaves without a pivot."""
    n_cols = len(grid[0])
    limit = n_cols if limit is None else limit
    ref = [list(row) for row in grid]
    dense_pivots = echelonize_dense(ref, False, limit)
    pivots, pivot_rows, rest = _eliminate([_primitive(row) for row in grid], limit)
    assert pivots == dense_pivots
    assert [min(row) for row in pivot_rows] == pivots
    assert all(min(row) >= limit for row in rest)
    assert all(gcd(*row.values()) == 1 for row in pivot_rows + rest)
    assert rref_dense(as_grid(pivot_rows + rest, n_cols)) == rref_dense(grid)
    assert rref_dense(as_grid(rest, n_cols)) == rref_dense(ref[len(pivots):])


def test_echelonize_matches_dense(grid):
    check_rref(grid)
    check_eliminate(grid, None)


def test_echelonize_unreduced_with_pivot_limit_matches_dense(grid):
    check_eliminate(grid, len(grid[0]) // 2)


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
    check_rref(grid)
    for limit in (None, n_cols // 2):
        check_eliminate(grid, limit)
    M = RationalMatrix(grid)
    assert Subspace(n_cols, grid).basis == tuple(rref_dense(grid))
    assert M.rank() == len(rref_dense(grid))
    assert M.kernel().basis == tuple(kernel_dense(grid, n_cols))
    consistent = times(grid, [big_fraction(rng) for _ in range(n_cols)])
    rhs = [consistent, [big_fraction(rng) for _ in range(n_rows)]]
    assert solution_values(solve_many(M, rhs), n_cols) == solve_dense(grid, n_cols, rhs)
    # Meets, sums and quotients hand integer rows from one elimination
    # to the next.
    k = n_rows // 3
    u_gens, v_gens = grid[: n_rows - k], grid[k:]
    U, V = Subspace(n_cols, u_gens), Subspace(n_cols, v_gens)
    check_meet_and_sum(U, V, u_gens, v_gens)
    for numerator, denominator in ((U + V, U), (U, U & V), (V, U & V), (U, V)):
        check_quotient(numerator, denominator)


def triangular_rows(rng, n, columns, rational, extra=None):
    """Seeded rows of Q^n, one per column of ``columns``, that span the
    coordinate space on those columns: row i is nonzero at the i-th
    column and at some later ones.  With ``extra``, a column past
    ``columns``, every row also holds it, so the rank stays the same
    and the pivots stay ``columns``."""
    rows = []
    for i, c in enumerate(columns):
        v = [Fraction(0)] * n
        v[c] = nonzero(rng, rational)
        for j in columns[i + 1:]:
            if rng.random() < 0.7:
                v[j] = nonzero(rng, rational)
        if extra is not None:
            v[extra] = nonzero(rng, rational)
        rows.append(v)
    rng.shuffle(rows)
    return rows


def check_rref_back_substitution(grid, expected: bool):
    """``check_rref`` on ``grid``, which runs back substitution exactly
    when ``expected``: ``_rref`` reduces rows by ``_reduce`` only there."""
    calls = []
    reduce = linalg._reduce
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_reduce", lambda *args: calls.append(args) or reduce(*args))
        check_rref(grid)
    assert bool(calls) == expected


@pytest.mark.parametrize("seed", range(12))
def test_rref_skips_back_substitution_at_full_support(seed):
    # Rows that span the coordinate space on their columns have {p: 1}
    # as RREF rows.  Unit rows at some of those columns and at others go
    # to the singleton rule, and a zero row and a sum of two rows change
    # nothing.
    rng = random.Random(1100 + seed)
    n = rng.randint(6, 14)
    rational = seed % 2 == 1
    columns = sorted(rng.sample(range(n), rng.randint(4, n - 2)))
    units = rng.sample(columns, 1) + rng.sample([j for j in range(n) if j not in columns], 1)
    grid = triangular_rows(rng, n, columns, rational)
    grid += [[nonzero(rng, rational) if j == u else Fraction(0) for j in range(n)]
             for u in units]
    grid += [[Fraction(0)] * n, [a + b for a, b in zip(grid[0], grid[1])]]
    rng.shuffle(grid)
    check_rref_back_substitution(grid, False)
    assert Subspace(n, grid).basis == tuple(rref_dense(grid))


@pytest.mark.parametrize("seed", range(12))
def test_rref_back_substitutes_when_a_column_is_held_beyond_the_pivots(seed):
    rng = random.Random(1200 + seed)
    n = rng.randint(4, 14)
    rational = seed % 2 == 1
    columns = sorted(rng.sample(range(n - 1), rng.randint(2, n - 1)))
    extra = rng.randint(columns[-1] + 1, n - 1)
    grid = triangular_rows(rng, n, columns, rational, extra)
    check_rref_back_substitution(grid, True)
    assert Subspace(n, grid).basis == tuple(rref_dense(grid))


@pytest.mark.parametrize("n", [0, 1, 5])
def test_rref_of_zero_rows_is_empty(n):
    assert _rref([], n) == ([], [])
    assert _rref([{}, {}], n) == ([], [])
    assert Subspace(n, [[0] * n, [0] * n]) == Subspace(n)
    assert rref_dense([[0] * n, [0] * n]) == []


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
    assert solution_values(solve_many(M, rhs), n_cols) == solve_dense(grid, n_cols, rhs)


def test_apply_contains_and_quotient_match_dense(grid):
    """``in`` and ``quotient_basis`` on spans, against dense elimination."""
    M = RationalMatrix(grid)
    rng = random.Random(len(grid))
    x = [random_entry(rng, 0.3, True) for _ in range(M.n_cols)]

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


def pinned_system(rng, n, pins, rational):
    """Seeded equations on Q^n with one-entry rows at the columns
    ``pins``, one of them twice, among rows that dropping those columns
    leaves with one entry, with none and with several.  With no pins,
    every row has two entries or more."""
    others = [j for j in range(n) if j not in pins]

    def row_on(columns):
        return [nonzero(rng, rational) if j in columns else Fraction(0) for j in range(n)]

    def some(columns):
        return rng.sample(columns, rng.randint(0, len(columns)))

    rows = [row_on([j]) for j in pins]
    if pins:
        rows.append(row_on(pins[:1]))
        rows.append(row_on(some(pins) + others[:1]))
        rows.append(row_on(pins[:2]))
    rows.append(row_on(some(pins) + others[-3:]))
    rows.append(row_on(rng.sample(range(n), 2)))
    rng.shuffle(rows)
    return rows


def check_equations(S):
    """The equations S keeps are primitive integer rows that cut out
    exactly S, and are built once."""
    n = S.ambient_dim
    equations = S._equations()
    assert all(gcd(*row.values()) == 1 for row in equations)
    dense = [[Fraction(row.get(j, 0)) for j in range(n)] for row in equations]
    assert tuple(kernel_dense(dense, n)) == S.basis
    assert S._equations() is equations


@pytest.mark.parametrize("seed", range(12))
def test_pinned_columns_in_kernels_and_meets_match_dense(seed):
    # A one-entry equation pins its column, which leaves the null space
    # before any elimination; the rows that lose entries to it must end
    # as the dense references say.  The three systems pin some columns,
    # the other columns, and none.  A meet of two kernels solves their
    # kept equations together, so the meet of the first two pins every
    # column.
    rng = random.Random(800 + seed)
    n = rng.randint(4, 12)
    rational = seed % 2 == 1
    columns = rng.sample(range(n), n)
    cut = rng.randint(1, n // 2)
    systems = [pinned_system(rng, n, p, rational) for p in (columns[:cut], columns[cut:], [])]
    kernels = [RationalMatrix(a).kernel() for a in systems]
    c_gens = [unit(n, j) for j in rng.sample(range(n), rng.randint(1, n))]
    C = Subspace(n, c_gens)
    for a, K in zip(systems, kernels):
        assert K.basis == tuple(kernel_dense(a, n))
        check_meet_and_sum(K, C, K.basis, c_gens)
        check_equations(K)
    for (a, K), (b, L) in combinations(zip(systems, kernels), 2):
        assert (K & L).basis == (L & K).basis == tuple(kernel_dense(a + b, n))
        check_equations(K & L)


@pytest.mark.parametrize("seed", range(8))
def test_equations_cut_out_kernels_meets_sums_and_spans(seed):
    rng = random.Random(900 + seed)
    n = rng.randint(2, 12)
    rational = seed % 2 == 1
    dense = [[nonzero(rng, rational) for _ in range(n)] for _ in range(n // 2)]
    U, V = Subspace(n, unit_mix(rng, n, rational)), Subspace(n, dense)
    K = RationalMatrix(pinned_system(rng, n, [0], rational)).kernel()
    full = Subspace(n, [unit(n, j) for j in range(n)])
    for S in (U, V, K, U & V, K & V, U + V, K + V, Subspace(n), full, full & K):
        check_equations(S)


@pytest.mark.parametrize("seed", range(8))
def test_kernels_and_meets_keep_the_rows_they_were_solved_from(seed):
    # A kernel keeps its matrix's nonzero primitive rows as its
    # equations, repeats included, and a meet both operands' equations;
    # each set cuts out exactly the subspace.
    rng = random.Random(1300 + seed)
    n = rng.randint(3, 12)
    rational = seed % 2 == 1
    a = pinned_system(rng, n, rng.sample(range(n), rng.randint(0, n // 2)), rational)
    K = RationalMatrix(a).kernel()
    assert list(K._equations()) == [_primitive(row) for row in a]
    V = Subspace(n, unit_mix(rng, n, rational))
    C = Subspace(n, [unit(n, j) for j in rng.sample(range(n), rng.randint(1, n))])
    for S, T in ((K, V), (V, K), (K, C), (K & V, C)):
        meet = S & T
        assert meet._equations() == S._equations() + T._equations()
        check_equations(meet)
    check_equations(K)


def test_kernel_keeps_no_empty_equation():
    # A zero row constrains nothing and is not primitive, so the kernel
    # drops it and keeps the repeated row; a meet with the kernel then
    # carries no empty equation either.
    a = [[0, 0, 0], [1, 1, 0], [2, 2, 0]]
    K = RationalMatrix(a).kernel()
    assert K._equations() == ({0: 1, 1: 1}, {0: 1, 1: 1})
    assert K.basis == tuple(kernel_dense(a, 3))
    v_gens = [[1, -1, 0]]
    meet = K & Subspace(3, v_gens)
    assert meet.basis == tuple(meet_dense(K.basis, v_gens, 3))
    check_equations(K)
    check_equations(meet)


@pytest.mark.parametrize("seed", range(4))
def test_meet_leaves_both_operands_equations_unchanged(seed):
    # The coordinate subspace pins columns where the equations of the
    # span and of the kernel have entries.
    rng = random.Random(950 + seed)
    n = rng.randint(4, 12)

    def dense(k):
        return [[nonzero(rng, True) for _ in range(n)] for _ in range(k)]

    gens = dense(2)
    U, K = Subspace(n, gens), RationalMatrix([unit(n, 0)] + dense(2)).kernel()
    C = Subspace(n, [unit(n, j) for j in rng.sample(range(n), n // 2)])
    operands = (U, K, C)
    before = [[dict(row) for row in S._equations()] for S in operands]
    for S in operands:
        for T in operands:
            S & T
    assert [list(S._equations()) for S in operands] == before
    assert U == Subspace(n, gens)


def test_meridians_meet_longitudes_with_every_column_pinned():
    # In the standard triple, L- and L0 are cut out by one-entry rows
    # that together pin every coordinate, and their meet keeps them.
    fib = load_document((GOLDEN / "wide_r32_m2.json").read_text()).fibration
    triple = standard_triple(fib.boundary_map())
    n = triple.space.dim
    meet = triple.l_minus & triple.l_zero
    assert meet == Subspace(n)
    assert sorted(meet._equations(), key=min) == [{j: 1} for j in range(n)]


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


PRIMES = (2, 3, 5, 7, 11, 13, 17)
CHAINED = ("coprime-leads", "free-column-between-pivots", "large-denominators")


def chained_system(rng, name):
    """Seeded rows in echelon form whose back substitution chains through
    every pivot row: each row leads at its pivot and holds every later
    column.  The leads are the primes 2, 3, 5, ..., or with
    ``large-denominators`` Fractions whose parts reach about 10^12.  The
    last column is free, so a consistent right-hand side moves its part
    onto every pivot; ``free-column-between-pivots`` also leaves column 2
    free between pivots.  A sum of two rows and a zero row make some
    right-hand sides inconsistent."""
    if name == "free-column-between-pivots":
        n, pivots = 6, (0, 1, 3, 4)
    else:
        n, pivots = 8, range(7)
    big = name == "large-denominators"
    rows = []
    for k, p in enumerate(pivots):
        v = [Fraction(0)] * n
        v[p] = big_fraction(rng) if big else Fraction(PRIMES[k])
        for j in range(p + 1, n):
            v[j] = big_fraction(rng) if big else Fraction(rng.choice((-2, -1, 1, 2)))
        rows.append(v)
    rows.append([x + y for x, y in zip(rows[0], rows[-1])])
    rows.append([Fraction(0)] * n)
    rng.shuffle(rows)
    return rows, n


# The seeds draw systems with singleton columns, the names systems whose
# solutions chain through every pivot row.
@pytest.mark.parametrize("system", [*range(24), *CHAINED])
def test_solve_with_singleton_columns_matches_dense(system):
    if system in CHAINED:
        rng = random.Random(700 + CHAINED.index(system))
        rows, n = chained_system(rng, system)
    else:
        rng = random.Random(600 + system)
        rows, n = singleton_system(rng, system % 2 == 1)
    M = RationalMatrix(rows)
    consistent = times(rows, [nonzero(rng, True) if rng.random() < 0.7 else 0 for _ in range(n)])
    # Nonzero on the zero row, so never consistent.
    arbitrary = [nonzero(rng, True) for _ in rows]
    # Consistent or not, as the row that moves depends on the others.
    bumped = list(consistent)
    bumped[rng.randrange(len(rows))] += 1
    # The last column, which is free: its part moves onto the pivots.
    last = [row[-1] for row in rows]
    rhs = [consistent, arbitrary, bumped, [0] * len(rows), last]
    got = solution_values(solve_many(M, rhs), n)
    assert got == solve_dense(rows, n, rhs)
    assert got[0] is not None and got[1] is None and got[3] == (0,) * n
    assert got[4] is not None and got[4][-1] == 0
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
            got = symmetric_signature(RationalMatrix(S))
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
                assert symmetric_signature(RationalMatrix(S)) == inertia_dense(S)


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
            assert symmetric_signature(RationalMatrix(S)) == inertia_dense(S)


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
        lambda: TorusBoundarySpace(1).pair([1, 0, 0, 0], [0, 1.5, 0, 0]),
    ],
    ids=["matrix", "subspace", "vector-after-a-fraction", "membership", "solve-rhs", "pair"],
)
def test_public_constructors_refuse_floats(construct):
    with pytest.raises(TypeError, match="refusing float"):
        construct()


def test_public_constructors_accept_rational_strings():
    # Every entry point takes its entries through ``vector``, so a
    # rational string counts as the Fraction it names.
    half = Fraction(1, 2)
    assert RationalMatrix([["1/2", 0]])[0, 0] == half
    assert Subspace(2, [["1/2", 1]]).basis == ((1, 2),)
    assert ["1/2", 1] in Subspace(2, [[1, 2]])
    solutions = solve_many(RationalMatrix([[2, 0], [0, 1]]), [["1/2", 0]])
    assert solution_values(solutions, 2) == [(Fraction(1, 4), 0)]
    assert TorusBoundarySpace(1).pair(["1/2", 0, 0, 0], [0, 2, 0, 0]) == 1


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
    assert got.correction == inertia
    return got


@pytest.mark.parametrize("seed", range(12))
def test_wall_correction_matches_dense_psi(seed):
    rng = random.Random(300 + seed)
    fib = random_fibration(rng, 8, 30)
    check_psi(*standard_generators(fib.surface.r, fib.class_vectors()))


@pytest.mark.parametrize("name", ["large_r16_m80", "wide_r32_m2"])
def test_wall_correction_matches_dense_psi_at_benchmark_sizes(name):
    fib = load_document((GOLDEN / f"{name}.json").read_text()).fibration
    got = check_psi(*standard_generators(fib.surface.r, fib.class_vectors()))
    assert got.w_dim == fib.cycle_span_dim()


def transvection(v):
    """x -> x + Q(x, v) v, which preserves the torus pairing."""
    return lambda x: [a + pair_dense(x, v) * b for a, b in zip(x, v)]


def moved(rng, gens):
    """``gens`` moved by two random rational transvections."""
    for _ in range(2):
        v = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(len(gens[0]))]
        t = transvection(v)
        gens = [t(x) for x in gens]
    return gens


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


@pytest.mark.parametrize("r", [1, 3, 5])
def test_wall_correction_matches_dense_psi_on_indefinite_triples(r):
    # Each of L-, L0 and L+ is moved by its own two transvections, so
    # each stays isotropic but the triple is no longer the standard one,
    # and Psi can take negative values: the inertia's negative pivots
    # then run on a real Psi.
    rng = random.Random(500 + r)
    corrections = []
    for _ in range(4):
        m = rng.randint(1, 3 * r)
        classes = [[rng.choice((-1, 0, 1)) for _ in range(r)] for _ in range(m)]
        z, generators = standard_generators(r, classes)
        generators = [moved(rng, gens) for gens in generators]
        corrections.append(check_psi(z, generators).correction)
    assert any(n_minus > 0 for _, n_minus, _ in corrections), corrections


def parity(order):
    """+1 for an even permutation of (0, 1, 2), -1 for a transposition."""
    return 1 if order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1


@pytest.mark.parametrize("move", [False, True], ids=["standard", "moved"])
def test_wall_defect_is_minus_kashiwara_index(move):
    # Kashiwara's index checks Wall's method, where psi_dense repeats
    # its steps.  On standard triples of random fibrations, and on the
    # same triples with each subspace moved by transvections of its own,
    # the defect must equal minus the index, and like the index it must
    # be cyclic and change sign under a transposition.
    rng = random.Random(600)
    corrections = []
    for _ in range(16):
        fib = random_fibration(rng, 6, 12)
        z, generators = standard_generators(fib.surface.r, fib.class_vectors())
        if move:
            generators = [moved(rng, gens) for gens in generators]
        subspaces = [Subspace(z.dim, gens) for gens in generators]
        base = wall_correction(WallTriple(z, *subspaces))
        corrections.append(base.correction)
        assert kashiwara_dense(*generators) == -base.defect
        for order in permutations(range(3)):
            got = wall_correction(WallTriple(z, *(subspaces[i] for i in order)))
            assert got.defect == parity(order) * base.defect
    if move:
        assert any(n_minus > 0 for _, n_minus, _ in corrections), corrections


def check_cyclic(z, subspaces):
    """Wall's correction and the dimension of W are the same in the
    orders (L-, L0, L+), (L0, L+, L-) and (L+, L-, L0)."""
    results = [
        wall_correction(WallTriple(z, *subspaces[k:], *subspaces[:k])) for k in range(3)
    ]
    assert len({(got.correction, got.w_dim) for got in results}) == 1
    return results[0]


@pytest.mark.parametrize("move", [False, True], ids=["standard", "moved"])
def test_wall_correction_is_cyclic(move):
    # On standard triples L- and L0 are cut out by one-entry equations,
    # and the rotations put them in every operand slot of a meet; the
    # transvections of a moved triple leave its equations dense.
    rng = random.Random(1000)
    corrections = []
    for _ in range(50):
        fib = random_fibration(rng, 6, 25)
        z, generators = standard_generators(fib.surface.r, fib.class_vectors())
        if move:
            generators = [moved(rng, gens) for gens in generators]
        got = check_cyclic(z, [Subspace(z.dim, gens) for gens in generators])
        corrections.append(got.correction)
    if move:
        assert any(n_minus > 0 for _, n_minus, _ in corrections), corrections
    else:
        fib = load_document((GOLDEN / "large_r16_m80.json").read_text()).fibration
        triple = standard_triple(fib.boundary_map())
        got = check_cyclic(triple.space, [triple.l_minus, triple.l_zero, triple.l_plus])
        assert got.correction == (fib.cycle_span_dim(), 0, 0)


def check_rotated_psi(fib):
    """In the order (L0, L+, L-), Psi is X G X^T: G is the Gram matrix
    of the cycle classes from ``psi_gram_closed_form``, and row i of X
    holds the l_1..l_r entries of quotient representative i, recomputed
    as ``wall_correction`` does.  The representatives lie in L0 and in
    L+ + L-, so their l entries sum to zero: the meridian sum in L+
    pairs to zero with them, and only G is left."""
    r, vectors = fib.surface.r, fib.class_vectors()
    triple = standard_triple(fib.boundary_map())
    z, l0, lp, lm = triple.space, triple.l_zero, triple.l_plus, triple.l_minus
    got = wall_correction(WallTriple(z, l0, lp, lm))
    reps = quotient_basis(l0 & (lp + lm), (l0 & lp) + (l0 & lm))
    X = [[v[z.l_index(k)] for k in range(1, r + 1)] for v in reps.basis]
    G = rows_of(psi_gram_closed_form(r, vectors))
    XT = [list(column) for column in zip(*X)] or [[] for _ in range(r)]
    assert got.w_dim == reps.dim
    assert rows_of(got.psi) == matmul_dense(matmul_dense(X, G, r), XT, reps.dim)


def test_rotated_psi_is_the_cycle_gram_matrix():
    # The acceptance corpus shapes (r <= 6, up to 25 cycles) and the
    # (16, 80) golden document.  The standard order (L-, L0, L+) gives
    # another Psi with the same inertia; this one is the paper's.
    rng = random.Random(1100)
    for _ in range(120):
        check_rotated_psi(random_fibration(rng, 6, 25))
    check_rotated_psi(load_document((GOLDEN / "large_r16_m80.json").read_text()).fibration)
