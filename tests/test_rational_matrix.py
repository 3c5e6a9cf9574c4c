"""``RationalMatrix`` keeps each row as integers over a common scale and
builds Fractions only when entries are read.  These properties hold that
storage to the dense references in ``oracles``, which share no code with
the package, on grids that spell their entries as ints, Fractions and
"p/q" strings, with zero rows, empty shapes and large denominators.
``rank`` settles a rank mod 2 when it can and eliminates otherwise;
each branch is held to the references on its own."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarsig import linalg
from planarsig.cli import main
from planarsig.fibration import family_y1
from planarsig.linalg import RationalMatrix, _rank_mod_2, solve_many, symmetric_signature

from oracles import (
    inertia_by_descartes,
    inertia_dense,
    kernel_dense,
    matmul_dense,
    rank_by_minors,
    rref_dense,
    solution_values,
    solve_dense,
)

BIG = 10**30

values = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)

# Ways to write a value that RationalMatrix must read as that value.
SPELLINGS = [
    lambda x: x,
    lambda x: int(x) if x.denominator == 1 else x,
    str,
    lambda x: f"{3 * x.numerator}/{3 * x.denominator}",
]


def spell(draw, grid):
    return [[draw(st.sampled_from(SPELLINGS))(x) for x in row] for row in grid]


@st.composite
def grids(draw, n_rows=None, n_cols=None, entries=values):
    """A grid of ``entries`` with up to 4 rows and columns, some rows all zero."""
    n_rows = draw(st.integers(0, 4)) if n_rows is None else n_rows
    n_cols = draw(st.integers(0, 4)) if n_cols is None else n_cols
    grid = []
    for _ in range(n_rows):
        if draw(st.integers(0, 4)) == 0:
            grid.append([Fraction(0)] * n_cols)
        else:
            grid.append([draw(entries) for _ in range(n_cols)])
    return grid


@st.composite
def spelled_grids(draw):
    grid = draw(grids())
    n_cols = len(grid[0]) if grid else draw(st.integers(0, 4))
    return grid, n_cols, spell(draw, grid)


def transposed(grid, n_cols):
    return [[row[j] for row in grid] for j in range(n_cols)]


def rows_of(M):
    return [[M[i, j] for j in range(M.n_cols)] for i in range(M.n_rows)]


@settings(max_examples=150)
@given(spelled_grids())
def test_entries_read_back_as_fractions(case):
    grid, n_cols, spelled = case
    M = RationalMatrix(spelled, n_cols=n_cols)
    assert M.shape == (len(grid), n_cols)
    entries = rows_of(M)
    assert entries == grid
    assert all(type(x) is Fraction for row in entries for x in row)


@settings(max_examples=150)
@given(spelled_grids(), st.data())
def test_equality_and_hash_ignore_spelling(case, data):
    grid, n_cols, spelled = case
    M = RationalMatrix(spelled, n_cols=n_cols)
    N = RationalMatrix(spell(data.draw, grid), n_cols=n_cols)
    assert M == N and hash(M) == hash(N)
    assert M == RationalMatrix(grid, n_cols=n_cols)
    if not grid:
        assert M != RationalMatrix([], n_cols=n_cols + 1)
    elif n_cols:
        i = data.draw(st.integers(0, len(grid) - 1))
        j = data.draw(st.integers(0, n_cols - 1))
        changed = [list(row) for row in grid]
        changed[i][j] += data.draw(st.sampled_from([Fraction(1), Fraction(1, BIG)]))
        assert M != RationalMatrix(changed)


@settings(max_examples=150)
@given(spelled_grids(), st.data())
def test_operations_match_dense_oracles(case, data):
    grid, n_cols, spelled = case
    n_rows = len(grid)
    M = RationalMatrix(spelled, n_cols=n_cols)

    T = M.transpose()
    assert T.shape == (n_cols, n_rows)
    assert rows_of(T) == transposed(grid, n_cols)
    assert T == RationalMatrix(transposed(grid, n_cols), n_cols=n_rows)
    spelled_columns = spell(data.draw, transposed(grid, n_cols))
    assert RationalMatrix(spelled_columns, n_cols=n_rows).transpose() == M

    assert (M == M.transpose()) == (n_rows == n_cols and grid == transposed(grid, n_cols))

    assert M.rank() == rank_by_minors(grid)
    assert M.kernel().basis == tuple(kernel_dense(grid, n_cols))

    x = [row[0] for row in data.draw(grids(n_rows=n_cols, n_cols=1))]
    consistent = [row[0] for row in matmul_dense(grid, [[y] for y in x], 1)]
    arbitrary = [row[0] for row in data.draw(grids(n_rows=n_rows, n_cols=1))]
    rhs = [consistent, arbitrary, [0] * n_rows]
    assert solution_values(solve_many(M, rhs), n_cols) == solve_dense(grid, n_cols, rhs)


@settings(max_examples=150)
@given(st.integers(0, 4).flatmap(lambda n: grids(n_rows=n, n_cols=n)), st.data())
def test_symmetric_signature_matches_dense_oracles(grid, data):
    n = len(grid)
    S = [[grid[i][j] + grid[j][i] for j in range(n)] for i in range(n)]
    M = RationalMatrix(spell(data.draw, S), n_cols=n)
    assert M == M.transpose()
    expected = inertia_dense(S)
    assert symmetric_signature(M) == expected == inertia_by_descartes(S)


@settings(max_examples=60)
@given(spelled_grids(), st.data())
def test_floats_and_ragged_rows_rejected(case, data):
    grid, n_cols, spelled = case
    if grid and n_cols:
        i = data.draw(st.integers(0, len(grid) - 1))
        j = data.draw(st.integers(0, n_cols - 1))
        with_float = [list(row) for row in spelled]
        with_float[i][j] = 0.5
        with pytest.raises(TypeError):
            RationalMatrix(with_float)
        with pytest.raises(TypeError):
            solve_many(RationalMatrix(spelled), [[0.5] * len(grid)])
    ragged = [list(row) for row in spelled] or [[0] * n_cols]
    ragged.append([0] * (n_cols + 1))
    with pytest.raises(ValueError):
        RationalMatrix(ragged)


# ``rank`` returns the rank mod 2 of the stored rows when it is
# min(n_rows, n_cols) and eliminates otherwise.  Each grid here is short
# of that bound mod 2: the first three are of full rank over Q (the
# second is stored over 6 as 3 and 2), the other two are not, though a
# rank mod 2 that took nonzero entries for odd ones, or counted distinct
# parity rows, would call them full.
SHORT_MOD_2 = {
    "sum-and-difference": ([[1, 1], [1, -1]], 2),
    "even-numerator": ([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], 2),
    "doubled-identity": ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 3),
    "third-row-the-sum": ([[1, 1, 0], [0, 1, 1], [1, 2, 1]], 2),
    "parities-dependent": ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], 2),
}


@pytest.mark.parametrize("grid, rank", SHORT_MOD_2.values(), ids=SHORT_MOD_2)
def test_rank_is_eliminated_when_the_rank_mod_2_is_short(grid, rank):
    M = RationalMatrix(grid)
    assert _rank_mod_2(M._rows) < min(M.shape)
    assert M.rank() == rank == rank_by_minors(grid)
    assert M.transpose().rank() == rank


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_y1_pair_classes_have_full_rank_over_q_but_not_mod_2(r):
    # Every class encloses a pair, so its coordinates sum to 0 mod 2.
    f = family_y1(r)
    C = f.cycle_matrix()
    assert _rank_mod_2(C._rows) == _rank_mod_2(C.transpose()._rows) == r
    grid = [[C[i, j] for j in range(C.n_cols)] for i in range(C.n_rows)]
    assert f.cycle_span_dim() == C.rank() == len(rref_dense(grid)) == r + 1


@pytest.mark.parametrize("grid", [
    [],
    [[1, 0], [0, 1]],
    [[1, 2], [3, 5]],
    [[1, 0, 5], [3, 1, 0]],
    [[Fraction(1, 2), 1], [Fraction(1, 4), 0], [0, Fraction(7, 4)]],
], ids=["empty", "identity", "det-minus-one", "wide", "tall-over-four"])
def test_rank_full_mod_2_is_returned_without_elimination(monkeypatch, grid):
    def refuse(*args):
        raise AssertionError("eliminated a matrix of full rank mod 2")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    M = RationalMatrix(grid, n_cols=len(grid[0]) if grid else 2)
    assert M.rank() == min(M.shape) == rank_by_minors(grid)


@settings(max_examples=300)
@given(grids(entries=st.integers(-2, 2).map(Fraction)), st.integers(1, 4))
def test_rank_of_small_entries_matches_dense_oracles(grid, den):
    # Entries this small often leave the rank mod 2 short, so both
    # branches of ``rank`` run; dividing by ``den`` changes no rank.
    M = RationalMatrix([[x / den for x in row] for row in grid])
    rank = rank_by_minors(grid)
    assert M.rank() == rank == len(rref_dense(grid))
    assert M.transpose().rank() == rank


def test_fuzz_takes_both_branches_of_rank(monkeypatch, capsys):
    """``fuzz --seed 4 --count 30`` settles some span ranks mod 2 and
    eliminates others."""
    eliminations = []
    eliminated = []
    eliminate, rank = linalg._eliminate, RationalMatrix.rank

    def counting_eliminate(*args):
        eliminations.append(None)
        return eliminate(*args)

    def recording_rank(self):
        before = len(eliminations)
        result = rank(self)
        eliminated.append(len(eliminations) > before)
        return result

    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    monkeypatch.setattr(RationalMatrix, "rank", recording_rank)
    assert main(["fuzz", "--seed", "4", "--count", "30"]) == 0
    capsys.readouterr()
    assert True in eliminated and False in eliminated
