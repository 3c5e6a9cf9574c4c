import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarsig import linalg
from planarsig.linalg import (
    RationalMatrix,
    SignatureTriple,
    Subspace,
    quotient_basis,
    solve_many,
    symmetric_signature,
    vector,
)

from oracles import (
    echelonize_dense,
    inertia_by_descartes,
    matmul_dense,
    rank_by_minors,
    rref_dense,
    solution_values,
    solve_dense,
)


def identity_grid(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def full_space(n):
    return Subspace(n, identity_grid(n))


def rows_of(M):
    """The entries of a RationalMatrix as a list of lists."""
    return [[M[i, j] for j in range(M.n_cols)] for i in range(M.n_rows)]


def times(grid, v):
    """The product of a grid and a column vector, as a tuple of
    Fractions, by the dense ``matmul_dense``."""
    return tuple(row[0] for row in matmul_dense(grid, [[x] for x in v], 1))


def product(A, B):
    """A B as a RationalMatrix, multiplied by the dense ``matmul_dense``."""
    return RationalMatrix(matmul_dense(rows_of(A), rows_of(B), B.n_cols), n_cols=B.n_cols)


def hstack(*mats):
    """The matrices side by side, as one RationalMatrix."""
    return RationalMatrix(
        [sum(rows, []) for rows in zip(*map(rows_of, mats))],
        n_cols=sum(M.n_cols for M in mats),
    )


def rand_matrix(rng, n_rows, n_cols, lo=-5, hi=5):
    return RationalMatrix([[rng.randint(lo, hi) for _ in range(n_cols)] for _ in range(n_rows)])


def rand_invertible(rng, n, lo=-3, hi=3):
    while True:
        P = rand_matrix(rng, n, n, lo, hi)
        if P.rank() == n:
            return P


int_grids = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestVector:
    def test_exact_entries_pass_and_others_become_fractions(self):
        half = Fraction(1, 2)
        got = vector([3, half, "3/4", Decimal("0.5"), True])
        assert got == (3, half, Fraction(3, 4), Fraction(1, 2), 1)
        assert type(got[0]) is int
        assert got[1] is half
        assert [type(x) for x in got[2:]] == [Fraction] * 3

    def test_float_subclass_refused(self):
        class Meters(float):
            pass

        with pytest.raises(TypeError, match="refusing float"):
            vector([1, Meters(2)])


class TestRationalMatrix:
    def test_shape_and_entries(self):
        M = RationalMatrix([[1, 2], [3, 4], [5, 6]])
        assert M.shape == (3, 2)
        assert M[2, 1] == 6
        assert [row[0] for row in rows_of(M)] == [1, 3, 5]
        assert M.transpose().shape == (2, 3)

    def test_repr(self):
        # Ints, Fractions, a string, negatives and zeros; the matrix is
        # stored over one denominator, and each entry is printed in
        # lowest terms.
        M = RationalMatrix(
            [
                [1, Fraction(-2, 3), 0],
                [0, 0, 0],
                [Fraction(5), -7, Fraction(1, 10**20)],
                [Fraction(1, 2), "-2/6", Fraction(5, 6)],
            ]
        )
        assert repr(M) == (
            "RationalMatrix(4x3: 1 -2/3 0; 0 0 0; 5 -7 1/100000000000000000000; 1/2 -1/3 5/6)"
        )
        assert repr(RationalMatrix([], n_cols=3)) == "RationalMatrix(0x3: )"
        assert repr(RationalMatrix([[], []])) == "RationalMatrix(2x0: ; )"

    def test_degenerate_shapes(self):
        assert RationalMatrix([[], [], []]).shape == (3, 0)
        assert RationalMatrix([], n_cols=4).shape == (0, 4)
        assert RationalMatrix([], n_cols=2).transpose().shape == (2, 0)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            RationalMatrix([[0.5]])

    def test_rows_of_another_width_than_n_cols_rejected(self):
        with pytest.raises(ValueError, match="^rows have 2 entries, expected 3$"):
            RationalMatrix([[1, 2], [3, 4]], n_cols=3)

    def test_transpose_of_rows_with_different_denominators(self):
        M = RationalMatrix([[Fraction(1, 2), 3], [1, 1]])
        expected = RationalMatrix([[Fraction(1, 2), 1], [3, 1]])
        assert M.transpose() == expected
        assert hash(M.transpose()) == hash(expected)


class TestRank:
    def test_identity(self):
        assert RationalMatrix(identity_grid(2)).rank() == 2

    def test_zero(self):
        assert RationalMatrix([[0] * 4 for _ in range(3)]).rank() == 0

    def test_three_cycle_columns(self):
        # Columns are the classes of two boundary-parallel curves and the
        # curve around both, on a 3-holed sphere.
        B = RationalMatrix([[1, 0, 1], [0, 1, 1]])
        assert B.rank() == 2
        assert rank_by_minors(rows_of(B)) == 2

    def test_against_minor_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            M = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -3, 3)
            assert M.rank() == rank_by_minors(rows_of(M))

    def test_rank_transpose_and_gram(self):
        rng = random.Random(5)
        for _ in range(150):
            M = rand_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            r = M.rank()
            assert r == M.transpose().rank()
            assert r == product(M, M.transpose()).rank()

    @settings(max_examples=60)
    @given(int_grids)
    def test_rank_transpose_hypothesis(self, grid):
        M = RationalMatrix(grid)
        assert M.rank() == M.transpose().rank()
        assert M.rank() == product(M, M.transpose()).rank()


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert RationalMatrix(identity_grid(3)).kernel() == Subspace(3)

    def test_zero_map_kernel_full(self):
        assert RationalMatrix([[0, 0, 0]]).kernel() == full_space(3)

    def test_sum_functional(self):
        M = RationalMatrix([[1, 1, 1]])
        K = M.kernel()
        assert K.dim == 2
        for col in K.basis:
            assert times(rows_of(M), col) == (0,)

    @settings(max_examples=60)
    @given(int_grids)
    def test_rank_nullity(self, grid):
        M = RationalMatrix(grid)
        assert M.kernel().dim + M.rank() == M.n_cols

    def test_kernel_vectors_multiply_back(self):
        rng = random.Random(3)
        for _ in range(50):
            M = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            for col in M.kernel().basis:
                assert all(x == 0 for x in times(rows_of(M), col))


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
        b = Subspace(3, [[2, 2, 2], [1, 1, 0]])
        assert a == b
        assert hash(a) == hash(b)
        # Same pivots, different spans.
        assert Subspace(3, [[1, 1, 0]]) != Subspace(3, [[1, 2, 0]])
        assert Subspace(3, [[2, 0, 1], [0, 1, 1]]) != Subspace(3, [[1, 0, 1], [0, 1, 1]])
        # The same span from generators reordered, negated and scaled by
        # rationals with large denominators, plus a combination of them.
        rng = random.Random(11)
        for n in (1, 4, 9):
            gens = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(rng.randint(1, n))
            ]
            ref = Subspace(n, gens)
            for _ in range(5):
                moved = []
                for g in gens:
                    s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.randint(1, 10**12))
                    moved.append([s * x for x in g])
                rng.shuffle(moved)
                moved.append([sum(col) for col in zip(*moved)])
                other = Subspace(n, moved)
                assert other == ref
                assert hash(other) == hash(ref)
                assert other.basis == ref.basis

    def test_basis_is_a_tuple_of_fraction_vectors(self):
        gens = [[2, 4, 0, Fraction(2, 3)], [1, 2, 1, 0], [3, 6, 1, Fraction(2, 3)]]
        basis = Subspace(4, gens).basis
        assert type(basis) is tuple
        assert all(type(v) is tuple for v in basis)
        assert all(type(x) is Fraction for v in basis for x in v)
        assert basis == tuple(rref_dense(gens))
        assert Subspace(3).basis == ()

    def test_sum_examples(self):
        e1 = [1, 0]
        e2 = [0, 1]
        assert Subspace(2, [e1]) + Subspace(2, [e2]) == full_space(2)
        U = Subspace(3, [[1, 2, 3]])
        assert U + U == U
        S = Subspace(3, [[1, 0, 0]]) + Subspace(3, [[1, 1, 0]])
        assert S.dim == 2
        assert [0, 1, 0] in S

    def test_intersection_examples(self):
        assert (Subspace(2, [[1, 0]]) & Subspace(2, [[0, 1]])) == Subspace(2)
        U = Subspace(3, [[1, 5, 0], [0, 2, 1]])
        assert (U & U) == U
        left = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        right = Subspace(3, [[0, 1, 0], [0, 0, 1]])
        assert (left & right) == Subspace(3, [[0, 1, 0]])

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Subspace(2, [[1, 0]]) + Subspace(3, [[1, 0, 0]])
        with pytest.raises(ValueError):
            Subspace(2, [[1, 0]]) & Subspace(3, [[1, 0, 0]])

    @pytest.mark.parametrize(
        "construct, message",
        [
            (lambda: Subspace(-1), "^ambient dimension must be >= 0$"),
            (lambda: Subspace(3, [[1, 0, 0], [0, 1]]), r"^generator of length 2 in Q\^3$"),
            (lambda: [1, 0] in Subspace(3, [[1, 0, 0]]), r"^vector of length 2 in Q\^3$"),
        ],
        ids=["negative-ambient-dim", "short-generator", "short-member"],
    )
    def test_sizes_rejected(self, construct, message):
        with pytest.raises(ValueError, match=message):
            construct()

    def test_membership_and_containment(self):
        U = Subspace(3, [[1, 1, 0], [0, 1, 1]])
        assert [1, 2, 1] in U
        assert [1, 0, 0] not in U
        assert all(c in U for c in Subspace(3, [[1, 2, 1]]).basis)
        assert not all(c in Subspace(3, [[1, 1, 0]]) for c in U.basis)

    def test_modular_dimension_law(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 6)
            U = Subspace(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
            V = Subspace(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
            assert (U + V).dim + (U & V).dim == U.dim + V.dim


def representatives(N, D):
    """The canonical basis vectors of ``quotient_basis(N, D)``, which
    must be a subspace of N's ambient space."""
    quotient = quotient_basis(N, D)
    assert isinstance(quotient, Subspace)
    assert quotient.ambient_dim == N.ambient_dim
    return list(quotient.basis)


class TestQuotientBasis:
    def test_full_by_full_is_empty(self):
        assert representatives(full_space(2), full_space(2)) == []

    def test_full_by_zero_gives_canonical_basis(self):
        reps = representatives(full_space(2), Subspace(2))
        assert reps == [vector([1, 0]), vector([0, 1])]

    def test_plane_by_diagonal(self):
        N = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        D = Subspace(3, [[1, 1, 0]])
        reps = representatives(N, D)
        assert len(reps) == 1
        assert reps[0] in N
        assert reps[0] not in D

    def test_not_contained_rejected(self):
        with pytest.raises(ValueError):
            quotient_basis(Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]]))

    def test_representatives_independent_mod_denominator(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 6)
            D = Subspace(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n - 1))])
            N = D + Subspace(
                n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]
            )
            reps = representatives(N, D)
            assert len(reps) == N.dim - D.dim
            # No nontrivial combination of representatives falls into D.
            grown = D
            for rep in reps:
                assert rep not in grown
                grown = grown + Subspace(n, [rep])


class TestSolve:
    def test_identity(self):
        M = RationalMatrix(identity_grid(3))
        assert solution_values(solve_many(M, [[3, -1, 2]]), 3) == [vector([3, -1, 2])]

    def test_inconsistent(self):
        assert solve_many(RationalMatrix([[0, 0], [0, 0]]), [[1, 0]])[0] is None

    def test_underdetermined_free_vars_zero(self):
        assert solution_values(solve_many(RationalMatrix([[1, 1]]), [[3]]), 2) == [vector([3, 0])]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_many(RationalMatrix(identity_grid(2)), [[1, 2, 3]])

    def test_no_equations_gives_zero_solution(self):
        solutions = solve_many(RationalMatrix([], n_cols=3), [[]])
        assert solution_values(solutions, 3) == [(0, 0, 0)]

    def test_solutions_verify_and_consistency_matches_rank(self):
        rng = random.Random(29)
        for _ in range(60):
            M = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            b = [rng.randint(-5, 5) for _ in range(M.n_rows)]
            x = solution_values(solve_many(M, [b]), M.n_cols)[0]
            augmented = hstack(M, RationalMatrix([b]).transpose())
            consistent = augmented.rank() == M.rank()
            assert (x is not None) == consistent
            if x is not None:
                assert times(rows_of(M), x) == vector(b)

    def test_no_right_hand_side_eliminates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solve_many eliminated for no right-hand side")

        monkeypatch.setattr(linalg, "_eliminate", refuse)
        assert solve_many(RationalMatrix(identity_grid(3)), []) == []

    def test_solve_many_mixed(self):
        M = RationalMatrix([[1, 0], [0, 0]])
        got = solution_values(solve_many(M, [[2, 0], [0, 1]]), 2)
        assert got[0] == vector([2, 0])
        assert got[1] is None

    def test_solutions_are_integers_over_their_least_denominator(self):
        # The form (s, {column: s * x}) is unique: s >= 1 shares no
        # factor with every entry, no entry is zero, and the free columns,
        # where x is zero, hold none.
        rng = random.Random(31)
        for _ in range(80):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            grid = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.6 else 0
                 for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(n_cols)]
            arbitrary = [Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(n_rows)]
            rhs = [times(grid, x), arbitrary, [0] * n_rows]
            got = solve_many(RationalMatrix(grid), rhs)
            assert solution_values(got, n_cols) == solve_dense(grid, n_cols, rhs)
            pivots = set(echelonize_dense([[Fraction(y) for y in row] for row in grid]))
            assert got[0] is not None and got[2] == (1, {})
            for solution in got:
                if solution is not None:
                    s, entries = solution
                    assert type(s) is int and s >= 1
                    assert all(type(y) is int and y for y in entries.values())
                    assert gcd(s, *entries.values()) == 1
                    assert set(entries) <= pivots


class TestSymmetricSignature:
    def test_identity(self):
        assert symmetric_signature(RationalMatrix(identity_grid(2))) == SignatureTriple(2, 0, 0)

    def test_hyperbolic_plane(self):
        S = RationalMatrix([[0, 1], [1, 0]])
        assert symmetric_signature(S) == SignatureTriple(1, 1, 0)

    def test_positive_definite_two_by_two(self):
        # Eigenvalues 1 and 3, both positive.
        S = RationalMatrix([[2, 1], [1, 2]])
        assert symmetric_signature(S) == SignatureTriple(2, 0, 0)

    def test_empty_and_zero(self):
        assert symmetric_signature(RationalMatrix([], n_cols=0)) == SignatureTriple(0, 0, 0)
        assert symmetric_signature(RationalMatrix([[0] * 3 for _ in range(3)])) == SignatureTriple(0, 0, 3)

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_signature(RationalMatrix([[1, 2, 3]]))
        with pytest.raises(ValueError):
            symmetric_signature(RationalMatrix([[0, 1], [2, 0]]))

    def test_rows_with_different_denominators(self):
        with pytest.raises(ValueError):
            symmetric_signature(RationalMatrix([[1, Fraction(1, 2)], [Fraction(1, 3), 1]]))
        S = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 5]])
        assert symmetric_signature(S) == SignatureTriple(2, 0, 0)
        # A zero diagonal over a denominator: the off-diagonal pivot path.
        S = RationalMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        assert symmetric_signature(S) == SignatureTriple(1, 1, 0)

    def _rand_symmetric(self, rng, n, lo=-4, hi=4):
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = rng.randint(lo, hi)
        return RationalMatrix(grid)

    @staticmethod
    def _bordered(rng, C, depth):
        """C bordered by ``depth`` leading pivots of +-1: the grid
        [[E, V^T], [V, C + V E V^T]] with E diagonal of +-1 entries and V
        random.  Its first ``depth`` congruence steps take their own
        diagonal pivots and leave exactly C as the trailing block."""
        m = len(C)
        E = [rng.choice((1, -1)) for _ in range(depth)]
        V = [[rng.randint(-2, 2) for _ in range(depth)] for _ in range(m)]
        n = depth + m
        grid = [[0] * n for _ in range(n)]
        for t in range(depth):
            grid[t][t] = E[t]
            for i in range(m):
                grid[t][depth + i] = grid[depth + i][t] = V[i][t]
        for i in range(m):
            for j in range(m):
                grid[depth + i][depth + j] = C[i][j] + sum(
                    V[i][t] * E[t] * V[j][t] for t in range(depth)
                )
        return grid

    @staticmethod
    def _symmetric_grid(rng, diagonal):
        m = len(diagonal)
        grid = [[0] * m for _ in range(m)]
        for i in range(m):
            grid[i][i] = diagonal[i]
            for j in range(i + 1, m):
                grid[i][j] = grid[j][i] = rng.randint(-3, 3)
        return grid

    @pytest.mark.parametrize("depth", (1, 2))
    def test_swap_after_a_step_against_charpoly_oracle(self, depth):
        # The trailing block C has a zero first diagonal entry and a
        # nonzero later one, so step ``depth`` swaps rows and columns
        # after updates that left the lower triangle behind.
        rng = random.Random(61 + depth)
        for _ in range(24):
            m = rng.randint(2, 6 - depth)
            diagonal = [0] + [rng.randint(-2, 2) for _ in range(m - 2)] + [rng.choice((-1, 1, 2))]
            grid = self._bordered(rng, self._symmetric_grid(rng, diagonal), depth)
            expected = inertia_by_descartes(grid)
            assert symmetric_signature(RationalMatrix(grid)) == expected

    @pytest.mark.parametrize("depth", (1, 2))
    def test_zero_diagonal_after_a_step_against_charpoly_oracle(self, depth):
        # The trailing block C has an all-zero diagonal and a nonzero
        # entry off it, so step ``depth`` takes the zero-diagonal path.
        rng = random.Random(71 + depth)
        for _ in range(24):
            m = rng.randint(2, 6 - depth)
            C = self._symmetric_grid(rng, [0] * m)
            C[0][m - 1] = C[m - 1][0] = rng.choice((-2, -1, 1, 3))
            grid = self._bordered(rng, C, depth)
            expected = inertia_by_descartes(grid)
            assert symmetric_signature(RationalMatrix(grid)) == expected

    def test_against_charpoly_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            S = self._rand_symmetric(rng, rng.randint(1, 5))
            assert symmetric_signature(S) == inertia_by_descartes(rows_of(S))

    def test_congruence_invariance(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 5)
            S = self._rand_symmetric(rng, n)
            P = rand_invertible(rng, n)
            congruent = product(product(P.transpose(), S), P)
            assert symmetric_signature(congruent) == symmetric_signature(S)

    def test_zero_count_is_kernel_dimension(self):
        rng = random.Random(47)
        for _ in range(40):
            S = self._rand_symmetric(rng, rng.randint(1, 6))
            assert symmetric_signature(S).n_zero == S.kernel().dim

    def test_triple_sums_to_dimension(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(1, 6)
            S = self._rand_symmetric(rng, n)
            assert sum(symmetric_signature(S)) == n
