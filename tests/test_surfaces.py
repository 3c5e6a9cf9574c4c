import random
from itertools import chain, combinations

import pytest

from planarsig.linalg import Subspace
from planarsig.surfaces import CurveClass, PlanarSurface, TorusBoundarySpace


def proper_subsets(r):
    indices = range(r + 1)
    return chain.from_iterable(combinations(indices, k) for k in range(1, r + 1))


class TestCurveClass:
    def test_exactly_one_description(self):
        with pytest.raises(ValueError):
            CurveClass()
        with pytest.raises(ValueError):
            CurveClass(encloses=frozenset({1}), coefficients=(1,))

    def test_empty_enclosure_rejected(self):
        with pytest.raises(ValueError):
            CurveClass.enclosing(set())

    @pytest.mark.parametrize(
        "make, entries",
        [
            (CurveClass.explicit, [1.5, 0]),
            (CurveClass.explicit, ["3", True]),
            (CurveClass.explicit, [[1], 0]),
            (CurveClass.enclosing, [True]),
            (CurveClass.enclosing, [1, True]),
            (CurveClass.enclosing, [1, 1.0]),
            (CurveClass.enclosing, [[1]]),
        ],
    )
    def test_non_integer_entries_rejected(self, make, entries):
        with pytest.raises(ValueError, match="is not an integer"):
            make(entries)

    def test_entries_stored_exactly(self):
        assert CurveClass.explicit([3, -1]).coefficients == (3, -1)
        assert CurveClass.enclosing([2, 1]).encloses == frozenset({1, 2})

    def test_negation_flips_sign(self):
        c = CurveClass.enclosing({1, 2})
        assert c.negated().sign == -1
        assert c.negated().negated() == c


class TestClassVector:
    def test_boundary_parallel(self):
        assert PlanarSurface(3).class_vector(CurveClass.enclosing({1})) == (1, 0, 0)

    def test_distinguished_circle(self):
        # The classes of all boundary circles sum to zero, which forces
        # circle 0 to carry minus the sum of the others.
        assert PlanarSurface(3).class_vector(CurveClass.enclosing({0})) == (-1, -1, -1)

    def test_pair_of_circles(self):
        assert PlanarSurface(3).class_vector(CurveClass.enclosing({1, 2})) == (1, 1, 0)

    def test_explicit_vectors(self):
        s = PlanarSurface(2)
        assert s.class_vector(CurveClass.explicit([2, -1])) == (2, -1)
        with pytest.raises(ValueError):
            s.class_vector(CurveClass.explicit([1]))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            PlanarSurface(2).class_vector(CurveClass.enclosing({3}))

    def test_negative_index_out_of_range(self):
        with pytest.raises(ValueError, match="enclosed index -1 out of range 0..2"):
            PlanarSurface(2).class_vector(CurveClass.enclosing({-1, 1}))

    def test_full_enclosure_rejected(self):
        with pytest.raises(ValueError):
            PlanarSurface(2).class_vector(CurveClass.enclosing({0, 1, 2}))

    def test_complementary_descriptions_are_opposite(self):
        for r in range(1, 6):
            s = PlanarSurface(r)
            full = frozenset(range(r + 1))
            for subset in proper_subsets(r):
                a = s.class_vector(CurveClass.enclosing(subset))
                b = s.class_vector(CurveClass.enclosing(full - set(subset)))
                assert all(x + y == 0 for x, y in zip(a, b))

    def test_allowability_exhaustive(self):
        # Every nonempty proper enclosed set gives a nonzero class; the
        # empty and full sets are not valid curve descriptors at all.
        for r in range(1, 9):
            s = PlanarSurface(r)
            for subset in proper_subsets(r):
                assert any(s.class_vector(CurveClass.enclosing(subset)))
            with pytest.raises(ValueError):
                CurveClass.enclosing(set())
            with pytest.raises(ValueError):
                s.class_vector(CurveClass.enclosing(range(r + 1)))


class TestCanonicalCurve:
    def test_canonical_excludes_zero_and_preserves_class(self):
        s = PlanarSurface(3)
        c = CurveClass.enclosing({0, 1})
        canon = s.canonical_curve(c)
        assert canon.encloses == frozenset({2, 3})
        assert canon.sign == -1
        assert s.class_vector(canon) == s.class_vector(c)

    @pytest.mark.parametrize(
        "curve",
        [
            CurveClass.enclosing({3}),
            CurveClass.enclosing({-1}),
            CurveClass.enclosing({0, 1, 2}),
            CurveClass.explicit([1]),
        ],
    )
    def test_rejects_what_class_vector_rejects(self, curve):
        s = PlanarSurface(2)
        with pytest.raises(ValueError) as from_vector:
            s.class_vector(curve)
        with pytest.raises(ValueError) as from_canonical:
            s.canonical_curve(curve)
        assert str(from_canonical.value) == str(from_vector.value)

    def test_idempotent(self):
        s = PlanarSurface(4)
        for subset in proper_subsets(4):
            once = s.canonical_curve(CurveClass.enclosing(subset))
            assert 0 not in once.encloses
            assert s.canonical_curve(once) == once


class TestTorusBoundarySpace:
    def test_dimension_and_indices(self):
        z = TorusBoundarySpace(2)
        assert z.dim == 6
        assert z.m_index(0) == 0
        assert z.l_index(0) == 1
        assert z.m_index(2) == 4

    def test_value_semantics(self):
        assert TorusBoundarySpace(2) == TorusBoundarySpace(2)
        assert hash(TorusBoundarySpace(2)) == hash(TorusBoundarySpace(2))
        assert TorusBoundarySpace(2) != TorusBoundarySpace(3)
        assert len({TorusBoundarySpace(2), TorusBoundarySpace(2), TorusBoundarySpace(0)}) == 2
        assert repr(TorusBoundarySpace(2)) == "TorusBoundarySpace(r=2)"
        with pytest.raises(ValueError):
            TorusBoundarySpace(-1)

    def test_is_isotropic_refuses_other_ambient_dimensions(self):
        z = TorusBoundarySpace(1)
        assert z.is_isotropic(Subspace(4, [basis_m(z, 0), basis_m(z, 1)]))
        for n in (2, 6):
            with pytest.raises(ValueError, match="ambient"):
                z.is_isotropic(Subspace(n, [[1] + [0] * (n - 1)]))

    def test_pairing_on_basis(self):
        z = TorusBoundarySpace(3)
        for i in range(4):
            for j in range(4):
                expected = 1 if i == j else 0
                assert z.pair(basis_m(z, i), basis_l(z, j)) == expected
                assert z.pair(basis_m(z, i), basis_m(z, j)) == 0
                assert z.pair(basis_l(z, i), basis_l(z, j)) == 0

    def test_skew_and_alternating(self):
        rng = random.Random(2)
        z = TorusBoundarySpace(2)
        for _ in range(20):
            u = [rng.randint(-4, 4) for _ in range(z.dim)]
            v = [rng.randint(-4, 4) for _ in range(z.dim)]
            assert z.pair(u, v) == -z.pair(v, u)
            assert z.pair(u, u) == 0


def basis_m(z, i):
    """The class m_i of the boundary tori, as ints."""
    v = [0] * z.dim
    v[z.m_index(i)] = 1
    return v


def basis_l(z, i):
    """The class l_i of the boundary tori, as ints."""
    v = [0] * z.dim
    v[z.l_index(i)] = 1
    return v


def embed(z, m_coefficients):
    """A fiber class (coefficients of m_1..m_r) placed at the m
    coordinates of the boundary tori."""
    v = [0] * z.dim
    for i, c in enumerate(m_coefficients, start=1):
        v[z.m_index(i)] = c
    return v


class TestEmbedding:
    def test_pairing_reads_off_coordinates(self):
        s = PlanarSurface(2)
        z = TorusBoundarySpace(s.r)
        gamma = s.class_vector(CurveClass.enclosing({1, 2}))
        assert z.pair(embed(z, gamma), basis_l(z, 2)) == 1

    def test_pairing_with_longitudes_recovers_vector(self):
        rng = random.Random(9)
        for r in (1, 3, 4):
            z = TorusBoundarySpace(r)
            for _ in range(10):
                v = [rng.randint(-5, 5) for _ in range(r)]
                emb = embed(z, v)
                for j in range(1, r + 1):
                    assert z.pair(emb, basis_l(z, j)) == v[j - 1]

    def test_enclosed_pair_example(self):
        s = PlanarSurface(3)
        z = TorusBoundarySpace(s.r)
        gamma = s.class_vector(CurveClass.enclosing({1, 3}))
        assert z.pair(embed(z, gamma), basis_l(z, 3)) == 1

