import random
from itertools import chain, combinations

import pytest

from planarsig.fibration import expected_sigma_y1, expected_sigma_y2, family_y1, family_y2
from planarsig.linalg import RationalMatrix, Subspace
from planarsig.surfaces import CurveClass, PlanarSurface, TorusBoundarySpace
from planarsig.wall import lplus_closed_form, mapping_torus_boundary_map, psi_gram_closed_form


def proper_subsets(r):
    indices = range(r + 1)
    return chain.from_iterable(combinations(indices, k) for k in range(1, r + 1))


# Every integer parameter of the package, checked by ``linalg._check_int``:
# (id, call, what it is named, a float, the first value out of bounds, its
# message).
INTEGER_PARAMETERS = [
    ("columns", lambda n: RationalMatrix([], n_cols=n), "column count",
     2.0, -1, "column count must be >= 0"),
    ("ambient-dim", lambda n: Subspace(n, []), "ambient dimension",
     2.5, -1, "ambient dimension must be >= 0"),
    ("r", PlanarSurface, "boundary count parameter r",
     1.5, -1, "boundary count parameter r must be >= 0"),
    ("torus-r", TorusBoundarySpace, "boundary count parameter r",
     1.5, -1, "boundary count parameter r must be >= 0"),
    ("m-index", lambda i: TorusBoundarySpace(2).m_index(i), "torus index",
     1.0, 3, "torus index 3 out of range 0..2"),
    ("l-index", lambda i: TorusBoundarySpace(2).l_index(i), "torus index",
     0.5, -1, "torus index -1 out of range 0..2"),
    ("family-y1", family_y1, "family parameter r",
     2.5, 1, "family parameter r must be >= 2"),
    ("family-y2", family_y2, "family parameter r",
     3.0, 1, "family parameter r must be >= 2"),
    ("expected-y1", expected_sigma_y1, "family parameter r",
     2.0, 1, "family parameter r must be >= 2"),
    ("expected-y2", expected_sigma_y2, "family parameter r",
     4.5, 1, "family parameter r must be >= 2"),
    ("boundary-map-r", lambda r: mapping_torus_boundary_map(r, []),
     "boundary count parameter r", 2.0, -1, "boundary count parameter r must be >= 0"),
    ("lplus-closed-form-r", lambda r: lplus_closed_form(r, []),
     "boundary count parameter r", 0.0, -1, "boundary count parameter r must be >= 0"),
    ("psi-gram-closed-form-r", lambda r: psi_gram_closed_form(r, []),
     "boundary count parameter r", 1.5, -1, "boundary count parameter r must be >= 0"),
]


@pytest.mark.parametrize("construct, value, message", [
    case
    for name, call, what, fraction, out_of_bounds, bound_message in INTEGER_PARAMETERS
    for case in (
        pytest.param(call, True, f"{what} True is not an integer", id=f"bool-{name}"),
        pytest.param(call, fraction, f"{what} {fraction!r} is not an integer",
                     id=f"fractional-{name}"),
        pytest.param(call, out_of_bounds, bound_message,
                     id=f"{'negative' if out_of_bounds < 0 else 'out-of-range'}-{name}"),
    )
])
def test_malformed_sizes_are_refused(construct, value, message):
    with pytest.raises(ValueError) as exc:
        construct(value)
    assert str(exc.value) == message


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
        "make",
        [lambda: CurveClass.enclosing([1, 1]), lambda: CurveClass(encloses=(2, 2, 3))],
        ids=["enclosing", "encloses-tuple"],
    )
    def test_repeated_indices_rejected(self, make):
        with pytest.raises(ValueError, match="indices must be distinct"):
            make()

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

    def test_class_is_the_sum_of_the_enclosed_circles(self):
        # Circle i >= 1 has class m_i and circle 0 has -(m_1 + ... + m_r);
        # a curve's class is the sum over the circles it encloses, in
        # ints, not bools.
        for r in range(1, 6):
            s = PlanarSurface(r)
            circles = [(-1,) * r] + [tuple(int(j == i) for j in range(1, r + 1))
                                     for i in range(1, r + 1)]
            for subset in proper_subsets(r):
                v = s.class_vector(CurveClass.enclosing(subset))
                assert v == tuple(map(sum, zip(*[circles[i] for i in subset])))
                assert all(type(x) is int for x in v)

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


class TestTorusBoundarySpace:
    def test_dimension_and_indices(self):
        z = TorusBoundarySpace(2)
        assert z.dim == 6
        assert z.m_index(0) == 0
        assert z.l_index(0) == 1
        assert z.m_index(2) == 4

    @pytest.mark.parametrize(
        "index, message",
        [
            (1.5, "torus index 1.5 is not an integer"),
            (True, "torus index True is not an integer"),
            (-1, "torus index -1 out of range 0..2"),
            (3, "torus index 3 out of range 0..2"),
        ],
        ids=["float", "bool", "negative", "past-r"],
    )
    def test_bad_indices_rejected(self, index, message):
        z = TorusBoundarySpace(2)
        for method in (z.m_index, z.l_index):
            with pytest.raises(ValueError) as exc:
                method(index)
            assert str(exc.value) == message

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

    @pytest.mark.parametrize(
        "u, v",
        [([1, 0, 0], [0, 1, 0, 0]), ([1, 0, 0, 0], [0, 1, 0, 0, 0])],
        ids=["short-first", "long-second"],
    )
    def test_pair_refuses_vectors_of_other_lengths(self, u, v):
        with pytest.raises(ValueError, match="^vectors must have length 4$"):
            TorusBoundarySpace(1).pair(u, v)

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

