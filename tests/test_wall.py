import math
import pathlib
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from planarsig import linalg, wall
from planarsig.cli import load_document
from planarsig.fibration import PlanarFibration
from planarsig.linalg import RationalMatrix, SignatureTriple, Subspace, symmetric_signature
from planarsig.properties import random_fibration, random_proper_subset
from planarsig.surfaces import (
    CurveClass,
    NonAllowableCycleError,
    PlanarSurface,
    TorusBoundarySpace,
)
from planarsig.wall import (
    WallTriple,
    lplus_closed_form,
    lplus_kernel,
    mapping_torus_boundary_map,
    psi_gram_closed_form,
    standard_triple,
    wall_correction,
)

from test_surfaces import basis_l, basis_m

GOLDEN = pathlib.Path(__file__).parent / "golden"

def curves(*subsets):
    return [CurveClass.enclosing(s) for s in subsets]


def class_vectors(r, cs):
    surface = PlanarSurface(r)
    return [surface.class_vector(c) for c in cs]


def triple_of(r, cs):
    return standard_triple(mapping_torus_boundary_map(r, class_vectors(r, cs)))


def all_proper_subsets(r):
    out = []
    for k in range(1, r + 1):
        out.extend(frozenset(c) for c in combinations(range(r + 1), k))
    return out


class TestWallTriple:
    def test_isotropy_enforced(self):
        z = TorusBoundarySpace(0)
        lag = Subspace(2, [basis_m(z, 0)])
        mixed = Subspace(2, [basis_m(z, 0), basis_l(z, 0)])
        with pytest.raises(ValueError, match="isotropic"):
            WallTriple(space=z, l_minus=mixed, l_zero=lag, l_plus=lag)

    def test_isotropy_reads_longitude_coordinates(self):
        # r = 2, coordinates (m_0, l_0, m_1, l_1, m_2, l_2).  Every vector
        # pairs to zero with itself.  m_1 + l_2 and l_0 + m_2 pair to -1,
        # and only through l_2, an odd index; m_1 + l_2 and l_1 + m_2 pair
        # to 1 - 1 = 0, which a wrongly signed or placed term would spoil.
        z = TorusBoundarySpace(2)
        l_minus = Subspace(z.dim, [basis_m(z, i) for i in range(3)])
        l_zero = Subspace(z.dim, [basis_l(z, i) for i in range(3)])
        a = [0, 0, 1, 0, 0, 1]
        assert z.pair(a, [0, 1, 0, 0, 1, 0]) == -1
        bad = Subspace(z.dim, [a, [0, 1, 0, 0, 1, 0]])
        with pytest.raises(ValueError, match="l_plus is not isotropic"):
            WallTriple(space=z, l_minus=l_minus, l_zero=l_zero, l_plus=bad)
        good = Subspace(z.dim, [a, [0, 0, 0, 1, 1, 0]])
        WallTriple(space=z, l_minus=l_minus, l_zero=l_zero, l_plus=good)

    def test_ambient_mismatch(self):
        z = TorusBoundarySpace(1)
        small = Subspace(2, [[1, 0]])
        lag = Subspace(4, [basis_m(z, 0)])
        with pytest.raises(ValueError, match="ambient"):
            WallTriple(space=z, l_minus=small, l_zero=lag, l_plus=lag)


class TestWallCorrection:
    def test_degenerate_triple_collapses(self):
        # With L+ equal to L0 the numerator and denominator of the
        # quotient coincide, so the correction vanishes.
        z = TorusBoundarySpace(2)
        l_minus = Subspace(z.dim, [basis_m(z, i) for i in range(3)])
        l_zero = Subspace(z.dim, [basis_l(z, i) for i in range(3)])
        result = wall_correction(
            WallTriple(space=z, l_minus=l_minus, l_zero=l_zero, l_plus=l_zero)
        )
        assert result.w_dim == 0
        assert result.correction == SignatureTriple(0, 0, 0)
        assert result.defect == 0

    def test_three_cycles_on_three_holed_sphere(self):
        result = wall_correction(triple_of(2, curves({1}, {2}, {1, 2})))
        assert result.w_dim == 2
        assert result.defect == 2
        assert result.correction == SignatureTriple(2, 0, 0)

    def test_trivial_monodromy(self):
        result = wall_correction(triple_of(3, []))
        assert result.w_dim == 0
        assert result.defect == 0

    def test_psi_exactly_symmetric(self):
        rng = random.Random(101)
        for _ in range(20):
            r = rng.randint(1, 4)
            cs = curves(*(random_proper_subset(rng, r) for _ in range(rng.randint(0, 6))))
            psi = wall_correction(triple_of(r, cs)).psi
            assert psi == psi.transpose()

    def test_asymmetric_psi_is_refused(self, monkeypatch):
        # A pairing that is not skew (m_0 . l_0 counted twice, l_0 . m_0
        # once) makes Psi asymmetric; wall_correction must refuse it
        # rather than pass it on to the inertia.
        skew = TorusBoundarySpace.pair

        def lopsided(self, u, v):
            return skew(self, u, v) + u[0] * v[1]

        monkeypatch.setattr(TorusBoundarySpace, "pair", lopsided)
        with pytest.raises(RuntimeError, match="induced form came out asymmetric"):
            wall_correction(triple_of(2, curves({1}, {2}, {1, 2})))

    def test_representative_outside_l0_plus_lplus_is_refused(self, monkeypatch):
        # A solve that finds no decomposition of a quotient representative
        # must be refused, not unpacked.
        monkeypatch.setattr(wall, "solve_many", lambda M, rhs: [None] * len(rhs))
        with pytest.raises(
            RuntimeError, match=r"^quotient representative failed to decompose inside L0 \+ L\+; "
        ):
            wall_correction(triple_of(2, curves({1}, {2}, {1, 2})))

    def test_positive_definite_of_span_rank(self):
        rng = random.Random(103)
        for _ in range(30):
            r = rng.randint(1, 5)
            cs = curves(*(random_proper_subset(rng, r) for _ in range(rng.randint(0, 8))))
            fib_rank = RationalMatrix(class_vectors(r, cs), n_cols=r).transpose().rank()
            result = wall_correction(triple_of(r, cs))
            assert result.correction == SignatureTriple(result.w_dim, 0, 0)
            assert result.w_dim == fib_rank


class TestBoundaryMap:
    def test_trivial_monodromy_sends_longitudes_to_l0(self):
        bmap = mapping_torus_boundary_map(3, [])
        z = TorusBoundarySpace(3)
        for j in range(1, 4):
            col = [bmap.matrix[i, z.l_index(j)] for i in range(bmap.matrix.n_rows)]
            assert col == [0, 0, 0, 1]

    def test_single_cycle_on_annulus(self):
        bmap = mapping_torus_boundary_map(1, class_vectors(1, curves({1})))
        # Domain order (m_0, l_0, m_1, l_1), codomain (m_1, l_0);
        # the twist sends l_1 to l_0 - m_1.
        assert bmap.matrix == RationalMatrix([[-1, 0, 1, -1], [0, 1, 0, 1]])

    def test_rejects_null_homologous_cycle(self):
        null = [CurveClass.explicit([0, 0])]
        with pytest.raises(NonAllowableCycleError):
            PlanarFibration(PlanarSurface(2), null).boundary_map()
        forced = PlanarFibration(PlanarSurface(2), null, force=True).boundary_map()
        assert forced == mapping_torus_boundary_map(2, [(0, 0)])
        assert forced.matrix.shape == (3, 6)


@pytest.mark.parametrize("build",
                         [mapping_torus_boundary_map, lplus_closed_form, psi_gram_closed_form],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("vectors", [
    [[1]],
    [[0, 1], [1, 1, 1]],
    [[Fraction(1, 2), 1]],
    [[1, 0], [True, 0]],
    [[1, 0], [0, 1], [1, 1.0]],
], ids=["short", "long", "fraction", "bool", "float"])
def test_cycle_vectors_are_checked(build, vectors):
    # r = 2: each vector needs two int entries; the last one given has not.
    with pytest.raises(ValueError, match=f"^cycle vector {len(vectors) - 1} "):
        build(2, vectors)


@pytest.mark.parametrize("build",
                         [mapping_torus_boundary_map, lplus_closed_form, psi_gram_closed_form],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("r", [-1, 2.0, True], ids=repr)
def test_boundary_count_is_checked(build, r):
    with pytest.raises(ValueError, match="^boundary count parameter r "):
        build(r, [])


class TestLplus:
    def test_kernel_dimension(self, monkeypatch):
        rng = random.Random(107)
        for _ in range(20):
            r = rng.randint(0, 5)
            m = rng.randint(0, 6) if r else 0
            cs = curves(*(random_proper_subset(rng, r) for _ in range(m)))
            bmap = mapping_torus_boundary_map(r, class_vectors(r, cs))
            assert lplus_kernel(bmap).dim == r + 1
        # A kernel of the wrong dimension is refused, also under python -O.
        bmap = mapping_torus_boundary_map(2, [])
        monkeypatch.setattr(RationalMatrix, "kernel", lambda self: Subspace(self.n_cols))
        with pytest.raises(RuntimeError, match="indicates a bug"):
            lplus_kernel(bmap)

    def test_meridian_sum_always_in_kernel(self):
        rng = random.Random(109)
        for _ in range(20):
            r = rng.randint(1, 5)
            cs = curves(*(random_proper_subset(rng, r) for _ in range(rng.randint(0, 6))))
            z = TorusBoundarySpace(r)
            total_m = [0] * z.dim
            for i in range(r + 1):
                total_m[z.m_index(i)] = 1
            bmap = mapping_torus_boundary_map(r, class_vectors(r, cs))
            assert total_m in lplus_kernel(bmap)

    def test_trivial_monodromy_kernel_members(self):
        z = TorusBoundarySpace(2)
        kernel = lplus_kernel(mapping_torus_boundary_map(2, []))
        for j in range(1, 3):
            diff = [a - b for a, b in zip(basis_l(z, j), basis_l(z, 0))]
            assert diff in kernel

    def test_closed_form_single_cycle(self):
        got = lplus_closed_form(1, class_vectors(1, curves({1})))
        # Generators l_1 - l_0 + m_1 and m_0 + m_1 in order (m_0, l_0, m_1, l_1).
        expected = Subspace(4, [[0, -1, 1, 1], [1, 0, 1, 0]])
        assert got == expected

    def test_closed_form_trivial_monodromy(self):
        z = TorusBoundarySpace(2)
        gens = []
        for j in range(1, 3):
            gens.append([a - b for a, b in zip(basis_l(z, j), basis_l(z, 0))])
        total_m = [0] * z.dim
        for i in range(3):
            total_m[z.m_index(i)] = 1
        gens.append(total_m)
        assert lplus_closed_form(2, []) == Subspace(z.dim, gens)

    def test_closed_form_equals_kernel_exhaustive_small(self):
        for r in range(1, 4):
            subsets = all_proper_subsets(r)
            for m in range(3):
                for combo in combinations_with_replacement(subsets, m):
                    xs = class_vectors(r, curves(*combo))
                    assert lplus_closed_form(r, xs) == lplus_kernel(
                        mapping_torus_boundary_map(r, xs)
                    )

    def test_closed_form_equals_kernel_randomized(self):
        rng = random.Random(113)
        for _ in range(60):
            r = rng.randint(1, 6)
            m = rng.randint(0, 20)
            xs = class_vectors(r, curves(*(random_proper_subset(rng, r) for _ in range(m))))
            assert lplus_closed_form(r, xs) == lplus_kernel(
                mapping_torus_boundary_map(r, xs)
            )


class TestStandardTriple:
    def test_component_dimensions(self):
        rng = random.Random(127)
        for r in range(1, 5):
            cs = curves(*(random_proper_subset(rng, r) for _ in range(3)))
            triple = triple_of(r, cs)
            assert triple.l_minus.dim == r + 1
            assert triple.l_zero.dim == r + 1
            assert triple.l_plus.dim == r + 1
            assert triple.space.dim == 2 * (r + 1)

    def test_meridians_meet_longitudes_trivially(self):
        triple = triple_of(3, curves({1}, {2, 3}))
        assert (triple.l_minus & triple.l_zero) == Subspace(8)

    def test_meridians_meet_kernel_in_meridian_sum(self):
        z = TorusBoundarySpace(3)
        triple = triple_of(3, curves({1}, {2, 3}))
        total_m = [0] * z.dim
        for i in range(4):
            total_m[z.m_index(i)] = 1
        assert (triple.l_minus & triple.l_plus) == Subspace(z.dim, [total_m])

    @pytest.mark.parametrize("name", ["large_r16_m80", "wide_r32_m2"])
    def test_meridians_meet_kernel_without_clearing(self, monkeypatch, name):
        # L+ keeps the boundary map's rows as its equations.  L- pins every
        # longitude, which leaves the rows m_{i+1} - m_0, each at its own
        # lowest column, so the meet eliminates without a _clear.
        triple = standard_triple(load_document((GOLDEN / f"{name}.json").read_text())
                                 .fibration.boundary_map())
        z = triple.space
        calls = []
        clear = linalg._clear
        monkeypatch.setattr(linalg, "_clear", lambda *args: calls.append(args) or clear(*args))
        meet = triple.l_minus & triple.l_plus
        assert calls == []
        total_m = [0] * z.dim
        for i in range(z.r + 1):
            total_m[z.m_index(i)] = 1
        assert meet == Subspace(z.dim, [total_m])


class TestGramClosedForm:
    def test_trivial_monodromy_gram_is_zero(self):
        assert psi_gram_closed_form(3, []) == RationalMatrix([[0] * 3 for _ in range(3)])

    def test_three_cycle_example(self):
        got = psi_gram_closed_form(2, class_vectors(2, curves({1}, {2}, {1, 2})))
        assert got == RationalMatrix([[2, 1], [1, 2]])

    def test_rank_matches_cycle_matrix(self):
        rng = random.Random(131)
        for _ in range(30):
            r = rng.randint(1, 5)
            cs = curves(*(random_proper_subset(rng, r) for _ in range(rng.randint(0, 8))))
            xs = class_vectors(r, cs)
            B = RationalMatrix(xs, n_cols=r).transpose()
            assert psi_gram_closed_form(r, xs).rank() == B.rank()

    def test_gram_inertia(self):
        rng = random.Random(137)
        for _ in range(30):
            r = rng.randint(1, 5)
            cs = curves(*(random_proper_subset(rng, r) for _ in range(rng.randint(0, 8))))
            xs = class_vectors(r, cs)
            d = RationalMatrix(xs, n_cols=r).transpose().rank()
            sig = symmetric_signature(psi_gram_closed_form(r, xs))
            assert sig == SignatureTriple(d, 0, r - d)


class TestInvariance:
    def test_cycle_order_irrelevant(self):
        rng = random.Random(139)
        for _ in range(10):
            r = rng.randint(1, 4)
            cs = curves(*(random_proper_subset(rng, r) for _ in range(rng.randint(2, 6))))
            base = wall_correction(triple_of(r, cs))
            shuffled = cs[:]
            rng.shuffle(shuffled)
            other = wall_correction(triple_of(r, shuffled))
            assert other.defect == base.defect
            assert other.w_dim == base.w_dim
            assert other.correction == base.correction

    def test_cycle_sign_irrelevant(self):
        # Curves are unoriented: cycle k given by its negated class
        # vector, or by the complement of its enclosed set, is the same
        # curve, and L+ and the correction stay put.
        rng = random.Random(149)
        for _ in range(10):
            r = rng.randint(1, 4)
            cs = curves(*(random_proper_subset(rng, r) for _ in range(rng.randint(1, 6))))
            base = triple_of(r, cs)
            k = rng.randrange(len(cs))
            negated = CurveClass.explicit([-x for x in PlanarSurface(r).class_vector(cs[k])])
            complement = CurveClass.enclosing(frozenset(range(r + 1)) - cs[k].encloses)
            assert class_vectors(r, [complement]) == class_vectors(r, [negated])
            for curve in (negated, complement):
                flipped = cs[:k] + [curve] + cs[k + 1 :]
                other = triple_of(r, flipped)
                assert other.l_plus == base.l_plus
                assert wall_correction(other) == wall_correction(base)


def check_psi_inertia_within_hadamard_bound(fib, monkeypatch):
    """Every integer that ``symmetric_signature`` hands to ``gcd`` while it
    diagonalizes Psi is at most the Hadamard bound of Psi's stored
    integer rows, the product of their Euclidean norms (compared
    squared, so exactly)."""
    psi = wall_correction(standard_triple(fib.boundary_map())).psi
    bound2 = math.prod(max(1, sum(x * x for x in row.values())) for row in psi._rows)
    seen = []

    def recording_gcd(*args):
        seen.extend(args)
        return math.gcd(*args)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "gcd", recording_gcd)
        symmetric_signature(psi)
    if psi.n_rows > 1:
        assert seen, "no content was taken"
    worst = max(map(abs, seen), default=0)
    assert worst * worst <= bound2, (
        f"entry of {worst.bit_length()} bits over a bound of {bound2.bit_length() // 2} bits "
        f"at (r, m) = ({fib.surface.r}, {fib.m})"
    )


def test_psi_inertia_stays_within_the_hadamard_bound(monkeypatch):
    """The trailing blocks of the inertia of Psi keep to the Hadamard
    bound of Psi's stored rows.

    The bound is measured, not proved: the entries a block is scaled to
    before its content is divided out are not minors of Psi.  It holds
    on the 400 ``random_fibration(Random(5), 8, 30)`` draws below, with
    equality on some 2 x 2 Psi, and on the (16, 80) and (40, 200)
    golden documents, with 925 and 8,358 bits to spare.  Without the
    content division an early draw passes it: 77 bits against 39 at
    (r, m) = (4, 23).  The bound does not hold for the closed-form Gram
    matrix (29 and 106 bits over on the two goldens), so only Psi is
    checked.
    """
    rng = random.Random(5)
    for _ in range(400):
        check_psi_inertia_within_hadamard_bound(random_fibration(rng, 8, 30), monkeypatch)
    for name in ("large_r16_m80", "scale_r40_m200"):
        fib = load_document((GOLDEN / f"{name}.json").read_text()).fibration
        check_psi_inertia_within_hadamard_bound(fib, monkeypatch)
