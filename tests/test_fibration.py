import random

import pytest

from planarsig.fibration import (
    NEGATIVE_DEFINITE,
    ZERO_FORM,
    PlanarFibration,
    family_y1,
    family_y2,
)
from planarsig.linalg import RationalMatrix, SignatureTriple, Subspace
from planarsig.properties import random_proper_subset
from planarsig.surfaces import CurveClass, NonAllowableCycleError, PlanarSurface


def fib(r, *subsets, force=False):
    return PlanarFibration(
        PlanarSurface(r), [CurveClass.enclosing(s) for s in subsets], force=force
    )


THREE_CYCLES = ({1}, {2}, {1, 2})


class TestConstruction:
    def test_null_homologous_cycle_rejected(self):
        with pytest.raises(NonAllowableCycleError):
            PlanarFibration(PlanarSurface(2), [CurveClass.explicit([0, 0])])

    def test_force_accepts_and_marks(self):
        f = PlanarFibration(PlanarSurface(2), [CurveClass.explicit([0, 0])], force=True)
        assert not f.allowable
        assert f.betti_report().allowable is False

    def test_disk_fiber_admits_only_empty_words(self):
        f = PlanarFibration(PlanarSurface(0), [])
        assert f.betti_report().sigma == 0
        with pytest.raises(NonAllowableCycleError):
            PlanarFibration(PlanarSurface(0), [CurveClass.explicit([])])

    def test_class_vectors_stay_out_of_eq_hash_repr(self):
        f = fib(2, {1}, {1, 2})
        g = fib(2, {1}, {1, 2})
        assert f == g and hash(f) == hash(g)
        assert f.class_vectors() == [(1, 0), (1, 1)]
        assert repr(f) == (
            f"PlanarFibration(surface={f.surface!r}, cycles={f.cycles!r}, force=False)"
        )

    def test_repeated_cycles_are_legal(self):
        f = fib(2, {1}, {1}, {1})
        assert f.m == 3
        assert f.cycle_span_dim() == 1


class TestCycleMatrix:
    def test_empty(self):
        assert fib(3).cycle_matrix().shape == (3, 0)

    def test_three_cycles(self):
        assert fib(2, *THREE_CYCLES).cycle_matrix() == RationalMatrix(
            [[1, 0, 1], [0, 1, 1]]
        )

    def test_pair_family_columns_are_pair_indicators(self):
        f = family_y1(2)
        B = f.cycle_matrix()
        assert B.shape == (3, 3)
        cols = {tuple(B[i, j] for i in range(3)) for j in range(3)}
        assert cols == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}


class TestSignature:
    def test_no_cycles(self):
        assert fib(3).signature_from_cycle_span() == 0
        assert fib(3).signature_wall_oracle() == 0

    def test_single_cycle(self):
        f = fib(3, {1})
        assert f.signature_from_cycle_span() == 0
        assert f.signature_wall_oracle() == 0

    def test_three_cycles_agree(self):
        f = fib(2, *THREE_CYCLES)
        assert f.signature_from_cycle_span() == -1
        assert f.signature_wall_oracle() == -1

    def test_random_instances_agree(self):
        rng = random.Random(211)
        for _ in range(50):
            r = rng.randint(1, 5)
            cycles = [
                CurveClass.enclosing(random_proper_subset(rng, r))
                for _ in range(rng.randint(0, 10))
            ]
            f = PlanarFibration(PlanarSurface(r), cycles)
            assert f.signature_from_cycle_span() == f.signature_wall_oracle()

    def test_nonpositive_and_zero_iff_independent(self):
        rng = random.Random(223)
        for _ in range(40):
            r = rng.randint(1, 5)
            cycles = [
                CurveClass.enclosing(random_proper_subset(rng, r))
                for _ in range(rng.randint(0, 8))
            ]
            f = PlanarFibration(PlanarSurface(r), cycles)
            sigma = f.signature_from_cycle_span()
            assert sigma <= 0
            assert (sigma == 0) == (f.cycle_span_dim() == f.m)

    def test_append_in_span_costs_one(self):
        rng = random.Random(227)
        for _ in range(30):
            r = rng.randint(1, 5)
            cycles = [
                CurveClass.enclosing(random_proper_subset(rng, r))
                for _ in range(rng.randint(0, 6))
            ]
            f = PlanarFibration(PlanarSurface(r), cycles)
            extra = CurveClass.enclosing(random_proper_subset(rng, r))
            span = Subspace(r, f.class_vectors())
            in_span = f.surface.class_vector(extra) in span
            extended = PlanarFibration(f.surface, f.cycles + (extra,))
            delta = extended.signature_from_cycle_span() - f.signature_from_cycle_span()
            assert delta == (-1 if in_span else 0)


class TestBettiReport:
    def test_trivial_bundle(self):
        report = fib(3).betti_report()
        assert (report.sigma, report.b1, report.b2, report.euler) == (0, 3, 0, -2)
        assert report.definiteness == ZERO_FORM
        assert report.form == SignatureTriple(0, 0, 0)
        assert report.oracle_agrees

    def test_three_cycles(self):
        report = fib(2, *THREE_CYCLES).betti_report()
        assert report.m == 3
        assert report.d == 2
        assert report.sigma == -1
        assert report.b1 == 0
        assert report.b2 == 1
        assert report.euler == 2
        assert report.definiteness == NEGATIVE_DEFINITE
        assert report.form == SignatureTriple(0, 1, 0)
        assert report.oracle_agrees

    def test_parallel_family_at_three(self):
        # r = 3 gives a fiber with five boundary circles (surface
        # parameter 4), nine cycles spanning four dimensions.
        report = family_y2(3).betti_report()
        assert report.m == 9
        assert report.r == 4
        assert report.d == 4
        assert report.sigma == -5
        assert report.b1 == 0
        assert report.b2 == 5
        assert report.euler == 1 - 4 + 9
        assert report.oracle_agrees

    def test_betti_identity_random(self):
        rng = random.Random(229)
        for _ in range(40):
            r = rng.randint(1, 5)
            cycles = [
                CurveClass.enclosing(random_proper_subset(rng, r))
                for _ in range(rng.randint(0, 8))
            ]
            report = PlanarFibration(PlanarSurface(r), cycles).betti_report()
            assert report.sigma == -report.m + report.r - report.b1
            assert report.form == SignatureTriple(0, report.m - report.d, 0)
            assert report.definiteness in (NEGATIVE_DEFINITE, ZERO_FORM)

    def test_order_independent(self):
        rng = random.Random(233)
        base = fib(3, {1}, {2, 3}, {1, 2}, {3})
        report = base.betti_report()
        for _ in range(5):
            order = list(range(base.m))
            rng.shuffle(order)
            permuted = PlanarFibration(base.surface, [base.cycles[i] for i in order])
            assert permuted.betti_report() == report


class TestFamilies:
    def test_small_parameters_rejected(self):
        for bad in (-1, 0, 1):
            with pytest.raises(ValueError):
                family_y1(bad)
            with pytest.raises(ValueError):
                family_y2(bad)

    def test_pair_family_counts(self):
        for r in range(2, 9):
            f = family_y1(r)
            assert f.surface.r == r + 1
            assert f.m == r * (r + 1) // 2
            assert f.cycle_span_dim() == r + 1

    def test_parallel_family_counts(self):
        for r in range(2, 9):
            f = family_y2(r)
            assert f.surface.r == r + 1
            assert f.m == r * r
            assert f.cycle_span_dim() == r + 1

    def test_pair_family_signatures(self):
        assert family_y1(2).signature_from_cycle_span() == 0
        assert family_y1(3).signature_from_cycle_span() == -2
        assert family_y1(5).signature_from_cycle_span() == -9

    def test_parallel_family_signatures(self):
        assert family_y2(2).signature_from_cycle_span() == -1
        assert family_y2(3).signature_from_cycle_span() == -5
        assert family_y2(4).signature_from_cycle_span() == -11

    def test_families_share_boundary_map(self):
        # Same global monodromy, so the mapping torus boundary maps
        # coincide, while the signatures differ.
        for r in range(2, 6):
            a = family_y1(r)
            b = family_y2(r)
            assert a.boundary_map() == b.boundary_map()
            assert (
                a.signature_from_cycle_span() != b.signature_from_cycle_span()
            )
