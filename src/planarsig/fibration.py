"""Lefschetz fibrations over the disk with planar fiber.

A fibration is a planar fiber together with an ordered list of
vanishing cycles.  Its signature is computed two independent ways:

* the closed form -m + dim<gamma_1, ..., gamma_m>, where m is the
  number of cycles and the span is taken in H_1 of the fiber; and
* a gluing computation: capping the fibration off to a closed-up piece
  of known signature -m and recovering the original signature through
  the non-additivity correction of the standard triple, using that the
  outer piece (a union of disk bundles) has signature zero.

Agreement of the two is the central consistency check of the package
and is enforced in ``betti_report`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .linalg import RationalMatrix, SignatureTriple
from .surfaces import CurveClass, NonAllowableCycleError, PlanarSurface
from .wall import (
    MappingTorusBoundaryMap,
    WallCorrection,
    mapping_torus_boundary_map,
    standard_triple,
    wall_correction,
)

NEGATIVE_DEFINITE = "negative-definite"
ZERO_FORM = "zero-form"


@dataclass(frozen=True)
class PlanarFibration:
    """A planar fiber and its ordered vanishing cycles.

    The cycle order is part of the data (it records the circular order
    of critical values) but no exported invariant depends on it.
    Null-homologous cycles are rejected unless ``force`` is set.  The
    cycles' class vectors are computed and checked once, here, and
    every invariant is derived from them.
    """

    surface: PlanarSurface
    cycles: tuple[CurveClass, ...]
    force: bool = False
    _vectors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, surface: PlanarSurface, cycles=(), force: bool = False):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "cycles", tuple(cycles))
        object.__setattr__(self, "force", bool(force))
        # class_vector validates each curve's shape and range.
        vectors = tuple(surface.class_vector(c) for c in self.cycles)
        if not self.force:
            for i, v in enumerate(vectors):
                if not any(v):
                    raise NonAllowableCycleError(i)
        object.__setattr__(self, "_vectors", vectors)

    @property
    def m(self) -> int:
        return len(self.cycles)

    @property
    def allowable(self) -> bool:
        return all(any(v) for v in self._vectors)

    def class_vectors(self) -> list[tuple[int, ...]]:
        return list(self._vectors)

    def cycle_matrix(self) -> RationalMatrix:
        """r x m matrix whose s-th column is the class of cycle s."""
        return RationalMatrix(self._vectors, n_cols=self.surface.r).transpose()

    def cycle_span_dim(self) -> int:
        return self.cycle_matrix().rank()

    def signature_from_cycle_span(self) -> int:
        """Signature by the closed form: -m + dim of the cycle span."""
        return -self.m + self.cycle_span_dim()

    def boundary_map(self) -> MappingTorusBoundaryMap:
        return mapping_torus_boundary_map(self.surface.r, self._vectors)

    def wall_correction(self) -> WallCorrection:
        return wall_correction(standard_triple(self.boundary_map()))

    def signature_wall_oracle(self) -> int:
        """Signature recomputed through the gluing correction.

        The closed-up total space has signature -m (it is a blow-up of
        a sphere bundle, one blow-up per cycle) and the capping piece
        has signature 0, so the fibration's signature is -m plus the
        correction term of the standard triple.
        """
        return -self.m + self.wall_correction().defect

    def betti_report(self, wall: WallCorrection | None = None) -> "InvariantsReport":
        """All exported invariants, with the two signature paths compared."""
        m = self.m
        r = self.surface.r
        d = self.cycle_span_dim()
        sigma = -m + d
        b1 = r - d
        b2 = m - d
        if wall is None:
            wall = self.wall_correction()
        oracle_sigma = -m + wall.defect
        return InvariantsReport(
            m=m,
            r=r,
            d=d,
            sigma=sigma,
            b1=b1,
            b2=b2,
            euler=1 - r + m,
            definiteness=NEGATIVE_DEFINITE if b2 > 0 else ZERO_FORM,
            form=SignatureTriple(0, b2, 0),
            oracle_sigma=oracle_sigma,
            oracle_agrees=oracle_sigma == sigma,
            allowable=self.allowable,
        )


@dataclass(frozen=True)
class InvariantsReport:
    """Exact invariants of a planar fibration.

    ``d`` is the dimension of the span of the cycle classes; ``form``
    is the inertia triple of the intersection form on second homology,
    which is always (0, b2, 0): negative definite, or zero when b2 = 0.
    ``oracle_sigma`` comes from the independent gluing pipeline and
    must equal ``sigma`` on every valid input.
    """

    m: int
    r: int
    d: int
    sigma: int
    b1: int
    b2: int
    euler: int
    definiteness: str
    form: SignatureTriple
    oracle_sigma: int
    oracle_agrees: bool
    allowable: bool


def family_y1(r: int) -> PlanarFibration:
    """Fibration on a fiber with r+2 boundary circles, one cycle around
    each pair of non-distinguished circles, in lexicographic order.

    Has r(r+1)/2 cycles spanning an (r+1)-dimensional subspace, hence
    signature -(r-2)(r+1)/2.  Requires r >= 2: at r = 1 the single
    cycle spans only one dimension and the closed form for the span
    breaks down.
    """
    if r < 2:
        raise ValueError("family y1 requires r >= 2")
    surface = PlanarSurface(r + 1)
    cycles = [CurveClass.enclosing(pair) for pair in combinations(range(1, r + 2), 2)]
    return PlanarFibration(surface, cycles)


def expected_sigma_y1(r: int) -> int:
    """Closed-form signature -(r-2)(r+1)/2 of ``family_y1(r)``."""
    return -(r - 2) * (r + 1) // 2


def family_y2(r: int) -> PlanarFibration:
    """Fibration on the same fiber as family y1 with boundary-parallel
    cycles: one around circle 0, then r-1 around each other circle.

    Has r*r cycles spanning the full (r+1)-dimensional space, hence
    signature -r^2 + r + 1.  Shares its boundary map with family y1 at
    equal r (the two monodromies agree) while the signatures differ.
    """
    if r < 2:
        raise ValueError("family y2 requires r >= 2")
    surface = PlanarSurface(r + 1)
    cycles = [CurveClass.enclosing({0})]
    for i in range(1, r + 2):
        cycles.extend([CurveClass.enclosing({i})] * (r - 1))
    return PlanarFibration(surface, cycles)


def expected_sigma_y2(r: int) -> int:
    """Closed-form signature -r^2 + r + 1 of ``family_y2(r)``."""
    return -r * r + r + 1
