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

from .linalg import RationalMatrix, SignatureTriple, _check_int
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
    Null-homologous cycles are rejected unless ``force``, which must be
    a bool, is True.  The cycles' class vectors are computed and
    checked once, here, and every invariant is derived from them.
    """

    surface: PlanarSurface
    cycles: tuple[CurveClass, ...] = ()
    force: bool = False
    _vectors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        if not isinstance(self.force, bool):
            raise ValueError(f"force must be a bool, not {self.force!r}")
        # class_vector validates each curve's shape and range.
        vectors = tuple([self.surface.class_vector(c) for c in self.cycles])
        object.__setattr__(self, "_vectors", vectors)
        if not (self.force or self.allowable):
            raise NonAllowableCycleError([any(v) for v in vectors].index(False))

    @property
    def m(self) -> int:
        return len(self.cycles)

    @property
    def allowable(self) -> bool:
        return all(map(any, self._vectors))

    def class_vectors(self) -> list[tuple[int, ...]]:
        return list(self._vectors)

    def cycle_matrix(self) -> RationalMatrix:
        """r x m matrix whose s-th column is the class of cycle s, built
        from its r rows."""
        rows = zip(*self._vectors) if self._vectors else [()] * self.surface.r
        return RationalMatrix(rows, n_cols=self.m)

    def cycle_span_dim(self) -> int:
        """Rank of the cycle matrix, eliminated over the rows of whichever
        of it and its transpose has fewer rows."""
        if self.m < self.surface.r:
            return RationalMatrix(self._vectors, n_cols=self.surface.r).rank()
        return self.cycle_matrix().rank()

    def signature_from_cycle_span(self) -> int:
        """Signature by the closed form: -m + dim of the cycle span."""
        return -self.m + self.cycle_span_dim()

    def boundary_map(self) -> MappingTorusBoundaryMap:
        return mapping_torus_boundary_map(self.surface.r, self._vectors)

    def betti_report(self) -> "InvariantsReport":
        """All exported invariants, from both signature routes, each run once.

        The closed form gives -m + d.  The gluing route builds the
        boundary map and the correction of its standard triple: the
        closed-up total space has signature -m (it is a blow-up of a
        sphere bundle, one blow-up per cycle) and the capping piece has
        signature 0, so the fibration's signature is -m plus the
        correction term.  The report keeps the map and the correction.
        """
        m, r, d = self.m, self.surface.r, self.cycle_span_dim()
        sigma, b2 = -m + d, m - d
        bmap = self.boundary_map()
        wall = wall_correction(standard_triple(bmap))
        oracle_sigma = -m + wall.defect
        return InvariantsReport(
            m=m,
            r=r,
            d=d,
            sigma=sigma,
            b1=r - d,
            b2=b2,
            euler=1 - r + m,
            definiteness=NEGATIVE_DEFINITE if b2 > 0 else ZERO_FORM,
            intersection_form=SignatureTriple(0, b2, 0),
            allowable=self.allowable,
            oracle_sigma=oracle_sigma,
            oracle_agrees=oracle_sigma == sigma,
            wall=wall,
            boundary_map=bmap,
        )


@dataclass(frozen=True)
class InvariantsReport:
    """Exact invariants of a planar fibration.

    The fields are the keys of a ``compute`` report, in the order it
    prints them; the CLI writes ``wall`` and ``boundary_map`` as
    matrices of strings.  ``d`` is the dimension of the span of the
    cycle classes; ``intersection_form`` is the inertia triple of the
    intersection form on second homology, which is always (0, b2, 0):
    negative definite, or zero when b2 = 0.  ``oracle_sigma`` comes from
    the independent gluing pipeline and must equal ``sigma`` on every
    valid input; ``wall`` and ``boundary_map`` are that pipeline's
    correction and boundary map.
    """

    m: int
    r: int
    d: int
    sigma: int
    b1: int
    b2: int
    euler: int
    definiteness: str
    intersection_form: SignatureTriple
    allowable: bool
    oracle_sigma: int
    oracle_agrees: bool
    wall: WallCorrection
    boundary_map: MappingTorusBoundaryMap


def family_y1(r: int) -> PlanarFibration:
    """Fibration on a fiber with r+2 boundary circles, one cycle around
    each pair of non-distinguished circles, in lexicographic order.

    Has r(r+1)/2 cycles spanning an (r+1)-dimensional subspace, hence
    signature -(r-2)(r+1)/2.  Requires r >= 2: at r = 1 the single
    cycle spans only one dimension and the closed form for the span
    breaks down.
    """
    _check_int(r, "family parameter r", 2)
    surface = PlanarSurface(r + 1)
    cycles = [CurveClass.enclosing(pair) for pair in combinations(range(1, r + 2), 2)]
    return PlanarFibration(surface, cycles)


def expected_sigma_y1(r: int) -> int:
    """Closed-form signature -(r-2)(r+1)/2 of ``family_y1(r)``; r >= 2."""
    _check_int(r, "family parameter r", 2)
    return -(r - 2) * (r + 1) // 2


def family_y2(r: int) -> PlanarFibration:
    """Fibration on the same fiber as family y1 with boundary-parallel
    cycles: one around circle 0, then r-1 around each other circle.

    Has r*r cycles spanning the full (r+1)-dimensional space, hence
    signature -r^2 + r + 1.  Shares its boundary map with family y1 at
    equal r (the two monodromies agree) while the signatures differ.
    """
    _check_int(r, "family parameter r", 2)
    surface = PlanarSurface(r + 1)
    cycles = [CurveClass.enclosing({0})]
    for i in range(1, r + 2):
        cycles.extend([CurveClass.enclosing({i})] * (r - 1))
    return PlanarFibration(surface, cycles)


def expected_sigma_y2(r: int) -> int:
    """Closed-form signature -r^2 + r + 1 of ``family_y2(r)``; r >= 2."""
    _check_int(r, "family parameter r", 2)
    return -r * r + r + 1
