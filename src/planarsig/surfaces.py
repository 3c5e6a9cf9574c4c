"""Homology of bordered surfaces, their curves, and boundary tori.

Conventions used throughout:

* A planar surface has boundary circles indexed 0..r, with circle 0
  distinguished.  H_1 has basis m_1, ..., m_r, where m_i is the class
  of boundary circle i; the classes of all r+1 boundary circles sum to
  zero, so circle 0 carries the class -(m_1 + ... + m_r).
* A simple closed curve on the planar surface is determined up to
  homology by the set of boundary circles it encloses.  Curves can be
  given that way, or as an explicit coefficient vector in the m basis.
* The union of boundary tori of (fiber boundary circles) x (disk
  boundary) has H_1 basis ordered (m_0, l_0, m_1, l_1, ..., m_r, l_r),
  where m_i is the fiber-boundary direction and l_i the disk-boundary
  direction of the i-th torus.  The intersection pairing is fixed so
  that Q(m_i, l_j) = delta_ij and is zero on m-m and l-l pairs.
* The intersection form on H_1 of a planar surface vanishes, so every
  Dehn twist acts trivially on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import Subspace, refuse_floats


class NonAllowableCycleError(ValueError):
    """A vanishing cycle is null-homologous on its fiber.

    ``index`` is the position of the first such cycle in the list.
    """

    def __init__(self, index: int):
        super().__init__(
            f"cycle {index} is null-homologous on the fiber; "
            "pass force=True to compute anyway"
        )
        self.index = index


@dataclass(frozen=True)
class CurveClass:
    """A simple closed curve on a planar surface, up to homology.

    Exactly one of ``encloses`` / ``coefficients`` is set, from any
    iterable of ints (bools and every other type are refused), and is
    stored as a frozenset or a tuple.  An enclosed set must be nonempty;
    whether the curve fits a given surface (index range, proper subset,
    coefficient count) is checked by ``PlanarSurface``.  ``sign``
    records an orientation flip picked up by canonicalization (the
    enclosed-set description of a curve has no preferred orientation;
    no exported invariant depends on it).
    """

    encloses: frozenset[int] | None = None
    coefficients: tuple[int, ...] | None = None
    sign: int = 1

    def __post_init__(self):
        if (self.encloses is None) == (self.coefficients is None):
            raise ValueError("give exactly one of encloses / coefficients")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.encloses is not None:
            # Checked before hashing: {1, True} would collapse to {1}.
            indices = tuple(self.encloses)
            _refuse_non_integers(indices, "enclosed index")
            if not indices:
                raise ValueError("enclosed set must be nonempty")
            object.__setattr__(self, "encloses", frozenset(indices))
        else:
            coefficients = tuple(self.coefficients)
            _refuse_non_integers(coefficients, "coefficient")
            object.__setattr__(self, "coefficients", coefficients)

    @classmethod
    def enclosing(cls, indices: Iterable[int]) -> "CurveClass":
        return cls(encloses=indices)

    @classmethod
    def explicit(cls, coefficients: Sequence[int]) -> "CurveClass":
        return cls(coefficients=coefficients)

    def negated(self) -> "CurveClass":
        return CurveClass(self.encloses, self.coefficients, -self.sign)


def _refuse_non_integers(entries: Sequence, what: str) -> None:
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} {x!r} is not an integer")


@dataclass(frozen=True)
class PlanarSurface:
    """Genus-zero surface with r+1 boundary circles (r >= 0)."""

    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("boundary count parameter r must be >= 0")

    def _check_curve(self, curve: CurveClass) -> None:
        """Raise ValueError unless the curve lies on this surface: one
        coefficient per circle 1..r, or a proper subset of 0..r."""
        if curve.coefficients is not None:
            if len(curve.coefficients) != self.r:
                raise ValueError(
                    f"coefficient vector of length {len(curve.coefficients)}, expected {self.r}"
                )
            return
        bad = [i for i in curve.encloses if not 0 <= i <= self.r]
        if bad:
            raise ValueError(f"enclosed index {min(bad)} out of range 0..{self.r}")
        if len(curve.encloses) == self.r + 1:
            raise ValueError(
                "curve enclosing every boundary circle is null-homologous; "
                "the enclosed set must be a proper subset"
            )

    def class_vector(self, curve: CurveClass) -> tuple[int, ...]:
        """Homology vector of a curve in the basis (m_1, ..., m_r)."""
        self._check_curve(curve)
        if curve.coefficients is not None:
            return tuple(curve.sign * c for c in curve.coefficients)
        # Circle i >= 1 has class m_i and circle 0 has -(m_1 + ... + m_r),
        # so a set holding 0 sums to minus the circles 1..r it leaves out.
        sign = curve.sign
        if 0 in curve.encloses:
            v = [-sign] * self.r
            for i in curve.encloses - {0}:
                v[i - 1] = 0
        else:
            v = [0] * self.r
            for i in curve.encloses:
                v[i - 1] = sign
        return tuple(v)

    def canonical_curve(self, curve: CurveClass) -> CurveClass:
        """Normal form: enclosed sets never contain circle 0.

        When the given set contains 0 it is replaced by its complement,
        which represents the opposite orientation, so the sign flips.
        """
        self._check_curve(curve)
        if curve.encloses is None or 0 not in curve.encloses:
            return curve
        complement = frozenset(range(self.r + 1)) - curve.encloses
        return CurveClass(encloses=complement, sign=-curve.sign)


@dataclass(frozen=True, slots=True)
class TorusBoundarySpace:
    """H_1 of the union of r+1 boundary tori, with its intersection pairing.

    Basis order is (m_0, l_0, m_1, l_1, ..., m_r, l_r); the pairing is
    skew-symmetric and unimodular with Q(m_i, l_j) = delta_ij.
    """

    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("boundary count parameter r must be >= 0")

    @property
    def dim(self) -> int:
        return 2 * (self.r + 1)

    def m_index(self, i: int) -> int:
        self._check_torus(i)
        return 2 * i

    def l_index(self, i: int) -> int:
        self._check_torus(i)
        return 2 * i + 1

    def _check_torus(self, i: int) -> None:
        if not 0 <= i <= self.r:
            raise ValueError(f"torus index {i} out of range 0..{self.r}")

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        """Intersection pairing Q(u, v); skew so Q(u, v) = -Q(v, u).

        Entries may be ints or Fractions; floats are refused.  Only
        the products of two nonzero entries are summed, in ints when
        the entries are ints, and the sum becomes a Fraction once, on
        return.
        """
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(f"vectors must have length {self.dim}")
        refuse_floats(u, v)
        total = 0
        for i in range(0, self.dim, 2):
            a = u[i]
            if a:
                b = v[i + 1]
                if b:
                    total += a * b
            a = u[i + 1]
            if a:
                b = v[i]
                if b:
                    total -= a * b
        return Fraction(total)

    def is_isotropic(self, sub: Subspace) -> bool:
        """True iff Q(u, v) = 0 for all u, v in the subspace.

        Checked on its integer rows, positive multiples of its canonical
        basis vectors held sparsely as ``{coordinate: entry}``: Q is
        bilinear, so scaling does not change whether a pairing is zero.
        Each row's entries are collected once, as the sparse vector Ju
        with Q(u, v) = Ju . v: m_i pairs with the l_i entry of v and
        l_i, negated, with its m_i entry.  Q(u, u) = 0 by
        skew-symmetry, so only distinct pairs are summed.
        """
        if sub.ambient_dim != self.dim:
            raise ValueError(f"subspace of Q^{sub.ambient_dim} in the ambient Q^{self.dim}")
        rows = sub._rows
        for k, u in enumerate(rows):
            ju = [(i + 1, a) if i % 2 == 0 else (i - 1, -a) for i, a in u.items()]
            for v in rows[:k]:
                if sum(a * v[j] for j, a in ju if j in v):
                    return False
        return True
