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

from .linalg import Subspace, _check_int, _refuse_non_integers, vector


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
    stored as a frozenset or a tuple.  An enclosed set must be nonempty
    and name each circle once (a repeated index raises "indices must be
    distinct"); whether the curve fits a given surface (index range,
    proper subset, coefficient count) is checked by ``PlanarSurface``.
    Curves are unoriented: a vanishing cycle enters only through its
    Dehn twist and the span of the classes, so a class vector counts up
    to sign, and a set and its complement describe the same curve.
    """

    encloses: frozenset[int] | None = None
    coefficients: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.encloses is None) == (self.coefficients is None):
            raise ValueError("give exactly one of encloses / coefficients")
        if self.encloses is not None:
            # Checked before hashing: {1, True} would collapse to {1}.
            indices = tuple(self.encloses)
            _refuse_non_integers(indices, "enclosed index")
            if not indices:
                raise ValueError("enclosed set must be nonempty")
            encloses = frozenset(indices)
            if len(encloses) != len(indices):
                raise ValueError("indices must be distinct")
            object.__setattr__(self, "encloses", encloses)
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


@dataclass(frozen=True)
class PlanarSurface:
    """Genus-zero surface with r+1 boundary circles (r >= 0)."""

    r: int

    def __post_init__(self):
        _check_int(self.r, "boundary count parameter r")

    def class_vector(self, curve: CurveClass) -> tuple[int, ...]:
        """Homology vector of a curve in the basis (m_1, ..., m_r).

        Raises ValueError unless the curve lies on this surface: one
        coefficient per circle 1..r, or a proper subset of 0..r.
        """
        if curve.coefficients is not None:
            if len(curve.coefficients) != self.r:
                raise ValueError(
                    f"coefficient vector of length {len(curve.coefficients)}, expected {self.r}"
                )
            return curve.coefficients
        bad = [i for i in curve.encloses if not 0 <= i <= self.r]
        if bad:
            raise ValueError(f"enclosed index {min(bad)} out of range 0..{self.r}")
        if len(curve.encloses) == self.r + 1:
            raise ValueError(
                "curve enclosing every boundary circle is null-homologous; "
                "the enclosed set must be a proper subset"
            )
        # Circle i >= 1 has class m_i and circle 0 has -(m_1 + ... + m_r),
        # so coordinate i of an enclosed set S is [i in S] - [0 in S].
        enclosed = curve.encloses
        holds_zero = 0 in enclosed
        return tuple([(i in enclosed) - holds_zero for i in range(1, self.r + 1)])


@dataclass(frozen=True, slots=True)
class TorusBoundarySpace:
    """H_1 of the union of r+1 boundary tori, with its intersection pairing.

    Basis order is (m_0, l_0, m_1, l_1, ..., m_r, l_r); the pairing is
    skew-symmetric and unimodular with Q(m_i, l_j) = delta_ij.  This is
    the one place that maps torus indices to coordinates: other modules
    read them through ``m_index``, ``l_index`` and ``dim``.
    """

    r: int

    def __post_init__(self):
        _check_int(self.r, "boundary count parameter r")

    @property
    def dim(self) -> int:
        return 2 * (self.r + 1)

    def m_index(self, i: int) -> int:
        _check_int(i, "torus index", 0, self.r)
        return 2 * i

    def l_index(self, i: int) -> int:
        _check_int(i, "torus index", 0, self.r)
        return 2 * i + 1

    def pair(self, u: Sequence, v: Sequence) -> Fraction:
        """Intersection pairing Q(u, v); skew so Q(u, v) = -Q(v, u).

        Both vectors come in through ``vector``, so entries may be ints,
        Fractions or rational strings, and floats are refused.  Only
        the products of two nonzero entries are summed, in ints when
        the entries are ints, and the sum becomes a Fraction once, on
        return.
        """
        u, v = vector(u), vector(v)
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(f"vectors must have length {self.dim}")
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

        Checked on its integer rows R, positive multiples of its
        canonical basis vectors held sparsely as ``{coordinate: entry}``:
        Q is bilinear, so scaling does not change whether a pairing is
        zero.  R J R^T is accumulated row by row through a map from each
        coordinate to the (row, entry) pairs of the rows before: the
        m_i entry of a row pairs with the l_i entries seen so far, and
        minus its l_i entry with the m_i entries.  Only products of
        two nonzero entries are formed, so rows with no partner
        coordinates (a coordinate subspace) cost nothing, and the check
        stops at the first row with a nonzero pairing.  Q(u, u) = 0 by
        skew-symmetry, so only distinct pairs are summed.
        """
        if sub.ambient_dim != self.dim:
            raise ValueError(f"subspace of Q^{sub.ambient_dim} in the ambient Q^{self.dim}")
        seen: dict[int, list[tuple[int, int]]] = {}
        for k, u in enumerate(sub._rows):
            pairings: dict[int, int] = {}
            for i, a in u.items():
                j, a = (i + 1, a) if i % 2 == 0 else (i - 1, -a)
                for t, b in seen.get(j, ()):
                    pairings[t] = pairings.get(t, 0) + a * b
            if any(pairings.values()):
                return False
            for i, a in u.items():
                seen.setdefault(i, []).append((k, a))
        return True
