"""Signature correction of a triple of isotropic subspaces.

Given an ambient space V with a skew pairing Q and three isotropic
subspaces L-, L0, L+, the correction term is the signature of the
symmetric bilinear form Psi induced on the quotient

    W = (L- meet (L0 + L+)) / ((L- meet L0) + (L- meet L+)),

where Psi(a, a') = Q(a, b') for any b' in L0 with a' + b' + c' = 0 and
c' in L+.  Isotropy makes Psi independent of the decomposition chosen
and symmetric; both facts are verified at runtime rather than assumed.

The second half of this module builds the specific triple attached to
a mapping torus of a planar fiber: L- and L0 are the meridian and
longitude spans of the boundary tori, and L+ is the kernel of the
boundary-inclusion map on first homology.  That kernel is produced two
independent ways, from an explicitly assembled boundary map matrix and
from closed-form generators, and the two must agree on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .linalg import (
    RationalMatrix,
    SignatureTriple,
    Subspace,
    Vector,
    integer_row,
    quotient_basis,
    solve_many,
    symmetric_signature,
)
from .surfaces import TorusBoundarySpace


@dataclass(frozen=True)
class WallTriple:
    """Three isotropic subspaces of a skew-paired ambient space.

    Isotropy of each subspace, and that it lives in the ambient space,
    is checked at construction by ``TorusBoundarySpace.is_isotropic``.
    """

    space: TorusBoundarySpace
    l_minus: Subspace
    l_zero: Subspace
    l_plus: Subspace

    def __post_init__(self):
        for name, sub in (
            ("l_minus", self.l_minus),
            ("l_zero", self.l_zero),
            ("l_plus", self.l_plus),
        ):
            if not self.space.is_isotropic(sub):
                raise ValueError(f"{name} is not isotropic for the pairing")


@dataclass(frozen=True)
class WallCorrection:
    """Output of the correction computation.

    ``psi`` is the Gram matrix of the induced form on the chosen
    quotient representatives; ``correction`` its inertia triple and
    ``defect`` its signature (the term subtracted when gluing).
    """

    w_dim: int
    representatives: tuple[Vector, ...]
    psi: RationalMatrix
    correction: SignatureTriple
    defect: int


def wall_correction(triple: WallTriple) -> WallCorrection:
    """Compute the quotient W, the form Psi on it, and its signature.

    Each representative a is decomposed on the integer rows R_k of L0
    and L+ taken as columns, -a = sum_k y_k R_k, so its b-part is
    b = sum_k y_k R_k over L0's rows.  Each representative and b-part
    is scaled once to an integer vector, a = A / s and b = B / t, so
    that Psi(a, b) = Q(A, B) / (s t) pairs integers, and Psi is built
    straight from those integer rows.
    """
    lm, l0, lp = triple.l_minus, triple.l_zero, triple.l_plus
    numerator = lm & (l0 + lp)
    denominator = (lm & l0) + (lm & lp)
    reps = quotient_basis(numerator, denominator)
    w_dim = len(reps)
    n = triple.space.dim

    # Decompose each representative a' as -(b' + c'), b' in L0, c' in L+.
    generators = RationalMatrix._from_rows(n, [(1, row) for row in l0._rows + lp._rows])
    solutions = solve_many(generators.transpose(), [tuple(-x for x in rep) for rep in reps])
    b_parts: list[tuple[int, list[int]]] = []
    for sol in solutions:
        if sol is None:
            raise RuntimeError(
                "quotient representative failed to decompose inside L0 + L+; "
                "this cannot happen for a valid triple and indicates a bug"
            )
        ys = sol[: l0.dim]
        t = lcm(*(y.denominator for y in ys))
        B = [0] * n
        for y, row in zip(ys, l0._rows):
            if y:
                c = y.numerator * (t // y.denominator)
                for j, x in row.items():
                    B[j] += c * x
        b_parts.append((t, B))

    # Row i of Psi over s_i T, T the lcm of the t_j, has the integer
    # entries Q(A_i, B_j) T / t_j.
    pair = triple.space.pair
    common = lcm(*(t for t, _ in b_parts))
    rows = []
    for a in reps:
        s, entries = integer_row(a)
        A = [0] * n
        for j, x in entries.items():
            A[j] = x
        row = {}
        for k, (t, B) in enumerate(b_parts):
            q = pair(A, B).numerator
            if q:
                row[k] = q * (common // t)
        rows.append((s * common, row))
    psi = RationalMatrix._from_rows(w_dim, rows)
    if not psi.is_symmetric():
        raise RuntimeError(
            "induced form came out asymmetric; the triple violates "
            "the well-definedness hypotheses"
        )
    correction = symmetric_signature(psi)
    return WallCorrection(
        w_dim=w_dim,
        representatives=tuple(reps),
        psi=psi,
        correction=correction,
        defect=correction.signature,
    )


@dataclass(frozen=True)
class MappingTorusBoundaryMap:
    """Matrix of H_1(boundary of mapping torus) -> H_1(mapping torus).

    Planar fiber with r+1 boundary circles; the monodromy is a product
    of twists along the given cycles.  Domain basis is the torus order
    (m_0, l_0, ..., m_r, l_r); codomain basis is (m_1, ..., m_r, l_0).
    The columns satisfy: m_0 maps to -(m_1 + ... + m_r), m_j to m_j,
    l_0 to l_0, and l_j (j >= 1) to l_0 minus the twist defect
    sum_s Q(gamma_s, l_j) * gamma_s.
    """

    r: int
    matrix: RationalMatrix


def mapping_torus_boundary_map(
    r: int, vectors: Sequence[Sequence[int]]
) -> MappingTorusBoundaryMap:
    """Assemble the boundary-inclusion matrix column by column.

    ``vectors`` are the cycle classes in the basis (m_1, ..., m_r) of
    the fiber's first homology, one per vanishing cycle.
    """
    grid = [[0] * (2 * (r + 1)) for _ in range(r + 1)]
    space = TorusBoundarySpace(r)
    # m_0 column: -(m_1 + ... + m_r).
    for i in range(r):
        grid[i][space.m_index(0)] = -1
    # m_j columns are fixed; l_0 maps to itself.
    for j in range(1, r + 1):
        grid[j - 1][space.m_index(j)] = 1
    grid[r][space.l_index(0)] = 1
    # l_j columns: l_0 - sum_s Q(gamma_s, l_j) gamma_s, and Q(gamma_s, l_j)
    # is the j-th m coefficient of gamma_s.
    for j in range(1, r + 1):
        col = space.l_index(j)
        grid[r][col] = 1
        for x in vectors:
            c = x[j - 1]
            if c:
                for i in range(r):
                    grid[i][col] -= c * x[i]
    return MappingTorusBoundaryMap(r=r, matrix=RationalMatrix(grid))


def lplus_kernel(bmap: MappingTorusBoundaryMap) -> Subspace:
    """Kernel of the boundary map; always of dimension r + 1."""
    kernel = bmap.matrix.kernel()
    assert kernel.dim == bmap.r + 1
    return kernel


def lplus_closed_form(r: int, vectors: Sequence[Sequence[int]]) -> Subspace:
    """Span of the closed-form kernel generators.

    The generators are l_k - l_0 + sum_s Q(gamma_s, l_k) gamma_s for
    k = 1..r together with m_0 + ... + m_r.  On every instance this
    must equal lplus_kernel of the assembled boundary map; the package
    test suite enforces that cross-check.
    """
    space = TorusBoundarySpace(r)
    gens: list[list[int]] = []
    for k in range(1, r + 1):
        v = [0] * space.dim
        v[space.l_index(k)] = 1
        v[space.l_index(0)] = -1
        for x in vectors:
            c = x[k - 1]
            if c:
                for i in range(r):
                    v[space.m_index(i + 1)] += c * x[i]
        gens.append(v)
    total_m = [0] * space.dim
    for i in range(r + 1):
        total_m[space.m_index(i)] = 1
    gens.append(total_m)
    return Subspace(space.dim, gens)


def standard_triple(bmap: MappingTorusBoundaryMap) -> WallTriple:
    """The triple attached to a fibration over the disk with this
    boundary map.

    L- is spanned by the meridians m_0..m_r (they bound disks on the
    outer piece), L0 by the longitudes l_0..l_r, and L+ is the kernel
    of the mapping torus boundary map.
    """
    r = bmap.r
    space = TorusBoundarySpace(r)

    def unit(k: int) -> list[int]:
        v = [0] * space.dim
        v[k] = 1
        return v

    l_minus = Subspace(space.dim, [unit(space.m_index(i)) for i in range(r + 1)])
    l_zero = Subspace(space.dim, [unit(space.l_index(i)) for i in range(r + 1)])
    l_plus = lplus_kernel(bmap)
    return WallTriple(space=space, l_minus=l_minus, l_zero=l_zero, l_plus=l_plus)


def psi_gram_closed_form(r: int, vectors: Sequence[Sequence[int]]) -> RationalMatrix:
    """Gram matrix of the induced form on its standard generating set.

    Equals V^T * V where the rows of V are the cycle class vectors;
    positive semidefinite of rank equal to the span of the cycles.
    """
    V = RationalMatrix(vectors, n_cols=r)
    return V.transpose() @ V
