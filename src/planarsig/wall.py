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
    _refuse_non_integers,
    _rref,
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

    ``triple`` is the triple corrected.  ``psi`` is the Gram matrix of
    the induced form on the quotient representatives (the canonical
    basis of their span, ``w_dim`` of them), ``correction`` its inertia
    triple and ``defect`` its signature (the term subtracted when
    gluing).
    """

    triple: WallTriple
    w_dim: int
    psi: RationalMatrix
    correction: SignatureTriple
    defect: int


def wall_correction(triple: WallTriple) -> WallCorrection:
    """Compute the quotient W, the form Psi on it, and its signature.

    Representative i is its integer row A_i over its pivot entry s_i.
    -A_i is decomposed on the integer rows R_k of L0 and L+ taken as
    columns, -A_i = sum_k y_k R_k.  The solve gives the y_k as integers
    over one denominator t_i, so the L0 terms sum to B_i / t_i, the
    b-part of A_i / s_i is B_i / (s_i t_i) and
    Psi_ij = Q(A_i, B_j) / (s_i s_j t_j) pairs integers.
    """
    lm, l0, lp = triple.l_minus, triple.l_zero, triple.l_plus
    numerator = lm & (l0 + lp)
    denominator = (lm & l0) + (lm & lp)
    reps = quotient_basis(numerator, denominator)
    n = triple.space.dim
    dense = [
        (row[p], [row.get(j, 0) for j in range(n)]) for p, row in zip(reps._pivots, reps._rows)
    ]

    # Decompose each -A_i as b' + c', b' in L0, c' in L+.
    generators = RationalMatrix._from_rows(n, 1, l0._rows + lp._rows)
    solutions = solve_many(generators.transpose(), [[-x for x in A] for _, A in dense])
    b_parts: list[tuple[int, list[int]]] = []
    for (s, _), sol in zip(dense, solutions):
        if sol is None:
            raise RuntimeError(
                "quotient representative failed to decompose inside L0 + L+; "
                "this cannot happen for a valid triple and indicates a bug"
            )
        t, ys = sol
        B = [0] * n
        for k, c in ys.items():
            if k < l0.dim:
                for j, x in l0._rows[k].items():
                    B[j] += c * x
        b_parts.append((s * t, B))

    # Psi over S T, S the lcm of the s_i and T of the s_j t_j, has the
    # integer entries Q(A_i, B_j) (S / s_i) (T / (s_j t_j)).
    pair = triple.space.pair
    S = lcm(*[s for s, _ in dense])
    T = lcm(*[st for st, _ in b_parts])
    rows = []
    for s, A in dense:
        row = {}
        for k, (st, B) in enumerate(b_parts):
            q = pair(A, B).numerator
            if q:
                row[k] = q * (S // s) * (T // st)
        rows.append(row)
    psi = RationalMatrix._from_rows(reps.dim, S * T, rows)
    # Psi is square, so the only ValueError symmetric_signature raises
    # is its own check that Psi is exactly symmetric.
    try:
        correction = symmetric_signature(psi)
    except ValueError:
        raise RuntimeError(
            "induced form came out asymmetric; the triple violates "
            "the well-definedness hypotheses"
        ) from None
    return WallCorrection(
        triple=triple,
        w_dim=reps.dim,
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

    The map carries ``space``, the boundary tori whose coordinates
    index its columns; r is ``space.r``.
    """

    space: TorusBoundarySpace
    matrix: RationalMatrix


def _torus_space(r: int, vectors: Sequence[Sequence[int]]) -> TorusBoundarySpace:
    """The boundary tori of a fiber with r + 1 circles, for cycle vectors
    checked against it.  ``TorusBoundarySpace(r)`` holds the one check
    of r; then, naming the vector's index, ValueError is raised unless
    every cycle vector has r entries and each is an int (bools
    refused)."""
    space = TorusBoundarySpace(r)
    for k, x in enumerate(vectors):
        if len(x) != r:
            raise ValueError(f"cycle vector {k} has {len(x)} entries, expected {r}")
        if set(map(type, x)) - {int}:
            _refuse_non_integers(x, f"cycle vector {k} entry")
    return space


def mapping_torus_boundary_map(
    r: int, vectors: Sequence[Sequence[int]]
) -> MappingTorusBoundaryMap:
    """Assemble the boundary-inclusion matrix as integer rows.

    ``vectors`` are the cycle classes in the basis (m_1, ..., m_r) of
    the fiber's first homology, one per vanishing cycle; a vector of
    another length or with an entry that is not an int raises
    ValueError.
    """
    space = _torus_space(r, vectors)
    # The m_0 column is -(m_1 + ... + m_r) and m_j maps to m_j.
    rows = [{space.m_index(0): -1, space.m_index(i + 1): 1} for i in range(r)]
    # l_0 maps to itself, and so does the l_0 part of every l_j.
    rows.append({space.l_index(j): 1 for j in range(r + 1)})
    # The rest of l_j is -sum_s Q(gamma_s, l_j) gamma_s, and Q(gamma_s, l_j)
    # is the j-th m coefficient of gamma_s.  Each column is summed over
    # the cycles whose coefficient is nonzero, and its nonzero entries
    # are placed in their rows.
    terms: list[list] = [[] for _ in range(r)]
    for x in vectors:
        support = [(i, y) for i, y in enumerate(x) if y]
        for j, c in support:
            terms[j].append((c, support))
    for j, column_terms in enumerate(terms):
        if column_terms:
            col = [0] * r
            for c, support in column_terms:
                for i, y in support:
                    col[i] -= c * y
            k = space.l_index(j + 1)
            for i, y in enumerate(col):
                if y:
                    rows[i][k] = y
    matrix = RationalMatrix._from_rows(space.dim, 1, rows)
    return MappingTorusBoundaryMap(space=space, matrix=matrix)


def lplus_kernel(bmap: MappingTorusBoundaryMap) -> Subspace:
    """Kernel of the boundary map; always of dimension r + 1."""
    kernel = bmap.matrix.kernel()
    expected = bmap.space.r + 1
    if kernel.dim != expected:
        raise RuntimeError(
            f"boundary map kernel has dimension {kernel.dim}, expected {expected}; "
            "this cannot happen for a boundary map and indicates a bug"
        )
    return kernel


def lplus_closed_form(r: int, vectors: Sequence[Sequence[int]]) -> Subspace:
    """Span of the closed-form kernel generators.

    The generators are l_k - l_0 + sum_s Q(gamma_s, l_k) gamma_s for
    k = 1..r together with m_0 + ... + m_r.  On every instance this
    must equal lplus_kernel of the assembled boundary map; the package
    test suite enforces that cross-check.  ``vectors`` are checked as
    in ``mapping_torus_boundary_map``.

    Q(gamma_s, l_k) is the k-th m coefficient of gamma_s, so the
    meridian part of generator k is row k - 1 of the Gram matrix.
    Every generator has an entry of 1 or -1, so it is a primitive
    integer row, and one ``_rref`` of them gives the canonical rows.
    """
    space = _torus_space(r, vectors)
    gens = []
    for k, gram_row in enumerate(_gram_rows(r, vectors), start=1):
        gen = {space.m_index(i + 1): x for i, x in gram_row.items()}
        gen[space.l_index(0)] = -1
        gen[space.l_index(k)] = 1
        gens.append(gen)
    gens.append({space.m_index(i): 1 for i in range(r + 1)})
    return Subspace._from_rows(space.dim, *_rref(gens, space.dim))


def standard_triple(bmap: MappingTorusBoundaryMap) -> WallTriple:
    """The triple attached to a fibration over the disk with this
    boundary map.

    L- is spanned by the meridians m_0..m_r (they bound disks on the
    outer piece), L0 by the longitudes l_0..l_r, and L+ is the kernel
    of the mapping torus boundary map.  The triple lives in the map's
    own ``space``.
    """
    space = bmap.space
    r = space.r

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

    Equals sum_s gamma_s gamma_s^T over the cycle class vectors;
    positive semidefinite of rank equal to the span of the cycles.
    ``vectors`` are checked as in ``mapping_torus_boundary_map``.
    """
    _torus_space(r, vectors)
    return RationalMatrix._from_rows(r, 1, _gram_rows(r, vectors))


def _gram_rows(r: int, vectors: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """The r x r Gram matrix G = sum_s gamma_s gamma_s^T of checked
    cycle vectors, as integer rows over their nonzero entries: each
    cycle adds the products of its nonzero entries, pair by pair.

    Both closed forms build G here; the boundary map, on the Wall
    route, sums the same products for its columns on its own.
    """
    rows: list[dict[int, int]] = [{} for _ in range(r)]
    for x in vectors:
        support = [(i, y) for i, y in enumerate(x) if y]
        for i, a in support:
            row = rows[i]
            for j, b in support:
                row[j] = row.get(j, 0) + a * b
    return [{j: x for j, x in row.items() if x} for row in rows]
