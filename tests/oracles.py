"""Independent oracles used only by the tests.

These deliberately avoid the package's elimination code: determinants
come from cofactor expansion, ranks from brute-force minor search, and
inertia counts from Descartes' rule of signs applied to an exactly
interpolated characteristic polynomial.  Descartes' count of positive
roots is exact (not just an upper bound) for polynomials whose roots
are all real, which holds for characteristic polynomials of symmetric
matrices.

The dense references at the end reach sizes the brute-force oracles
cannot.  They are the package's elimination, congruence
diagonalization and torus pairing as they stood before those skipped
zero entries: every row operation spans the full width and every
product is taken, zeros included.  Kernels are read off a
leftmost-pivot RREF and canonicalized by a second elimination, and
intersections come from a stacked kernel, as they were before the
package read both off a single elimination.  ``psi_dense`` rebuilds
Wall's form Psi from these references alone.  The package must agree
with them value for value.

``kashiwara_dense`` is a second route to Wall's term that follows none
of the package's steps: no meets, no quotient and no decomposition,
only the pairing and one inertia.
"""

from fractions import Fraction
from itertools import combinations


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    sign = 1
    for j in range(n):
        a = rows[0][j]
        if a:
            minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
            total += sign * Fraction(a) * det_cofactor(minor)
        sign = -sign
    return total


def rank_by_minors(rows):
    """Largest k admitting a nonsingular k x k submatrix."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det_cofactor(sub) != 0:
                    return k
    return 0


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def charpoly(rows):
    """Coefficients, low degree first, of det(t*I - S).

    Evaluated at t = 0..n by cofactor determinants, then recovered by
    exact Lagrange interpolation.
    """
    n = len(rows)
    xs = [Fraction(i) for i in range(n + 1)]
    ys = []
    for x in xs:
        shifted = [
            [(x if i == j else Fraction(0)) - Fraction(rows[i][j]) for j in range(n)]
            for i in range(n)
        ]
        ys.append(det_cofactor(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = _poly_mul(basis, [-xj, Fraction(1)])
                denom *= xi - xj
        scale = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return coeffs


def inertia_by_descartes(rows):
    """(n_plus, n_minus, n_zero) of a symmetric matrix, exactly."""
    n = len(rows)
    coeffs = charpoly(rows)
    n_zero = 0
    while n_zero <= n and coeffs[n_zero] == 0:
        n_zero += 1
    nonzero = [c for c in coeffs[n_zero:] if c != 0]
    n_plus = sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))
    return (n_plus, n - n_zero - n_plus, n_zero)


def matmul_dense(a, b, n_cols):
    """The product of the dense grids ``a`` and ``b``, every term taken;
    ``n_cols`` is the width of b, which an empty b does not show."""
    return [
        [sum((Fraction(x) * Fraction(row[k]) for x, row in zip(arow, b)), Fraction(0))
         for k in range(n_cols)]
        for arow in a
    ]


def echelonize_dense(rows, reduced=True, pivot_limit=None):
    """Row-reduce in place with leftmost pivots, touching every entry."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    limit = n_cols if pivot_limit is None else pivot_limit
    pivots = []
    rank = 0
    for c in range(limit):
        if rank == n_rows:
            break
        p = next((i for i in range(rank, n_rows) if rows[i][c] != 0), None)
        if p is None:
            continue
        if p != rank:
            rows[rank], rows[p] = rows[p], rows[rank]
        lead = rows[rank][c]
        row_r = rows[rank]
        if lead != 1:
            for j in range(c, n_cols):
                row_r[j] /= lead
        span = range(n_rows) if reduced else range(rank + 1, n_rows)
        for i in span:
            if i == rank:
                continue
            f = rows[i][c]
            if f:
                row_i = rows[i]
                for j in range(c, n_cols):
                    row_i[j] -= f * row_r[j]
        pivots.append(c)
        rank += 1
    return pivots


def rref_dense(rows):
    """Canonical basis (nonzero RREF rows) of the span of ``rows``."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = echelonize_dense(work)
    return [tuple(row) for row in work[: len(pivots)]]


def kernel_dense(rows, n_cols):
    """Null space basis read off the dense RREF, free variables set to 1."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = echelonize_dense(work)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -work[i][free]
        basis.append(v)
    return rref_dense(basis) if basis else []


def meet_dense(u_gens, v_gens, n):
    """Canonical basis of span(u_gens) meet span(v_gens) in Q^n, the way
    it was computed before intersections came from equations: the null
    space of the stacked system [U | -V] gives the pairs U a = V b, and
    the U a are canonicalized."""
    u = rref_dense(u_gens)
    v = rref_dense(v_gens)
    if not u or not v:
        return []
    stacked = [[x[i] for x in u] + [-y[i] for y in v] for i in range(n)]
    meet = [
        [sum((a[t] * u[t][i] for t in range(len(u))), Fraction(0)) for i in range(n)]
        for a in kernel_dense(stacked, len(u) + len(v))
    ]
    return rref_dense(meet)


def solve_dense(rows, n_cols, rhs):
    """Per b in ``rhs``, the solution of Mx = b with free variables
    zero, or None; one elimination of the augmented matrix."""
    aug = [
        [Fraction(x) for x in row] + [Fraction(b[i]) for b in rhs]
        for i, row in enumerate(rows)
    ]
    pivots = echelonize_dense(aug, pivot_limit=n_cols)
    out = []
    for k in range(len(rhs)):
        col = n_cols + k
        if any(aug[i][col] != 0 for i in range(len(pivots), len(aug))):
            out.append(None)
            continue
        x = [Fraction(0)] * n_cols
        for i, p in enumerate(pivots):
            x[p] = aug[i][col]
        out.append(tuple(x))
    return out


def solution_values(solutions, n_cols):
    """The solutions of ``solve_many``, each ``(s, {column: s * x})`` or
    None, as tuples of ``n_cols`` Fractions (zero where the dict holds
    no column), or None: the form ``solve_dense`` returns."""
    return [
        None if sol is None else tuple(Fraction(sol[1].get(j, 0), sol[0]) for j in range(n_cols))
        for sol in solutions
    ]


def inertia_dense(rows):
    """(n_plus, n_minus, n_zero) by congruence, touching every entry."""
    A = [[Fraction(x) for x in row] for row in rows]
    n = len(A)
    n_plus = n_minus = 0
    k = 0
    while k < n:
        p = next((i for i in range(k, n) if A[i][i] != 0), None)
        if p is None:
            spot = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if A[i][j] != 0),
                None,
            )
            if spot is None:
                break
            i, j = spot
            for c in range(k, n):
                A[i][c] += A[j][c]
            for r in range(k, n):
                A[r][i] += A[r][j]
            p = i
        if p != k:
            A[k], A[p] = A[p], A[k]
            for r in range(k, n):
                A[r][k], A[r][p] = A[r][p], A[r][k]
        d = A[k][k]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in range(k + 1, n):
            f = A[i][k]
            if f:
                f /= d
                row_k, row_i = A[k], A[i]
                for c in range(k, n):
                    row_i[c] -= f * row_k[c]
                for r in range(k, n):
                    A[r][i] -= f * A[r][k]
        k += 1
    return (n_plus, n_minus, n - n_plus - n_minus)


def pair_dense(u, v):
    """Torus pairing on (m_0, l_0, ..., m_r, l_r) coordinates, every term taken."""
    a = [Fraction(x) for x in u]
    b = [Fraction(x) for x in v]
    total = Fraction(0)
    for i in range(len(a) // 2):
        total += a[2 * i] * b[2 * i + 1] - a[2 * i + 1] * b[2 * i]
    return total


def psi_dense(l_minus, l_zero, l_plus, n):
    """(w_dim, Psi rows, inertia) of the triple spanned by the generator
    lists ``l_minus``, ``l_zero`` and ``l_plus`` in Q^n, from the dense
    references alone.

    The representatives of W = (L- meet (L0 + L+)) / ((L- meet L0) +
    (L- meet L+)) are the canonical basis vectors of the numerator N
    picked by the leftmost pivots of [D | N], as the package picks them.
    Each representative a is decomposed by ``solve_dense`` on the dense
    [L0 | L+] as -a = L0 x + L+ y, and Psi[i][j] = pair_dense(a_i, L0 x_j).
    """
    l0, lp = rref_dense(l_zero), rref_dense(l_plus)
    numerator = meet_dense(l_minus, l0 + lp, n)
    denominator = rref_dense(meet_dense(l_minus, l_zero, n) + meet_dense(l_minus, l_plus, n))
    stacked = [[d[i] for d in denominator] + [c[i] for c in numerator] for i in range(n)]
    pivots = echelonize_dense(stacked)
    k = len(denominator)
    reps = [numerator[p - k] for p in pivots if p >= k]
    system = [[b[i] for b in l0] + [c[i] for c in lp] for i in range(n)]
    b_parts = []
    for x in solve_dense(system, len(l0) + len(lp), [[-a for a in rep] for rep in reps]):
        assert x is not None, "a representative does not decompose in L0 + L+"
        b_parts.append(
            [sum((x[t] * b[i] for t, b in enumerate(l0)), Fraction(0)) for i in range(n)]
        )
    psi = [[pair_dense(a, b) for b in b_parts] for a in reps]
    return len(reps), psi, inertia_dense(psi)


def kashiwara_dense(l1, l2, l3):
    """Kashiwara's index of the isotropic subspaces spanned by the
    generator lists ``l1``, ``l2`` and ``l3``: the signature of the
    quadratic form Q(x1, x2) + Q(x2, x3) + Q(x3, x1) on L1 x L2 x L3.

    On bases of the three, its Gram matrix has zero diagonal blocks,
    Q(u, v) / 2 for u in L_k and v in the next subspace (L1 follows L3),
    and the transpose of that block below the diagonal.  The index is
    cyclic, changes sign under a transposition, and on Lagrangian
    triples equals minus Wall's correction term (Lion and Vergne 1980;
    Cappell, Lee and Miller 1994).
    """
    basis = [(k, u) for k, gens in enumerate((l1, l2, l3)) for u in rref_dense(gens)]

    def entry(k, u, j, v):
        if j == (k + 1) % 3:
            return pair_dense(u, v) / 2
        if k == (j + 1) % 3:
            return pair_dense(v, u) / 2
        return Fraction(0)

    gram = [[entry(k, u, j, v) for j, v in basis] for k, u in basis]
    n_plus, n_minus, _ = inertia_dense(gram)
    return n_plus - n_minus
