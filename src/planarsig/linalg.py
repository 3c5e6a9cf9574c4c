"""Exact linear algebra over the rationals.

Everything downstream rests on this module: dense matrices with
``fractions.Fraction`` entries, subspaces of Q^n held in a canonical
basis, linear solving, and signatures of symmetric bilinear forms by
exact congruence diagonalization.  There are no floats and no
tolerances anywhere.

The canonical basis of a subspace is its reduced column echelon form:
every basis column has a leading 1 (its pivot coordinate), pivot
coordinates strictly increase from one column to the next, and a pivot
coordinate is zero in every other basis column.  This is the unique
such basis of a given span (it is the reduced row echelon form of the
transposed generator matrix), so two subspaces are equal iff their
basis grids are identical.

Elimination runs on integers.  ``_echelonize`` turns each input row
once into a sparse primitive integer row (``integer_row``): the row's
nonzero entries times the lcm of their denominators, divided by their
gcd, held as a map from column to int.  A pivot row with entry ``lead``
in column c clears the entry f of another row by
row := (lead/g) row - (f/g) pivot with g = gcd(lead, f), and the row's
content is divided out again.  Clearing a column commutes with scaling
rows by nonzero numbers, so every integer row stays a nonzero multiple
of the row that ``Fraction`` elimination would hold at the same step.
Writing a pivot row back as its entries over its pivot entry therefore
gives the RREF value for value; the tests hold it to a dense
``Fraction`` reference.  The congruence diagonalization of
``symmetric_signature`` and the isotropy check of the torus pairing
clear denominators the same way and then stay in integers; ``apply``
and ``contains`` skip zero factors.  Most entries the signature
computations meet are zero, because two of the three subspaces of the
standard triple are coordinate subspaces, so sparse rows touch little.

Kernels, intersections and quotients take one elimination each.  A
kernel is read off the RREF taken with the columns reversed, whose
free-variable vectors already are the canonical basis.  An intersection
is the kernel of both operands' equations, which are read off their
canonical bases (a coordinate subspace gives one-entry equations).
Representatives of a quotient N / D are the leftmost pivots of [D | N]
past D's columns.  Entries are coerced to Fraction once, at the public
entry points; a Fraction passes through unchanged, and subspaces built
from a basis that is already canonical skip coercion and checks
altogether.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x  # immutable, so sharing it is safe
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}: pass int, Fraction or a rational string")
    return Fraction(x)


def refuse_floats(*vectors: Sequence) -> None:
    """Raise the TypeError of ``vector`` if any entry is a float.

    Checks entry types without coercing anything, for hot paths whose
    callers already hold exact entries.
    """
    kinds: set[type] = set()
    for w in vectors:
        kinds.update(map(type, w))
    if any(issubclass(k, float) for k in kinds):
        # _frac raises on the first float, with vector's message.
        _frac(next(x for w in vectors for x in w if isinstance(x, float)))


def vector(entries: Iterable) -> Vector:
    """Coerce an iterable of exact numbers to a tuple of Fractions."""
    return tuple(_frac(x) for x in entries)


def integer_row(row: Sequence) -> tuple[int, dict[int, int]]:
    """The nonzero entries of ``row`` as integers: ``(s, {column: s * x})``,
    where s >= 1 is the lcm of their denominators.

    Entries are ints or Fractions; an all-zero row gives ``(1, {})``.
    """
    columns = list(compress(range(len(row)), row))
    scale = lcm(*(row[j].denominator for j in columns))
    if scale == 1:
        return 1, {j: row[j].numerator for j in columns}
    return scale, {j: row[j].numerator * (scale // row[j].denominator) for j in columns}


def _divide_content(row: dict[int, int]) -> int:
    """Divide an integer row by the gcd of its entries, in place, and
    return that gcd (1 for a zero row)."""
    g = gcd(*row.values()) or 1
    if g != 1:
        for j in row:
            row[j] //= g
    return g


def _echelonize(rows: list[list[Fraction]], reduced: bool = True,
                pivot_limit: int | None = None) -> list[int]:
    """Row-reduce ``rows`` in place with leftmost pivots.

    Returns the pivot column indices in order.  Pivots are searched only
    in the first ``pivot_limit`` columns (all of them by default), which
    is how augmented systems keep their right-hand sides out of the
    pivot set; row operations always span the full width.  With
    ``reduced`` the result is the unique RREF: pivots are normalized to
    1 and cleared above as well as below.  Without it, rows above a
    pivot keep their entry in its column.

    The work is done on primitive integer rows (see the module
    docstring), each a nonzero multiple of the row that ``Fraction``
    elimination would hold at the same step; the rows are written back
    as Fractions at the end, value for value what ``Fraction``
    elimination gives.  A pivot row is its integer row over its pivot
    entry.  A row left without a pivot, which only ``pivot_limit``
    leaves nonzero, is its integer row times the rational factor
    ``num / den`` tracked for it through every step.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    limit = n_cols if pivot_limit is None else pivot_limit
    work: list[dict[int, int]] = []
    num: list[int] = []
    den: list[int] = []
    for row in rows:
        scale, w = integer_row(row)
        work.append(w)
        num.append(_divide_content(w))
        den.append(scale)
    pivots: list[int] = []
    rank = 0
    for c in range(limit):
        if rank == n_rows:
            break
        p = next((i for i in range(rank, n_rows) if c in work[i]), None)
        if p is None:
            continue
        if p != rank:
            work[rank], work[p] = work[p], work[rank]
            num[rank], num[p] = num[p], num[rank]
            den[rank], den[p] = den[p], den[rank]
        pivot = work[rank]
        lead = pivot[c]
        span = range(n_rows) if reduced else range(rank + 1, n_rows)
        for i in span:
            row = work[i]
            f = row.get(c)
            if f is None or i == rank:
                continue
            # Clear column c by row := (lead/g) row - (f/g) pivot, which is
            # lead/g times the step of Fraction elimination, then divide
            # out the content h.  Only a row that may end without a pivot
            # needs its factor num/den to the Fraction row kept up to date.
            g = gcd(lead, f)
            a, b = lead // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, x in pivot.items():
                y = row.get(j, 0) - b * x
                if y:
                    row[j] = y
                else:
                    del row[j]
            h = _divide_content(row)
            if i > rank:
                num[i] *= g * h
                den[i] *= lead
        pivots.append(c)
        rank += 1
    zero = Fraction(0)
    for i, row in enumerate(work):
        out = [zero] * n_cols
        if i < rank:
            lead = row[pivots[i]]
            for j, x in row.items():
                out[j] = Fraction(x, lead)
        else:
            for j, x in row.items():
                out[j] = Fraction(x * num[i], den[i])
        rows[i] = out
    return pivots


class RationalMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("n_rows", "n_cols", "_rows")

    def __init__(self, rows: Iterable[Iterable], n_cols: int | None = None):
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if data:
            widths = {len(row) for row in data}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if n_cols is not None and n_cols != width:
                raise ValueError(f"rows have {width} entries, expected {n_cols}")
            n_cols = width
        elif n_cols is None:
            n_cols = 0
        self._rows = data
        self.n_rows = len(data)
        self.n_cols = n_cols

    @classmethod
    def _exact(cls, rows: tuple[Vector, ...], n_cols: int) -> "RationalMatrix":
        """Wrap rows of Fractions as they are: no copy, coercion or check."""
        self = cls.__new__(cls)
        self._rows = rows
        self.n_rows = len(rows)
        self.n_cols = n_cols
        return self

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n_cols=n)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "RationalMatrix":
        return cls([[0] * n_cols for _ in range(n_rows)], n_cols=n_cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], n_rows: int | None = None) -> "RationalMatrix":
        cols = [vector(c) for c in columns]
        if cols:
            heights = {len(c) for c in cols}
            if len(heights) != 1:
                raise ValueError("ragged columns")
            n_rows = heights.pop() if n_rows is None else n_rows
            if n_rows != len(cols[0]):
                raise ValueError("column height does not match n_rows")
        elif n_rows is None:
            n_rows = 0
        return cls([[c[i] for c in cols] for i in range(n_rows)], n_cols=len(cols))

    @classmethod
    def hstack(cls, *mats: "RationalMatrix") -> "RationalMatrix":
        if not mats:
            raise ValueError("nothing to stack")
        height = {m.n_rows for m in mats}
        if len(height) != 1:
            raise ValueError("row counts differ")
        n_rows = height.pop()
        rows = [sum((m.row(i) for m in mats), ()) for i in range(n_rows)]
        return cls(rows, n_cols=sum(m.n_cols for m in mats))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> Vector:
        return self._rows[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self._rows)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.n_cols))

    def to_rows(self) -> list[list[Fraction]]:
        """Mutable copy of the entries, for elimination routines."""
        return [list(row) for row in self._rows]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._rows[i][j] for i in range(self.n_rows)] for j in range(self.n_cols)],
            n_cols=self.n_rows,
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        ocols = other.columns()
        rows = [
            [sum(a * b for a, b in zip(row, col)) for col in ocols]
            for row in self._rows
        ]
        return RationalMatrix(rows, n_cols=other.n_cols)

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        w = vector(v)
        if len(w) != self.n_cols:
            raise ValueError(f"vector of length {len(w)} against {self.shape} matrix")
        support = [(j, x) for j, x in enumerate(w) if x]
        return tuple(
            sum((row[j] * x for j, x in support if row[j]), Fraction(0))
            for row in self._rows
        )

    def is_symmetric(self) -> bool:
        if self.n_rows != self.n_cols:
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.n_rows)
            for j in range(i)
        )

    def rank(self) -> int:
        rows = self.to_rows()
        return len(_echelonize(rows, reduced=False))

    def kernel(self) -> "Subspace":
        """Null space {x : Mx = 0} as a canonical subspace of Q^n_cols,
        read off one elimination (see ``_null_space``)."""
        return _null_space(self._rows, self.n_cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.n_cols == other.n_cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n_cols, self._rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"RationalMatrix({self.n_rows}x{self.n_cols}: {body})"


def _null_space(rows: Sequence[Sequence[Fraction]], n_cols: int) -> "Subspace":
    """Canonical basis of {x : row . x = 0 for every row}.

    The rows are echelonized with their columns reversed, so each pivot
    sits as far right as it can: RREF row i is zero right of its pivot
    p_i and at every other pivot.  The free-variable vector
    e_f - sum_i rows[i][f] e_{p_i} is therefore nonzero only at f and at
    pivots right of f, so its leading entry is the 1 at f, and it is
    zero at every other free column.  Taken in increasing f, these
    vectors already are the canonical basis; no second elimination is
    needed.
    """
    last = n_cols - 1
    work = [list(reversed(row)) for row in rows]
    pivots = [last - c for c in _echelonize(work)]
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    free = [f for f in range(n_cols) if f not in pivot_set]
    basis = []
    for f in free:
        v = [zero] * n_cols
        v[f] = one
        for row, p in zip(work, pivots):
            x = row[last - f]
            if x:
                v[p] = -x
        basis.append(v)
    return Subspace._canonical(n_cols, basis, free)


def solve_many(M: RationalMatrix, rhs: Sequence[Sequence]) -> list[Vector | None]:
    """Solve Mx = b for each right-hand side, sharing one elimination.

    Returns, per b, a solution with all free variables set to zero
    (under leftmost-pivot echelon form) or None if inconsistent.
    """
    targets = [vector(b) for b in rhs]
    for b in targets:
        if len(b) != M.n_rows:
            raise ValueError(f"right-hand side of length {len(b)} against {M.shape} matrix")
    aug = [list(row) + [b[i] for b in targets] for i, row in enumerate(M.to_rows())]
    pivots = _echelonize(aug, pivot_limit=M.n_cols)
    rank = len(pivots)
    out: list[Vector | None] = []
    for k in range(len(targets)):
        col = M.n_cols + k
        if any(aug[i][col] != 0 for i in range(rank, len(aug))):
            out.append(None)
            continue
        x = [Fraction(0)] * M.n_cols
        for i, p in enumerate(pivots):
            x[p] = aug[i][col]
        out.append(tuple(x))
    return out


class Subspace:
    """A linear subspace of Q^n with its canonical echelon basis.

    Construction canonicalizes any generating set, so equality of
    subspaces is literal equality of their basis grids.  Sums,
    intersections and membership are all exact.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        rows = []
        for v in vectors:
            w = [_frac(x) for x in v]
            if len(w) != ambient_dim:
                raise ValueError(f"generator of length {len(w)} in Q^{ambient_dim}")
            rows.append(w)
        pivots = _echelonize(rows)
        self._adopt(ambient_dim, rows[: len(pivots)], pivots)

    @classmethod
    def _canonical(cls, ambient_dim: int, basis: list[list[Fraction]],
                   pivots: Sequence[int]) -> "Subspace":
        """Wrap a basis that is already canonical (Fraction entries,
        reduced column echelon form with these pivot coordinates)."""
        self = cls.__new__(cls)
        self._adopt(ambient_dim, basis, pivots)
        return self

    def _adopt(self, ambient_dim: int, basis: list[list[Fraction]],
               pivots: Sequence[int]) -> None:
        self.ambient_dim = ambient_dim
        rows = tuple(zip(*basis)) if basis else ((),) * ambient_dim
        self.basis = RationalMatrix._exact(rows, n_cols=len(basis))
        self._pivots = tuple(pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.n_cols

    def columns(self) -> tuple[Vector, ...]:
        return self.basis.columns()

    def contains(self, v: Sequence) -> bool:
        w = list(vector(v))
        if len(w) != self.ambient_dim:
            raise ValueError(f"vector of length {len(w)} in Q^{self.ambient_dim}")
        for col, p in zip(self.basis.columns(), self._pivots):
            c = w[p]
            if c:
                for j, x in enumerate(col):
                    if x:
                        w[j] -= c * x
        return not any(w)

    def __contains__(self, v: Sequence) -> bool:
        return self.contains(v)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = [list(c) for c in self.columns() + other.columns()]
        pivots = _echelonize(rows)
        return Subspace._canonical(self.ambient_dim, rows[: len(pivots)], pivots)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection: the null space of both operands' equations
        (see ``_equations``), found by one elimination."""
        self._check_ambient(other)
        return _null_space(self._equations() + other._equations(), self.ambient_dim)

    def _equations(self) -> list[list[Fraction]]:
        """Rows whose common null space is this subspace.

        With canonical basis columns b_t and pivots p_t, a vector x lies
        in the span iff x = sum_t x[p_t] b_t, that is iff
        x[j] - sum_t b_t[j] x[p_t] = 0 at every non-pivot coordinate j;
        one row per such j.  A coordinate subspace gets one-entry rows.
        """
        n = self.ambient_dim
        pivots = self._pivots
        pivot_set = set(pivots)
        zero, one = Fraction(0), Fraction(1)
        rows = []
        for j, entries in enumerate(self.basis._rows):
            if j in pivot_set:
                continue
            row = [zero] * n
            row[j] = one
            for p, b in zip(pivots, entries):
                if b:
                    row[p] = -b
            rows.append(row)
        return rows

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def quotient_basis(numerator: Subspace, denominator: Subspace) -> list[Vector]:
    """Representatives in N spanning the quotient N / D.

    D must be contained in N.  Both are read off one elimination of the
    matrix [D | N], whose columns are D's canonical basis followed by
    N's.  Its leftmost pivots are all of D's columns, which are
    independent, and then each N column that enlarges the span of D and
    the N columns before it: those N columns are the representatives,
    in order.  The rank of [D | N] is dim(D + N), which equals dim N
    exactly when D lies in N.
    """
    numerator._check_ambient(denominator)
    offset = denominator.dim
    rows = [list(d + n) for d, n in zip(denominator.basis._rows, numerator.basis._rows)]
    pivots = _echelonize(rows, reduced=False)
    if len(pivots) != numerator.dim:
        raise ValueError("denominator is not a subspace of the numerator")
    return [numerator.basis.column(p - offset) for p in pivots[offset:]]


@dataclass(frozen=True)
class SignatureTriple:
    """Inertia counts (positive, negative, zero) of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def dimension(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


def symmetric_signature(S: RationalMatrix) -> SignatureTriple:
    """Inertia of an exactly symmetric matrix by congruence diagonalization.

    Row i and column i are first scaled by s_i, the lcm of row i's
    denominators.  That is the congruence D S D with D = diag(s), whose
    entries s_i s_j S[i][j] are integers (by symmetry the denominator of
    S[i][j] divides s_j), and D is positive definite, so by Sylvester's
    law of inertia the sign counts do not change.  The elimination then
    stays in integers: a nonzero diagonal pivot d of the active block
    counts by its sign, and the trailing block B is replaced by
    |d| (B - v v^T / d) = |d| B - sign(d) v v^T, a positive multiple of
    the Schur complement, with its content divided out.  When the
    active diagonal is all zero but some off-diagonal entry A[i][j] is
    not, adding row j to row i and column j to column i makes the (i,i)
    entry 2*A[i][j] != 0 and restores a usable pivot.
    """
    n = S.n_rows
    if n != S.n_cols:
        raise ValueError(f"matrix of shape {S.shape} is not square")
    if not S.is_symmetric():
        raise ValueError("matrix is not exactly symmetric")
    scaled = [integer_row(row) for row in S._rows]
    A = [[0] * n for _ in range(n)]
    for row, (_, entries) in zip(A, scaled):
        for j, x in entries.items():
            row[j] = x * scaled[j][0]
    n_plus = n_minus = 0
    k = 0
    while k < n:
        p = next((i for i in range(k, n) if A[i][i]), None)
        if p is None:
            spot = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if A[i][j]),
                None,
            )
            if spot is None:
                break  # remaining block is identically zero
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
        v = A[k]
        rest = range(k + 1, n)
        support = [(c, v[c]) for c in rest if v[c]]
        scale, sign = abs(d), (1 if d > 0 else -1)
        for i in rest:
            row = A[i]
            if scale != 1:
                for c in rest:
                    row[c] *= scale
            f = v[i]
            if f:
                f *= sign
                for c, x in support:
                    row[c] -= f * x
        content = gcd(*(A[i][c] for i in rest for c in rest))
        if content > 1:
            for i in rest:
                row = A[i]
                for c in rest:
                    row[c] //= content
        k += 1
    return SignatureTriple(n_plus, n_minus, n - n_plus - n_minus)
