"""Exact linear algebra over the rationals.

Everything downstream rests on this module: matrices with rational
entries, subspaces of Q^n in a canonical form, linear solving, and
signatures of symmetric bilinear forms by exact congruence
diagonalization.  There are no floats and no tolerances anywhere.

The canonical basis of a subspace is its reduced column echelon form:
every basis column has a leading 1 (its pivot coordinate), pivot
coordinates strictly increase from one column to the next, and a pivot
coordinate is zero in every other basis column.  This is the unique
such basis of a given span (it is the reduced row echelon form of the
transposed generator matrix).

Elimination runs on integers.  An integer row is a map from column to
nonzero int; ``integer_row`` turns a row of ints and Fractions into one
by multiplying with the lcm of its denominators, and it is primitive
once the gcd of its entries is divided out.  A pivot row with entry
``lead`` in column c clears the entry f of another row by
row := (lead/g) row - (f/g) pivot with g = gcd(lead, f), and the row's
content is divided out again (``_clear``).  Clearing a column commutes
with scaling rows by nonzero numbers, so every integer row stays a
nonzero multiple of the row that ``Fraction`` elimination would hold at
the same step.  ``_eliminate`` is that loop, and the tests hold it to a
dense ``Fraction`` reference.  A rank is its pivot count; a solution
of ``solve_many`` is read off its pivot rows, each over its lead, and
only the returned entries become Fractions.

A ``RationalMatrix`` is held as integer rows too: row i is
``(s, {column: s * x})`` over its nonzero entries x, with s >= 1 the lcm
of their denominators, which is what ``integer_row`` returns.  Given
the values, that form is unique, so equality and hashing compare it.
A matrix of ints is stored without making a Fraction, and ``transpose``,
``@``, ``is_symmetric`` and the eliminations of ``rank``, ``kernel``,
``solve_many`` and ``symmetric_signature`` work on the stored rows:
they multiply integers and take lcms of scales.  Fractions are built
only when a caller reads entries, through ``M[i, j]``, ``row`` or
``column``.

A ``Subspace`` is held as integer rows: one primitive integer row per
canonical basis vector, the multiple with a positive pivot entry, which
is unique, so two subspaces are equal iff their rows are.  Sums,
intersections, kernels, quotients, membership and the isotropy check of
the standard triple pass these rows from one elimination to the next;
the basis matrix is built from them only when a caller reads
``basis``.  Kernels, intersections and quotients take one elimination
each.  A kernel is read off the RREF taken with the columns reversed, whose
free-variable vectors already are the canonical basis.  An intersection
is the kernel of both operands' equations, which are read off their
rows (a coordinate subspace gives one-entry equations).  Representatives
of a quotient N / D are the N basis vectors whose rows the rows of D
and of the earlier representatives do not reduce to zero.

The congruence diagonalization of ``symmetric_signature`` scales each
row and column by its stored scale and then stays in integers.  Most
entries the signature computations meet are zero, because two of the
three subspaces of the standard triple are coordinate subspaces, so
sparse rows touch little.  Entries are coerced once, at the public
entry points: a Fraction passes through unchanged, and so does an int
wherever the entries go straight into integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x  # immutable, so sharing it is safe
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}: pass int, Fraction or a rational string")
    return Fraction(x)


def _exact_entries(v: Iterable) -> list:
    """The entries of ``v`` as ints and Fractions: ints pass as they are,
    and everything else goes through the coercion of ``vector``."""
    return [x if type(x) is int else _frac(x) for x in v]


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


def _divide_content(row: dict[int, int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _clear(row: dict[int, int], pivot: dict[int, int], lead: int, f: int) -> None:
    """Clear the entry f of ``row`` in the column where ``pivot`` has the
    entry ``lead``, in place: row := (lead/g) row - (f/g) pivot with
    g = gcd(lead, f), then divide out the content."""
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
    _divide_content(row)


def _eliminate(work: list[dict[int, int]], limit: int, reduced: bool) -> list[int]:
    """Row-reduce the integer rows ``work`` in place with leftmost pivots
    among the first ``limit`` columns, and return the pivot columns.

    Each step is ``_clear``, so every row stays a nonzero multiple of the
    row that ``Fraction`` elimination would hold at the same step, and a
    row that enters primitive stays primitive.  Pivot row i over its
    entry at ``pivots[i]`` is therefore the ``Fraction`` row, and a row
    left without a pivot, which only ``limit`` leaves nonzero, is a
    nonzero multiple of it.  With ``reduced`` each pivot column is
    cleared above as well as below its pivot row.
    """
    n_rows = len(work)
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
        pivot = work[rank]
        lead = pivot[c]
        span = range(n_rows) if reduced else range(rank + 1, n_rows)
        for i in span:
            row = work[i]
            f = row.get(c)
            if f is not None and i != rank:
                _clear(row, pivot, lead, f)
        pivots.append(c)
        rank += 1
    return pivots


class RationalMatrix:
    """Immutable matrix of rationals, held as one integer row per row.

    Row i is stored as ``(s, {column: s * x})``, with an entry for each
    nonzero x only: s >= 1 is the lcm of the denominators of the row's
    entries, so s and the stored entries have no common factor.  That
    form is unique for given values, so ``==`` and ``hash`` compare it
    directly.  Reading entries (``M[i, j]``, ``row``, ``column``) builds
    Fractions; every other operation works on the integer rows.
    """

    __slots__ = ("n_rows", "n_cols", "_rows")

    def __init__(self, rows: Iterable[Iterable], n_cols: int | None = None):
        data = [_exact_entries(row) for row in rows]
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
        self._rows = tuple(integer_row(row) for row in data)
        self.n_rows = len(self._rows)
        self.n_cols = n_cols

    @classmethod
    def _from_rows(cls, n_cols: int,
                   rows: Iterable[tuple[int, dict[int, int]]]) -> "RationalMatrix":
        """The matrix whose row i is ``entries / scale`` for the i-th
        ``(scale, entries)``: scale >= 1, entries ``{column: nonzero int}``.

        Each row is brought to the stored form by dividing out the gcd
        of its scale and entries; the dicts are kept, never mutated.
        """
        self = cls.__new__(cls)
        self._rows = tuple(_reduced(scale, entries) for scale, entries in rows)
        self.n_rows = len(self._rows)
        self.n_cols = n_cols
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        scale, row = self._rows[i]
        x = row.get(range(self.n_cols)[j])
        return _ZERO if x is None else Fraction(x, scale)

    def row(self, i: int) -> Vector:
        scale, row = self._rows[i]
        out = [_ZERO] * self.n_cols
        for j, x in row.items():
            out[j] = Fraction(x, scale)
        return tuple(out)

    def column(self, j: int) -> Vector:
        j = range(self.n_cols)[j]
        return tuple(Fraction(row[j], scale) if j in row else _ZERO for scale, row in self._rows)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.n_cols))

    def transpose(self) -> "RationalMatrix":
        """Rows become columns; each new row is put over the lcm of the
        scales of the rows it takes entries from."""
        terms: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n_cols)]
        for i, (scale, row) in enumerate(self._rows):
            for j, x in row.items():
                terms[j].append((i, x, scale))
        out = []
        for entries in terms:
            scale = lcm(*(s for _, _, s in entries))
            out.append((scale, {i: x * (scale // s) for i, x, s in entries}))
        return RationalMatrix._from_rows(self.n_rows, out)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Row i of the product, over the scale s_i * lcm of the scales
        t_j of the rows of ``other`` it meets, is a sum of integer rows."""
        if self.n_cols != other.n_rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        orows = other._rows
        out = []
        for scale, row in self._rows:
            common = lcm(*(orows[j][0] for j in row))
            acc: dict[int, int] = {}
            for j, x in row.items():
                t, b = orows[j]
                f = x * (common // t)
                for k, y in b.items():
                    acc[k] = acc.get(k, 0) + f * y
            out.append((scale * common, {k: v for k, v in acc.items() if v}))
        return RationalMatrix._from_rows(other.n_cols, out)

    def is_symmetric(self) -> bool:
        return self.n_rows == self.n_cols and self == self.transpose()

    def _primitive_rows(self) -> list[dict[int, int]]:
        """Copies of the stored rows with their content divided out."""
        work = [dict(row) for _, row in self._rows]
        for row in work:
            _divide_content(row)
        return work

    def rank(self) -> int:
        return len(_eliminate(self._primitive_rows(), self.n_cols, reduced=False))

    def kernel(self) -> "Subspace":
        """Null space {x : Mx = 0} as a canonical subspace of Q^n_cols,
        read off one elimination (see ``_null_space``)."""
        return _null_space(self._primitive_rows(), self.n_cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.n_cols == other.n_cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        rows = tuple((scale, frozenset(row.items())) for scale, row in self._rows)
        return hash((self.n_cols, rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.n_rows))
        return f"RationalMatrix({self.n_rows}x{self.n_cols}: {body})"


def _reduced(scale: int, row: dict[int, int]) -> tuple[int, dict[int, int]]:
    """``(scale, row)`` with the gcd of scale and the entries divided out."""
    if scale != 1:
        g = gcd(scale, *row.values())
        if g > 1:
            return scale // g, {j: x // g for j, x in row.items()}
    return scale, row


def _primitive(row: Sequence) -> dict[int, int]:
    """``row`` (ints or Fractions) as a primitive integer row."""
    w = integer_row(row)[1]
    _divide_content(w)
    return w


def _reduce(rest: dict[int, int],
            echelon: Iterable[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """Clear ``rest`` in place at the pivot p of each ``(p, row)`` of
    ``echelon``, in order, and return it.  When every row is zero at the
    pivots of the rows before it, ``rest`` ends zero at all the pivots."""
    for p, row in echelon:
        f = rest.get(p)
        if f is not None:
            _clear(rest, row, row[p], f)
    return rest


def _span_rows(work: list[dict[int, int]], n: int) -> tuple[list[int], list[dict[int, int]]]:
    """Pivots and canonical rows of the span of primitive integer rows,
    which are eliminated in place."""
    pivots = _eliminate(work, n, reduced=True)
    rows = work[: len(pivots)]
    for p, row in zip(pivots, rows):
        if row[p] < 0:
            for j in row:
                row[j] = -row[j]
    return pivots, rows


def _solved_rows(n: int, pivots: Sequence[int],
                 rows: Sequence[dict[int, int]]) -> tuple[list[int], list[dict[int, int]]]:
    """The non-pivot columns j of Q^n, and for each the primitive
    integer multiple of e_j - sum_t (rows[t][j] / d_t) e_{p_t}.

    ``rows[t]`` has the entry d_t at its pivot p_t and is zero at every
    other pivot.  For the canonical rows of a span these are equations
    whose common null space is the span; for the RREF rows of a matrix
    they are the kernel's canonical basis, whose pivots are the j.  The
    multiple taken is L_j times the vector, L_j the lcm of the d_t with
    rows[t][j] != 0, with its content divided out, so its entry at j
    stays positive.
    """
    pivot_set = set(pivots)
    terms: dict[int, list[tuple[int, int, int]]] = {j: [] for j in range(n) if j not in pivot_set}
    for p, row in zip(pivots, rows):
        d = row[p]
        for j, x in row.items():
            if j != p:
                terms[j].append((p, x, d))
    out = []
    for j, entries in terms.items():
        scale = lcm(*(d for _, _, d in entries))
        row = {j: scale}
        for p, x, d in entries:
            row[p] = -x * (scale // d)
        _divide_content(row)
        out.append(row)
    return list(terms), out


def _null_space(rows: Sequence[dict[int, int]], n_cols: int) -> "Subspace":
    """Subspace {x : row . x = 0 for every integer row}.

    The rows are echelonized with their columns reversed, so each pivot
    sits as far right as it can: RREF row i is zero right of its pivot
    p_i and at every other pivot.  The free-variable vector
    e_f - sum_i rref_i[f] e_{p_i} is therefore nonzero only at f and at
    pivots right of f, so its leading entry is at f, and it is zero at
    every other free column.  Taken in increasing f, these vectors
    already are the canonical basis (``_solved_rows``); no second
    elimination is needed.
    """
    last = n_cols - 1
    work = [{last - j: x for j, x in row.items()} for row in rows]
    pivots = [last - c for c in _eliminate(work, n_cols, reduced=True)]
    echelon = [{last - c: x for c, x in w.items()} for w in work[: len(pivots)]]
    return Subspace._from_rows(n_cols, *_solved_rows(n_cols, pivots, echelon))


def solve_many(M: RationalMatrix, rhs: Sequence[Sequence]) -> list[Vector | None]:
    """Solve Mx = b for each right-hand side, sharing one elimination.

    Returns, per b, a solution with all free variables set to zero
    (under leftmost-pivot echelon form) or None if inconsistent.  The
    augmented rows are eliminated as integer rows with pivots among the
    columns of M.  A system is inconsistent when its column is nonzero
    in a row left without a pivot; otherwise x at pivot p is the
    column's entry in p's row over that row's lead.
    """
    targets = [vector(b) for b in rhs]
    for b in targets:
        if len(b) != M.n_rows:
            raise ValueError(f"right-hand side of length {len(b)} against {M.shape} matrix")
    n = M.n_cols
    work = []
    for i, (scale, row) in enumerate(M._rows):
        t, tail = integer_row([b[i] for b in targets])
        common = lcm(scale, t)
        f = common // scale
        w = {j: x * f for j, x in row.items()} if f != 1 else dict(row)
        f = common // t
        for k, y in tail.items():
            w[n + k] = y * f
        _divide_content(w)
        work.append(w)
    pivots = _eliminate(work, n, reduced=True)
    rank = len(pivots)
    out: list[Vector | None] = []
    for col in range(n, n + len(targets)):
        if any(col in row for row in work[rank:]):
            out.append(None)
            continue
        x = [_ZERO] * n
        for p, row in zip(pivots, work):
            f = row.get(col)
            if f is not None:
                x[p] = Fraction(f, row[p])
        out.append(tuple(x))
    return out


class Subspace:
    """A linear subspace of Q^n, held as canonical integer rows.

    Row t is the primitive integer multiple, with a positive entry at
    its pivot coordinate ``_pivots[t]``, of the t-th vector of the
    canonical basis.  That form is unique, so equality of subspaces is
    equality of pivots and rows.  ``basis``, the canonical basis as the
    columns of a ``RationalMatrix``, is built from the rows on first
    read and kept; building it twice gives equal values, so the cache
    needs no lock.  The program reads it once per quotient, so the
    cache saves no work.  It stays because freeing the basis as soon as
    ``quotient_basis`` returns made the heap grow while ``compute``
    encodes its report: the peak RSS of the compute-wide benchmark
    (r = 32, Python 3.11.7 on a 2-core Xeon host) rose by about 10%
    with no more live data.  Sums, intersections and membership are all
    exact and work on the integer rows.  The rows are never mutated
    once the subspace is built.
    """

    __slots__ = ("ambient_dim", "_pivots", "_rows", "_basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        work = []
        for v in vectors:
            w = _exact_entries(v)
            if len(w) != ambient_dim:
                raise ValueError(f"generator of length {len(w)} in Q^{ambient_dim}")
            work.append(_primitive(w))
        pivots, rows = _span_rows(work, ambient_dim)
        self.ambient_dim = ambient_dim
        self._pivots = tuple(pivots)
        self._rows = tuple(rows)

    @classmethod
    def _from_rows(cls, ambient_dim: int, pivots: Sequence[int],
                   rows: Sequence[dict[int, int]]) -> "Subspace":
        """Wrap rows that already are canonical."""
        self = cls.__new__(cls)
        self.ambient_dim = ambient_dim
        self._pivots = tuple(pivots)
        self._rows = tuple(rows)
        return self

    @property
    def basis(self) -> RationalMatrix:
        """The canonical basis: reduced column echelon form, with a
        leading 1 at each pivot coordinate."""
        try:
            return self._basis
        except AttributeError:
            # Basis vector t is row t over its pivot entry.
            vectors = [(row[p], row) for p, row in zip(self._pivots, self._rows)]
            self._basis = RationalMatrix._from_rows(self.ambient_dim, vectors).transpose()
            return self._basis

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def columns(self) -> tuple[Vector, ...]:
        return self.basis.columns()

    def __contains__(self, v: Sequence) -> bool:
        w = _exact_entries(v)
        if len(w) != self.ambient_dim:
            raise ValueError(f"vector of length {len(w)} in Q^{self.ambient_dim}")
        # Each row is zero at the other pivots, so clearing the pivots
        # one by one leaves zero exactly when v lies in the span.
        return not _reduce(integer_row(w)[1], zip(self._pivots, self._rows))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        work = [dict(row) for row in self._rows + other._rows]
        return Subspace._from_rows(self.ambient_dim, *_span_rows(work, self.ambient_dim))

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection: the null space of both operands' equations
        (see ``_equations``), found by one elimination."""
        self._check_ambient(other)
        return _null_space(self._equations() + other._equations(), self.ambient_dim)

    def _equations(self) -> list[dict[int, int]]:
        """Integer rows whose common null space is this subspace.

        With canonical basis columns b_t and pivots p_t, a vector x lies
        in the span iff x = sum_t x[p_t] b_t, that is iff
        x[j] - sum_t b_t[j] x[p_t] = 0 at every non-pivot coordinate j;
        one row per such j, cleared of denominators (``_solved_rows``).
        A coordinate subspace gets one-entry rows.
        """
        return _solved_rows(self.ambient_dim, self._pivots, self._rows)[1]

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._pivots == other._pivots
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self._rows)
        return hash((self.ambient_dim, self._pivots, rows))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def quotient_basis(numerator: Subspace, denominator: Subspace) -> list[Vector]:
    """Representatives in N spanning the quotient N / D.

    D must be contained in N.  The representatives are the canonical
    basis vectors of N, in order, that enlarge the span of D and the N
    vectors before them.  Each N row is reduced (``_reduce``) by a list
    of integer rows, seeded with D's rows, in list order: every row of
    the list is zero at the pivots of the rows before it.  A row that
    does not reduce to zero joins the list, with one of its nonzero
    columns as pivot.  The list ends with dim(D + N) rows, which equals
    dim N exactly when D lies in N.
    """
    numerator._check_ambient(denominator)
    echelon = list(zip(denominator._pivots, denominator._rows))
    picked = []
    for k, row in enumerate(numerator._rows):
        rest = _reduce(dict(row), echelon)
        if rest:
            echelon.append((min(rest), rest))
            picked.append(k)
    if len(echelon) != numerator.dim:
        raise ValueError("denominator is not a subspace of the numerator")
    basis = numerator.basis
    return [basis.column(k) for k in picked]


@dataclass(frozen=True)
class SignatureTriple:
    """Inertia counts (positive, negative, zero) of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


def symmetric_signature(S: RationalMatrix) -> SignatureTriple:
    """Inertia of an exactly symmetric matrix by congruence diagonalization.

    Row i and column i are first scaled by s_i, the lcm of row i's
    denominators, which is the scale the row is stored with.  That is the congruence D S D with D = diag(s), whose
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
    A = [[0] * n for _ in range(n)]
    for row, (_, entries) in zip(A, S._rows):
        for j, x in entries.items():
            row[j] = x * S._rows[j][0]
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
