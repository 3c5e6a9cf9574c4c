"""Exact linear algebra over the rationals.

Everything downstream rests on this module: matrices with rational
entries, subspaces of Q^n in a canonical form, linear solving, and
signatures of symmetric bilinear forms by exact congruence
diagonalization.  There are no floats and no tolerances anywhere.

The canonical basis of a subspace: every basis vector has a leading 1
(its pivot coordinate), pivot coordinates strictly increase from one
vector to the next, and a pivot coordinate is zero in every other basis
vector.  This is the unique such basis of a given span (the rows of the
reduced row echelon form of the generators stacked as rows).

Elimination runs on integers.  An integer row is a map from column to
nonzero int; ``integer_row`` turns a row of ints and Fractions into one
by multiplying with the lcm of its denominators, and it is primitive
once the gcd of its entries is divided out.  Matrices and subspaces
are held as such rows, and every operation works on them, so integers
pass from one elimination to the next (see ``_clear``, ``_eliminate``,
``_rref`` and ``solve_many``).

Entries cross the edge by one rule each way.  ``vector`` coerces what
comes in: ``RationalMatrix(...)``, ``Subspace(...)``, ``in`` and
``solve_many`` take their entries through it, so ints and Fractions go
on as they are, floats are refused, and anything else (a rational
string, a Decimal, a bool) becomes a Fraction.  What goes out is
Fractions, built from the integer rows on each read: ``M[i, j]``,
``Subspace.basis``, the solutions of ``solve_many``, and
``TorusBoundarySpace.pair`` in ``surfaces``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_EXACT = {int, Fraction}


def refuse_floats(*vectors: Sequence) -> None:
    """Raise TypeError, naming the first float entry, if there is one.

    Checks entry types without coercing or copying anything, for hot
    paths whose callers already hold exact entries; ``vector`` raises
    through it too.
    """
    kinds: set[type] = set()
    for w in vectors:
        kinds.update(map(type, w))
    if any(issubclass(k, float) for k in kinds):
        x = next(x for w in vectors for x in w if isinstance(x, float))
        raise TypeError(f"refusing float {x!r}: pass int, Fraction or a rational string")


def vector(entries: Iterable) -> tuple:
    """Coerce an iterable of exact numbers, the one entry coercion of
    the package: ints and Fractions come back as they are, floats are
    refused, and any other value becomes a Fraction."""
    v = tuple(entries)
    if not set(map(type, v)) <= _EXACT:
        refuse_floats(v)
        v = tuple(x if type(x) in _EXACT else Fraction(x) for x in v)
    return v


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

    The forward pass is Gaussian elimination that takes, for column c,
    the first row at or below ``rank`` holding c as pivot, swaps it up
    to ``rank`` and clears c in the rows below.  Those rows are zero
    left of c, so a row holds c exactly when c is its lowest column:
    rows below the pivots wait in buckets keyed by their lowest column
    (below ``limit``), the pivot is the lowest position in bucket c,
    and a row is re-bucketed once it is cleared.  Columns no row starts
    at cost one dict lookup.  With ``reduced``, back substitution then
    clears each pivot row, bottom-up, at the later pivot columns it
    holds, using the pivot rows below it, which are already reduced.

    Each step is ``_clear``, so every row stays a nonzero multiple of the
    row that ``Fraction`` elimination would hold at the same step, and a
    row that enters primitive stays primitive.  Pivot row i over its
    entry at ``pivots[i]`` is therefore the ``Fraction`` row, and a row
    left without a pivot, which only ``limit`` leaves nonzero, is a
    nonzero multiple of it.  A reduced pivot row is the unique row of
    the span of the forward pivot rows with its lead at its pivot and
    zeros at the other pivots, so it is the row a sweep that clears
    above and below each pivot in turn would hold, up to sign.
    """
    buckets: dict[int, list[int]] = {}
    # low[i]: the bucket that row i waits in, or None; kept for the rows
    # at or below ``rank``.
    low: list[int | None] = [None] * len(work)
    for i, row in enumerate(work):
        if row:
            c = min(row)
            if c < limit:
                low[i] = c
                buckets.setdefault(c, []).append(i)
    pivots: list[int] = []
    rank = 0
    for c in range(limit):
        if not buckets:
            break
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        p = min(bucket)
        if p != rank:
            # The row at ``rank`` does not hold c, or it would be the
            # pivot; it moves to p.
            moved = low[rank]
            if moved is not None:
                held = buckets[moved]
                held[held.index(rank)] = p
            work[rank], work[p] = work[p], work[rank]
            low[p] = moved
        pivot = work[rank]
        lead = pivot[c]
        for i in bucket:
            if i != p:
                row = work[i]
                _clear(row, pivot, lead, row[c])
                first = min(row) if row else limit
                if first < limit:
                    low[i] = first
                    buckets.setdefault(first, []).append(i)
                else:
                    low[i] = None
        pivots.append(c)
        rank += 1
    if reduced:
        where = {c: k for k, c in enumerate(pivots)}
        for k in range(rank - 2, -1, -1):
            row = work[k]
            for c in [c for c in row if c in where and where[c] != k]:
                pivot = work[where[c]]
                _clear(row, pivot, pivot[c], row[c])
    return pivots


class RationalMatrix:
    """Immutable matrix of rationals, held as one integer row per row.

    Row i is stored as ``(s, {column: s * x})``, with an entry for each
    nonzero x only: s >= 1 is the lcm of the denominators of the row's
    entries, so s and the stored entries have no common factor.  That
    form is unique for given values, so ``==`` and ``hash`` compare it
    directly.  ``M[i, j]`` builds a Fraction on each read; every other
    operation works on the integer rows.
    """

    __slots__ = ("n_rows", "n_cols", "_rows")

    def __init__(self, rows: Iterable[Iterable], n_cols: int | None = None):
        data = [vector(row) for row in rows]
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

    def entry_strings(self) -> list[list[str]]:
        """The entries as ``str(Fraction)`` prints them, formatted from the
        stored rows: entry x of a row over scale s is x/s in lowest terms.

        Raises ValueError past Python's limit on int -> str digits.
        """
        out = []
        for scale, entries in self._rows:
            row = ["0"] * self.n_cols
            for j, x in entries.items():
                g = gcd(x, scale)
                row[j] = str(x // g) if g == scale else f"{x // g}/{scale // g}"
            out.append(row)
        return out

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
        body = "; ".join(" ".join(row) for row in self.entry_strings())
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


def _rref(work: list[dict[int, int]], n: int) -> tuple[list[int], list[dict[int, int]]]:
    """Pivots, in increasing order, and pivot rows of the reduced row
    echelon form of the integer rows ``work``; each row over its entry
    at its pivot is the RREF row.  The rows are consumed.

    A one-entry row {j: x} is pivoted by inspection (the singleton
    rule): the RREF is unique and holds e_j whenever the span does, so
    j is a pivot with the row {j: 1}.  Deleting column j from the other
    rows subtracts multiples of e_j and keeps the span; their content is
    divided out again, only the rows left nonzero are eliminated, and
    their pivot rows, zero at every such j, are merged with the e_j by
    pivot.
    """
    units = {next(iter(row)) for row in work if len(row) == 1}
    if units:
        rest = []
        for row in work:
            if len(row) > 1:
                hit = units.intersection(row)
                if hit:
                    for j in hit:
                        del row[j]
                    if not row:
                        continue
                    _divide_content(row)
                rest.append(row)
        work = rest
    pivots = _eliminate(work, n, reduced=True)
    rows = work[: len(pivots)]
    if units:
        merged = sorted([*zip(pivots, rows), *((j, {j: 1}) for j in units)])
        pivots = [p for p, _ in merged]
        rows = [row for _, row in merged]
    return pivots, rows


def _span_rows(work: list[dict[int, int]], n: int) -> tuple[list[int], list[dict[int, int]]]:
    """Pivots and canonical rows of the span of primitive integer rows,
    which are consumed (``_rref``, singleton rule included)."""
    pivots, rows = _rref(work, n)
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
    elimination is needed.  A one-entry row {j: x}, the equation
    x_j = 0, is the RREF row e_j in either column order, so ``_rref``
    pivots it by inspection; e_j adds no term to any free-variable
    vector.
    """
    last = n_cols - 1
    work = [{last - j: x for j, x in row.items()} for row in rows]
    reversed_pivots, reduced = _rref(work, n_cols)
    pivots = [last - c for c in reversed_pivots]
    echelon = [{last - c: x for c, x in w.items()} for w in reduced]
    return Subspace._from_rows(n_cols, *_solved_rows(n_cols, pivots, echelon))


def solve_many(M: RationalMatrix, rhs: Sequence[Sequence]) -> list[Vector | None]:
    """Solve Mx = b for each right-hand side, sharing one elimination.

    Returns, per b, a solution with all free variables set to zero
    (under leftmost-pivot echelon form) or None if inconsistent.  The
    augmented rows are eliminated as integer rows with pivots among the
    columns of M.  A system is inconsistent when its column is nonzero
    in a row left without a pivot; otherwise x at pivot p is the
    column's entry in p's row over that row's lead.

    A row whose lowest column c no other row holds is pivoted by
    inspection (the singleton rule).  No other row ever comes to hold
    c, so under the leftmost-pivot rule this row is c's pivot row and
    never clears another row; back substitution only clears it at the
    later pivots it holds.  The other rows are therefore eliminated
    alone and decide consistency, and x_c is read off this row by value:
    x_c = (b - sum_p a_p x_p) / a_c over the pivots p of the other rows,
    with every x_p put over the lcm of their leads, so that the sum
    stays in integers and one Fraction is made at the end.  Such a row
    holds no other row's singleton column, and x is zero at the free
    columns, so the solution is the one that eliminating all rows
    together gives.
    """
    targets = [vector(b) for b in rhs]
    for b in targets:
        if len(b) != M.n_rows:
            raise ValueError(f"right-hand side of length {len(b)} against {M.shape} matrix")
    n = M.n_cols
    held = Counter(chain.from_iterable(row for _, row in M._rows))
    work, singles = [], []
    for i, (scale, row) in enumerate(M._rows):
        t, tail = integer_row([b[i] for b in targets])
        common = lcm(scale, t)
        f = common // scale
        w = {j: x * f for j, x in row.items()} if f != 1 else dict(row)
        f = common // t
        for k, y in tail.items():
            w[n + k] = y * f
        _divide_content(w)
        if row and held[c := min(row)] == 1:
            singles.append((c, w))
        else:
            work.append(w)
    pivots = _eliminate(work, n, reduced=True)
    rank = len(pivots)
    # Per singleton row: its column c, the row, and (p, a_p) for each
    # pivot p it holds.
    is_pivot = set(pivots)
    substitutions = [(c, w, [(p, w[p]) for p in w if p in is_pivot]) for c, w in singles]
    out: list[Vector | None] = []
    for col in range(n, n + len(targets)):
        if any(col in row for row in work[rank:]):
            out.append(None)
            continue
        x = [_ZERO] * n
        solved = [(p, f, row[p]) for p, row in zip(pivots, work) if (f := row.get(col)) is not None]
        for p, f, lead in solved:
            x[p] = Fraction(f, lead)
        if substitutions:
            # x_p = num[p] / denominator, zero where num has no p.
            denominator = lcm(*(lead for _, _, lead in solved))
            num = {p: f * (denominator // lead) for p, f, lead in solved}
            for c, w, held_pivots in substitutions:
                total = w.get(col, 0) * denominator
                for p, a in held_pivots:
                    y = num.get(p)
                    if y is not None:
                        total -= a * y
                if total:
                    x[c] = Fraction(total, w[c] * denominator)
        out.append(tuple(x))
    return out


class Subspace:
    """A linear subspace of Q^n, held as canonical integer rows.

    Row t is the primitive integer multiple, with a positive entry at
    its pivot coordinate ``_pivots[t]``, of the t-th vector of the
    canonical basis.  That form is unique, so equality of subspaces is
    equality of pivots and rows.  ``basis`` builds the canonical basis
    vectors from the rows on each read.  Sums, intersections and
    membership are all exact and work on the integer rows.  The rows
    are never mutated once the subspace is built.
    """

    __slots__ = ("ambient_dim", "_pivots", "_rows")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        work = []
        for v in vectors:
            w = vector(v)
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
    def basis(self) -> tuple[Vector, ...]:
        """The canonical basis vectors, each with a leading 1 at its pivot
        coordinate: row t over its pivot entry."""
        return tuple(
            tuple(Fraction(row[j], row[p]) if j in row else _ZERO for j in range(self.ambient_dim))
            for p, row in zip(self._pivots, self._rows)
        )

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def __contains__(self, v: Sequence) -> bool:
        w = vector(v)
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

        With canonical basis vectors b_t and pivots p_t, a vector x lies
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


def quotient_basis(numerator: Subspace, denominator: Subspace) -> Subspace:
    """The subspace of N spanned by representatives of the quotient N / D.

    D must be contained in N.  The representatives are the canonical
    basis vectors of N, in order, that enlarge the span of D and the N
    vectors before them.  Each N row is reduced (``_reduce``) by a list
    of integer rows, seeded with D's rows, in list order: every row of
    the list is zero at the pivots of the rows before it.  A row that
    does not reduce to zero joins the list, with one of its nonzero
    columns as pivot.  The list ends with dim(D + N) rows, which equals
    dim N exactly when D lies in N.  The picked N rows, each leading at
    its pivot and zero at the other pivots of N, are the canonical rows
    of the subspace returned.
    """
    numerator._check_ambient(denominator)
    echelon = list(zip(denominator._pivots, denominator._rows))
    pivots, rows = [], []
    for p, row in zip(numerator._pivots, numerator._rows):
        rest = _reduce(dict(row), echelon)
        if rest:
            echelon.append((min(rest), rest))
            pivots.append(p)
            rows.append(row)
    if len(echelon) != numerator.dim:
        raise ValueError("denominator is not a subspace of the numerator")
    return Subspace._from_rows(numerator.ambient_dim, pivots, rows)


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
