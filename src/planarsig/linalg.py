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
once the gcd of its entries is divided out.  A matrix is held as
integer rows over one denominator for the whole matrix, a subspace as
primitive integer rows, and every operation works on them, so integers
pass from one elimination to the next.  There is one forward
elimination, ``_eliminate``, made of ``_clear`` steps; ``_rref`` adds
back substitution of rows for the canonical rows of spans, kernels and
meets, unless its pivot rows hold no other column, and ``solve_many``
back substitution of values.

A rank is eliminated only when the rank mod 2 does not settle it.  A
k x k minor that is odd is not zero, so the rank mod 2 of integer rows
is at most their rank over Q, which is at most min(n_rows, n_cols);
when the rank mod 2 reaches that bound, the rank over Q is the bound
too, and ``RationalMatrix.rank`` returns it without ``_eliminate``.
Dividing the rows by the matrix's denominator changes no rank, so this
is exact, not a heuristic.  Random cycle matrices with far more or far
fewer cycles than circles are nearly always of full rank mod 2 (the
768 documents of the benchmark's compute pools all are); those of the
y1 family, whose classes each hold two ones, never are.

Kernels and meets are null spaces (``_null_space``).  A one-entry
equation pins its column to zero, so pinned columns leave the system
before it is eliminated; the meridian and longitude subspaces of the
standard triple are cut out by such equations alone.  A subspace keeps
the equations it was cut out by, or builds them once when first met,
so a subspace met several times, or a kernel or meet, which keeps the
rows it was solved from as its equations, does not rebuild them.  The
kernel L+ of the standard triple thus keeps the boundary map's own
rows, whose meridian parts are m_{i+1} - m_0: met with L-, whose
equations pin every longitude, they are already in echelon form.

Entries cross the edge by one rule each way.  ``vector`` coerces what
comes in: ``RationalMatrix(...)``, ``Subspace(...)``, ``in``,
``solve_many`` and ``TorusBoundarySpace.pair`` in ``surfaces`` take
their entries through it, so ints and Fractions go on as they are,
floats are refused, and anything else (a rational string, a Decimal, a
bool) becomes a Fraction.  What goes out is Fractions, built from the
integer rows on each read: ``M[i, j]``, ``Subspace.basis`` and
``pair``.  ``solve_many`` is no Fraction reader: it returns each
solution as integers over their least common denominator, in the form
``integer_row`` gives, for the Wall route to use as it is.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_EXACT = {int, Fraction}

# Star-args and tuples on the report path are built from lists, as in
# ``lcm(*[d for d in ds])``, never from generators.  CPython turns an
# iterable of unknown length into a tuple by taking a 10-slot tuple from
# its free lists and resizing it, so when freed it joins the free list of
# another size; every op then drains one list and fills another, and the
# blocks stay held until a full collection clears the lists.


def _refuse_non_integers(entries: Sequence, what: str) -> None:
    """Raise ValueError, naming the first entry that is not an int;
    bools are refused too."""
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} {x!r} is not an integer")


def _check_int(value, what: str, low: int = 0, high: int | None = None) -> None:
    """The one check of an integer parameter: raise ValueError unless
    ``value`` is an int (bools refused), at least ``low`` and, when
    ``high`` is given, at most ``high``."""
    if type(value) is not int:
        _refuse_non_integers((value,), what)
    if high is None:
        if value < low:
            raise ValueError(f"{what} must be >= {low}")
    elif not low <= value <= high:
        raise ValueError(f"{what} {value} out of range {low}..{high}")


def vector(entries: Iterable) -> tuple:
    """Coerce an iterable of exact numbers, the one entry check of the
    package: ints and Fractions come back as they are, a float raises
    TypeError naming it, and any other value becomes a Fraction."""
    v = tuple(entries)
    if not set(map(type, v)) <= _EXACT:
        for x in v:
            if isinstance(x, float):
                raise TypeError(f"refusing float {x!r}: pass int, Fraction or a rational string")
        v = tuple(x if type(x) in _EXACT else Fraction(x) for x in v)
    return v


def integer_row(row: Sequence) -> tuple[int, dict[int, int]]:
    """The nonzero entries of ``row`` as integers: ``(s, {column: s * x})``,
    where s >= 1 is the lcm of their denominators.

    Entries are ints or Fractions; an all-zero row gives ``(1, {})``.
    """
    columns = list(compress(range(len(row)), row))
    scale = lcm(*[row[j].denominator for j in columns])
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


def _eliminate(work: list[dict[int, int]], limit: int
               ) -> tuple[list[int], list[dict[int, int]], list[dict[int, int]]]:
    """Forward Gaussian elimination of the integer rows ``work``, with
    leftmost pivots among the first ``limit`` columns.  The rows are
    consumed.  Returns ``(pivots, pivot_rows, rest)``: the pivot columns
    in increasing order, the pivot row of each, which is zero left of
    its pivot, and the other nonzero rows, which are zero left of
    ``limit``.

    A row holds column c as its pivot candidate exactly when c is its
    lowest column, so rows wait in buckets keyed by their lowest column
    (below ``limit``; the others go to ``rest``).  At column c the first
    row of c's bucket becomes the pivot row and clears c in the other
    rows there, which are re-bucketed at their new lowest column.
    Columns no row starts at cost one dict lookup.

    Each step is ``_clear``, so a row that enters primitive stays
    primitive.  The pivot columns are those of every leftmost-pivot
    elimination, whichever row it takes as pivot, and the pivot rows
    with ``rest`` span the rows of ``work``.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    rest: list[dict[int, int]] = []

    def place(row: dict[int, int]) -> None:
        if row:
            c = min(row)
            if c < limit:
                buckets.setdefault(c, []).append(row)
            else:
                rest.append(row)

    for row in work:
        place(row)
    pivots: list[int] = []
    pivot_rows: list[dict[int, int]] = []
    for c in range(limit):
        if not buckets:
            break
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        pivot = bucket[0]
        lead = pivot[c]
        for row in bucket[1:]:
            _clear(row, pivot, lead, row[c])
            place(row)
        pivots.append(c)
        pivot_rows.append(pivot)
    return pivots, pivot_rows, rest


def _rank_mod_2(rows: Iterable[dict[int, int]]) -> int:
    """The rank over GF(2) of integer rows.  Each row's parity is packed
    into one int, bit j set when entry j is odd, and reduced against an
    XOR basis keyed by the highest set bit."""
    basis: dict[int, int] = {}
    for row in rows:
        bits = sum([1 << j for j, x in row.items() if x & 1])
        while bits:
            top = bits.bit_length()
            if top not in basis:
                basis[top] = bits
                break
            bits ^= basis[top]
    return len(basis)


class RationalMatrix:
    """Immutable matrix of rationals, held as integer rows over one
    denominator.

    The matrix is ``R / d``: d >= 1, and row i of R is stored as
    ``{column: entry}`` over its nonzero ints only, with no common
    factor of d and every entry.  That form is unique for given values,
    so ``==`` and ``hash`` compare it directly.  ``M[i, j]`` builds a
    Fraction on each read; every other operation works on the integer
    rows.
    """

    __slots__ = ("n_rows", "n_cols", "_den", "_rows")

    def __init__(self, rows: Iterable[Iterable], n_cols: int | None = None):
        if n_cols is not None:
            _check_int(n_cols, "column count")
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
        # Int rows are their own integer rows over the denominator 1.
        if {type(x) for row in data for x in row} <= {int}:
            den, rows = 1, [{j: row[j] for j in compress(range(n_cols), row)} for row in data]
        else:
            den = lcm(*[x.denominator for row in data for x in row])
            rows = [
                {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
                for row in data
            ]
        self._store(n_cols, den, rows)

    @classmethod
    def _from_rows(cls, n_cols: int, den: int,
                   rows: Iterable[dict[int, int]]) -> "RationalMatrix":
        """The matrix ``R / den`` whose row i of R is the i-th of ``rows``:
        den >= 1, rows ``{column: nonzero int}``.  The dicts are never
        mutated, and kept unless den and every entry share a factor."""
        self = cls.__new__(cls)
        self._store(n_cols, den, list(rows))
        return self

    def _store(self, n_cols: int, den: int, rows: list[dict[int, int]]) -> None:
        """Set the fields, with the gcd of den and every entry divided out."""
        if den != 1:
            g = gcd(den, *[x for row in rows for x in row.values()])
            if g > 1:
                den //= g
                rows = [{j: x // g for j, x in row.items()} for row in rows]
        self._den = den
        self._rows = tuple(rows)
        self.n_rows = len(rows)
        self.n_cols = n_cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        x = self._rows[i].get(range(self.n_cols)[j])
        return _ZERO if x is None else Fraction(x, self._den)

    def entry_strings(self) -> list[list[str]]:
        """The entries as ``str(Fraction)`` prints them, formatted from the
        stored rows: entry x over the denominator d is x/d in lowest terms.

        Raises ValueError past Python's limit on int -> str digits.
        """
        out = []
        for entries in self._rows:
            row = ["0"] * self.n_cols
            for j, x in entries.items():
                g = gcd(x, self._den)
                row[j] = str(x // g) if g == self._den else f"{x // g}/{self._den // g}"
            out.append(row)
        return out

    def transpose(self) -> "RationalMatrix":
        """Rows become columns, over the same denominator."""
        columns: list[dict[int, int]] = [{} for _ in range(self.n_cols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                columns[j][i] = x
        return RationalMatrix._from_rows(self.n_rows, self._den, columns)

    def _primitive_rows(self) -> list[dict[int, int]]:
        """Copies of the stored rows with their content divided out."""
        work = [dict(row) for row in self._rows]
        for row in work:
            _divide_content(row)
        return work

    def rank(self) -> int:
        """The rank over Q.  When the rank mod 2 of the stored rows is
        min(n_rows, n_cols), it is the rank: rank mod 2 <= rank over Q
        <= min(n_rows, n_cols), and R / d has the rank of R.  Any other
        matrix is eliminated exactly."""
        parity_rank = _rank_mod_2(self._rows)
        if parity_rank == min(self.n_rows, self.n_cols):
            return parity_rank
        return len(_eliminate(self._primitive_rows(), self.n_cols)[0])

    def kernel(self) -> "Subspace":
        """Null space {x : Mx = 0} as a canonical subspace of Q^n_cols,
        read off one elimination of the nonzero primitive rows, which it
        keeps as its equations (see ``_null_space``)."""
        return _null_space([row for row in self._primitive_rows() if row], self.n_cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.n_cols == other.n_cols
            and self._den == other._den
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self._rows)
        return hash((self.n_cols, self._den, rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(row) for row in self.entry_strings())
        return f"RationalMatrix({self.n_rows}x{self.n_cols}: {body})"


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
    """Pivots, in increasing order, and rows of the reduced row echelon
    form of the integer rows ``work``: each row is the primitive integer
    multiple of its RREF row with a positive entry at its pivot, so the
    rows of a span are its canonical rows.  The rows are consumed.

    A one-entry row {j: x} is pivoted by inspection (the singleton
    rule): the RREF is unique and holds e_j whenever the span does, so
    j is a pivot with the row {j: 1}.  Deleting column j from the other
    rows subtracts multiples of e_j and keeps the span; their content is
    divided out again, only the rows left nonzero are eliminated, and
    their pivot rows, zero at every such j, are merged with the e_j by
    pivot.

    After the forward pass (``_eliminate``), back substitution clears
    each pivot row, bottom-up, at the later pivot columns it holds
    (``_reduce``), using the pivot rows below it, which are already
    reduced.  Each step is ``_clear``, so every row stays primitive and
    ends as the unique primitive row of the span with its lead at its
    pivot and zeros at the other pivots, whichever pivot rows the
    forward pass took; a sign flip makes its lead positive.

    Back substitution is skipped when the pivot rows hold no column but
    the pivots.  The span of the rows then lies on the pivot columns
    and has their number as its dimension, so it is the whole
    coordinate space on them, and the row of pivot p is {p: 1}.  The
    sum L0 + L+ of the standard triple is such a span whenever the
    cycle classes span the fiber's first homology, Q^r.
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
    pivots, rows, _ = _eliminate(work, n)
    if len(set().union(*rows)) == len(pivots):
        rows = [{p: 1} for p in pivots]
    else:
        where = dict(zip(pivots, rows))
        for p, row in zip(pivots[-2::-1], rows[-2::-1]):
            _reduce(row, [(c, where[c]) for c in row if c != p and c in where])
        for p, row in zip(pivots, rows):
            if row[p] < 0:
                for j in row:
                    row[j] = -row[j]
    if units:
        merged = sorted([*zip(pivots, rows), *((j, {j: 1}) for j in units)])
        pivots = [p for p, _ in merged]
        rows = [row for _, row in merged]
    return pivots, rows


def _solved_rows(columns: Iterable[int], pivots: Sequence[int],
                 rows: Sequence[dict[int, int]]) -> tuple[list[int], list[dict[int, int]]]:
    """The non-pivot columns j among ``columns``, in their order, and for
    each the primitive integer multiple of
    e_j - sum_t (rows[t][j] / d_t) e_{p_t}.

    ``rows[t]`` has the entry d_t at its pivot p_t, is zero at every
    other pivot, and is zero outside ``columns``.  For the canonical
    rows of a span these are equations whose common null space is the
    span; for the RREF rows of a matrix they are the kernel's canonical
    basis, whose pivots are the j.  The multiple taken is L_j times the
    vector, L_j the lcm of the d_t with rows[t][j] != 0, with its
    content divided out, so its entry at j stays positive.
    """
    pivot_set = set(pivots)
    terms: dict[int, list[tuple[int, int, int]]] = {j: [] for j in columns if j not in pivot_set}
    for p, row in zip(pivots, rows):
        d = row[p]
        for j, x in row.items():
            if j != p:
                terms[j].append((p, x, d))
    out = []
    for j, entries in terms.items():
        scale = lcm(*[d for _, _, d in entries])
        row = {j: scale}
        for p, x, d in entries:
            row[p] = -x * (scale // d)
        _divide_content(row)
        out.append(row)
    return list(terms), out


def _null_space(rows: Sequence[dict[int, int]], n_cols: int) -> "Subspace":
    """Subspace {x : row . x = 0 for every integer row}, which keeps the
    equations it was cut out by (see ``Subspace._equations``).  The rows
    are only read.

    A one-entry row {z: x} pins x_z = 0, so the pinned columns are
    collected first and the system is solved without them: every other
    row loses its pinned entries and, if it lost any, has its content
    divided out again.  A row left empty is skipped by the elimination,
    and one left with one entry is pivoted by ``_rref``'s singleton
    rule.  When every column is pinned, no row is left to eliminate.

    The rows left are echelonized with their columns reversed, so each
    pivot sits as far right as it can: RREF row i is zero right of its
    pivot p_i and at every other pivot.  The free-variable vector
    e_f - sum_i rref_i[f] e_{p_i} is therefore nonzero only at f and at
    pivots right of f, so its leading entry is at f, and it is zero at
    every other free column and at every pinned one.  Taken in
    increasing f over the columns not pinned, these vectors already are
    the canonical basis (``_solved_rows``); no second elimination is
    needed.  The equations kept are ``rows`` themselves: their common
    null space is the subspace by definition, and nothing mutates them.
    """
    pinned = {next(iter(row)) for row in rows if len(row) == 1}
    last = n_cols - 1
    work = []
    for row in rows:
        if len(row) > 1:
            w = {last - j: x for j, x in row.items() if j not in pinned}
            if len(w) < len(row):
                _divide_content(w)
            work.append(w)
    reversed_pivots, reduced = _rref(work, n_cols)
    pivots = [last - c for c in reversed_pivots]
    echelon = [{last - c: x for c, x in w.items()} for w in reduced]
    columns = [j for j in range(n_cols) if j not in pinned]
    return Subspace._from_rows(n_cols, *_solved_rows(columns, pivots, echelon), rows)


def solve_many(M: RationalMatrix,
               rhs: Sequence[Sequence]) -> list[tuple[int, dict[int, int]] | None]:
    """Solve Mx = b for each right-hand side, sharing one elimination.

    Returns, per b, a solution with all free variables set to zero
    (under leftmost-pivot echelon form) or None if inconsistent.  A
    solution x comes as integers over its least common denominator, in
    the form ``integer_row`` gives: ``(s, {column: s * x})`` over the
    nonzero entries, s >= 1 and gcd(s, every entry) = 1, so given x it
    is unique.  With no right-hand side nothing is eliminated.

    The augmented rows are eliminated forward as integer rows with
    pivots among the columns of M (``_eliminate``).  A system is
    inconsistent when its column is nonzero in a row left without a
    pivot.  Otherwise back substitution by value runs bottom-up over the
    pivot rows: the row of pivot p, with entries a_q and b, gives
    x_p = (b - sum_q a_q x_q) / a_p over the later pivots q it holds.
    Every x_q is kept as an integer over one common denominator, which
    grows by the positive part f of a_p that does not divide the new
    numerator.  No prime of f divides that numerator, and no prime of
    the old denominator divides all the old numerators, so the common
    denominator stays the least one.  The pivot columns and the values
    at the free columns are fixed, so the solution does not depend on
    the pivot rows taken.
    """
    targets = [vector(b) for b in rhs]
    if not targets:
        return []
    for b in targets:
        if len(b) != M.n_rows:
            raise ValueError(f"right-hand side of length {len(b)} against {M.shape} matrix")
    n, den = M.n_cols, M._den
    work = []
    for i, row in enumerate(M._rows):
        # Row i of M is R_i / d, so R_i x = d b_i, times the lcm t of b_i.
        t, tail = integer_row([b[i] for b in targets])
        w = {j: x * t for j, x in row.items()} if t != 1 else dict(row)
        for k, y in tail.items():
            w[n + k] = y * den
        _divide_content(w)
        work.append(w)
    pivots, rows, rest = _eliminate(work, n)
    out: list[tuple[int, dict[int, int]] | None] = []
    for col in range(n, n + len(targets)):
        if any(col in row for row in rest):
            out.append(None)
            continue
        # x_q = num[q] / denominator, zero where num has no q.
        num: dict[int, int] = {}
        denominator = 1
        for p, row in zip(reversed(pivots), reversed(rows)):
            total = row.get(col, 0) * denominator
            for q, a in row.items():
                y = num.get(q)
                if y is not None:
                    total -= a * y
            if total:
                lead = row[p]
                g = gcd(total, lead) if lead > 0 else -gcd(total, lead)
                f = lead // g
                if f != 1:
                    denominator *= f
                    for q in num:
                        num[q] *= f
                num[p] = total // g
        out.append((denominator, num))
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

    ``_eqs`` holds integer rows whose common null space is the
    subspace, or None until ``_equations`` first needs them.  They are
    not part of the value: ``==`` and ``hash`` ignore them.
    """

    __slots__ = ("ambient_dim", "_pivots", "_rows", "_eqs")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        _check_int(ambient_dim, "ambient dimension")
        work = []
        for v in vectors:
            w = vector(v)
            if len(w) != ambient_dim:
                raise ValueError(f"generator of length {len(w)} in Q^{ambient_dim}")
            work.append(_primitive(w))
        pivots, rows = _rref(work, ambient_dim)
        self.ambient_dim = ambient_dim
        self._pivots = tuple(pivots)
        self._rows = tuple(rows)
        self._eqs = None

    @classmethod
    def _from_rows(cls, ambient_dim: int, pivots: Sequence[int],
                   rows: Sequence[dict[int, int]],
                   equations: Sequence[dict[int, int]] | None = None) -> "Subspace":
        """Wrap rows that already are canonical, with ``equations`` that
        cut the subspace out if the caller has them."""
        self = cls.__new__(cls)
        self.ambient_dim = ambient_dim
        self._pivots = tuple(pivots)
        self._rows = tuple(rows)
        self._eqs = None if equations is None else tuple(equations)
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
        return Subspace._from_rows(self.ambient_dim, *_rref(work, self.ambient_dim))

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection: the null space of both operands' equations
        (see ``_equations``), found by one elimination."""
        self._check_ambient(other)
        return _null_space(self._equations() + other._equations(), self.ambient_dim)

    def _equations(self) -> tuple[dict[int, int], ...]:
        """Integer rows whose common null space is this subspace, built
        at most once and kept in ``_eqs``; callers only read them.

        A kernel or meet keeps the rows its null space was solved from
        (see ``_null_space``): a kernel its matrix's nonzero primitive
        rows, a meet both operands' equations.  Otherwise, with canonical
        basis vectors b_t and pivots p_t, a vector x lies in the span iff
        x = sum_t x[p_t] b_t, that is iff x[j] - sum_t b_t[j] x[p_t] = 0
        at every non-pivot coordinate j; one row per such j, cleared of
        denominators (``_solved_rows``).  A coordinate subspace gets
        one-entry rows.
        """
        if self._eqs is None:
            self._eqs = tuple(_solved_rows(range(self.ambient_dim), self._pivots, self._rows)[1])
        return self._eqs

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


class SignatureTriple(NamedTuple):
    """Inertia counts (positive, negative, zero) of a symmetric form; a
    tuple, so it unpacks as and equals ``(n_plus, n_minus, n_zero)``."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus


def symmetric_signature(S: RationalMatrix) -> SignatureTriple:
    """Inertia of an exactly symmetric matrix by congruence diagonalization.

    S is stored as integer rows over one denominator d, so the stored
    rows are the integer matrix d·S, d > 0, with the same inertia; its
    symmetry is that of S.  The elimination then stays in integers: a
    nonzero diagonal pivot e of the active block counts by its sign,
    and the trailing block B is replaced by
    |e| (B - v v^T / e) = |e| B - sign(e) v v^T, a positive multiple of
    the Schur complement, with its content divided out.  When the
    active diagonal is all zero but some off-diagonal entry A[i][j] is
    not, adding row j to row i and column j to column i makes the (i,i)
    entry 2*A[i][j] != 0 and restores a usable pivot.

    The trailing block stays symmetric, so each step updates it, and
    takes its content, over the upper triangle only.  Only a row and
    column swap and the zero-diagonal step read the lower triangle;
    before either, it is copied from the upper one.
    """
    n = S.n_rows
    if n != S.n_cols:
        raise ValueError(f"matrix of shape {S.shape} is not square")
    A = [[row.get(j, 0) for j in range(n)] for row in S._rows]
    if A != [list(column) for column in zip(*A)]:
        raise ValueError("matrix is not exactly symmetric")
    n_plus = n_minus = 0
    k = 0
    while k < n:
        p = next((i for i in range(k, n) if A[i][i]), None)
        if p != k:
            # The steps below update the upper triangle only; copy it into
            # the lower one before rows and columns are moved.
            for i in range(k + 1, n):
                row = A[i]
                for c in range(k, i):
                    row[c] = A[c][i]
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
        e = A[k][k]
        if e > 0:
            n_plus += 1
        else:
            n_minus += 1
        v = A[k]
        support = [(c, v[c]) for c in range(k + 1, n) if v[c]]
        scale, sign = abs(e), (1 if e > 0 else -1)
        # Row i is kept from column i on.  v[i] is nonzero exactly when i
        # is the column of support[t], so support[t:] holds the columns
        # from i on that the update reaches.
        t = 0
        content = 0
        for i in range(k + 1, n):
            row = A[i]
            if scale != 1:
                row[i:] = [x * scale for x in row[i:]]
            f = v[i]
            if f:
                f *= sign
                for c, x in support[t:]:
                    row[c] -= f * x
                t += 1
            if content != 1:
                content = gcd(content, *row[i:])
        if content > 1:
            for i in range(k + 1, n):
                row = A[i]
                row[i:] = [x // content for x in row[i:]]
        k += 1
    return SignatureTriple(n_plus, n_minus, n - n_plus - n_minus)
