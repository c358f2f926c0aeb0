"""Exact rational matrices and one fraction-free elimination core.

A RatMatrix is built from integer rows, each over one denominator;
Fraction appears only in the `entries` view and the coordinates
solve_on_rows returns.  Two primitive integer rows are combined by
cross-multiplication (b*x - a*y, with a and b the two entries to cancel
over their gcd) and the result is divided by its content: the
fraction-free elimination of Bareiss (1968).  Two schedules use it.
One sweep over the rows finds pivot columns (pivot_columns) and the
rows that depend on the rows before them (dependent_rows); the one
solve, solve_on_rows, sweeps the basis rows its caller names and
writes row-space vectors on them.  The sorted schedule fixes the
echelon rows: echelon_reduce runs it on the pivot columns that one
full-width sweep finds, and writes its rows back at full width against
that sweep's pivot rows.  Its result names the sweep's basis, on which
a caller solves for the echelon rows as combinations of the input rows.
Determinants of series matrices live in wronskian.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, ShapeError


class RatMatrix:
    """Immutable r x c matrix of exact rationals, built by its one
    constructor RatMatrix(nums, dens, cols): row i is the integers nums[i]
    over the nonzero denominator dens[i], and every row has cols entries;
    anything else raises ShapeError, or DomainError for a zero
    denominator.  entries is the same matrix as Fractions, built on first
    read."""

    __slots__ = ("rows", "cols", "nums", "dens", "_entries")

    def __init__(self, nums, dens, cols):
        nums = tuple(map(tuple, nums))
        dens = tuple(dens)
        if any(len(row) != cols for row in nums):
            raise ShapeError("ragged rows: expected %d columns" % cols)
        if len(dens) != len(nums):
            raise ShapeError("%d denominators for %d rows"
                             % (len(dens), len(nums)))
        if not all(dens):
            raise DomainError("a row denominator is zero")
        _set_slots(self, rows=len(nums), cols=cols, nums=nums, dens=dens,
                   _entries=None)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @property
    def entries(self):
        """The rows as tuples of Fractions."""
        if self._entries is None:
            _set_slots(self, _entries=tuple(
                map(_fraction_row, self.nums, self.dens)))
        return self._entries

    def __repr__(self):
        return "RatMatrix(%d x %d)" % (self.rows, self.cols)


class EchelonResult:
    """Echelon form of a matrix, its pivots and rank.

    pivots are the leading-entry columns of the nonzero echelon rows,
    strictly increasing; rank = number of nonzero rows, which come first.
    basis lists the `rank` input rows independent of the rows before
    them, which echelon_reduce's sweep picked: a caller that wants the
    echelon rows as combinations of the input rows passes it, with the
    input matrix and the pivots, to solve_on_rows.
    """

    __slots__ = ("echelon", "pivots", "rank", "basis")

    # No transformation matrix is built; bench/tracing.py still reads this.
    transform = None

    def __init__(self, echelon, pivots, rank, basis):
        self.echelon = echelon
        self.pivots = pivots
        self.rank = rank
        self.basis = basis


def _integer_row(values):
    """values (ints and Fractions only) cleared by the lcm of their
    denominators: (ints, lcm), with gcd(lcm, *ints) == 1.  A list of ints
    comes back as it is, over 1."""
    values = list(values)
    if {int}.issuperset(map(type, values)):
        return values, 1
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _set_slots(obj, **values):
    """Assign slots of an immutable object while it is being built."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _fraction_row(nums, den):
    """The tuple of Fractions nums[j] / den."""
    return tuple(Fraction(x, den) for x in nums)


def _lead(row, start, stop):
    """Index of the first nonzero entry of row[start:stop], else stop."""
    for j in range(start, stop):
        if row[j]:
            return j
    return stop


def _normalized(row, p):
    """The integer row divided by its content, with row[p] made positive."""
    g = gcd(*row)
    if row[p] < 0:
        g = -g
    return [x // g for x in row]


def _cancel(x, y, p):
    """The primitive integer row b*x - a*y, where a = x[p] and b = y[p]
    are divided by their gcd, so that column p cancels.  Both rows are
    zero before column p, so only the entries after it are computed."""
    a, b = x[p], y[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    row = [b * u - a * v for u, v in zip(x[p + 1:], y[p + 1:])]
    g = gcd(*row)
    return [0] * (p + 1) + ([u // g for u in row] if g > 1 else row)


def echelon_reduce(m, *, rows=None):
    """Sorted fraction-free Gaussian elimination, with the schedule run on
    the pivot columns only.

    The echelon rows are those of the sorted schedule (_sorted_schedule)
    run on every row of m at all m.cols columns, each nonzero row then
    divided by its content and made positive at its leading entry; zero
    rows come last.  They are found in three steps:

    1. Sweep: one _sweep at full width over the rows `rows` gives the
       pivot columns, a primitive pivot row for each, and the basis: the
       rows that open a pivot.
    2. Schedule: the sorted schedule runs on every row cut to the k
       pivot columns.
    3. Extend: each of the k nonzero rows it leaves is written back at
       full width against the pivot rows, then normalized.

    rows, when given, lists increasing indices of input rows that span
    the row space and include every row that is independent of the rows
    before it; the default reads every row.  The result is the same
    either way.

    Why the rows are the same.  In the row space the entries on the
    pivot columns determine the vector, and a vector's first nonzero
    entry is its first nonzero pivot entry, so every leading column, and
    every (leading column, original index) sort key, is the same on the
    k columns as on all m.cols.  The schedule does not depend on how the
    working rows are scaled, so each row written back is a nonzero
    multiple of the full-width schedule's row, and the normalization
    returns the same integers.  Every row independent of the rows before
    it is swept, so the pivots, the rank and the basis are those of all
    rows, and so are the coordinates of the echelon rows on that basis.

    Writing back a row h: with the columns ordered pivots first,
    [h | 0 ... 0 | 1] is reduced to zero on its first k entries against
    the pivot rows so ordered.  Its last entry ends as some S != 0, and
    the vector of the row space is S*h on the pivot columns and minus
    the reduced entries elsewhere.  A row the schedule never cancelled
    is its own input row.  No row operations are recorded: the caller
    that wants them solves on the basis with solve_on_rows.
    """
    r, c = m.rows, m.cols
    pivrows = {}
    index = range(r) if rows is None else rows
    basis = [i for i, (p, _) in zip(
        index, _sweep((m.nums[i] for i in index), c, pivrows)) if p < c]
    pivots = sorted(pivrows)
    k = len(pivots)
    cut = [[row[p] for p in pivots] for row in m.nums]
    work = _sorted_schedule(cut, k)

    order = pivots + [j for j in range(c) if j not in pivrows]
    pivrows = {s: [pivrows[p][j] for j in order] + [0]
               for s, p in enumerate(pivots)}
    ech = []
    for s, i, h in work[:k]:
        if h is cut[i]:
            # The schedule never cancelled row i: it is its own extension.
            full = m.nums[i]
        else:
            (_, row), = _sweep([h + [0] * (c - k) + [1]], k, pivrows)
            full = [0] * c
            for j, x in zip(order, h):
                full[j] = row[-1] * x
            for j, x in zip(order[k:], row[k:-1]):
                full[j] = -x
        ech.append(_normalized(full, pivots[s]))
    ech += [[0] * c] * (r - k)
    return EchelonResult(RatMatrix(ech, [1] * r, cols=c), pivots, k, basis)


def _sorted_schedule(rows, c):
    """The (leading column, original index, row) triples of the integer
    rows after the sorted schedule, in order: nonzero rows first, by
    leading column, then zero rows (leading column c), by index.

    Repeatedly sort the triples, whose first two entries are unique, so
    rows are never compared, and cancel the leading coefficient of every
    row sharing its leading column with its predecessor; repeat to a
    fixed point.  Each cancellation b*x - a*y is followed by division by
    the row's content.

    The outcome does not depend on how the working rows are scaled.
    Leading-zero counts, tie-breaking and the cancellation pattern are
    scale-independent, and a cancellation is homogeneous of degree one in
    each of the two rows involved, so every working row stays a nonzero
    multiple of the row any other scaling (monic Fraction rows, say) would
    hold.
    """
    work = [(_lead(row, 0, c), i, row) for i, row in enumerate(rows)]
    changed = True
    while changed:
        work.sort()
        changed = False
        for i in range(1, len(work)):
            p, orig, row = work[i]
            if p < c and p == work[i - 1][0]:
                row = _cancel(row, work[i - 1][2], p)
                work[i] = (_lead(row, p + 1, c), orig, row)
                changed = True
    return work


def _sweep(rows, c, pivrows):
    """Reduce each of rows in turn against pivrows, a dict {column:
    primitive integer row}: while the row's leading column among its
    first c entries holds a pivot row, that column is cancelled
    fraction-free and the content taken out.  A row still nonzero on its
    first c entries then opens a new pivot there.  Yields (leading column,
    or c for a zero row, reduced row) for each row."""
    for row in rows:
        p = _lead(row, 0, c)
        while p in pivrows:
            row = _cancel(row, pivrows[p], p)
            p = _lead(row, p + 1, c)
        if p < c:
            pivrows[p] = row
        yield p, row


def pivot_columns(m):
    """Pivot columns of the reduced row echelon form, by one sweep over
    the rows.

    The pivot column set is algorithm-independent (column j is a pivot
    exactly when it enlarges the rank of the columns to its left), so this
    agrees with echelon_reduce(m).pivots.  echelon_reduce starts with the
    same sweep, then runs the sorted schedule, which re-scans every row
    (cut to the pivot columns) each pass, and writes its rows back at
    full width.  Use echelon_reduce when the actual rows matter, and
    solve_on_rows to write a vector of the row space on a basis of input
    rows.
    """
    pivrows = {}
    for _ in _sweep(m.nums, m.cols, pivrows):
        pass
    return sorted(pivrows)


def dependent_rows(m):
    """Indices, increasing, of the rows of m that lie in the span of the
    rows before them: the rows one sweep in order reduces to zero."""
    return [i for i, (p, _) in enumerate(_sweep(m.nums, m.cols, {}))
            if p == m.cols]


def solve_on_rows(m, pivots, basis, targets):
    """Write vectors of the row space of m on the input rows basis.

    pivots are the pivot columns of m, basis lists the indices of
    len(pivots) input rows that span the row space, and targets is a
    RatMatrix whose rows lie in the row space of m.  Returns coords:
    coords[t] holds m.rows Fractions, zero off basis, whose combination
    of the input rows is row t of targets.  A basis of another length
    raises ShapeError, and one with a row in the span of the basis rows
    before it DomainError.

    A vector of the row space is determined by its entries on the pivot
    columns, so the work is done there.  One sweep triangularizes the
    basis rows on the pivot columns, each carrying its coordinates on
    the basis; every target, carrying the same and its own scale, is
    then reduced to zero against them.
    """
    k = len(pivots)
    if len(basis) != k:
        raise ShapeError("a basis of %d rows for %d pivot columns"
                         % (len(basis), k))
    # After the k pivot entries each row carries coordinates on the
    # numerator rows m.nums[basis], then a scale: a target row reads
    # [scale * target + coords . m.nums[basis] | coords | scale].
    pivrows = {}
    carried = []
    for s, i in enumerate(basis):
        row = [m.nums[i][p] for p in pivots] + [0] * (k + 1)
        row[k + s] = 1
        carried.append(row)
    for i, (p, _) in zip(basis, _sweep(carried, k, pivrows)):
        if p == k:
            raise DomainError("basis row %d lies in the span of the basis "
                              "rows before it" % i)
    zero = Fraction(0)
    coords = []
    for (_, row), den in zip(_sweep(([b[p] for p in pivots] + [0] * k + [1]
                                     for b in targets.nums), k, pivrows),
                             targets.dens):
        scale = row[-1] * den
        x = [zero] * m.rows
        for s, i in enumerate(basis):
            if row[k + s]:
                x[i] = Fraction(-row[k + s] * m.dens[i], scale)
        coords.append(x)
    return coords
