"""Exact rational matrices and one fraction-free elimination core.

A RatMatrix holds each row as integers over one denominator, cleared once
by the lcm of its denominators or handed over as integers by the series
layer; Fraction appears only in the `entries` view, `row`, and the value
det_bareiss returns.  Two primitive integer rows are combined by
cross-multiplication (b*x - a*y, with a and b the two entries to cancel
over their gcd) and the result is divided by its content.  This is
fraction-free elimination in the sense of Bareiss (1968); det_bareiss uses
Bareiss's exact-division form.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import ShapeError


class RatMatrix:
    """Immutable r x c matrix of exact rationals.  Row i is nums[i] /
    dens[i], integers over one nonzero denominator; entries is the same
    matrix as Fractions, built on first read."""

    __slots__ = ("rows", "cols", "nums", "dens", "_entries")

    def __init__(self, entries, cols=None):
        entries = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
            for row in entries
        )
        rows = [_integer_row(row) for row in entries]
        self._fill([r for r, _ in rows], [d for _, d in rows], cols, entries)

    @classmethod
    def from_integer_rows(cls, nums, dens, cols):
        """The matrix whose row i is nums[i] / dens[i], dens[i] != 0."""
        m = object.__new__(cls)
        m._fill(nums, dens, cols, None)
        return m

    def _fill(self, nums, dens, cols, entries):
        nums = tuple(map(tuple, nums))
        if cols is None:
            cols = len(nums[0]) if nums else 0
        if any(len(row) != cols for row in nums):
            raise ShapeError("ragged rows: expected %d columns" % cols)
        _set_slots(self, rows=len(nums), cols=cols, nums=nums,
                   dens=tuple(dens), _entries=entries)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @property
    def entries(self):
        """The rows as tuples of Fractions."""
        if self._entries is None:
            _set_slots(self, _entries=tuple(
                map(_fraction_row, self.nums, self.dens)))
        return self._entries

    @staticmethod
    def identity(n):
        return RatMatrix.from_integer_rows(
            [[int(i == j) for j in range(n)] for i in range(n)], [1] * n, n)

    def row(self, i):
        return _fraction_row(self.nums[i], self.dens[i])

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeError(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        out = []
        for i in range(self.rows):
            a = self.entries[i]
            out.append(
                [
                    sum((a[k] * other.entries[k][j] for k in range(self.cols)),
                        Fraction(0))
                    for j in range(other.cols)
                ]
            )
        return RatMatrix(out, cols=other.cols)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (
            other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "RatMatrix(%d x %d)" % (self.rows, self.cols)


class EchelonResult:
    """Echelon form together with the transformation that produced it.

    transform * input = echelon exactly; transform is invertible; pivots
    are the leading-entry columns of the nonzero rows, strictly increasing;
    rank = number of nonzero rows.
    """

    __slots__ = ("echelon", "transform", "pivots", "rank")

    def __init__(self, echelon, transform, pivots, rank):
        self.echelon = echelon
        self.transform = transform
        self.pivots = pivots
        self.rank = rank


def _integer_row(values):
    """values (anything Fraction() accepts) cleared by the lcm of their
    denominators: (ints, lcm), with gcd(lcm, *ints) == 1."""
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x)
              for x in values]
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


def _cancel(x, y, p):
    """The primitive integer row b*x - a*y, where a = x[p] and b = y[p]
    are divided by their gcd, so that column p cancels."""
    a, b = x[p], y[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    row = [b * u - a * v for u, v in zip(x, y)]
    g = gcd(*row)
    return [u // g for u in row] if g > 1 else row


def echelon_reduce(m):
    """Sorted fraction-free Gaussian elimination with transformation
    tracking.

    Scheduling: repeatedly sort rows by leading-zero count (ties by
    original row index) and cancel the leading coefficient of every row
    sharing its pivot column with its predecessor; repeat to a fixed
    point.  The rows are augmented integer rows [T*M | T]: row i starts as
    den_i * [M_i | e_i], and each cancellation b*x - a*y is followed by
    division by the content of the whole augmented row.

    The output does not depend on how the working rows are scaled.
    Leading-zero counts, tie-breaking and the cancellation pattern are
    scale-independent, and a cancellation is homogeneous of degree one in
    each of the two rows involved, so every working row stays a nonzero
    multiple of the row any other scaling (monic Fraction rows, say) would
    hold.  The final normalization erases the leftover factor: the data
    part becomes integers with content 1 and a positive leading entry,
    and the transformation row is divided by the same factor.  A zero data
    row keeps its transformation row, an exact linear relation among the
    inputs, normalized to content 1 with a positive leading entry.  Zero
    rows sort last.
    """
    r, c = m.rows, m.cols
    rows = []
    for i, (row, den) in enumerate(zip(m.nums, m.dens)):
        ints = list(row) + [0] * r
        ints[c + i] = den
        rows.append(ints)
    leads = [_lead(row, 0, c) for row in rows]
    orig = list(range(r))

    changed = True
    while changed:
        order = sorted(range(r), key=lambda i: (leads[i], orig[i]))
        rows = [rows[i] for i in order]
        leads = [leads[i] for i in order]
        orig = [orig[i] for i in order]
        changed = False
        for i in range(1, r):
            p = leads[i]
            if p < c and p == leads[i - 1]:
                rows[i] = _cancel(rows[i], rows[i - 1], p)
                leads[i] = _lead(rows[i], p + 1, c)
                changed = True

    pivots, ech, tr, tr_dens = [], [], [], []
    for row, p in zip(rows, leads):
        if p < c:
            pivots.append(p)
            g = gcd(*row[:c])
        else:
            # A zero data row: normalize its relation part instead.
            p = _lead(row, c, c + r)
            g = gcd(*row)
        if row[p] < 0:
            g = -g
        ech.append([x // g for x in row[:c]])
        tr.append(row[c:])
        tr_dens.append(g)
    return EchelonResult(
        RatMatrix.from_integer_rows(ech, [1] * r, cols=c),
        RatMatrix.from_integer_rows(tr, tr_dens, cols=r),
        pivots, len(pivots))


def pivot_columns(m):
    """Pivot columns of the reduced row echelon form, by one sweep over
    the rows.

    Each row is taken as its integer numerators; while its leading column
    already holds a pivot row, that column is cancelled fraction-free and the
    content taken out.  A row that is not zero then becomes a new pivot.
    The pivot column set is algorithm-independent (column j is a pivot
    exactly when it enlarges the rank of the columns to its left), so this
    agrees with echelon_reduce(m).pivots while staying fast on tall
    matrices: the sorted schedule re-scans rows every pass, which this
    routine avoids.  Use echelon_reduce when the actual rows or the
    transformation matter.
    """
    c = m.cols
    pivrows = {}
    for row in m.nums:
        p = _lead(row, 0, c)
        while p in pivrows:
            row = _cancel(row, pivrows[p], p)
            p = _lead(row, p + 1, c)
        if p < c:
            pivrows[p] = row
    return sorted(pivrows)


def rank(m):
    return len(pivot_columns(m))


def det_bareiss(m):
    """Exact determinant by Bareiss fraction-free elimination on the
    integer rows, divided by the product of the row denominators."""
    if m.rows != m.cols:
        raise ShapeError("determinant of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    if n == 0:
        return Fraction(1)
    scale = prod(m.dens)
    a = [list(row) for row in m.nums]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)
