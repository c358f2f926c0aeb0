"""q-Wronskians of series lists, span valuations, and the cusp-order
identity connecting them.

The q-Wronskian of f_1, ..., f_k is the determinant of the k x k matrix
whose i-th row applies (q d/dq)^i to each f_j.  Its determinant is taken
by Gaussian elimination over Q[[q]] that pivots on an entry of least
valuation, which keeps the full input precision for every k.

Every input column is first reduced by its q-valuation: with f = q^v g,
(q d/dq)^i f = q^v (v + q d/dq)^i g, so W_q(f_1,...,f_k) =
q^(v_1+...+v_k) * det[(v_j + q d/dq)^i g_j].  This identity is exact and
keeps the working precision small even when the Wronskian itself vanishes
to very high order; for inputs with pairwise distinct valuations the
reduced determinant has a nonzero constant term (a Vandermonde factor
times the product of the leading coefficients), so the valuation of W_q
is certified from very few terms of the reduced determinant.
"""

from fractions import Fraction

from .errors import DependentInput, DomainError, EmptyInput, PrecisionError
from .exactlinalg import pivot_columns
from .qseries import QSeries, coefficient_matrix


class WronskianOutput:
    """The q-Wronskian series with its weight bookkeeping.

    The holomorphic-derivative Wronskian W differs from W_q by the nonzero
    scalar (2 pi i / h)^(k(k-1)/2); that transcendental factor is recorded
    as scalar_exponent only and never evaluated, so q-valuations and
    vanishing statements transfer verbatim.
    """

    __slots__ = ("series", "input_count", "input_weight", "output_weight",
                 "scalar_exponent")

    def __init__(self, series, input_count, input_weight):
        self.series = series
        self.input_count = input_count
        self.input_weight = input_weight
        self.output_weight = wronskian_weight(input_count, input_weight)
        self.scalar_exponent = scalar_exponent(input_count)

    def __repr__(self):
        return "WronskianOutput(k=%d, m=%d, weight=%d, %s)" % (
            self.input_count, self.input_weight, self.output_weight,
            self.series.qstring(4))


class SpanValuations:
    """The k distinct q-valuations attainable in the span of k independent
    series, and their sum."""

    __slots__ = ("valuations", "total")

    def __init__(self, valuations):
        self.valuations = tuple(valuations)
        self.total = sum(self.valuations)

    def __repr__(self):
        return "SpanValuations(%s, total=%d)" % (list(self.valuations), self.total)


def wronskian_weight(k, m):
    """Weight k(m + k - 1) of the q-Wronskian of k weight-m forms."""
    if k < 1:
        raise DomainError("need at least one input form")
    return k * (m + k - 1)


def scalar_exponent(k):
    """Exponent k(k-1)/2 of the scalar relating W and W_q."""
    if k < 1:
        raise DomainError("need at least one input form")
    return k * (k - 1) // 2


def _theta_tower(series, valuation_shift, height):
    """[(v + q d/dq)^i g for i in range(height)] for g = series, v = shift.
    (v + q d/dq) multiplies the coefficient of q^n by v + n."""
    out = [series]
    for _ in range(height - 1):
        prev = out[-1]
        out.append(QSeries.from_numerators(
            [(valuation_shift + n) * x for n, x in enumerate(prev.nums)],
            prev.den))
    return out


def _lowered(x, v):
    """x / q^v for a series x of valuation >= v, known modulo
    q^(x.prec - v)."""
    return QSeries.from_numerators(x.nums[v:], x.den)


def _det_series(rows, prec):
    """Determinant of a square matrix of series known modulo q^prec, with
    the full precision prec.

    Gaussian elimination over Q[[q]] that pivots, at each step, on an
    entry of least valuation v in the remaining block.  Every entry of the
    block is then q^v times a series known modulo q^(prec - v), so each
    multiplier m_i = a_ic / a_cc is known modulo q^(prec - v), and each
    update a_ij - q^v * (m_i * a_cj / q^v) is known modulo q^prec again.
    The block valuations never decrease, and the determinant is
    +-q^(v_1 + ... + v_k) times the product of the pivots' unit parts.
    Each pivot's unit is inverted to eliminate the rows below it, so the
    last pivot's unit, with no row below, is not inverted.
    """
    k = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    shift = 0
    units = []
    for c in range(k):
        # An entry that vanishes modulo q^prec (valuation None) is never
        # a pivot; a block of such entries counts as valuation prec.
        v, i, j = min(((v, i, j) for i in range(c, k) for j in range(c, k)
                       for v in (a[i][j].valuation(),) if v is not None),
                      default=(prec, c, c))
        if shift + v * (k - c) >= prec:
            # Every later pivot has valuation >= v, so the determinant
            # vanishes modulo q^prec.
            return QSeries.zero(prec)
        if i != c:
            a[c], a[i] = a[i], a[c]
            sign = -sign
        if j != c:
            for row in a[c:]:
                row[c], row[j] = row[j], row[c]
            sign = -sign
        unit = _lowered(a[c][c], v)
        units.append(unit)
        shift += v
        if c == k - 1:
            break
        inverse = QSeries.one(prec - v).exact_div(unit)
        pivot_row = [(j, _lowered(x, v))
                     for j, x in enumerate(a[c][c + 1:], start=c + 1)
                     if not x.is_zero()]
        for row in a[c + 1:]:
            m = _lowered(row[c], v) * inverse
            if m.is_zero():
                continue
            for j, b in pivot_row:
                row[j] = row[j] - (m * b).shifted(v)
    det = QSeries.monomial(sign, 0, prec - shift)
    for unit in units:
        det = det * unit
    return det.shifted(shift)


def _reduced_det(fs, vals, prec):
    """The reduced determinant det[(v_j + theta)^i g_j] modulo q^prec,
    where f_j = q^(v_j) g_j and vals[j] = v_j; prec must not exceed
    f_j.prec - v_j for any j.

    theta and scaling act coefficient by coefficient, so truncating g_j
    before building its derivative tower gives the same entries as
    truncating the tower afterwards, and only the coefficients the
    determinant reads are computed.
    """
    columns = [_theta_tower(QSeries.from_numerators(f.nums[v:v + prec], f.den),
                            v, len(fs))
               for f, v in zip(fs, vals)]
    return _det_series(list(zip(*columns)), prec)


def q_wronskian(fs, m):
    """The q-Wronskian det[(q d/dq)^i f_j] of k = len(fs) series of common
    weight m, with guaranteed output precision equal to the common input
    precision: the reduced determinant is known modulo
    q^(prec - max(v_j)), and the shift by sum(v_j) restores prec."""
    k = len(fs)
    if k == 0:
        raise EmptyInput("q-Wronskian of an empty list")
    prec = min(f.prec for f in fs)
    if prec < k:
        raise PrecisionError(
            "common precision %d is below the matrix size %d" % (prec, k)
        )
    fs = [f.truncated(prec) for f in fs]
    vals = [f.valuation() for f in fs]
    if None in vals:
        # A column is zero modulo the stored precision, hence so is the
        # determinant.
        return WronskianOutput(QSeries.zero(prec), k, m)
    det = _reduced_det(fs, vals, prec - max(vals))
    return WronskianOutput(det.shifted(sum(vals)).truncated(prec), k, m)


def wronskian_valuation(fs):
    """Exact q-valuation of the q-Wronskian of fs, certified from the
    reduced determinant; works even when the valuation exceeds the stored
    precision of the inputs.

    Returns sum(v_j) + valuation(reduced determinant).  Modulo q^1 the
    reduced determinant is read off the valuations (see below).  When
    valuations collide it is computed once, modulo q^probe, with the
    derivative towers built only to that precision; the probe never
    exceeds the working precision min(prec) - max(v_j).  When the pivot
    columns of the coefficient matrix give all k span valuations s_i, the
    cusp-order identity puts the reduced determinant's valuation at
    sum(s_i) - sum(v_j) >= 1, so the probe is
    min(sum(s_i) - sum(v_j) + 1, working): it either reads that
    valuation or, capped at the working precision, sees zero.  With fewer
    than k pivots some combination of the inputs vanishes modulo
    q^min(prec), so the reduced determinant vanishes modulo q^working, and
    the probe is the working precision.  The value returned is read off
    the determinant, not off the pivots, so a wrong determinant still
    shows up as a disagreement with the span valuations.  Raises
    PrecisionError when the reduced determinant vanishes modulo q^probe
    (the valuation cannot be certified), and DependentInput when an input
    is zero at its stored precision.
    """
    k = len(fs)
    if k == 0:
        raise EmptyInput("q-Wronskian of an empty list")
    prec = min(f.prec for f in fs)
    fs = [f.truncated(prec) for f in fs]
    if k == 1:
        v = fs[0].valuation()
        if v is None:
            raise PrecisionError(
                "series is zero modulo q^%d; valuation not certifiable" % prec
            )
        return v
    vals = [f.valuation() for f in fs]
    if None in vals:
        raise DependentInput(
            "an input vanishes at its stored precision: the list is either "
            "linearly dependent or the precision is insufficient"
        )
    shift = sum(vals)
    if len(set(vals)) == k:
        # The constant term of the reduced determinant is the Vandermonde
        # determinant of the v_j times the product of the leading
        # coefficients, nonzero exactly when the v_j are pairwise distinct.
        return shift
    working = prec - max(vals)
    pivots = pivot_columns(coefficient_matrix(fs, prec))
    probe = (min(sum(pivots) - shift + 1, working) if len(pivots) == k
             else working)
    v = _reduced_det(fs, vals, probe).valuation()
    if v is None:
        raise PrecisionError(
            "reduced Wronskian determinant vanishes modulo q^%d: inputs "
            "are either linearly dependent or the precision is "
            "insufficient" % working
        )
    return shift + v


def span_valuations(fs):
    """The k distinct valuations attainable in the span of fs, read off the
    pivot columns of the echelon form of the coefficient matrix."""
    k = len(fs)
    if k == 0:
        raise EmptyInput("span of an empty list")
    prec = min(f.prec for f in fs)
    pivots = pivot_columns(coefficient_matrix(fs, prec))
    if len(pivots) < k:
        raise DependentInput(
            "echelon rank %d < %d inputs: the series are either linearly "
            "dependent or the precision (%d) is insufficient to separate them"
            % (len(pivots), k, prec)
        )
    return SpanValuations(pivots)


def cusp_order_identity_check(fs, m):
    """Compare the q-valuation of the q-Wronskian (lhs) with the sum of the
    span valuations (rhs); the two are provably equal for any list of
    linearly independent forms."""
    w = q_wronskian(fs, m)
    lhs = w.series.valuation()
    if lhs is None:
        raise PrecisionError(
            "q-Wronskian vanishes modulo q^%d; increase the input precision"
            % w.series.prec
        )
    rhs = span_valuations(fs).total
    return lhs, rhs, lhs == rhs


def elliptic_wronskian_order(span_total, k, e):
    """(span_total - k(k-1)/2)/e as an exact rational: the vanishing order
    of the Wronskian at an interior point of period e, given the span
    valuations total in the local coordinate."""
    if k < 1:
        raise DomainError("need at least one form")
    if e < 1:
        raise DomainError("period must be >= 1")
    return Fraction(span_total - k * (k - 1) // 2, e)
