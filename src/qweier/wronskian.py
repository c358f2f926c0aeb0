"""q-Wronskians of series lists, span valuations, and the cusp-order
identity connecting them.

The q-Wronskian of f_1, ..., f_k is the determinant of the k x k matrix
whose i-th row applies (q d/dq)^i to each f_j.  Every input column is
first reduced by its q-valuation: with f = q^v g, (q d/dq)^i f =
q^v (v + q d/dq)^i g, so W_q(f_1,...,f_k) = q^(v_1+...+v_k) *
det[(v_j + q d/dq)^i g_j].  This identity is exact and keeps the working
precision small even when the Wronskian itself vanishes to very high
order; for inputs with pairwise distinct valuations the reduced
determinant has a nonzero constant term (a Vandermonde factor times the
product of the leading coefficients), so the valuation of W_q is
certified from very few terms of the reduced determinant.

The reduced determinant is never formed as a matrix.  The classical
reduction W(h_0, ..., h_t) = h_0^(t+1) W(theta(h_1/h_0), ...,
theta(h_t/h_0)), theta = q d/dq, removes one column per level on
(valuation, unit) pairs: one unit inverse and one product per column, so
about k^2/2 series operations, with the full input precision for every k.
"""

from fractions import Fraction

from .errors import DependentInput, DomainError, EmptyInput, PrecisionError
from .exactlinalg import pivot_columns
from .qseries import QSeries, coefficient_matrix


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


def _reduced_det(fs, vals, prec):
    """The reduced determinant D = det[(v_j + theta)^i g_j] modulo q^prec,
    where theta = q d/dq, f_j = q^(v_j) g_j and vals[j] = v_j; prec must
    not exceed f_j.prec - v_j for any j.

    D = q^-(v_1 + ... + v_k) W_q(f_1, ..., f_k), and the Wronskian
    reduces one column at a time:

        W(h_0, ..., h_t) = h_0^(t+1) W(theta(h_1/h_0), ..., theta(h_t/h_0)).

    A column is a pair (a, u) standing for q^a u, u a unit; the first
    level holds (v_j, g_j).  Each level moves a column of least a to the
    front (a swap flips the sign), inverts its unit u_0 once and maps every
    other column to theta(q^e u_j/u_0) = q^e (e + theta)(u_j/u_0), with
    e = a_j - a_0.  For e > 0 that is the column (e, (e + theta)(u_j/u_0)).
    For e = 0 (a collision) w = theta(u_j/u_0) has no constant term, and
    the column is (c_j, w/q^c_j) with c_j the valuation of w.  The pivot
    unit of level l enters with exponent k - l, so D = +-q^s times the
    product of the prefix products u_0 u_1 ... u_l of the pivot units,
    where s is the sum of every c_j met.

    Precision: with s the sum of the c_j met before a level, every unit
    of that level is known modulo q^(prec - s).  At the first level s = 0
    and each g_j is known modulo q^prec.  The quotient by the pivot unit
    and (e + theta) need no coefficient beyond that, and lowering by c_j
    costs c_j coefficients while s grows by at least c_j.  The steps
    depend only on the valuations a_j, which the known coefficients fix,
    so for every completion of the inputs D is the product above, each of
    its factors known modulo q^(prec - s): D is known modulo q^prec.  As s
    only grows, D has valuation at least s, so once s reaches prec, or a w
    vanishes modulo q^(prec - s) (its true c_j is then at least prec - s),
    D vanishes modulo q^prec and QSeries.zero(prec) is returned.
    """
    columns = [(v, QSeries.from_numerators(f.nums[v:v + prec], f.den))
               for f, v in zip(fs, vals)]
    sign, shift, units = 1, 0, []
    while True:
        first = min(range(len(columns)), key=lambda j: columns[j][0])
        if first:
            columns[0], columns[first] = columns[first], columns[0]
            sign = -sign
        a0, unit = columns[0]
        units.append(unit)
        if len(columns) == 1:
            break
        inverse = QSeries.one(prec - shift).exact_div(unit)
        reduced = []
        for a, u in columns[1:]:
            e = a - a0
            w = u * inverse
            nums = [(e + n) * x for n, x in enumerate(w.nums)]
            c = next((n for n, x in enumerate(nums) if x), None)
            if c is None:
                return QSeries.zero(prec)
            shift += c
            reduced.append((e + c, QSeries.from_numerators(nums[c:], w.den)))
        if shift >= prec:
            return QSeries.zero(prec)
        columns = reduced
    r = prec - shift
    det = prefix = units[0].truncated(r)
    for unit in units[1:]:
        prefix = prefix * unit.truncated(r)
        det = det * prefix
    return (det if sign > 0 else -det).shifted(shift)


def q_wronskian(fs):
    """The q-Wronskian W_q = det[(q d/dq)^i f_j] of k = len(fs) series, as
    a QSeries with guaranteed precision equal to the common input
    precision: the reduced determinant, taken by theta-reduction, is
    known modulo q^(prec - max(v_j)), and the shift by sum(v_j) restores
    prec.

    For k forms of weight m and cusp width h, the Wronskian in the
    holomorphic derivative d/dz, of weight wronskian_weight(k, m), is W_q
    times the nonzero scalar (2 pi i / h)^scalar_exponent(k).  That
    transcendental factor is never evaluated, so q-valuations and
    vanishing statements transfer verbatim.
    """
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
        return QSeries.zero(prec)
    det = _reduced_det(fs, vals, prec - max(vals))
    return det.shifted(sum(vals)).truncated(prec)


def wronskian_valuation(fs):
    """Exact q-valuation of the q-Wronskian of fs, certified from the
    reduced determinant; works even when the valuation exceeds the stored
    precision of the inputs.

    Returns sum(v_j) + valuation(reduced determinant).  Modulo q^1 the
    reduced determinant is read off the valuations (see below).  When
    valuations collide it is computed once by theta-reduction, modulo
    q^probe, on units truncated to that precision; the probe never
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
    """The k distinct valuations attainable in the span of the k series
    fs, increasing, as a tuple: the pivot columns of their coefficient
    matrix on the common precision.  Their sum is the q-valuation of the
    q-Wronskian (the cusp-order identity).  Raises DependentInput when
    fewer than k columns are pivots."""
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
    return tuple(pivots)


def elliptic_wronskian_order(span_total, k, e):
    """(span_total - k(k-1)/2)/e as an exact rational: the vanishing order
    of the Wronskian at an interior point of period e, given the span
    valuations total in the local coordinate."""
    if k < 1:
        raise DomainError("need at least one form")
    if e < 1:
        raise DomainError("period must be >= 1")
    return Fraction(span_total - k * (k - 1) // 2, e)
