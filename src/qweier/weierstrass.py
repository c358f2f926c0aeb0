"""Deciding whether the cusp at infinity is an (m/2)-Weierstrass point.

Given a basis f_0, ..., f_{g-1} of the weight-2 cusp forms of a group of
genus g, the degree-(m/2) monomials in the f_i land in the subspace S^H_m
of weight-m cusp forms coming from holomorphic (m/2)-differentials.  Row
reduction of their coefficient matrix yields the attainable leading
exponents ("gap sequence"); the cusp is NOT an (m/2)-Weierstrass point
exactly when the matrix has full expected rank t = dim S^H_m and the
exponents are the consecutive run m/2, m/2+1, ..., m/2+t-1.

The rank statement is only conclusive when the monomials are known to span
S^H_m: that holds on non-hyperelliptic curves, and trivially whenever the
observed rank equals t.  On hyperelliptic curves the span is provably a
proper subspace for m >= 6, so the verdict is refused there; at m = 4 a
report is still produced but flagged SPAN_NOT_GUARANTEED.

An independent route to the same verdict goes through the q-Wronskian: the
order of vanishing of the Wronskian of an echelon basis of S^H_m at the
cusp equals the sum of the gap sequence, and the cusp is an
(m/2)-Weierstrass point iff that order reaches 1 + t(m-1+t)/2.
"""

import sys
from math import prod

from .errors import (DomainError, HyperellipticUnsupported, PrecisionError,
                     RankDeficit, ValidationError)
from .exactlinalg import (RatMatrix, dependent_rows, echelon_reduce,
                          pivot_columns)
from .qseries import QSeries
from .surface import (HYPERELLIPTIC, NOT_HYPERELLIPTIC, _require_even_weight,
                      dim_s_h)
from .wronskian import wronskian_valuation

#: Report flag: the curve is hyperelliptic and the monomial matrix came out
#: rank-deficient, so the monomials are not known to span S^H_m and the
#: verdict must not be trusted.
SPAN_NOT_GUARANTEED = "SPAN_NOT_GUARANTEED"


class ModularFormRecord:
    """A labeled q-expansion."""

    __slots__ = ("label", "series")

    def __init__(self, label, series):
        self.label = label
        self.series = series

    def __repr__(self):
        return "ModularFormRecord(%r, %s)" % (
            self.label, self.series.qstring(3))


class CuspBasis:
    """A basis of the weight-2 cusp forms of a genus-g group: exactly g
    labeled weight-2 forms at one common precision, each vanishing at the
    infinite cusp."""

    __slots__ = ("level_label", "forms", "genus", "prec")

    def __init__(self, level_label, forms):
        forms = list(forms)
        if not forms:
            raise ValidationError("a cusp basis needs at least one form")
        precs = {f.series.prec for f in forms}
        if len(precs) != 1:
            raise ValidationError(
                "forms carry inconsistent precisions %s" % sorted(precs))
        for f in forms:
            if f.series.prec >= 1 and f.series.nums[0]:
                raise ValidationError(
                    "form %r has a nonzero constant term; basis forms must be "
                    "cusp forms" % f.label)
        self.level_label = level_label
        self.forms = forms
        self.genus = len(forms)
        self.prec = precs.pop()

    @classmethod
    def from_series(cls, level_label, series_list):
        """Wrap bare series as records labeled f0, f1, ... ."""
        records = [
            ModularFormRecord("f%d" % i, s) for i, s in enumerate(series_list)
        ]
        return cls(level_label, records)

    def series_list(self):
        return [f.series for f in self.forms]

    def __repr__(self):
        return "CuspBasis(%r, genus=%d, prec=%d)" % (
            self.level_label, self.genus, self.prec)


class WeierstrassReport:
    """Outcome of the monomial-elimination test at one even weight m.

    gap_sequence lists the leading exponents attainable in the span of the
    degree-(m/2) monomials; rows are the echelon q-expansions realizing
    them.  combinations[i] gives coefficients on the monomial list (same
    order as monomial_exponents) whose combination is rows[i]; all of them
    use the same `rank` linearly independent monomials, so each is a valid
    combination, not the unique one when monomials outnumber the rank.
    is_weierstrass applies the consecutive-exponent criterion; flags carry
    SPAN_NOT_GUARANTEED when the verdict is not backed by a spanning
    argument.
    """

    __slots__ = ("m", "expected_dim", "rank", "gap_sequence",
                 "is_weierstrass", "rows", "combinations",
                 "monomial_exponents", "flags")

    def __init__(self, m, expected_dim, rank, gap_sequence, is_weierstrass,
                 rows, combinations, monomial_exponents, flags=()):
        self.m = m
        self.expected_dim = expected_dim
        self.rank = rank
        self.gap_sequence = tuple(gap_sequence)
        self.is_weierstrass = is_weierstrass
        self.rows = rows
        self.combinations = combinations
        self.monomial_exponents = tuple(monomial_exponents)
        self.flags = tuple(flags)

    def __repr__(self):
        return ("WeierstrassReport(m=%d, t=%d, rank=%d, gaps=%s, "
                "is_weierstrass=%s%s)" % (
                    self.m, self.expected_dim, self.rank,
                    list(self.gap_sequence), self.is_weierstrass,
                    ", flags=%s" % (self.flags,) if self.flags else ""))


def required_precision(g, m):
    """The number of coefficients that fix the monomial matrix's rank:
    m/2 + m(g-1) + 1.

    On a curve of genus g, a nonzero weight-m form coming from a
    holomorphic (m/2)-differential vanishes at the cusp (of width 1) to
    q-order at most m/2 + m(g-1), the degree of (m/2)K plus m/2.  So every
    nonzero form of S^H_m, in particular every nonzero combination of
    degree-(m/2) monomials in a basis of the weight-2 cusp forms, has a
    nonzero coefficient below q^(m/2 + m(g-1) + 1), the largest admissible
    leading exponent plus one guard term.  Series that are not such a
    basis carry no such bound."""
    if g < 1:
        raise DomainError("genus must be >= 1")
    _require_even_weight(m, 2)
    return m // 2 + m * (g - 1) + 1


def _checked_precision(basis, m):
    """required_precision(genus, m), after checking that m is an even
    weight and that the basis carries that many coefficients."""
    g = basis.genus
    need = required_precision(g, m)
    if basis.prec < need:
        raise PrecisionError(
            "basis precision %d is below the %d coefficients required for "
            "genus %d, weight %d" % (basis.prec, need, g, m))
    return need


def monomials(basis, m):
    """All degree-(m/2) monomials in the basis forms, in lexicographically
    decreasing exponent order, as (exponent vector, series) pairs.

    For m = 2 the list is the basis itself.  Each product is truncated to
    the common basis precision: row i of _monomial_matrix(basis, m,
    basis.prec) over its denominator, put in lowest terms by
    QSeries.from_numerators.  The result is the same (nums, den, prec) as
    a chain of QSeries products.
    """
    _checked_precision(basis, m)
    vecs, matrix, _ = _monomial_matrix(basis, m, basis.prec)
    return [(vec, QSeries.from_numerators(row, den))
            for vec, row, den in zip(vecs, matrix.nums, matrix.dens)]


def _monomial_matrix(basis, m, prec, skip=False):
    """(vecs, matrix, kept): the degree-(m/2) monomials in the basis forms
    modulo q^prec, vecs their exponent vectors in lexicographically
    decreasing order and matrix the RatMatrix whose row i is monomial i,
    the integer product of the numerator rows over den_0^a_0 * ... *
    den_(g-1)^a_(g-1), a = vecs[i], not reduced to lowest terms.  The
    caller checks the weight and the precision.

    The shared-prefix recursion runs on Kronecker-packed integers: each
    numerator row, cut to prec coefficients, becomes one signed integer
    evaluated at 2^w, and each tree node is one integer product truncated
    modulo q^prec.  A coefficient below q^prec of a product involves only
    the coefficients below q^prec of its factors, so it is at most
    norm**(m/2) in absolute value, where norm is the largest l1 norm of a
    cut row; w = bit_length(norm**(m/2)) + 1 bits, rounded up to 1, 2, 4
    or 8 bytes, keeps every digit exact.  Each leaf is unpacked once.

    For m >= 6 the quadrics, built on the same packed rows (norm**2
    bounds them too), are swept in the same order modulo the same
    q^prec.  A dead quadric is one in the span of the quadrics before it.
    A relation modulo q^prec times a form of valuation >= 0 is still
    one, and adding an exponent vector keeps the lexicographic order, so
    every multiple of a dead quadric lies in the span of the monomials
    before it; by induction the rows that no dead quadric divides span
    them all and include every row independent of the rows before it.
    kept lists the indices, increasing, of the built rows that no dead
    quadric divides: every row when m <= 4 or no quadric dies.  With
    skip the walk builds only those rows, so kept lists every row and
    vecs holds only their vectors.  A quadric dead only modulo a lower
    power of q proves nothing modulo q^prec.
    """
    d = m // 2
    rows = [f.nums[:prec] for f in basis.series_list()]
    ring = _PackedRows(prec, max(sum(map(abs, row)) for row in rows) ** d)
    xs = [ring.pack(row) for row in rows]
    last = [1]
    for _ in range(d):
        last.append(ring.mul(last[-1], xs[-1]))
    dead = []
    if d > 2:
        quadrics = []
        _extend_monomials(ring, xs, last, 0, 2, 1, [0] * len(xs), quadrics)
        # A row's denominator does not change whether it is dependent.
        dead = [[i for i, e in enumerate(quadrics[k][0]) for _ in range(e)]
                for k in dependent_rows(RatMatrix(
                    [ring.unpack(x) for _, x in quadrics],
                    [1] * len(quadrics), prec))]
    kills = None
    if dead and skip:
        kills = [0] * len(xs)
        for a, b in dead:
            kills[a] |= 1 << b
    leaves = []
    _extend_monomials(ring, xs, last, 0, d, 1, [0] * len(xs), leaves, kills)
    dens = [f.series.den for f in basis.forms]
    vecs = [vec for vec, _ in leaves]
    if dead and not skip:
        # vec[a] > (a == b) asks for x_a^2 when a == b.
        kept = [i for i, vec in enumerate(vecs)
                if not any(vec[a] > (a == b) and vec[b] for a, b in dead)]
    else:
        kept = list(range(len(vecs)))
    return vecs, RatMatrix([ring.unpack(x) for _, x in leaves],
                           [prod(map(pow, dens, vec)) for vec in vecs],
                           prec), kept


class _PackedRows:
    """Integer rows of length prec packed into one signed integer: the
    row c_0, ..., c_(prec-1) is sum(c_k * 2^(w*k)), with w = 8 * nbytes
    bits per digit.  Exact while every |c_k| <= bound, since w =
    bit_length(bound) + 1 rounded up to 1, 2, 4 or 8 bytes (or to whole
    bytes past 8), so every digit lies in [-2^(w-1), 2^(w-1))."""

    __slots__ = ("prec", "nbytes", "offset", "mask", "typecode")

    def __init__(self, prec, bound):
        nbytes = (bound.bit_length() + 8) // 8
        if nbytes <= 8:
            nbytes = 1 << (nbytes - 1).bit_length()
        width = 8 * nbytes
        self.prec = prec
        self.nbytes = nbytes
        self.mask = (1 << (width * prec)) - 1
        # 2^(w-1) in every digit.
        self.offset = (self.mask // ((1 << width) - 1)) << (width - 1)
        self.typecode = next(
            (t for t in "bhilq"
             if memoryview(bytes(8)).cast(t).itemsize == nbytes), None)

    def pack(self, nums):
        width = 8 * self.nbytes
        return sum(x << (width * k) for k, x in enumerate(nums))

    def mul(self, x, y):
        """The packed product of two packed rows modulo q^prec.  Adding
        the offset makes every low digit nonnegative, so the mask cuts
        exactly the digits of q^prec and above."""
        return ((x * y + self.offset) & self.mask) - self.offset

    def unpack(self, x):
        """The row of a packed integer as a list of ints.  With the offset
        added, flipping the top bit of every digit leaves each digit in
        two's complement, which a signed typecode reads in C.  The bytes
        are in native order, so a big-endian host reads the digits last
        first."""
        n = self.nbytes
        raw = ((x + self.offset) ^ self.offset).to_bytes(
            self.prec * n, sys.byteorder)
        if self.typecode is None:
            row = [int.from_bytes(raw[k:k + n], sys.byteorder, signed=True)
                   for k in range(0, len(raw), n)]
        else:
            row = memoryview(raw).cast(self.typecode).tolist()
        return row if sys.byteorder == "little" else row[::-1]


def _extend_monomials(ring, xs, last, i, rem, prefix, vec, out, kills=None,
                      banned=0):
    """Append to out every (exponent vector, packed row) pair prefix *
    xs[i]^a_i * ... * xs[-1]^a_last with a_i + ... + a_last = rem, in
    lexicographically decreasing order.  xs are the packed rows, last[j]
    is xs[-1]^j and vec[:i] holds the exponents already fixed.

    With kills, no vector that contains a dead quadric is built: bit j of
    kills[i], j >= i, marks the quadric x_i x_j dead, and bit j of banned
    marks a form that a dead quadric with a factor of the prefix keeps
    out.  Without kills the filter costs one test per node.

    A module-level function rather than a nested one, so no closure
    refers to itself and out is freed as soon as the caller drops it."""
    top = rem
    if kills:
        if banned >> i & 1:
            top = 0
        elif kills[i] >> i & 1:
            top = min(rem, 1)
    if i == len(xs) - 1:
        if top == rem:
            vec[i] = rem
            out.append((tuple(vec), ring.mul(prefix, last[rem])))
            vec[i] = 0
        return
    chain = [prefix]
    for _ in range(top):
        chain.append(ring.mul(chain[-1], xs[i]))
    inner = banned | kills[i] if kills else 0
    for a in range(top, -1, -1):
        vec[i] = a
        _extend_monomials(ring, xs, last, i + 1, rem - a, chain[a], vec, out,
                          kills, inner if a else banned)
    vec[i] = 0


def subspace_dimension(basis, m):
    """dim S^H_{m,2}: the rank of the degree-(m/2) monomial matrix, read
    on its first need = required_precision(genus, m) columns.

    When the basis is a basis of the weight-2 cusp forms of a genus-g
    curve, no nonzero combination of the monomials vanishes to q-order
    need or more (see required_precision), so those columns carry the
    whole rank.  On series that are not such a basis the rank on need
    columns can fall below the rank on all basis.prec columns.

    The matrix is _monomial_matrix(basis, m, need, skip=True): for m >=
    6 no monomial that a dead quadric divides is built or swept, a dead
    quadric being one in the span of the quadrics before it modulo the
    same q^need.  A relation modulo q^need times a form of valuation >= 0
    is still one, and multiplying by a form keeps the lexicographic order
    of the monomials, so every such monomial lies in the span of the
    monomials before it and the rank is that of the whole matrix, for
    any series.  Where the quadric relations generate the ideal of the
    canonical curve (Petri's theorem), few rows are left beyond the rank.
    """
    need = _checked_precision(basis, m)
    return len(pivot_columns(
        _monomial_matrix(basis, m, need, skip=True)[1]))


def check_inputs(basis, m, sig):
    """The checks weierstrass_test makes before any elimination, in its
    order: sig has the basis's genus, which is at least 2, and m is an
    even weight whose required_precision the basis holds.  A caller that
    prints before the test runs calls this first."""
    if sig.genus != basis.genus:
        raise DomainError(
            "signature genus %d does not match basis genus %d"
            % (sig.genus, basis.genus))
    if basis.genus < 2:
        raise DomainError(
            "no (m/2)-Weierstrass points exist for genus 0 or 1")
    _checked_precision(basis, m)


def weierstrass_test(basis, m, sig, hyperelliptic_status=NOT_HYPERELLIPTIC):
    """Run the monomial-elimination test for the infinite cusp.

    sig must carry the same genus as the basis (>= 2).  The default
    hyperelliptic_status asserts the curve is not hyperelliptic, which is
    what makes a rank-deficient matrix an error (RankDeficit: the
    monomials provably span S^H_m there, so a shortfall means bad input).
    Pass surface.HYPERELLIPTIC to get, instead, HyperellipticUnsupported
    for m >= 6 (the span is provably proper) or a SPAN_NOT_GUARANTEED
    report at m = 4.  The matrix is _monomial_matrix(basis, m,
    basis.prec), every monomial built: reading all stored columns lets
    rank > t expose a basis that is not one of the weight-2 cusp forms.
    Its kept rows, those no dead quadric divides, span it and include
    every row independent of the rows before it, so echelon_reduce sweeps
    only those at full width, and its sorted schedule reads every row.
    """
    check_inputs(basis, m, sig)
    vecs, matrix, kept = _monomial_matrix(basis, m, basis.prec)
    result = echelon_reduce(matrix, rows=kept)
    t = dim_s_h(sig, m)
    rank = result.rank
    if rank > t:
        raise ValidationError(
            "monomial matrix rank %d exceeds dim S^H_%d = %d: the basis and "
            "signature are inconsistent" % (rank, m, t))
    flags = ()
    if rank < t:
        if m == 2:
            raise RankDeficit(
                "the %d basis forms only span a %d-dimensional space"
                % (t, rank))
        if hyperelliptic_status == HYPERELLIPTIC:
            if m >= 6:
                raise HyperellipticUnsupported(
                    "hyperelliptic curve at weight %d: the monomials span a "
                    "proper subspace of S^H_%d (rank %d < %d), so the gap "
                    "criterion does not apply" % (m, m, rank, t))
            flags = (SPAN_NOT_GUARANTEED,)
        else:
            raise RankDeficit(
                "monomial matrix rank %d < dim S^H_%d = %d on a "
                "non-hyperelliptic curve: the input basis is defective"
                % (rank, m, t))
    pivots = list(result.pivots)
    expected = list(range(m // 2, m // 2 + t))
    is_weierstrass = not (rank == t and pivots == expected)
    rows = [
        QSeries.from_numerators(result.echelon.nums[i], result.echelon.dens[i])
        for i in range(rank)
    ]
    combinations = result.combinations()
    return WeierstrassReport(
        m=m,
        expected_dim=t,
        rank=rank,
        gap_sequence=pivots,
        is_weierstrass=is_weierstrass,
        rows=rows,
        combinations=combinations,
        monomial_exponents=vecs,
        flags=flags,
    )


def wronskian_criterion(basis_of_sh, m):
    """The Wronskian-order route to the same verdict.

    basis_of_sh must be a linearly independent basis of S^H_m (for
    example the rows of a full-rank WeierstrassReport).  Returns
    (order, bound, is_weierstrass) where order is the exact q-valuation
    of the q-Wronskian, bound = 1 + t(m-1+t)/2, and the cusp is an
    (m/2)-Weierstrass point iff order >= bound.
    """
    _require_even_weight(m, 2)
    t = len(basis_of_sh)
    if t < 1:
        raise DomainError("need at least one form")
    order = wronskian_valuation(basis_of_sh)
    bound = 1 + t * (m - 1 + t) // 2
    return order, bound, order >= bound
