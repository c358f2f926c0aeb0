"""Deciding whether the cusp at infinity is an (m/2)-Weierstrass point.

Given a basis f_0, ..., f_{g-1} of the weight-2 cusp forms of a group of
genus g, the degree-(m/2) monomials in the f_i land in the subspace S^H_m
of weight-m cusp forms coming from holomorphic (m/2)-differentials.  Row
reduction of their coefficient matrix yields the attainable leading
exponents ("gap sequence"); the cusp is NOT an (m/2)-Weierstrass point
exactly when the matrix has full expected rank t = dim S^H_m and the
exponents are the consecutive run m/2, m/2+1, ..., m/2+t-1.

The rank statement is only conclusive when the monomials are known to span
S^H_m: that holds on non-hyperelliptic curves (Max Noether), which the
basis tells apart by the rank of its degree-2 monomials, and trivially
whenever the observed rank equals t.  On hyperelliptic curves the span is
provably a proper subspace for m >= 6, so the verdict is refused there;
at m = 4 a report is still produced but flagged SPAN_NOT_GUARANTEED.

An independent route to the same verdict goes through the q-Wronskian: the
order of vanishing of the Wronskian of an echelon basis of S^H_m at the
cusp equals the sum of the gap sequence, and the cusp is an
(m/2)-Weierstrass point iff that order reaches 1 + t(m-1+t)/2.
"""

import sys
from fractions import Fraction
from math import prod

from .errors import (DomainError, HyperellipticUnsupported, PrecisionError,
                     RankDeficit, ValidationError)
from .exactlinalg import (RatMatrix, dependent_rows, echelon_reduce,
                          pivot_columns, solve_on_rows)
from .qseries import QSeries
from .surface import (HYPERELLIPTIC, NOT_HYPERELLIPTIC, _require_even_weight,
                      dim_s_h)
from .wronskian import wronskian_valuation

#: Report flag, at m = 4 only: the degree-2 monomials have rank 2g - 1 <
#: dim S^H_4, so the basis is that of a hyperelliptic curve, the monomials
#: do not span S^H_4 and the verdict must not be trusted.
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

    The combinations are computed on first read, a read-only property;
    no verdict needs them.  Until then the report holds basis_rows =
    (nums, dens, basis, count): the numerator rows of the `rank` monomials
    in basis, cut to the pivot columns, their denominators, their indices
    and the number of monomials.
    """

    __slots__ = ("m", "expected_dim", "rank", "gap_sequence",
                 "is_weierstrass", "rows", "monomial_exponents", "flags",
                 "_basis_rows", "_combinations")

    def __init__(self, m, expected_dim, rank, gap_sequence, is_weierstrass,
                 rows, basis_rows, monomial_exponents, flags=()):
        self.m = m
        self.expected_dim = expected_dim
        self.rank = rank
        self.gap_sequence = tuple(gap_sequence)
        self.is_weierstrass = is_weierstrass
        self.rows = rows
        self.monomial_exponents = tuple(monomial_exponents)
        self.flags = tuple(flags)
        self._basis_rows = basis_rows
        self._combinations = None

    @property
    def combinations(self):
        """One solve_on_rows call on the k x k cut of the basis rows, with
        the rows cut to the same pivot columns as targets.  A vector of
        the row space is fixed by its pivot entries, and its coordinates
        on a basis are unique, so they are those a solve on the whole
        monomial matrix returns, scattered to the basis indices."""
        if self._combinations is None:
            nums, dens, basis, count = self._basis_rows
            k = len(basis)
            pivots = self.gap_sequence
            targets = RatMatrix([[row.nums[p] for p in pivots]
                                 for row in self.rows],
                                [row.den for row in self.rows], k)
            zero = Fraction(0)
            combinations = []
            for coords in solve_on_rows(RatMatrix(nums, dens, k), range(k),
                                        range(k), targets):
                full = [zero] * count
                for i, x in zip(basis, coords):
                    full[i] = x
                combinations.append(tuple(full))
            self._combinations = combinations
            self._basis_rows = None
        return self._combinations

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


def _monomial_matrix(basis, m, prec, skip=False):
    """(vecs, matrix, kept, quad): the degree-(m/2) monomials in the basis
    forms modulo q^prec, vecs their exponent vectors in lexicographically
    decreasing order and matrix the RatMatrix whose row i is monomial i,
    the integer product of the numerator rows over den_0^a_0 * ... *
    den_(g-1)^a_(g-1), a = vecs[i], not reduced to lowest terms.  The
    caller checks the weight and the precision.

    The shared-prefix recursion runs on Kronecker-packed integers: each
    numerator row, cut to prec coefficients, becomes one signed integer
    evaluated at 2^w, and each tree node is one integer product truncated
    modulo q^prec.  A coefficient below q^prec of a product involves only
    the coefficients below q^prec of its factors.  Let L be the largest
    l1 norm and S the largest sum of squares of a cut row.  In a product
    of j >= 2 rows f_1, ..., f_j, each coefficient of f_(j-1) f_j is at
    most l2(f_(j-1)) l2(f_j) <= S by Cauchy-Schwarz, and convolving with
    the other j - 2 rows multiplies that by at most their l1 norms
    (Young), so every coefficient is at most L**(j-2) * S <= L**(d-2) * S
    for j <= d = m/2.  A single row's integer coefficients are at most L
    and at most S.  So w = bit_length(bound) + 1 bits, rounded up to 1,
    2, 4 or 8 bytes, keeps every digit exact, with bound = L**(d-2) * S
    for d >= 2 and L for d = 1.  Each leaf is unpacked once.

    For m >= 6 the quadrics, built on the same packed rows (S bounds
    them), are swept in the same order modulo the same q^prec.  A dead
    quadric is one in the span of the quadrics before it.
    A relation modulo q^prec times a form of valuation >= 0 is still
    one, and adding an exponent vector keeps the lexicographic order, so
    every multiple of a dead quadric lies in the span of the monomials
    before it; by induction the rows that no dead quadric divides span
    them all and include every row independent of the rows before it.
    kept lists the indices, increasing, of the built rows that no dead
    quadric divides: every row when m <= 4 or no quadric dies.  With
    skip the walk builds only those rows, so kept lists every row and
    vecs holds only their vectors.  A quadric dead only modulo a lower
    power of q proves nothing modulo q^prec.  quad is the rank of the
    quadrics modulo q^prec, their count minus the dead ones, for m >= 6,
    and None for m <= 4, where the quadrics are the matrix's own rows.
    """
    d = m // 2
    rows = [f.nums[:prec] for f in basis.series_list()]
    bound = max(sum(map(abs, row)) for row in rows)
    if d > 1:
        bound = bound ** (d - 2) * max(sum(x * x for x in row)
                                       for row in rows)
    ring = _PackedRows(prec, bound)
    xs = [ring.pack(row) for row in rows]
    last = [1]
    for _ in range(d):
        last.append(ring.mul(last[-1], xs[-1]))
    dead, quad = [], None
    if d > 2:
        quadrics = []
        _extend_monomials(ring, xs, last, 0, 2, 1, [0] * len(xs), quadrics)
        # A row's denominator does not change whether it is dependent.
        dead = [[i for i, e in enumerate(quadrics[k][0]) for _ in range(e)]
                for k in dependent_rows(RatMatrix(
                    [ring.unpack(x) for _, x in quadrics],
                    [1] * len(quadrics), prec))]
        quad = len(quadrics) - len(dead)
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
                           prec), kept, quad


class _PackedRows:
    """Integer rows of length prec packed into one signed integer: the
    row c_0, ..., c_(prec-1) is sum(c_k * 2^(w*k)), with w = 8 * nbytes
    bits per digit.  Exact while every |c_k| <= bound, since w =
    bit_length(bound) + 1 rounded up to 1, 2, 4 or 8 bytes (or to whole
    bytes past 8), so every digit lies in [-2^(w-1), 2^(w-1)).  The
    caller's bound must cover every coefficient of every row and product
    it packs; _monomial_matrix proves its bound by Cauchy-Schwarz."""

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
    prints before the test runs calls this first.  A hyperelliptic status
    is checked only after the elimination."""
    if sig.genus != basis.genus:
        raise DomainError(
            "signature genus %d does not match basis genus %d"
            % (sig.genus, basis.genus))
    if basis.genus < 2:
        raise DomainError(
            "no (m/2)-Weierstrass points exist for genus 0 or 1")
    _checked_precision(basis, m)


def weierstrass_test(basis, m, sig, hyperelliptic_status=None):
    """Run the monomial-elimination test for the infinite cusp.

    sig must carry the same genus as the basis (>= 2).  The verdict
    depends on the basis alone.  Its degree-2 monomials have rank 2g - 1
    on a hyperelliptic curve (all three when g = 2) and 3g - 3 on any
    other (Max Noether); any other rank is a RankDeficit.  That rank is
    the rank at m = 4.  At m >= 6 rank t = dim S^H_m rules a hyperelliptic
    curve out, and a lower rank reads the quadric rank of _monomial_matrix.
    hyperelliptic_status is a claim, None for none, and one the basis
    contradicts is a ValidationError; at m = 2 none is read or checked.
    A rank below t is a RankDeficit at m = 2 and off hyperelliptic
    curves, where the monomials provably span S^H_m; on one it is
    HyperellipticUnsupported for m >= 6, where the span is provably
    proper, and a SPAN_NOT_GUARANTEED report at m = 4.
    The matrix is _monomial_matrix(basis, m, basis.prec), every monomial
    built: reading all stored columns lets rank > t expose a basis that is
    not one of the weight-2 cusp forms.  Its kept rows, those no dead
    quadric divides, span it and include every row independent of the
    rows before it, so echelon_reduce sweeps only those at full width, and
    its sorted schedule reads every row.  No solve runs here: the report
    keeps the rows of the basis that echelon_reduce's sweep picked, cut to
    the pivot columns, and its combinations come from one solve_on_rows
    call on them when they are first read.
    """
    check_inputs(basis, m, sig)
    vecs, matrix, kept, quad = _monomial_matrix(basis, m, basis.prec)
    result = echelon_reduce(matrix, rows=kept)
    t = dim_s_h(sig, m)
    rank = result.rank
    if rank > t:
        raise ValidationError(
            "monomial matrix rank %d exceeds dim S^H_%d = %d: the basis and "
            "signature are inconsistent" % (rank, m, t))
    status = None
    if m > 4 and rank == t:
        status = NOT_HYPERELLIPTIC
    elif m > 2:
        g = basis.genus
        quad = rank if m == 4 else quad
        if quad not in (2 * g - 1, 3 * g - 3):
            raise RankDeficit(
                "the degree-2 monomials have rank %d, but on a curve of "
                "genus %d they have rank 3g - 3 = %d, or 2g - 1 = %d if it "
                "is hyperelliptic: the input basis is defective"
                % (quad, g, 3 * g - 3, 2 * g - 1))
        status = HYPERELLIPTIC if quad == 2 * g - 1 else NOT_HYPERELLIPTIC
    if status and hyperelliptic_status not in (None, status):
        raise ValidationError(
            "the monomial ranks make the curve %s, against the claimed %s"
            % (status, hyperelliptic_status))
    flags = ()
    if rank < t:
        if m == 2:
            raise RankDeficit(
                "the %d basis forms only span a %d-dimensional space"
                % (t, rank))
        if status == NOT_HYPERELLIPTIC:
            raise RankDeficit(
                "monomial matrix rank %d < dim S^H_%d = %d on a "
                "non-hyperelliptic curve: the input basis is defective"
                % (rank, m, t))
        if m >= 6:
            raise HyperellipticUnsupported(
                "hyperelliptic curve at weight %d: the monomials span a "
                "proper subspace of S^H_%d (rank %d < %d), so the gap "
                "criterion does not apply" % (m, m, rank, t))
        flags = (SPAN_NOT_GUARANTEED,)
    pivots = list(result.pivots)
    expected = list(range(m // 2, m // 2 + t))
    is_weierstrass = not (rank == t and pivots == expected)
    rows = [QSeries.from_numerators(row, 1)
            for row in result.echelon.nums[:rank]]
    basis_rows = ([[matrix.nums[i][p] for p in pivots] for i in result.basis],
                  [matrix.dens[i] for i in result.basis], result.basis,
                  matrix.rows)
    return WeierstrassReport(
        m=m,
        expected_dim=t,
        rank=rank,
        gap_sequence=pivots,
        is_weierstrass=is_weierstrass,
        rows=rows,
        basis_rows=basis_rows,
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
