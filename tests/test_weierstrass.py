import gc
import hashlib
import random
from fractions import Fraction as F
from math import comb, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import qweier.exactlinalg
import qweier.weierstrass
from conftest import (FIXTURE_LEVELS, load_fixture, monomials,
                      random_basis_change)
from qweier.errors import (
    DomainError,
    HyperellipticUnsupported,
    PrecisionError,
    RankDeficit,
    ValidationError,
)
from qweier.exactlinalg import (RatMatrix, dependent_rows, echelon_reduce,
                                pivot_columns, solve_on_rows)
from qweier.qseries import QSeries, coefficient_matrix
from qweier.surface import (
    HYPERELLIPTIC,
    NOT_HYPERELLIPTIC,
    SurfaceSignature,
    gamma0_invariants,
)
from qweier.weierstrass import (
    SPAN_NOT_GUARANTEED,
    CuspBasis,
    ModularFormRecord,
    _monomial_matrix,
    _PackedRows,
    check_inputs,
    required_precision,
    subspace_dimension,
    weierstrass_test,
    wronskian_criterion,
)


def qs(*coeffs, prec=None):
    return QSeries([F(c) for c in coeffs], prec)


def sig_of(level):
    return gamma0_invariants(level).signature


def run_fixture(level, m, status=None):
    basis = load_fixture(level)
    inv = gamma0_invariants(level)
    if status is None:
        status = inv.hyperelliptic_status
    return weierstrass_test(basis, m, inv.signature, hyperelliptic_status=status)


def random_cuspidal_series(rng, prec, valuation=1):
    coeffs = [F(0)] * valuation
    coeffs.append(F(1))
    coeffs.extend(F(rng.randrange(-9, 10)) for _ in range(prec - valuation - 1))
    return QSeries(coeffs, prec)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def cusp_bases(draw, g_min=2, g_max=3, m=4):
    g = draw(st.integers(min_value=g_min, max_value=g_max))
    prec = required_precision(g, m) + 2
    series = []
    for i in range(g):
        tail = draw(
            st.lists(small_rationals, min_size=prec - i - 1, max_size=prec - i - 1)
        )
        series.append(QSeries([F(0)] * (i + 1) + tail, prec))
    return CuspBasis.from_series("test", series)


# -- basis validation ---------------------------------------------------------


def test_basis_requires_a_form():
    with pytest.raises(ValidationError):
        CuspBasis("x", [])


def test_basis_requires_common_precision():
    recs = [
        ModularFormRecord("f0", qs(0, 1, prec=8)),
        ModularFormRecord("f1", qs(0, 0, 1, prec=9)),
    ]
    with pytest.raises(ValidationError):
        CuspBasis("x", recs)


def test_basis_requires_vanishing_constant_term():
    rec = ModularFormRecord("f0", qs(1, 1, prec=8))
    with pytest.raises(ValidationError):
        CuspBasis("x", [rec])


def test_from_series_labels_in_order():
    basis = CuspBasis.from_series("x", [qs(0, 1, prec=6), qs(0, 0, 1, prec=6)])
    assert [f.label for f in basis.forms] == ["f0", "f1"]
    assert basis.genus == 2 and basis.prec == 6


# -- required_precision -------------------------------------------------------


def test_required_precision_values():
    assert required_precision(3, 4) == 11
    assert required_precision(5, 4) == 19
    assert required_precision(1, 4) == 3
    assert required_precision(3, 2) == 6
    assert required_precision(7, 12) == 79


def test_required_precision_rejects_bad_arguments():
    with pytest.raises(DomainError):
        required_precision(0, 4)
    with pytest.raises(DomainError):
        required_precision(2, 3)
    with pytest.raises(DomainError):
        required_precision(2, 0)


# -- monomials ----------------------------------------------------------------


def test_monomials_lex_decreasing_order_genus3():
    basis = load_fixture(34)
    vecs = [v for v, _ in monomials(basis, 4)]
    assert vecs == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def test_monomials_are_the_actual_products():
    basis = load_fixture(37)
    f0, f1 = basis.series_list()
    got = monomials(basis, 4)
    assert [s for _, s in got] == [f0 * f0, f0 * f1, f1 * f1]


def test_monomials_weight_two_is_the_basis_itself():
    basis = load_fixture(34)
    got = monomials(basis, 2)
    assert [v for v, _ in got] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert [s for _, s in got] == basis.series_list()


def test_monomial_count_matches_stars_and_bars():
    basis = load_fixture(55)
    for m in (2, 4, 6):
        assert len(monomials(basis, m)) == comb(basis.genus + m // 2 - 1, m // 2)


def _product_chain(fs, vec, prec):
    p = QSeries.one(prec)
    for f, a in zip(fs, vec):
        for _ in range(a):
            p = p * f
    return p


@st.composite
def packed_cases(draw):
    g = draw(st.integers(min_value=1, max_value=5))
    prec = draw(st.integers(min_value=max(4, required_precision(g, 2)),
                            max_value=30))
    m = draw(st.sampled_from(
        [m for m in range(2, 9, 2) if required_precision(g, m) <= prec]))
    # One magnitude per basis, so every digit width is drawn, up to the
    # wider-than-8-byte rows of 2^80.
    bound = 2 ** draw(st.sampled_from([3, 7, 15, 31, 80]))
    coeff = st.one_of(st.just(0), st.integers(min_value=-bound,
                                              max_value=bound))
    series = [
        QSeries.from_numerators(
            [0] + draw(st.lists(coeff, min_size=prec - 1, max_size=prec - 1)),
            draw(st.integers(min_value=1, max_value=12)))
        for _ in range(g)
    ]
    return CuspBasis.from_series("packed", series), m


@settings(max_examples=60, deadline=None)
@given(packed_cases())
def test_packed_monomials_equal_series_product_chains(case):
    # Negative, zero and up-to-2^80 numerators over non-unit denominators:
    # the packed kernel, on typecode digits and on wider-than-8-byte digits,
    # returns what QSeries.__mul__ returns, byte for byte.
    basis, m = case
    fs = basis.series_list()
    for vec, s in monomials(basis, m):
        want = _product_chain(fs, vec, basis.prec)
        assert (s.nums, s.den, s.prec) == (want.nums, want.den, want.prec)


@pytest.mark.parametrize("n,d,nbytes", [
    (2**7 - 1, 1, 1),   # the largest digit 1-byte digits hold
    (2, 7, 2),          # 2^7: one past it
    (2**5, 3, 4),       # 2^15
    (2**31, 1, 8),      # 2^31
    (2**21, 3, 9),      # 2^63: wider than 8 bytes, read by int.from_bytes
])
def test_packed_digit_width_boundaries(n, d, nbytes):
    # Single-term forms -N*q, N*q^2, -N*q^3: every monomial is one term
    # +-N^d, which must come back exactly, with no carry or borrow into
    # the neighbouring coefficients.
    g, m = 3, 2 * d
    prec = required_precision(g, m)
    assert _PackedRows(prec, n ** d).nbytes == nbytes
    signs = (-1, 1, -1)
    fs = [QSeries.monomial(sgn * n, i + 1, prec)
          for i, sgn in enumerate(signs)]
    got = monomials(CuspBasis.from_series("edge", fs), m)
    assert len(got) == comb(g + d - 1, d)
    for vec, s in got:
        sign = prod(sgn ** a for sgn, a in zip(signs, vec))
        k = sum((i + 1) * a for i, a in enumerate(vec))
        assert s == QSeries.monomial(sign * n ** d, k, prec)


@pytest.mark.parametrize("n,d,prec,nbytes", [
    (4, 2, 8, 1),         # bound 112, largest coefficient 96
    (4, 2, 10, 2),        # largest coefficient 2^7
    (2**6, 2, 8, 2),      # bound 7 * 2^12 < 2^15
    (2**6, 2, 10, 4),     # largest coefficient 2^15
    (2**14, 2, 8, 4),     # bound 7 * 2^28 < 2^31
    (2**14, 2, 10, 8),    # largest coefficient 2^31
    (2**30, 2, 8, 8),     # bound 7 * 2^60 < 2^63
    (2**30, 2, 10, 9),    # largest coefficient 2^63: wider than 8 bytes
    (1, 3, 12, 1),        # bound 121
    (2, 4, 13, 2),        # bound 16 * 12^3
])
def test_packed_width_of_dense_forms(monkeypatch, n, d, prec, nbytes):
    # Forms +-N(q + ... + q^(prec-1)), every coefficient N: the l1 norm is
    # L = N(prec - 1) and the sum of squares S = N^2 (prec - 1), so the
    # digits are sized by N^d (prec - 1)^(d - 1), and a product's largest
    # coefficient, N^d binom(prec - 2, d - 1) at q^(prec - 1), comes within
    # a bit of it at d = 2.  At each digit-width edge one case keeps the
    # narrower digits with its bound just below the edge, and one has a
    # coefficient on the edge, which only the wider digits hold; the
    # product chains must come back exactly.
    widths = []

    class Spy(_PackedRows):
        __slots__ = ()

        def __init__(self, prec, bound):
            super().__init__(prec, bound)
            widths.append(self.nbytes)

    monkeypatch.setattr(qweier.weierstrass, "_PackedRows", Spy)
    fs = [QSeries.from_numerators([0] + [sgn * n] * (prec - 1))
          for sgn in (1, -1)]
    got = monomials(CuspBasis.from_series("dense", fs), 2 * d)
    assert widths == [nbytes]
    bound = n ** d * (prec - 1) ** (d - 1)
    assert _PackedRows(prec, bound).nbytes == nbytes
    top = max(abs(x) for _, s in got for x in s.nums)
    assert top == n ** d * comb(prec - 2, d - 1)
    for vec, s in got:
        want = _product_chain(fs, vec, prec)
        assert (s.nums, s.den, s.prec) == (want.nums, want.den, want.prec)


#: sha256 of repr((level, m, vec, nums, den, prec)) over monomials(b, m)
#: for every bundled fixture and every even m <= 14 its precision allows
#: (55 weights), as the series-product recursion of d4cf8a1 computed it.
MONOMIAL_DIGEST = (
    "8bc9561be6526fbdf9f9f882fc809976b883f796d537fe51bfe5a557cad1b0da")


def test_monomials_on_every_fixture_match_the_pinned_digest():
    h = hashlib.sha256()
    weights = 0
    for level in FIXTURE_LEVELS:
        basis = load_fixture(level)
        for m in range(2, 15, 2):
            if required_precision(basis.genus, m) > basis.prec:
                continue
            weights += 1
            for vec, s in monomials(basis, m):
                h.update(repr((level, m, vec, s.nums, s.den, s.prec)).encode())
    assert weights == 55
    assert h.hexdigest() == MONOMIAL_DIGEST


# -- subspace_dimension -------------------------------------------------------


def test_subspace_dimension_on_fixtures():
    assert subspace_dimension(load_fixture(34), 4) == 6
    # hyperelliptic: the monomials span a proper subspace of dimension m+1
    assert subspace_dimension(load_fixture(35), 4) == 5
    assert subspace_dimension(load_fixture(35), 6) == 7


def _full_width_rank(basis, m):
    """The rank of the monomial matrix on all basis.prec columns."""
    mono = [s for _, s in monomials(basis, m)]
    return len(pivot_columns(coefficient_matrix(mono, basis.prec)))


@pytest.mark.parametrize("level", FIXTURE_LEVELS)
def test_subspace_dimension_equals_the_full_width_rank(level):
    # subspace_dimension reads required_precision columns only; on a basis
    # of the weight-2 cusp forms that must lose no rank.  Checked on the
    # fixture at every even m <= 14 whose required precision it holds.
    # Three unimodular changes of it span the same space, so they must
    # reach the fixture's rank at every such m; the full-width reference
    # is checked on them at m <= 8 only, where it takes under seconds on
    # their wider entries.
    basis = load_fixture(level)
    weights = [m for m in range(2, 15, 2)
               if required_precision(basis.genus, m) <= basis.prec]
    ranks = {m: subspace_dimension(basis, m) for m in weights}
    for m in weights:
        assert ranks[m] == _full_width_rank(basis, m), m
    rng = random.Random(2000 + level)
    for _ in range(3):
        other = random_basis_change(basis, rng)
        for m in weights:
            assert subspace_dimension(other, m) == ranks[m], m
            if m <= 8:
                assert ranks[m] == _full_width_rank(other, m), m


@st.composite
def series_lists(draw):
    """(basis, m): g = 1..5 series over denominators 1..6 with valuations
    1..4, some shared, where some forms are combinations of earlier ones
    plus c * q^k, at precision required_precision(g, m) and m = 4..12
    with at most 126 monomials.  Sparse coefficients and combinations
    give dead quadrics; a late q^k gives quadrics that are dependent
    only modulo a lower power of q."""
    g = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.sampled_from([m for m in range(4, 13, 2)
                              if comb(g - 1 + m // 2, g - 1) <= 126]))
    prec = required_precision(g, m)
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    series = []
    for _ in range(g):
        if series and draw(st.integers(0, 3)) == 0:
            a, b = (draw(st.sampled_from(series)) for _ in range(2))
            c = draw(st.sampled_from([-2, -1, 1, F(1, 2)]))
            k = draw(st.integers(min_value=1, max_value=prec))
            series.append(a + b.scaled(c) + QSeries.monomial(
                draw(st.sampled_from([0, 1, -2])), k, prec))
            continue
        v = draw(st.integers(min_value=1, max_value=min(4, prec - 1)))
        tail = draw(st.lists(coeff, min_size=prec - v - 1,
                             max_size=prec - v - 1))
        den = draw(st.sampled_from([1, 2, 3, 6]))
        series.append(QSeries([F(c, den) for c in [0] * v + [1] + tail], prec))
    return CuspBasis.from_series("test", series), m


@settings(max_examples=80, deadline=None)
@given(series_lists())
def test_subspace_dimension_is_the_rank_of_every_monomial(case):
    # The dead-quadric filter is exact on any series list, not only on a
    # cusp basis: the rank equals the one of the unfiltered matrix on the
    # same columns.
    basis, m = case
    need = required_precision(basis.genus, m)
    full = _monomial_matrix(basis, m, need)[1]
    assert subspace_dimension(basis, m) == len(pivot_columns(full))


def _kept_by_definition(basis, m, prec):
    """(kept, quad) as defined, not as walked: the indices of the
    degree-(m/2) monomials that no dead quadric divides, and the rank of
    the weight-4 matrix on the same prec columns.  The dead quadrics are
    the dependent rows of that matrix, read back as exponent vectors."""
    quadrics, four = _monomial_matrix(basis, 4, prec)[:2]
    dead = [quadrics[k] for k in dependent_rows(four)]
    vecs = _monomial_matrix(basis, m, prec)[0]
    kept = [i for i, vec in enumerate(vecs)
            if not any(all(a <= b for a, b in zip(q, vec)) for q in dead)]
    return kept, four.rows - len(dead)


@settings(max_examples=80, deadline=None)
@given(series_lists())
@example((load_fixture(34), 6))
@example((load_fixture(34), 8))
@example((load_fixture(34), 10))
def test_kept_monomials_span_and_keep_every_independent_row(case):
    # weierstrass_test sweeps only the kept rows at full width, which is
    # exact when they span the row space and include every row that is
    # independent of the rows before it.  They are the rows that
    # skip=True builds, and for m >= 6 exactly the rows no dead quadric
    # divides.  No quadric dies at m <= 4, where none is swept, or on
    # X_0(34), a plane quartic, so every row is kept there.
    basis, m = case
    vecs, matrix, kept, quad = _monomial_matrix(basis, m, basis.prec)
    sub = RatMatrix([matrix.nums[i] for i in kept],
                    [matrix.dens[i] for i in kept], matrix.cols)
    assert len(pivot_columns(sub)) == len(pivot_columns(matrix))
    assert set(range(matrix.rows)) - set(dependent_rows(matrix)) <= set(kept)
    if m <= 4 or basis is load_fixture(34):
        assert kept == list(range(matrix.rows))
    skipped, _, skipped_kept, _ = _monomial_matrix(
        basis, m, basis.prec, skip=True)
    assert [vecs[i] for i in kept] == skipped
    assert skipped_kept == list(range(len(skipped)))
    if m > 4:
        assert (kept, quad) == _kept_by_definition(basis, m, basis.prec)


#: len(kept) at m = 6, 8, ..., 14 as far as the fixture's precision
#: allows.  No quadric dies on X_0(34) or X_0(37), so every row is kept
#: there, binom(g + m/2 - 1, m/2) of them.
KEPT_COUNTS = {
    34: (10, 15, 21, 28, 36),
    35: (7, 9, 11, 13, 15),
    37: (4, 5, 6, 7, 8),
    38: (16, 25, 36, 49, 64),
    44: (16, 25, 36, 49, 64),
    54: (16, 25, 36, 49, 64),
    55: (22, 35, 51, 70, 92),
    60: (35, 59, 91, 132),
}


@pytest.mark.parametrize("level", FIXTURE_LEVELS)
def test_kept_rows_are_the_monomials_no_dead_quadric_divides(level):
    basis = load_fixture(level)
    counts = []
    for m in range(6, 15, 2):
        if required_precision(basis.genus, m) <= basis.prec:
            kept, quad = _monomial_matrix(basis, m, basis.prec)[2:]
            assert (kept, quad) == _kept_by_definition(basis, m, basis.prec)
            counts.append(len(kept))
    assert tuple(counts) == KEPT_COUNTS[level]


@pytest.mark.parametrize("level,m,skip,products", [
    (34, 6, False, 19),
    (60, 8, False, 329),
    (60, 12, False, 1715),
    (60, 8, True, 129),
    (60, 12, True, 352),
])
def test_one_product_per_monomial(monkeypatch, level, m, skip, products):
    # Fixed counts, unlike wall clock.  Without skip every monomial of
    # degree 1..m/2 is one product, binom(g + m/2, m/2) - 1 in all.  With
    # skip on required_precision columns, every built monomial is one
    # product: all of degree 1 and 2, and at each degree n >= 3 those no
    # dead quadric divides.
    calls = []
    real = _PackedRows.mul

    def mul(self, x, y):
        calls.append(None)
        return real(self, x, y)
    monkeypatch.setattr(_PackedRows, "mul", mul)
    basis = load_fixture(level)
    g, d = basis.genus, m // 2
    prec = required_precision(g, m) if skip else basis.prec
    _monomial_matrix(basis, m, prec, skip=skip)
    assert len(calls) == products
    if skip:
        monkeypatch.setattr(_PackedRows, "mul", real)
        live = sum(len(_kept_by_definition(basis, 2 * n, prec)[0])
                   for n in range(3, d + 1))
        assert products == g + comb(g + 1, 2) + live
    else:
        assert products == comb(g + d, d) - 1


def test_weierstrass_test_sweeps_kept_rows_and_schedules_pivot_columns(
        monkeypatch):
    # At (60, 8) the monomial matrix is 210 x 80 of rank 42.  The full-width
    # sweeps read the 28 quadrics, then the 59 monomials no dead quadric
    # divides; the sorted schedule reads all 210 rows cut to the 42 pivot
    # columns, so every row it cancels has 42 entries.
    linalg = qweier.exactlinalg
    sweeps, scheduled, cancelled, inside = [], [], [], []
    real_sweep, real_schedule, real_cancel = (
        linalg._sweep, linalg._sorted_schedule, linalg._cancel)

    def sweep(rows, c, pivrows):
        read = []
        sweeps.append((c, read))

        def counted():
            for row in rows:
                read.append(len(row))
                yield row
        return real_sweep(counted(), c, pivrows)

    def schedule(rows, c):
        scheduled.append((len(rows), c, {len(row) for row in rows}))
        inside.append(True)
        try:
            return real_schedule(rows, c)
        finally:
            inside.pop()

    def cancel(x, y, p):
        if inside:
            cancelled.append(len(x))
        return real_cancel(x, y, p)
    monkeypatch.setattr(linalg, "_sweep", sweep)
    monkeypatch.setattr(linalg, "_sorted_schedule", schedule)
    monkeypatch.setattr(linalg, "_cancel", cancel)
    report = run_fixture(60, 8)
    assert report.rank == 42 and len(report.monomial_exponents) == 210
    assert [(len(read), set(read)) for c, read in sweeps if c == 80] \
        == [(28, {80}), (59, {80})]
    assert scheduled == [(210, 42, {42})]
    assert cancelled and set(cancelled) == {42}


@pytest.mark.parametrize("level,m,budget", [
    (60, 8, (28, 59)),  # 210 unfiltered rows
    (35, 14, (6, 15)),  # 36 unfiltered rows
])
def test_subspace_dimension_row_budget(monkeypatch, level, m, budget):
    # Fixed counts, unlike wall clock: the quadric rows swept for dead
    # quadrics, then the degree-(m/2) rows that none of them divides.
    seen = []

    def spy(name, real):
        def counted(matrix):
            seen.append((name, matrix.rows))
            return real(matrix)
        return counted
    monkeypatch.setattr(qweier.weierstrass, "dependent_rows",
                        spy("quadrics", qweier.weierstrass.dependent_rows))
    monkeypatch.setattr(qweier.weierstrass, "pivot_columns",
                        spy("monomials", qweier.weierstrass.pivot_columns))
    subspace_dimension(load_fixture(level), m)
    assert [name for name, _ in seen] == ["quadrics", "monomials"]
    assert all(0 < rows <= most
               for (_, rows), most in zip(seen, budget)), seen


def _cut(basis, prec):
    return CuspBasis.from_series(
        basis.level_label, [s.truncated(prec) for s in basis.series_list()])


@pytest.mark.parametrize("level,m", [(34, 4), (44, 10), (55, 10), (60, 8)])
def test_subspace_dimension_needs_exactly_required_precision(level, m):
    # At these weights a pivot sits on the last required column, so a
    # basis cut to required_precision coefficients still has the full
    # rank, and one coefficient fewer is refused as check_inputs refuses it.
    basis = load_fixture(level)
    need = required_precision(basis.genus, m)
    assert subspace_dimension(_cut(basis, need), m) \
        == subspace_dimension(basis, m)
    short = _cut(basis, need - 1)
    with pytest.raises(PrecisionError) as got:
        subspace_dimension(short, m)
    with pytest.raises(PrecisionError) as want:
        check_inputs(short, m, sig_of(level))
    assert str(got.value) == str(want.value)


# -- weierstrass_test on the bundled bases ------------------------------------


def test_monomial_enumeration_leaves_no_reference_cycle():
    # The monomial list must be freed by reference counting alone, not
    # kept alive until the cyclic collector next runs.
    basis = load_fixture(34)
    gc.collect()
    gc.disable()
    try:
        subspace_dimension(basis, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_level34_weight4_not_a_weierstrass_point():
    report = run_fixture(34, 4)
    assert report.rank == report.expected_dim == 6
    assert len(report.monomial_exponents) == 6
    assert report.gap_sequence == (2, 3, 4, 5, 6, 7)
    assert not report.is_weierstrass
    assert report.flags == ()


def test_level34_weight2_ordinary_point():
    report = run_fixture(34, 2)
    assert report.gap_sequence == (1, 2, 3)
    assert not report.is_weierstrass


def test_level55_weight4_is_a_weierstrass_point():
    report = run_fixture(55, 4)
    assert report.rank == report.expected_dim == 12
    assert len(report.monomial_exponents) == 15
    assert report.gap_sequence == (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14)
    assert report.is_weierstrass


def test_level55_weight2_ordinary_point():
    report = run_fixture(55, 2)
    assert report.gap_sequence == (1, 2, 3, 4, 5)
    assert not report.is_weierstrass


def test_hyperelliptic_weight4_flagged_not_certified():
    report = run_fixture(35, 4)
    assert report.rank == 5 and report.expected_dim == 6
    assert report.gap_sequence == (2, 3, 4, 5, 6)
    assert report.is_weierstrass  # rank < t already rules out the ordinary case
    assert report.flags == (SPAN_NOT_GUARANTEED,)


def test_hyperelliptic_weight6_refused():
    with pytest.raises(HyperellipticUnsupported):
        run_fixture(35, 6)


def test_genus2_weight4_full_rank_needs_no_flag():
    report = run_fixture(37, 4, status=HYPERELLIPTIC)
    assert report.rank == report.expected_dim == 3
    assert report.gap_sequence == (2, 3, 4)
    assert not report.is_weierstrass
    assert report.flags == ()


def test_rank_deficit_is_an_error_off_hyperelliptic_curves():
    # genus 2 is always hyperelliptic: all three degree-2 monomials are
    # independent.  The structural rank shortfall at weight 6 makes the
    # test read that off the basis, so a NOT claim is refused.
    with pytest.raises(ValidationError, match="HYPERELLIPTIC, against the "
                       "claimed NOT_HYPERELLIPTIC"):
        run_fixture(37, 6, status=NOT_HYPERELLIPTIC)


@pytest.mark.parametrize("level", FIXTURE_LEVELS)
def test_hyperellipticity_is_read_off_the_basis(level):
    # At m = 4 with no claim, only X_0(35), whose degree-2 monomials have
    # rank 2g - 1 < 3g - 3, gets a flagged report, on the bundled basis
    # and on random changes of it.  The opposite of Ogg's status is
    # refused.
    basis = load_fixture(level)
    inv = gamma0_invariants(level)
    opposite = {HYPERELLIPTIC: NOT_HYPERELLIPTIC,
                NOT_HYPERELLIPTIC: HYPERELLIPTIC}[inv.hyperelliptic_status]
    rng = random.Random(2600 + level)
    for other in [basis] + [random_basis_change(basis, rng) for _ in range(2)]:
        report = weierstrass_test(other, 4, inv.signature)
        assert report.flags == ((SPAN_NOT_GUARANTEED,) if level == 35 else ())
        with pytest.raises(ValidationError):
            weierstrass_test(other, 4, inv.signature,
                             hyperelliptic_status=opposite)


def _zero_form_34():
    """X_0(34)'s basis with its last form replaced by zero."""
    fs = load_fixture(34).series_list()
    return CuspBasis.from_series("x", fs[:2] + [QSeries.zero(fs[0].prec)])


def test_a_defective_degree_two_rank_names_both_expected_ranks():
    # A zero form leaves the degree-2 monomials of X_0(34) rank 3, neither
    # 3g - 3 = 6 nor 2g - 1 = 5.
    basis = _zero_form_34()
    for m in (4, 6):
        with pytest.raises(RankDeficit, match="rank 3, .* 3g - 3 = 6, or "
                           "2g - 1 = 5 if it is hyperelliptic"):
            weierstrass_test(basis, m, sig_of(34))


_REFUSED = "hyperelliptic curve at weight %d: the monomials span a proper " \
    "subspace of S^H_%d (rank %d < %d), so the gap criterion does not apply"


def test_the_degree_two_rank_comes_from_the_quadric_sweep(monkeypatch):
    # At m >= 6 with rank < t the verdict needs the degree-2 rank, and it
    # reads the rank of the quadrics that _monomial_matrix swept: nothing
    # reaches subspace_dimension, and each refusal keeps its type and its
    # exact message.
    calls = []
    monkeypatch.setattr(qweier.weierstrass, "subspace_dimension",
                        lambda *args: calls.append(args))
    cases = [(load_fixture(level), level, m, HyperellipticUnsupported,
              _REFUSED % (m, m, rank, t))
             for level, m, rank, t in [(35, 6, 7, 10), (35, 8, 9, 14),
                                       (35, 10, 11, 18), (37, 6, 4, 5),
                                       (37, 8, 5, 7)]]
    cases.append((_zero_form_34(), 34, 6, RankDeficit,
                  "the degree-2 monomials have rank 3, but on a curve of "
                  "genus 3 they have rank 3g - 3 = 6, or 2g - 1 = 5 if it "
                  "is hyperelliptic: the input basis is defective"))
    for basis, level, m, error, message in cases:
        with pytest.raises(error) as got:
            weierstrass_test(basis, m, sig_of(level))
        assert str(got.value) == message, (level, m)
    assert calls == []


@pytest.mark.parametrize("level", FIXTURE_LEVELS + ("zero",))
def test_the_quadric_rank_is_the_rank_at_weight_four(level):
    # _monomial_matrix hands over the rank of the quadrics it sweeps at
    # m >= 6; it is the rank of the weight-4 matrix on the same columns,
    # and subspace_dimension(basis, 4) on a basis of cusp forms.
    basis = _zero_form_34() if level == "zero" else load_fixture(level)
    _, four, _, none = _monomial_matrix(basis, 4, basis.prec)
    assert none is None
    quad = len(pivot_columns(four))
    for m in (6, 8):
        assert _monomial_matrix(basis, m, basis.prec)[3] == quad, m
    if level != "zero":
        assert subspace_dimension(basis, 4) == quad


def test_duplicate_forms_are_a_rank_deficit_at_weight_two():
    f = random_cuspidal_series(random.Random(5), 12)
    basis = CuspBasis.from_series("x", [f, f])
    with pytest.raises(RankDeficit):
        weierstrass_test(basis, 2, SurfaceSignature(2, 1))


def test_rank_above_expected_dimension_is_inconsistent_input():
    # Generic series are not cusp forms of any genus-3 curve: their 15
    # degree-4 monomials exceed dim S^H_8 = 14.
    rng = random.Random(11)
    series = [random_cuspidal_series(rng, 21, valuation=i + 1) for i in range(3)]
    basis = CuspBasis.from_series("x", series)
    with pytest.raises(ValidationError):
        weierstrass_test(basis, 8, SurfaceSignature(3, 1))


def test_signature_genus_must_match_basis():
    with pytest.raises(DomainError):
        weierstrass_test(load_fixture(34), 4, sig_of(55))


def test_genus_below_two_rejected():
    basis = CuspBasis.from_series("x", [qs(0, 1, 1, 1, 1, 1, prec=6)])
    with pytest.raises(DomainError):
        weierstrass_test(basis, 4, SurfaceSignature(1, 1))


def test_report_bookkeeping_fields():
    report = run_fixture(34, 4)
    assert report.m == 4
    # the largest admissible leading exponent, m/2 + m(g-1)
    bound = required_precision(3, 4) - 1
    assert bound == 4 // 2 + 4 * (3 - 1)
    assert len(report.rows) == len(report.combinations) == report.rank
    assert all(report.m // 2 <= i <= bound for i in report.gap_sequence)


def test_rows_realize_the_gap_sequence():
    report = run_fixture(55, 4)
    assert tuple(int(r.valuation()) for r in report.rows) == report.gap_sequence


def test_combinations_reproduce_the_rows():
    basis = load_fixture(34)
    mono = [s for _, s in monomials(basis, 4)]
    report = run_fixture(34, 4)
    for row, combo in zip(report.rows, report.combinations):
        built = QSeries.zero(basis.prec)
        for c, s in zip(combo, mono):
            if c:
                built = built + s.scaled(c)
        assert built == row


#: sha256 of the echelon rows, one line of coefficients per row, for the
#: two largest weight-10 cases; the sorted schedule fixes them.
ROWS_SHA256 = {
    (55, 10): "d75d21686dfa48da1c007dd3ced0658fc07e766a8a1f893cdaee99f5e2391609",
    (60, 10): "71e96681d5faf70adbf685077fb207779e290b97a970aed59a887f3b298e70bd",
}


@pytest.mark.parametrize("level,m", sorted(ROWS_SHA256))
def test_large_reports_keep_their_rows_and_rebuild_them(level, m):
    basis = load_fixture(level)
    report = run_fixture(level, m)
    text = "\n".join(" ".join(map(str, r.coeffs)) for r in report.rows)
    assert hashlib.sha256(text.encode()).hexdigest() == ROWS_SHA256[level, m]
    # Every combination lives on the same `rank` monomials and rebuilds
    # its row exactly.
    support = {j for combo in report.combinations
               for j, c in enumerate(combo) if c}
    assert len(support) <= report.rank
    mono = [s for _, s in monomials(basis, m)]
    for row, combo in zip(report.rows, report.combinations):
        built = QSeries.zero(basis.prec)
        for j in support:
            if combo[j]:
                built = built + mono[j].scaled(combo[j])
        assert built == row
    _, _, verdict = wronskian_criterion(report.rows, m)
    assert verdict == report.is_weierstrass


def _eager_combinations(basis, m):
    """The combinations as one solve on the whole monomial matrix: the
    echelon rows written on the basis echelon_reduce picks."""
    matrix = _monomial_matrix(basis, m, basis.prec)[1]
    result = echelon_reduce(matrix)
    k = result.rank
    return [tuple(x) for x in solve_on_rows(
        matrix, result.pivots, result.basis,
        RatMatrix(result.echelon.nums[:k], [1] * k, matrix.cols))]


def _lazy_combination_cases():
    for level, m in [(34, m) for m in range(2, 11, 2)] + [
            (55, m) for m in range(2, 11, 2)]:
        yield level, m, load_fixture(level)
    for level in FIXTURE_LEVELS:
        other = random_basis_change(load_fixture(level),
                                    random.Random(3000 + level))
        for m in (2, 4, 6):
            yield level, m, other


def test_lazy_combinations_equal_one_solve_on_the_whole_matrix():
    # The criterion-6 cases and a basis change of every fixture: the
    # combinations read off the report equal the eager solve value for
    # value, live on at most `rank` monomials and cannot be assigned.
    checked = 0
    for level, m, basis in _lazy_combination_cases():
        inv = gamma0_invariants(level)
        try:
            report = weierstrass_test(
                basis, m, inv.signature,
                hyperelliptic_status=inv.hyperelliptic_status)
        except HyperellipticUnsupported:
            assert inv.hyperelliptic_status == HYPERELLIPTIC and m >= 6
            continue
        assert report.combinations == _eager_combinations(basis, m)
        support = {j for combo in report.combinations
                   for j, c in enumerate(combo) if c}
        assert len(support) <= report.rank
        with pytest.raises(AttributeError):
            report.combinations = []
        checked += 1
    # X_0(35) and X_0(37) are hyperelliptic, so m = 6 is refused there.
    assert checked == 10 + 8 * 3 - 2


# -- basis invariance ---------------------------------------------------------


@pytest.mark.parametrize("level,m", [(34, 4), (35, 4), (37, 4), (55, 2)])
def test_verdict_is_basis_invariant(level, m):
    rng = random.Random(1000 + level + m)
    baseline = run_fixture(level, m)
    basis = load_fixture(level)
    inv = gamma0_invariants(level)
    for _ in range(4):
        other = random_basis_change(basis, rng)
        report = weierstrass_test(
            other, m, inv.signature,
            hyperelliptic_status=inv.hyperelliptic_status)
        assert report.rank == baseline.rank
        assert report.gap_sequence == baseline.gap_sequence
        assert report.is_weierstrass == baseline.is_weierstrass
        assert report.flags == baseline.flags


@pytest.mark.parametrize("level,m", [(34, 4), (34, 6), (34, 8), (55, 4),
                                     (55, 6), (38, 6)])
def test_forms_over_non_unit_denominators_give_the_same_report(level, m):
    # Every fixture has denominator 1.  Scaled by distinct non-unit
    # rationals, the forms put each monomial over a product of their
    # denominators.  The rank, gaps, verdict and echelon rows do not
    # depend on the scales, and each combination must rebuild its row from
    # product chains of the scaled forms.
    basis = load_fixture(level)
    scales = [F(2, 3), F(-5, 7), F(3, 4), F(7, 5), F(-4, 9)][:basis.genus]
    assert len(scales) == basis.genus
    fs = [f.scaled(c) for f, c in zip(basis.series_list(), scales)]
    scaled = CuspBasis.from_series(basis.level_label, fs)
    inv = gamma0_invariants(level)
    report = weierstrass_test(scaled, m, inv.signature,
                              hyperelliptic_status=inv.hyperelliptic_status)
    baseline = run_fixture(level, m)
    assert report.rank == baseline.rank
    assert report.gap_sequence == baseline.gap_sequence
    assert report.is_weierstrass == baseline.is_weierstrass
    assert report.rows == baseline.rows
    chains = [_product_chain(fs, vec, basis.prec)
              for vec in report.monomial_exponents]
    for row, combo in zip(report.rows, report.combinations):
        built = QSeries.zero(basis.prec)
        for c, chain in zip(combo, chains):
            if c:
                built = built + chain.scaled(c)
        assert built == row


# -- wronskian route ----------------------------------------------------------


def test_wronskian_criterion_level34():
    report = run_fixture(34, 4)
    order, bound, verdict = wronskian_criterion(report.rows, 4)
    assert (order, bound, verdict) == (27, 28, False)


def test_wronskian_criterion_level55():
    report = run_fixture(55, 4)
    order, bound, verdict = wronskian_criterion(report.rows, 4)
    assert (order, bound, verdict) == (93, 91, True)


def test_wronskian_order_is_the_gap_total():
    for level, m in [(34, 2), (34, 4), (37, 4), (55, 2)]:
        report = run_fixture(level, m)
        order, _, _ = wronskian_criterion(report.rows, m)
        assert order == sum(report.gap_sequence)


#: Ogg, "On the Weierstrass points of X_0(N)", Illinois J. Math. 22 (1978):
#: if N = pM with p prime, p not dividing M, and X_0(M) of genus 0, then
#: infinity is not a Weierstrass point of X_0(N).  Each covered fixture
#: level maps to its (p, M).  54 = 2 * 27 is not covered, X_0(27) having
#: genus 1, and there infinity is a Weierstrass point.
OGG_NOT_WEIERSTRASS = {34: (17, 2), 35: (7, 5), 37: (37, 1), 38: (19, 2),
                       44: (11, 4), 55: (11, 5), 60: (5, 12)}


@pytest.mark.parametrize("level", sorted(OGG_NOT_WEIERSTRASS) + [54])
def test_weight_two_verdicts_match_ogg(level):
    if level in OGG_NOT_WEIERSTRASS:
        p, cofactor = OGG_NOT_WEIERSTRASS[level]
        assert p * cofactor == level and cofactor % p != 0
        assert all(p % d for d in range(2, p))
        assert gamma0_invariants(cofactor).signature.genus == 0
    expected = level not in OGG_NOT_WEIERSTRASS
    report = run_fixture(level, 2)
    assert report.is_weierstrass is expected
    # The Wronskian route on the stored basis, which spans S_2 = S^H_2.
    order, bound, verdict = wronskian_criterion(
        load_fixture(level).series_list(), 2)
    assert verdict is expected
    assert order == sum(report.gap_sequence)
    if level == 54:
        assert (order, bound) == (12, 11)


def test_wronskian_criterion_rejects_empty_and_odd():
    with pytest.raises(DomainError):
        wronskian_criterion([], 4)
    with pytest.raises(DomainError):
        wronskian_criterion([qs(0, 1, prec=4)], 3)


# -- synthetic report consistency ----------------------------------------------


@given(cusp_bases())
@settings(max_examples=40, deadline=None)
@example(CuspBasis.from_series("zero tail", [
    qs(0, 1, *[0] * 11), qs(0, 0, 1, *[0] * 10), QSeries.zero(13)]))
@example(load_fixture(35))
def test_report_is_internally_consistent(basis):
    # At weight 4 the rank is that of the degree-2 monomials, whose count
    # equals the expected dimension for genus 2 and 3, so it never exceeds
    # it.  A rank of 3g - 3 or 2g - 1 yields a report, a shortfall being
    # flagged; any other rank is a defective basis.
    g = basis.genus
    sig = SurfaceSignature(g, 1)
    if _full_width_rank(basis, 4) not in (3 * g - 3, 2 * g - 1):
        with pytest.raises(RankDeficit):
            weierstrass_test(basis, 4, sig)
        return
    report = weierstrass_test(basis, 4, sig)
    assert report.rank == len(report.rows) == len(report.gap_sequence)
    assert all(a < b for a, b in zip(report.gap_sequence,
                                     report.gap_sequence[1:]))
    assert tuple(int(r.valuation()) for r in report.rows) == report.gap_sequence
    mono = [s for _, s in monomials(basis, 4)]
    for row, combo in zip(report.rows, report.combinations):
        acc = QSeries.zero(basis.prec)
        for c, s in zip(combo, mono):
            if c:
                acc = acc + s.scaled(c)
        assert acc == row
