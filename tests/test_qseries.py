import sys
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from qweier.errors import (DivisionByZeroSeries, DomainError, PrecisionError,
                           ValuationError)
from qweier.qseries import QSeries


def qs(*coeffs, prec=None):
    return QSeries([F(c) for c in coeffs], prec)


small_rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


@st.composite
def small_series(draw, min_prec=1, max_prec=8):
    prec = draw(st.integers(min_value=min_prec, max_value=max_prec))
    coeffs = draw(
        st.lists(small_rationals, min_size=prec, max_size=prec)
    )
    return QSeries(coeffs, prec)


# -- construction and invariants ------------------------------------------


def test_coeffs_padded_to_prec():
    s = qs(1, 2, prec=5)
    assert s.prec == 5
    assert s.coeffs == (F(1), F(2), F(0), F(0), F(0))


def test_coeffs_truncated_to_prec():
    s = qs(1, 2, 3, 4, prec=2)
    assert s.coeffs == (F(1), F(2))


def test_immutability():
    s = qs(1, 2)
    with pytest.raises(AttributeError):
        s.prec = 10


# -- add -------------------------------------------------------------------


def test_add_truncates_to_common_precision():
    # (1 + 2q mod q^3) + (3q mod q^2) = 1 + 5q mod q^2
    a = qs(1, 2, 0, prec=3)
    b = qs(0, 3, prec=2)
    assert a + b == qs(1, 5, prec=2)


def test_add_zero_is_identity():
    a = qs(3, -1, F(2, 7), prec=3)
    assert a + QSeries.zero(3) == a


def test_add_negative_cancels():
    a = qs(1, 240, 2160, prec=3)
    assert (a + (-a)).valuation() is None


# -- mul -------------------------------------------------------------------


def test_mul_basic():
    # (1+q)(1-q) = 1 - q^2 mod q^3
    assert qs(1, 1, prec=3) * qs(1, -1, prec=3) == qs(1, 0, -1, prec=3)


def test_mul_one_is_identity():
    a = qs(2, -3, 5, prec=3)
    assert a * QSeries.one(3) == a


def test_mul_by_scalar():
    assert qs(1, 2, prec=2) * 3 == qs(3, 6, prec=2)
    assert F(1, 2) * qs(4, 2, prec=2) == qs(2, 1, prec=2)


def _reference_mul(a, b):
    """The Fraction schoolbook Cauchy product, kept as the reference the
    integer-numerator kernel in QSeries.__mul__ must reproduce."""
    prec = min(a.prec, b.prec)
    a, b = a.coeffs, b.coeffs
    out = [F(0)] * prec
    for i in range(min(len(a), prec)):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(min(len(b), prec - i)):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    return QSeries(out, prec)


mul_factors = st.one_of(
    small_series(min_prec=0),
    st.integers(min_value=0, max_value=8).map(QSeries.zero),
)


@given(mul_factors, mul_factors)
@example(qs(F(1, 2), F(-2, 3), F(5, 6)), qs(F(3, 4), F(1, 5), F(-7, 4)))
@example(qs(F(1, 3), 2, F(-5, 2), 1, prec=4), qs(F(7, 6), F(1, 4), prec=2))
@example(qs(1, F(2, 5), 3), QSeries.zero(0))
@example(QSeries.zero(5), qs(F(7, 3), F(-1, 9), 0, 4))
def test_mul_matches_fraction_reference(a, b):
    prod = a * b
    assert prod == _reference_mul(a, b)
    assert all(type(c) is F for c in prod.coeffs)


# -- q_derive ----------------------------------------------------------------


def test_q_derive():
    assert qs(1, 1, 1).q_derive() == qs(0, 1, 2)


def test_q_derive_constant_is_zero():
    assert qs(1, prec=4).q_derive().valuation() is None


# -- valuation ---------------------------------------------------------------


def test_valuation_of_zero_is_infinite():
    # None: every stored coefficient vanishes, so valuation >= prec.
    assert QSeries.zero(10).valuation() is None
    assert qs(0, 0, prec=2).valuation() is None


def test_valuation_examples():
    assert qs(0, 0, 1, 0, -4).valuation() == 2
    assert qs(7).valuation() == 0


# -- pow ---------------------------------------------------------------------


def test_pow_zero_is_one():
    assert qs(0, 1, prec=4) ** 0 == QSeries.one(4)


def test_pow_square():
    assert qs(1, 1, prec=3) ** 2 == qs(1, 2, 1, prec=3)


# -- exact_div ----------------------------------------------------------------


def test_exact_div_monomial():
    # (q^2 + q^3)/q = q + q^2, precision contracts by 1
    a = qs(0, 0, 1, 1, prec=4)
    b = qs(0, 1, prec=4)
    assert a.exact_div(b) == qs(0, 1, 1, prec=3)


def test_exact_div_cancellation():
    a = qs(0, 1, -2, 3, 1, prec=5)
    cube = a ** 3
    assert cube.exact_div(a) == (a ** 2).truncated(4)


def test_exact_div_by_zero_series():
    with pytest.raises(DivisionByZeroSeries):
        qs(1, 2).exact_div(QSeries.zero(2))


def test_exact_div_valuation_mismatch():
    with pytest.raises(ValuationError):
        qs(1, 1).exact_div(qs(0, 1))


def test_exact_div_zero_dividend_allowed():
    # valuation(0 mod q^4) counts as >= 4 >= valuation(q)
    z = QSeries.zero(4).exact_div(qs(0, 1, prec=4))
    assert z.valuation() is None and z.prec == 3


def test_exact_div_without_a_known_quotient_coefficient():
    # 0 mod q^2 divided by q^2 is unknown even at q^0.
    with pytest.raises(PrecisionError):
        QSeries.zero(2).exact_div(QSeries([0, 0, 1], 5))
    with pytest.raises(PrecisionError):
        QSeries.zero(1).exact_div(QSeries([0, 0, 1], 5))


# -- shifted / truncated ------------------------------------------------------


def test_shifted_gains_precision():
    s = qs(1, 2, prec=2).shifted(3)
    assert s == qs(0, 0, 0, 1, 2, prec=5)


def test_monomial_places_one_coefficient_below_prec():
    assert QSeries.monomial(5, 2, 4) == qs(0, 0, 5, 0, prec=4)
    # q^n with n >= prec is zero modulo q^prec.
    assert QSeries.monomial(5, 4, 4) == QSeries.zero(4)


def test_truncated_cannot_extend():
    with pytest.raises(PrecisionError):
        qs(1, 2, prec=2).truncated(5)


@pytest.mark.parametrize("op", [
    lambda: QSeries([F(1)], -1),
    lambda: qs(1, 2) ** -1,
    lambda: qs(1, 2).shifted(-1),
    lambda: QSeries.monomial(5, -1, 4),
    lambda: qs(1, 2, 3).coeff(-1),
    lambda: QSeries([0, 0.1]),
    lambda: qs(1, 2).scaled(0.1),
    lambda: QSeries.monomial(0.5, 5, 3),
    lambda: QSeries(["1/3"]),
    lambda: QSeries([Decimal("0.5")]),
    lambda: QSeries([float("nan")]),
    lambda: QSeries([float("inf")]),
    lambda: QSeries([1j]),
], ids=["prec", "pow", "shifted", "monomial", "coeff", "float", "scaled",
        "monomial_float", "str", "decimal", "nan", "inf", "complex"])
def test_argument_errors_are_domain_errors(op):
    with pytest.raises(DomainError):
        op()


@pytest.mark.parametrize("value, name", [
    (0.1, "float"), ("1/3", "str"), (Decimal("0.5"), "Decimal")])
def test_inexact_values_are_refused_by_type(value, name):
    with pytest.raises(DomainError, match="got %s$" % name):
        QSeries([0, value])


@pytest.mark.parametrize("op", [
    lambda: qs(1, 2, 3).truncated(-1),
    lambda: QSeries.zero(-2),
], ids=["truncated", "zero"])
def test_negative_precision_is_a_domain_error(op):
    with pytest.raises(DomainError):
        op()


def test_coeff_out_of_window():
    with pytest.raises(PrecisionError):
        qs(1, 2, prec=2).coeff(2)


LONG = 7 * 10 ** 4999 + 1
DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < 5000,
                    reason="str() writes 5000-digit integers here")
@pytest.mark.parametrize("coeffs, term, before", [
    ([0, 1, -LONG, 3], 2, "q ... + O(q^4)"),
    ([0, 0, 5, F(1, LONG)], 3, "5*q^2 ... + O(q^4)"),
], ids=["numerator", "denominator"])
def test_qstring_past_the_digit_limit_is_a_domain_error(coeffs, term, before):
    s = QSeries(coeffs, 4)
    with pytest.raises(DomainError) as info:
        s.qstring()
    assert str(info.value) == (
        "coefficient of q^%d: an integer of 5000 digits is longer than the "
        "%d digits str() writes" % (term, DIGIT_LIMIT))
    # Only the terms shown are written.
    assert s.qstring(max_terms=1) == before
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


# -- ring laws (property tests) ----------------------------------------------


@given(small_series(), small_series(), small_series())
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(small_series(), small_series())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(small_series(), small_series(), small_series())
def test_mul_distributes(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs == rhs


@given(small_series(), small_series(), small_series())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_series(), small_series())
def test_q_derive_is_a_derivation(a, b):
    lhs = (a * b).q_derive()
    rhs = a.q_derive() * b + a * b.q_derive()
    assert lhs == rhs


@given(small_series(), small_series())
def test_valuation_adds_under_mul(a, b):
    va, vb = a.valuation(), b.valuation()
    prod = a * b
    if va is None or vb is None or va + vb >= prod.prec:
        return
    # Q has no zero divisors, so the leading terms cannot cancel.
    assert prod.valuation() == va + vb


@given(small_series(min_prec=2), small_series(min_prec=2))
def test_exact_div_round_trip(a, b):
    vb = b.valuation()
    va = a.valuation()
    if vb is None or (va is not None and va < vb):
        return
    if min(a.prec, b.prec) <= vb:
        with pytest.raises(PrecisionError):
            a.exact_div(b)
        return
    c = a.exact_div(b)
    assert (b * c).truncated(c.prec) == a.truncated(c.prec)


# -- integer representation against a Fraction reference -------------------
#
# QSeries keeps integer numerators over one denominator.  The reference
# below works on plain tuples of Fractions, the representation QSeries had
# before; every operation must agree with it coefficient by coefficient.


def _reference_exact_div(a, b):
    """The Fraction long division QSeries.exact_div used before it ran on
    integers: a and b are coefficient tuples; returns the quotient's."""
    vb = next(i for i, c in enumerate(b) if c != 0)
    prec = min(len(a), len(b)) - vb
    num, den = a[vb:vb + prec], b[vb:vb + prec]
    out = [F(0)] * prec
    for n in range(prec):
        s = num[n]
        for k in range(n):
            if out[k] != 0 and den[n - k] != 0:
                s -= out[k] * den[n - k]
        out[n] = s / den[0]
    return tuple(out)


@st.composite
def series_with_reference(draw, min_prec=0, max_prec=8, valuation=0):
    """(QSeries, its coefficients as a tuple of Fractions), built from a
    list of ints and Fractions that may be shorter than prec."""
    prec = draw(st.integers(min_value=max(min_prec, valuation),
                            max_value=max_prec))
    tail = draw(st.lists(small_rationals, max_size=prec - valuation))
    values = [0] * valuation + [int(c) if c.denominator == 1 else c
                                for c in tail]
    ref = tuple(F(c) for c in values) + (F(0),) * (prec - len(values))
    return QSeries(values, prec), ref


@st.composite
def divisors(draw):
    """A divisor with a nonzero, usually non-unit, leading coefficient at
    valuation 0..3, and its reference coefficients."""
    v = draw(st.integers(min_value=0, max_value=3))
    lead = draw(small_rationals.filter(lambda c: c != 0))
    s, ref = draw(series_with_reference(min_prec=v + 1, valuation=v + 1))
    ref = ref[:v] + (lead,) + ref[v + 1:]
    return QSeries(ref, len(ref)), ref


def _assert_canonical(s, ref):
    assert s.prec == len(ref) == len(s.nums)
    assert s.coeffs == ref
    assert all(type(c) is F for c in s.coeffs)
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    if not any(ref):
        assert s.den == 1
    assert s == QSeries(ref, len(ref)) and hash(s) == hash(QSeries(ref))


@given(series_with_reference(), series_with_reference(),
       small_rationals, st.integers(min_value=0, max_value=3))
def test_operations_match_fraction_reference(x, y, c, j):
    (a, ra), (b, rb) = x, y
    common = min(len(ra), len(rb))
    _assert_canonical(a, ra)
    _assert_canonical(a + b, tuple(u + w for u, w in zip(ra, rb)))
    _assert_canonical(a - b, tuple(u - w for u, w in zip(ra, rb)))
    _assert_canonical(-a, tuple(-u for u in ra))
    _assert_canonical(a.scaled(c), tuple(c * u for u in ra))
    _assert_canonical(a.q_derive(), tuple(n * u for n, u in enumerate(ra)))
    _assert_canonical(a.shifted(j), (F(0),) * j + ra)
    _assert_canonical(a.truncated(common), ra[:common])
    assert (a.truncated(common) == b.truncated(common)) == (
        ra[:common] == rb[:common])
    assert QSeries(ra + (F(1, 7),)).truncated(len(ra)) == a
    assert (a.valuation() is None) == (not any(ra))
    assert a.valuation() == next(
        (n for n, u in enumerate(ra) if u != 0), None)
    assert all(a.coeff(n) == ra[n] and type(a.coeff(n)) is F
               for n in range(len(ra)))


@given(divisors(), series_with_reference(max_prec=10),
       st.integers(min_value=0, max_value=3))
@example((qs(0, 3, 1, prec=4), (F(0), F(3), F(1), F(0))),
         (qs(0, 3, 2, F(1, 2), prec=4), (F(0), F(3), F(2), F(1, 2))), 0)
@example((qs(F(-2, 3), 5, prec=6), (F(-2, 3), F(5)) + (F(0),) * 4),
         (QSeries.one(6), (F(1),) + (F(0),) * 5), 0)
def test_exact_div_matches_fraction_reference(d, x, extra):
    (b, rb), (a, ra) = d, x
    vb = b.valuation()
    # A dividend of valuation >= vb: shift it up when it is too low.
    va = a.valuation()
    if va is not None and va < vb:
        a, ra = a.shifted(vb + extra), (F(0),) * (vb + extra) + ra
    if min(len(ra), len(rb)) <= vb:
        return
    _assert_canonical(a.exact_div(b), _reference_exact_div(ra, rb))


@given(series_with_reference(min_prec=1))
def test_equal_series_built_by_different_routes_hash_alike(x):
    a, ra = x
    routes = [
        QSeries([F(str(c)) for c in ra], a.prec),
        a.scaled(F(4, 6)).scaled(F(3, 2)),
        a * QSeries.one(a.prec),
        (a + a).scaled(F(1, 2)),
        a.shifted(2).exact_div(qs(0, 0, F(2, 4), prec=a.prec + 2)).scaled(
            F(1, 2)),
    ]
    for s in routes:
        assert s == a and hash(s) == hash(a)


def test_reduced_fraction_and_product_agree():
    half = QSeries([F(2, 4)])
    product = qs(F(1, 4)) * qs(2)
    assert half == product and hash(half) == hash(product)
    assert (half.nums, half.den) == (product.nums, product.den) == ((1,), 2)
