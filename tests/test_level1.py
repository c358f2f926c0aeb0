from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from qweier.errors import DependentInput, DomainError, NotInSpace, PrecisionError
from qweier.level1 import (
    MonomialExponent,
    delta,
    delta_product_oracle,
    dim_m,
    eisenstein_e4,
    eisenstein_e6,
    express_in_monomials,
    m_basis,
    monomial_ladder,
    monomial_series,
    sigma,
)
from qweier.qseries import QSeries


# -- sigma ---------------------------------------------------------------


def test_sigma_small_values():
    assert sigma(1, 3) == 1
    assert sigma(2, 3) == 9          # 1 + 8
    assert sigma(6, 5) == 8052       # 1 + 32 + 243 + 7776


def test_sigma_rejects_nonpositive():
    with pytest.raises(DomainError):
        sigma(0, 3)


def test_sigma_rejects_negative_powers():
    # d ** k is a float for k < 0: sigma(6, -1) would be 2.0.
    with pytest.raises(DomainError, match="k >= 0, got k=-1"):
        sigma(6, -1)
    assert sigma(6, 0) == 4


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=5))
def test_sigma_matches_brute_force(n, k):
    assert sigma(n, k) == sum(d ** k for d in range(1, n + 1) if n % d == 0)


# -- Eisenstein series and delta ------------------------------------------


def test_e4_leading_coefficients():
    s = eisenstein_e4(3)
    assert (s.coeffs[0], s.coeffs[1], s.coeffs[2]) == (1, 240, 2160)


def test_e6_leading_coefficients():
    s = eisenstein_e6(2)
    assert (s.coeffs[0], s.coeffs[1]) == (1, -504)


def test_delta_first_coefficients():
    s = delta(4)
    assert s.coeffs[0] == 0
    assert (s.coeffs[1], s.coeffs[2], s.coeffs[3]) == (1, -24, 252)


def test_1728_delta_identity():
    prec = 60
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    assert delta(prec).scaled(1728) == e4 ** 3 - e6 ** 2


def test_delta_matches_product_oracle():
    assert delta(50) == delta_product_oracle(50)


def test_product_oracle_first_terms():
    o = delta_product_oracle(3)
    assert o.coeffs[1] == 1 and o.coeffs[2] == -24


def test_e4_cubed_minus_e6_squared_valuation():
    e4 = eisenstein_e4(6)
    e6 = eisenstein_e6(6)
    diff = e4 ** 3 - e6 ** 2
    assert diff.valuation() == 1
    assert diff.coeffs[1] == 1728


# -- dimension formula and monomial basis ----------------------------------


def test_dim_values():
    assert dim_m(0) == 1
    assert dim_m(12) == 2
    assert dim_m(14) == 1
    assert dim_m(26) == 2


def test_dim_rejects_odd():
    with pytest.raises(DomainError):
        dim_m(7)


def test_m_basis_small_weights():
    assert m_basis(4) == [MonomialExponent(1, 0)]
    assert m_basis(12) == [MonomialExponent(3, 0), MonomialExponent(0, 2)]
    assert m_basis(24) == [
        MonomialExponent(6, 0),
        MonomialExponent(3, 2),
        MonomialExponent(0, 4),
    ]


def test_m_basis_rejects_weight_two():
    with pytest.raises(DomainError):
        m_basis(2)


def test_m_basis_alpha_decreasing_and_weight_correct():
    for m in range(4, 62, 2):
        basis = m_basis(m)
        assert len(basis) == dim_m(m)
        assert all(4 * a + 6 * b == m for a, b in basis)
        alphas = [a for a, _ in basis]
        assert alphas == sorted(alphas, reverse=True)


# -- express_in_monomials -----------------------------------------------------


def test_express_delta():
    got = express_in_monomials(delta(10), 12)
    assert got == [
        (MonomialExponent(3, 0), F(1, 1728)),
        (MonomialExponent(0, 2), F(-1, 1728)),
    ]


def test_express_e4_cubed():
    f = eisenstein_e4(9) ** 3
    assert express_in_monomials(f, 12) == [(MonomialExponent(3, 0), F(1))]


def test_express_rejects_non_member():
    bad = delta(10) + QSeries.monomial(1, 7, 10)
    with pytest.raises(NotInSpace):
        express_in_monomials(bad, 12)


def test_express_needs_guard_coefficient():
    with pytest.raises(PrecisionError):
        express_in_monomials(delta(2), 12)


@pytest.mark.parametrize("inside", [True, False], ids=["in_span", "outside"])
def test_express_reports_dependent_monomials(monkeypatch, inside):
    # Both weight-12 monomials replaced by E4^3: a dependent "basis".
    e4_cubed = eisenstein_e4(10) ** 3
    monkeypatch.setattr(
        "qweier.level1.monomial_ladder", lambda m, prec: [e4_cubed, e4_cubed])
    f = e4_cubed if inside else delta(10)
    with pytest.raises(DependentInput):
        express_in_monomials(f, 12)


def test_monomial_ladder_matches_single_monomials():
    # The shared ladders against one binary powering per monomial, on
    # every weight up to 120, including windows shorter than a ladder.
    for prec in (1, 2, 13, 40):
        for m in [0] + list(range(4, 121, 2)):
            got = monomial_ladder(m, prec)
            want = [monomial_series(e, prec) for e in m_basis(m)]
            assert [(s.nums, s.den, s.prec) for s in got] == [
                (s.nums, s.den, s.prec) for s in want], (m, prec)


@st.composite
def monomial_combinations(draw):
    """(weight, prec, coefficients c_j on m_basis(weight), f = sum of
    c_j * E4^a E6^b), with some c_j zero and f over a non-unit
    denominator."""
    weight = draw(st.integers(min_value=6, max_value=18)) * 2
    basis = m_basis(weight)
    prec = draw(st.integers(min_value=len(basis) + 1, max_value=24))
    coeffs = draw(st.lists(
        st.one_of(st.just(F(0)), st.fractions(-50, 50, max_denominator=30)),
        min_size=len(basis), max_size=len(basis)).filter(any))
    scale = draw(st.integers(min_value=2, max_value=40))
    coeffs = [c / scale for c in coeffs]
    f = QSeries.zero(prec)
    for e, c in zip(basis, coeffs):
        f = f + monomial_series(e, prec).scaled(c)
    assume(f.den != 1)
    return weight, prec, coeffs, f


@given(monomial_combinations(), st.integers(min_value=0, max_value=23))
def test_express_recovers_the_nonzero_coefficients(combination, n):
    weight, prec, coeffs, f = combination
    want = [(e, c) for e, c in zip(m_basis(weight), coeffs) if c != 0]
    assert express_in_monomials(f, weight) == want
    outside = f + QSeries.monomial(1, n % prec, prec)
    with pytest.raises(NotInSpace):
        express_in_monomials(outside, weight)


def test_express_product_weights_add():
    prec = 12
    f = delta(prec) * eisenstein_e4(prec)
    got = express_in_monomials(f, 16)
    assert sum(c * monomial_series(e, prec).coeffs[1] for e, c in got) == f.coeffs[1]
    total = QSeries.zero(prec)
    for e, c in got:
        total = total + monomial_series(e, prec).scaled(c)
    assert total == f


# -- weights express_in_monomials refuses -------------------------------------


def test_weight_zero_must_be_constant():
    with pytest.raises(NotInSpace):
        express_in_monomials(QSeries([1, 1], 2), 0)


def test_odd_weight_rejected():
    with pytest.raises(DomainError):
        express_in_monomials(QSeries.one(2), 3)
