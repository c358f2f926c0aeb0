"""Modular forms for the full modular group: Eisenstein series E4 and E6,
the discriminant form, monomial bases E4^a * E6^b of each weight, the
dimension formula, and expression of a form in the monomial basis.

Forms are plain QSeries; a weight, where one is needed, is passed beside
the series.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import (DependentInput, DomainError, NotInSpace, PrecisionError,
                     ShapeError)
from .exactlinalg import pivot_columns, solve_on_rows
from .qseries import QSeries, coefficient_matrix
from .surface import _divisors

#: Exponent pair (alpha, beta) of a monomial E4^alpha * E6^beta.
MonomialExponent = namedtuple("MonomialExponent", ["alpha", "beta"])


def sigma(n, k):
    """Sum of the k-th powers of the positive divisors of n, an integer:
    n >= 1 and k >= 0."""
    if n <= 0:
        raise DomainError("sigma(n, k) needs n >= 1, got n=%d" % n)
    if k < 0:
        raise DomainError("sigma(n, k) needs k >= 0, got k=%d" % k)
    return sum(d ** k for d in _divisors(n))


@lru_cache(maxsize=None)
def eisenstein_e4(prec):
    """E4 = 1 + 240 * sum sigma_3(n) q^n, weight 4."""
    coeffs = [1] + [240 * sigma(n, 3) for n in range(1, prec)]
    return QSeries(coeffs, prec)


@lru_cache(maxsize=None)
def eisenstein_e6(prec):
    """E6 = 1 - 504 * sum sigma_5(n) q^n, weight 6."""
    coeffs = [1] + [-504 * sigma(n, 5) for n in range(1, prec)]
    return QSeries(coeffs, prec)


@lru_cache(maxsize=None)
def delta(prec):
    """The weight-12 cusp form (E4^3 - E6^2)/1728 = q - 24q^2 + 252q^3 - ..."""
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    return (e4 ** 3 - e6 ** 2).scaled(Fraction(1, 1728))


def delta_product_oracle(prec):
    """Independent expansion q * prod_{n>=1} (1 - q^n)^24, used in tests only.

    The product prod (1 - q^n) is expanded by Euler's pentagonal number
    theorem, so this route shares no code with the Eisenstein construction.
    """
    if prec < 1:
        raise DomainError("prec must be >= 1")
    euler = [Fraction(0)] * max(prec - 1, 1)
    euler[0] = Fraction(1)
    j = 1
    while True:
        p1 = j * (3 * j - 1) // 2
        p2 = j * (3 * j + 1) // 2
        if p1 >= len(euler) and p2 >= len(euler):
            break
        s = Fraction(-1 if j % 2 else 1)
        if p1 < len(euler):
            euler[p1] += s
        if p2 < len(euler):
            euler[p2] += s
        j += 1
    return (QSeries(euler, prec - 1) ** 24).shifted(1) if prec > 1 else QSeries.zero(1)


def dim_m(m):
    """Dimension of the space of weight-m forms for the full modular group:
    floor(m/12) + 1, except one less when m = 2 mod 12."""
    if m % 2 != 0 or m < 0:
        raise DomainError("weight must be an even nonnegative integer")
    if m % 12 == 2:
        return m // 12
    return m // 12 + 1


def m_basis(m):
    """All exponent pairs (alpha, beta) with 4*alpha + 6*beta = m, sorted by
    decreasing alpha.  The corresponding monomials E4^a E6^b form a basis."""
    if m % 2 != 0 or m < 0 or m == 2:
        raise DomainError("no monomial basis for weight %s" % (m,))
    if m == 0:
        return [MonomialExponent(0, 0)]
    out = []
    for alpha in range(m // 4, -1, -1):
        rest = m - 4 * alpha
        if rest % 6 == 0:
            out.append(MonomialExponent(alpha, rest // 6))
    return out


def monomial_series(exponent, prec):
    """The expansion of E4^alpha * E6^beta to the given precision."""
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    return e4 ** exponent.alpha * e6 ** exponent.beta


def monomial_ladder(m, prec):
    """[monomial_series(e, prec) for e in m_basis(m)], built from shared
    power ladders.

    Along m_basis(m) alpha falls by 3 and beta rises by 2, so the i-th of
    the d monomials is E4^alpha_min * (E4^3)^(d-1-i) times
    E6^beta_0 * (E6^2)^i: two ladders of d - 1 products each and one
    product per monomial, instead of a binary powering per monomial.
    """
    basis = m_basis(m)
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    left, right = [e4 ** basis[-1].alpha], [e6 ** basis[0].beta]
    e4_cubed, e6_squared = e4 ** 3, e6 ** 2
    for _ in basis[1:]:
        left.append(left[-1] * e4_cubed)
        right.append(right[-1] * e6_squared)
    return [x * y for x, y in zip(reversed(left), right)]


def express_in_monomials(f, weight):
    """Write the series f, as a form of weight m = weight, as a rational
    combination of the monomials E4^a E6^b, 4a + 6b = m.

    Every stored coefficient takes part.  One sweep gives the pivots of
    the matrix with the d monomials and then f as rows: rank d + 1 puts
    f outside the span at this precision (NotInSpace).  solve_on_rows
    then writes f on the monomials, and refuses them as no basis when
    they are dependent, a DependentInput.  Returns the list of
    (MonomialExponent, coefficient) pairs with nonzero coefficient, in
    m_basis order.
    """
    basis = m_basis(weight)
    d = len(basis)
    prec = f.prec
    if prec < d + 1:
        raise PrecisionError(
            "need at least %d coefficients to certify membership, have %d"
            % (d + 1, prec)
        )
    rows = monomial_ladder(weight, prec) + [f]
    matrix = coefficient_matrix(rows, prec)
    pivots = pivot_columns(matrix)
    if len(pivots) > d:
        raise NotInSpace(
            "not a weight-%d form of the full group at precision %d"
            % (weight, prec)
        )
    target = coefficient_matrix([f], prec)
    try:
        (coeffs,) = solve_on_rows(matrix, pivots, range(d), target)
    except (ShapeError, DomainError):
        raise DependentInput(
            "the weight-%d monomials are linearly dependent modulo q^%d: "
            "either truly dependent or the precision is too low"
            % (weight, prec)
        ) from None
    return [(basis[j], coeffs[j]) for j in range(d) if coeffs[j] != 0]
