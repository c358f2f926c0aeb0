"""Truncated power series in q with exact rational coefficients.

A QSeries stores the coefficients of q^0 ... q^(prec-1); the series is known
modulo q^prec.  Precision is data: every operation computes the precision it
can actually guarantee for its result, and comparisons should only ever be
made on the common guaranteed range: a.truncated(p) == b.truncated(p) for
p = min(a.prec, b.prec), and s.valuation() is None when s vanishes modulo
q^prec.  The coefficients are integer numerators `nums` over one
denominator `den` > 0 in lowest terms (gcd(den, *nums) == 1), so equal
series have equal (nums, den, prec), and every operation runs on Python
ints -- no floating point anywhere.  fractions.Fraction appears only at the
edge: a caller's ints and Fractions (nothing else is accepted) are cleared
to integers once, and `.coeffs` and `coeff` build Fractions on reading.

Values are immutable after construction; all operations are pure functions.
"""

import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import (DivisionByZeroSeries, DomainError, PrecisionError,
                     ValuationError)
from .exactlinalg import RatMatrix, _fraction_row, _integer_row, _set_slots


class QSeries:
    """An element of Q[[q]] known modulo q^prec."""

    __slots__ = ("nums", "den", "prec", "_coeffs")

    def __init__(self, coeffs, prec=None):
        coeffs = list(coeffs)
        if prec is None:
            prec = len(coeffs)
        if prec < 0:
            raise DomainError("prec must be nonnegative")
        _require_exact(coeffs)
        nums, den = _integer_row(coeffs[:prec])
        nums += [0] * (prec - len(nums))
        _set_slots(self, nums=tuple(nums), den=den, prec=prec, _coeffs=None)

    @classmethod
    def from_numerators(cls, nums, den=1):
        """The series sum(nums[n] / den * q^n) known modulo q^len(nums);
        den must be nonzero."""
        g = -gcd(den, *nums) if den < 0 else gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        s = object.__new__(cls)
        _set_slots(s, nums=tuple(nums), den=den, prec=len(nums), _coeffs=None)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(prec):
        return QSeries((), prec)

    @staticmethod
    def one(prec):
        return QSeries.monomial(1, 0, prec)

    @staticmethod
    def monomial(c, n, prec):
        """c * q^n (n >= 0) as a series of the given precision."""
        if n < 0:
            raise DomainError("monomial exponent must be >= 0, got %d" % n)
        return QSeries([0] * min(n, prec) + [c], prec)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients of q^0 ... q^(prec-1) as a tuple of Fractions."""
        if self._coeffs is None:
            _set_slots(self, _coeffs=_fraction_row(self.nums, self.den))
        return self._coeffs

    def coeff(self, n):
        """Coefficient of q^n; n must be inside the stored window."""
        if n < 0:
            raise DomainError("coefficient index must be >= 0, got %d" % n)
        if n >= self.prec:
            raise PrecisionError(
                "coefficient of q^%d requested but series is only known mod q^%d"
                % (n, self.prec)
            )
        return Fraction(self.nums[n], self.den)

    def valuation(self):
        """Index of the first nonzero coefficient, or None when every
        stored coefficient vanishes: the series is then only known to have
        valuation >= prec."""
        return next((i for i, x in enumerate(self.nums) if x), None)

    def truncated(self, prec):
        """The same series known modulo q^prec (0 <= prec <= self.prec)."""
        if prec < 0:
            raise DomainError("prec must be nonnegative")
        if prec > self.prec:
            raise PrecisionError(
                "cannot extend precision from %d to %d" % (self.prec, prec)
            )
        return QSeries.from_numerators(self.nums[:prec], self.den)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other on the common precision."""
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return QSeries.from_numerators(
            [fa * x + fb * y
             for x, y in zip(self.nums[:prec], other.nums[:prec])], den)

    def __neg__(self):
        return QSeries.from_numerators([-x for x in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        # Schoolbook Cauchy product on the integer numerators.  Both
        # factors have valuation >= 0 by representation, so the product of
        # the stored windows determines the result on the smaller window.
        prec = min(self.prec, other.prec)
        nonzero_b = [(j, x) for j, x in enumerate(other.nums[:prec]) if x]
        out = [0] * prec
        for i, ai in enumerate(self.nums[:prec]):
            if ai:
                stop = prec - i
                for j, bj in nonzero_b:
                    if j >= stop:
                        break
                    out[i + j] += ai * bj
        return QSeries.from_numerators(out, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c):
        _require_exact((c,))
        return QSeries.from_numerators(
            [c.numerator * x for x in self.nums], self.den * c.denominator)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise DomainError("exponent must be a nonnegative integer")
        result = QSeries.one(self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def q_derive(self):
        """Apply q*d/dq: the coefficient of q^n becomes n*a_n."""
        return QSeries.from_numerators(
            [n * x for n, x in enumerate(self.nums)], self.den)

    def shifted(self, j):
        """Multiply by q^j (j >= 0).  The monomial q^j is exact, so the
        result is known modulo q^(prec+j)."""
        if j < 0:
            raise DomainError("shift must be nonnegative")
        return QSeries.from_numerators((0,) * j + self.nums, self.den)

    def exact_div(self, b):
        """Series division a/b, contracting precision by valuation(b).

        Requires valuation(b) <= valuation(a), b nonzero at its stored
        precision, and min(a.prec, b.prec) > valuation(b), so that the
        quotient has at least one known coefficient (PrecisionError
        otherwise).  The result c satisfies b*c = a modulo
        q^(min(a.prec, b.prec) - valuation(b)).
        """
        if not isinstance(b, QSeries):
            raise TypeError("divisor must be a QSeries")
        vb = b.valuation()
        if vb is None:
            raise DivisionByZeroSeries(
                "divisor is identically zero modulo q^%d" % b.prec
            )
        va = self.valuation()
        if va is not None and va < vb:
            raise ValuationError(
                "divisor has valuation %d but dividend only %d" % (vb, va)
            )
        prec = min(self.prec, b.prec) - vb
        if prec < 1:
            raise PrecisionError(
                "the quotient by a divisor of valuation %d is unknown modulo "
                "q^%d" % (vb, min(self.prec, b.prec)))
        # Long division of the numerators A by the unit U = b.nums[vb:] on
        # integers: the n-th quotient coefficient is C_n / u0^(n+1), with
        # C_n = A_n u0^n - sum_k C_(n-k) U_k u0^(k-1).  Then a/b =
        # (b.den / a.den) * A/U, over the one denominator a.den * u0^prec.
        num, unit = self.nums[vb:], b.nums[vb:vb + prec]
        u0 = unit[0]
        terms = [(k, x * u0 ** (k - 1)) for k, x in enumerate(unit) if k and x]
        out = []
        for n in range(prec):
            acc = num[n] * u0 ** n
            for k, t in terms:
                if k > n:
                    break
                acc -= out[n - k] * t
            out.append(acc)
        return QSeries.from_numerators(
            [b.den * x * u0 ** (prec - 1 - n) for n, x in enumerate(out)],
            self.den * u0 ** prec)

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.prec == other.prec and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den, self.prec))

    def qstring(self, max_terms=None):
        """Human-readable expansion like 'q - 24*q^2 + 252*q^3 + O(q^60)'.

        A shown coefficient with an integer of more digits than str()
        writes (sys.get_int_max_str_digits(), read and never set) is a
        DomainError that names the term and the digit count, not the bare
        ValueError of str()."""
        parts = []
        shown = 0
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if max_terms is not None and shown >= max_terms:
                parts.append("...")
                break
            shown += 1
            mag = -c if c < 0 else c
            try:
                text = str(mag)
            except ValueError:
                raise DomainError(
                    "coefficient of q^%d: an integer of %d digits is longer "
                    "than the %d digits str() writes"
                    % (n, _digits(max(mag.numerator, mag.denominator)),
                       sys.get_int_max_str_digits())) from None
            if n == 0:
                body = text
            else:
                var = "q" if n == 1 else "q^%d" % n
                body = var if mag == 1 else "%s*%s" % (text, var)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        if not parts:
            parts.append("0")
        parts.append("+ O(q^%d)" % self.prec)
        return " ".join(parts)

    def __repr__(self):
        return "QSeries(%s)" % self.qstring(max_terms=6)


def _digits(x):
    """The number of decimal digits of the positive int x, without str():
    1233 / 4096 is just below log10(2), so the first guess is never more
    than the count."""
    d = x.bit_length() * 1233 >> 12
    while 10 ** d <= x:
        d += 1
    return d


def _require_exact(values):
    """DomainError naming the type of the first value that is neither an
    int nor a Fraction: a float, string or Decimal would otherwise be
    read as some nearby rational."""
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise DomainError("series coefficients and scalars must be int or "
                              "Fraction, got %s" % type(x).__name__)


def coefficient_matrix(series, prec):
    """The matrix whose rows are the first prec coefficients of each
    series, handed over as integer rows."""
    return RatMatrix(
        [s.nums[:prec] for s in series], [s.den for s in series], cols=prec)
