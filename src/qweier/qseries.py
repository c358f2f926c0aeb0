"""Truncated power series in q with exact rational coefficients.

A QSeries stores the coefficients of q^0 ... q^(prec-1); the series is known
modulo q^prec.  Precision is data: every operation computes the precision it
can actually guarantee for its result, and comparisons should only ever be
made on the common guaranteed range.  Coefficients are stored as
fractions.Fraction -- no floating point anywhere.  Products run on integer
numerators: each factor's window is cleared by the lcm of its denominators,
the Cauchy product is taken over Python ints, and the result goes back to
Fraction over the product of the two denominators only at the end.

Values are immutable after construction; all operations are pure functions.
"""

from fractions import Fraction

from .errors import (DivisionByZeroSeries, DomainError, PrecisionError,
                     ValuationError)
from .exactlinalg import _integer_row

#: Returned by valuation() when every stored coefficient vanishes.  Callers
#: must read it as "valuation >= prec", not as a statement about the exact
#: series.  It compares correctly with integers.
INFINITE = float("inf")


class QSeries:
    """An element of Q[[q]] known modulo q^prec."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec=None):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if prec < 0:
            raise DomainError("prec must be nonnegative")
        if len(coeffs) < prec:
            coeffs.extend([Fraction(0)] * (prec - len(coeffs)))
        elif len(coeffs) > prec:
            del coeffs[prec:]
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(prec):
        return QSeries([], prec)

    @staticmethod
    def one(prec):
        return QSeries([Fraction(1)], prec)

    @staticmethod
    def monomial(c, n, prec):
        """c * q^n as a series of the given precision."""
        coeffs = [Fraction(0)] * prec
        if 0 <= n < prec:
            coeffs[n] = Fraction(c)
        return QSeries(coeffs, prec)

    # -- basic queries -------------------------------------------------

    def coeff(self, n):
        """Coefficient of q^n; n must be inside the stored window."""
        if not 0 <= n < self.prec:
            raise PrecisionError(
                "coefficient of q^%d requested but series is only known mod q^%d"
                % (n, self.prec)
            )
        return self.coeffs[n]

    def is_zero(self):
        """True when every stored coefficient vanishes."""
        return all(c == 0 for c in self.coeffs)

    def valuation(self):
        """Index of the first nonzero coefficient, or INFINITE if none is
        stored.  INFINITE only certifies valuation >= prec."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return INFINITE

    def leading_coefficient(self):
        v = self.valuation()
        if v == INFINITE:
            raise DivisionByZeroSeries("series is zero at its stored precision")
        return self.coeffs[int(v)]

    def truncated(self, prec):
        """The same series known modulo q^prec (prec <= self.prec)."""
        if prec > self.prec:
            raise PrecisionError(
                "cannot extend precision from %d to %d" % (self.prec, prec)
            )
        return QSeries(self.coeffs[:prec], prec)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        return QSeries(
            [self.coeffs[n] + other.coeffs[n] for n in range(prec)], prec
        )

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        return QSeries(
            [self.coeffs[n] - other.coeffs[n] for n in range(prec)], prec
        )

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.prec)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        # Schoolbook Cauchy product on integer numerators.  Both factors
        # have valuation >= 0 by representation, so the product of the
        # stored windows determines the result on the smaller window.
        prec = min(self.prec, other.prec)
        a, da = _integer_row(self.coeffs[:prec])
        b, db = _integer_row(other.coeffs[:prec])
        nonzero_b = [(j, x) for j, x in enumerate(b) if x]
        out = [0] * prec
        for i, ai in enumerate(a):
            if ai:
                stop = prec - i
                for j, bj in nonzero_b:
                    if j >= stop:
                        break
                    out[i + j] += ai * bj
        den = da * db
        return QSeries([Fraction(x, den) for x in out], prec)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c):
        c = Fraction(c)
        return QSeries([c * x for x in self.coeffs], self.prec)

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
        return QSeries(
            [n * c for n, c in enumerate(self.coeffs)], self.prec
        )

    def shifted(self, j):
        """Multiply by q^j (j >= 0).  The monomial q^j is exact, so the
        result is known modulo q^(prec+j)."""
        if j < 0:
            raise DomainError("shift must be nonnegative")
        return QSeries(
            [Fraction(0)] * j + list(self.coeffs), self.prec + j
        )

    def exact_div(self, b):
        """Series division a/b, contracting precision by valuation(b).

        Requires valuation(b) <= valuation(a) and b nonzero at its stored
        precision.  The result c satisfies b*c = a modulo
        q^(min(a.prec, b.prec) - valuation(b)).
        """
        if not isinstance(b, QSeries):
            raise TypeError("divisor must be a QSeries")
        if b.is_zero():
            raise DivisionByZeroSeries(
                "divisor is identically zero modulo q^%d" % b.prec
            )
        vb = int(b.valuation())
        va = self.valuation()
        if va != INFINITE and int(va) < vb:
            raise ValuationError(
                "divisor has valuation %d but dividend only %d" % (vb, int(va))
            )
        prec = min(self.prec, b.prec) - vb
        # Strip the common q^vb factor, then divide by a unit.
        num = self.coeffs[vb : vb + prec]
        den = b.coeffs[vb : vb + prec]
        lead = den[0]
        out = [Fraction(0)] * prec
        for n in range(prec):
            s = num[n] if n < len(num) else Fraction(0)
            for k in range(n):
                if out[k] != 0 and den[n - k] != 0:
                    s -= out[k] * den[n - k]
            out[n] = s / lead
        return QSeries(out, prec)

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.prec == other.prec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.prec))

    def agrees_with(self, other, prec=None):
        """Coefficientwise equality on the common guaranteed range (or on
        the first `prec` coefficients when given)."""
        common = min(self.prec, other.prec)
        if prec is not None:
            if prec > common:
                raise PrecisionError(
                    "comparison to precision %d requested but only %d is stored"
                    % (prec, common)
                )
            common = prec
        return self.coeffs[:common] == other.coeffs[:common]

    def qstring(self, max_terms=None):
        """Human-readable expansion like 'q - 24*q^2 + 252*q^3 + O(q^60)'."""
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
            if n == 0:
                body = str(mag)
            else:
                var = "q" if n == 1 else "q^%d" % n
                body = var if mag == 1 else "%s*%s" % (mag, var)
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


def from_integers(ints, prec=None):
    """Convenience constructor from an integer coefficient list."""
    return QSeries([Fraction(c) for c in ints], prec)
