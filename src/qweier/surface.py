"""Signatures of Fuchsian groups, dimension and divisor-degree formulas for
their modular curves, and the classical invariants of Gamma_0(N).

All dimension formulas take a SurfaceSignature, so arbitrary signatures are
first-class inputs; gamma0_invariants produces the signature of Gamma_0(N)
from the standard index / elliptic-point / cusp-count formulas (Shimura,
ch. 1).  The hyperelliptic classification of the curves X_0(N) of genus
at least 2 is embedded as a table (Ogg's list).
"""

from fractions import Fraction
from math import gcd

from .errors import DomainError, QweierError

GENUS_LT_2 = "GENUS_LT_2"
HYPERELLIPTIC = "HYPERELLIPTIC"
NOT_HYPERELLIPTIC = "NOT_HYPERELLIPTIC"

#: Levels N with g(X_0(N)) >= 2 for which X_0(N) is NOT hyperelliptic:
#: 34, 38, 42, 43, 44, 45, 51-58, 60-70, or any N >= 72.  Genus >= 2
#: levels outside this set are hyperelliptic.
_NON_HYPERELLIPTIC_SMALL = (
    frozenset({34, 38, 42, 43, 44, 45})
    | frozenset(range(51, 59))
    | frozenset(range(60, 71))
)


class SurfaceSignature:
    """Genus, cusp count, and elliptic-point orders of a compactified
    quotient surface."""

    __slots__ = ("genus", "cusp_count", "elliptic_orders")

    def __init__(self, genus, cusp_count, elliptic_orders=()):
        if genus < 0 or cusp_count < 0:
            raise DomainError("genus and cusp count must be nonnegative")
        orders = tuple(sorted(elliptic_orders))
        if any(e < 2 for e in orders):
            raise DomainError("elliptic orders must be >= 2")
        self.genus = genus
        self.cusp_count = cusp_count
        self.elliptic_orders = orders

    def __eq__(self, other):
        if not isinstance(other, SurfaceSignature):
            return NotImplemented
        return (self.genus, self.cusp_count, self.elliptic_orders) == (
            other.genus, other.cusp_count, other.elliptic_orders)

    def __repr__(self):
        return "SurfaceSignature(genus=%d, cusps=%d, elliptic=%s)" % (
            self.genus, self.cusp_count, list(self.elliptic_orders))


#: Signature of the full modular group.
SL2Z_SIGNATURE = SurfaceSignature(0, 1, (2, 3))


class Gamma0Invariants:
    """The classical invariants of Gamma_0(N)."""

    __slots__ = ("level", "index", "nu2", "nu3", "signature", "hyperelliptic_status")

    def __init__(self, level, index, nu2, nu3, signature, hyperelliptic_status):
        self.level = level
        self.index = index
        self.nu2 = nu2
        self.nu3 = nu3
        self.signature = signature
        self.hyperelliptic_status = hyperelliptic_status

    def __repr__(self):
        return (
            "Gamma0Invariants(N=%d, index=%d, nu2=%d, nu3=%d, genus=%d, "
            "cusps=%d, %s)" % (
                self.level, self.index, self.nu2, self.nu3,
                self.signature.genus, self.signature.cusp_count,
                self.hyperelliptic_status))


def _require_even_weight(m, minimum):
    if m % 2 != 0 or m < minimum:
        raise DomainError("weight must be an even integer >= %d, got %s" % (minimum, m))


def dim_cusp_forms(sig, m):
    """Dimension of the weight-m cusp forms: the genus for m = 2, else
    (m-1)(g-1) + (m/2-1)t + sum floor((m/2)(1 - 1/e))."""
    _require_even_weight(m, 2)
    if m == 2:
        return sig.genus
    g, t = sig.genus, sig.cusp_count
    total = (m - 1) * (g - 1) + (m // 2 - 1) * t
    for e in sig.elliptic_orders:
        total += (m // 2) * (e - 1) // e
    return total


def dim_modular_forms(sig, m):
    """Dimension of all weight-m forms: cusp forms plus t, except one less
    in weight 2 when there is at least one cusp."""
    _require_even_weight(m, 2)
    s = dim_cusp_forms(sig, m)
    if m == 2 and sig.cusp_count >= 1:
        return s + sig.cusp_count - 1
    return s + sig.cusp_count


def deg_div(sig, m):
    """Exact degree m(g-1) + (m/2)(t + sum(1 - 1/e)) of the weight-m
    divisor class."""
    _require_even_weight(m, 2)
    g, t = sig.genus, sig.cusp_count
    total = Fraction(m * (g - 1)) + Fraction(m, 2) * t
    for e in sig.elliptic_orders:
        total += Fraction(m, 2) * (1 - Fraction(1, e))
    return total


def deg_c_prime(sig, m):
    """Degree of the integral part of the divisor of a nonzero weight-m form."""
    _require_even_weight(m, 2)
    if m == 2 and sig.cusp_count == 0:
        return 2 * (sig.genus - 1)
    return dim_modular_forms(sig, m) + sig.genus - 1


def deg_c(sig, m):
    """Degree of the cusp-free integral divisor of a weight-m cusp form."""
    _require_even_weight(m, 2)
    if m == 2:
        return 2 * (sig.genus - 1)
    return dim_cusp_forms(sig, m) + sig.genus - 1


def dim_s_h(sig, m):
    """Dimension of the subspace of weight-m cusp forms corresponding to
    holomorphic (m/2)-differentials on the quotient curve."""
    _require_even_weight(m, 2)
    g = sig.genus
    if g == 0:
        return 0
    if m == 2:
        return g
    if g == 1:
        return 1
    return (m - 1) * (g - 1)


def weierstrass_bound_holds(sig, m):
    """Whether m/2 + m(g-1) <= dim S_m - g for this signature and weight."""
    _require_even_weight(m, 4)
    g = sig.genus
    return m // 2 + m * (g - 1) <= dim_cusp_forms(sig, m) - g


def _kronecker_minus_four(p):
    if p == 2:
        return 0
    return 1 if p % 4 == 1 else -1


def _kronecker_minus_three(p):
    if p == 3:
        return 0
    return 1 if p % 3 == 1 else -1


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _euler_phi(n):
    result = n
    for p in _prime_factors(n):
        result = result // p * (p - 1)
    return result


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def gamma0_invariants(N):
    """Index, elliptic-point counts, cusp count, genus, and hyperelliptic
    status of Gamma_0(N)."""
    if N <= 0:
        raise DomainError("level must be a positive integer")
    primes = _prime_factors(N)
    index = N
    for p in primes:
        index = index // p * (p + 1)
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in primes:
            nu2 *= 1 + _kronecker_minus_four(p)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in primes:
            nu3 *= 1 + _kronecker_minus_three(p)
    cusps = sum(_euler_phi(gcd(d, N // d)) for d in _divisors(N))
    genus_frac = 1 + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    if genus_frac.denominator != 1:
        raise QweierError(
            "genus formula for Gamma_0(%d) gave the non-integer %s"
            % (N, genus_frac))
    genus = int(genus_frac)
    if genus < 2:
        status = GENUS_LT_2
    elif N in _NON_HYPERELLIPTIC_SMALL or N >= 72:
        status = NOT_HYPERELLIPTIC
    else:
        status = HYPERELLIPTIC
    sig = SurfaceSignature(genus, cusps, (2,) * nu2 + (3,) * nu3)
    return Gamma0Invariants(N, index, nu2, nu3, sig, status)
