"""Shared helpers: bundled fixture bases, golden files, random basis changes,
the monomials of a basis as series, and Fraction matrices with their
product."""

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from qweier.exactlinalg import RatMatrix, _integer_row
from qweier.ingest import load_basis
from qweier.qseries import QSeries
from qweier.weierstrass import CuspBasis, _monomial_matrix

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

FIXTURE_LEVELS = (34, 35, 37, 38, 44, 54, 55, 60)


def fixture_path(level):
    return FIXTURE_DIR / ("g0n%d_s2.qexp" % level)


@lru_cache(maxsize=None)
def load_fixture(level):
    """The bundled weight-2 cusp basis for Gamma_0(level)."""
    return load_basis(fixture_path(level))


def random_basis_change(basis, rng):
    """A new basis related to the input by a random invertible integer
    matrix (a product of elementary row operations, then a shuffle)."""
    g = basis.genus
    mat = [[Fraction(1 if i == j else 0) for j in range(g)] for i in range(g)]
    for _ in range(3 * g):
        i, j = rng.randrange(g), rng.randrange(g)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(g):
                mat[i][k] += c * mat[j][k]
    rng.shuffle(mat)
    series = basis.series_list()
    new = []
    for row in mat:
        acc = QSeries.zero(basis.prec)
        for c, s in zip(row, series):
            if c:
                acc = acc + s.scaled(c)
        new.append(acc)
    return CuspBasis.from_series(basis.level_label, new)


def monomials(basis, m):
    """All degree-(m/2) monomials in the basis forms, in lexicographically
    decreasing exponent order, as (exponent vector, series) pairs: row i
    of _monomial_matrix(basis, m, basis.prec) in lowest terms, the same
    (nums, den, prec) as a chain of QSeries products."""
    vecs, matrix = _monomial_matrix(basis, m, basis.prec)[:2]
    return [(vec, QSeries.from_numerators(row, den))
            for vec, row, den in zip(vecs, matrix.nums, matrix.dens)]


def rat_matrix(rows, cols):
    """The RatMatrix of rows of rationals (anything Fraction() accepts),
    each row cleared by the lcm of its denominators."""
    cleared = [_integer_row(row) for row in rows]
    return RatMatrix([n for n, _ in cleared], [d for _, d in cleared], cols)


def matrix_product(a, b):
    """The entries of a * b, computed over Fractions."""
    assert a.cols == b.rows
    return tuple(
        tuple(sum((x * b.entries[k][j] for k, x in enumerate(row)),
                  Fraction(0))
              for j in range(b.cols))
        for row in a.entries)
