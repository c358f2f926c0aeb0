from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rat_matrix
from qweier.errors import DomainError, ShapeError
from qweier.exactlinalg import (
    RatMatrix,
    dependent_rows,
    echelon_reduce,
    pivot_columns,
    solve_on_rows,
)


small_entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def small_matrices(draw, max_dim=5, square=False):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = r if square else draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return rat_matrix(rows, c)


def identity_matrix(n):
    return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)],
                     [1] * n, n)


# -- RatMatrix ----------------------------------------------------------------


def test_entries_read_each_row_over_its_denominator():
    m = RatMatrix([[1, -4], [0, 6]], [2, -3], 2)
    assert m.entries == ((F(1, 2), F(-2)), (F(0), F(-2)))
    assert all(type(x) is F for row in m.entries for x in row)
    assert (m.rows, m.cols) == (2, 2)


def test_ragged_rows_raise_shape_error():
    with pytest.raises(ShapeError):
        RatMatrix([[1, 2], [3]], [1, 1], 2)
    with pytest.raises(ShapeError):
        RatMatrix([[1, 2]], [1], 3)


def test_denominator_count_must_match_rows():
    with pytest.raises(ShapeError):
        RatMatrix([[1], [2]], [1], 1)
    with pytest.raises(ShapeError):
        RatMatrix([[1]], [1, 1], 1)


def test_zero_denominator_is_a_domain_error():
    with pytest.raises(DomainError):
        RatMatrix([[1]], [0], 1)
    with pytest.raises(DomainError):
        RatMatrix([[1, 2], [3, 4]], [5, 0], 2)


def test_attributes_cannot_be_assigned():
    m = RatMatrix([[1, 2]], [1], 2)
    with pytest.raises(AttributeError):
        m.cols = 3
    with pytest.raises(AttributeError):
        m.nums = ((5, 6),)
    assert m.nums == ((1, 2),) and m.cols == 2


# -- echelon_reduce -----------------------------------------------------------


def test_identity_is_fixed():
    r = echelon_reduce(identity_matrix(3))
    assert r.echelon.entries == identity_matrix(3).entries
    assert r.rank == 3
    assert r.pivots == [0, 1, 2]


def test_proportional_rows_leave_a_relation():
    r = echelon_reduce(rat_matrix([[1, 2], [2, 4]], 2))
    assert r.rank == 1
    assert r.echelon.entries[1] == (F(0), F(0))


def test_empty_matrix():
    r = echelon_reduce(rat_matrix([], 4))
    assert r.rank == 0 and r.pivots == []


def test_rows_are_content_normalized():
    r = echelon_reduce(rat_matrix([[F(2, 3), F(4, 3)], [0, F(5)]], 2))
    assert r.echelon.entries[0] == (F(1), F(2))
    assert r.echelon.entries[1] == (F(0), F(1))


def test_leading_entries_positive():
    r = echelon_reduce(rat_matrix([[-3, 6], [0, -7]], 2))
    assert r.echelon.entries[0][0] > 0
    assert r.echelon.entries[1][1] > 0


@given(small_matrices())
def test_pivots_strictly_increase(m):
    r = echelon_reduce(m)
    assert all(a < b for a, b in zip(r.pivots, r.pivots[1:]))
    assert r.rank == len(r.pivots)
    # zero rows come last
    for i in range(r.rank, m.rows):
        assert all(x == 0 for x in r.echelon.entries[i])


@given(small_matrices())
def test_echelon_is_idempotent_up_to_normalization(m):
    first = echelon_reduce(m)
    second = echelon_reduce(first.echelon)
    assert second.echelon.entries == first.echelon.entries
    assert second.pivots == first.pivots


@given(small_matrices(), st.randoms(use_true_random=False))
def test_pivot_set_invariant_under_row_permutation(m, rng):
    perm = list(range(m.rows))
    rng.shuffle(perm)
    shuffled = rat_matrix([m.entries[i] for i in perm], m.cols)
    assert echelon_reduce(shuffled).pivots == echelon_reduce(m).pivots


def _reference_echelon(nums, c):
    """(rows, pivots): the sorted schedule run on every integer row at all
    c columns, each nonzero row then divided by its content and made
    positive at its leading entry, zero rows last.  echelon_reduce must
    return these rows whichever way it finds them."""
    def lead(row):
        return next((j for j in range(c) if row[j]), c)

    work = [(lead(row), i, list(row)) for i, row in enumerate(nums)]
    changed = True
    while changed:
        work.sort()
        changed = False
        for i in range(1, len(work)):
            p, orig, x = work[i]
            if p < c and p == work[i - 1][0]:
                y = work[i - 1][2]
                g = gcd(x[p], y[p])
                row = [y[p] // g * u - x[p] // g * v for u, v in zip(x, y)]
                g = gcd(*row)
                row = [u // g for u in row] if g > 1 else row
                work[i] = (lead(row), orig, row)
                changed = True
    rows, pivots = [], []
    for p, _, row in work:
        if p < c:
            g = gcd(*row) if row[p] > 0 else -gcd(*row)
            row = [u // g for u in row]
            pivots.append(p)
        rows.append(row)
    return rows, pivots


@st.composite
def schedule_inputs(draw):
    """Integer rows over denominators for the schedule oracle: up to 12
    rows in up to 9 columns, drawn from at most 4 base rows as scaled
    copies, integer combinations and zero rows, with some columns zero
    throughout.  Tall ones repeat and combine rows; wide ones have
    columns past the last pivot."""
    c = draw(st.integers(min_value=1, max_value=9))
    zero = draw(st.sets(st.integers(min_value=0, max_value=c - 1),
                        max_size=c // 2))
    entry = st.integers(min_value=-4, max_value=4)
    base = [[0 if j in zero else x for j, x in enumerate(row)]
            for row in draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                     max_size=4))]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(("copy", "copy", "mix", "zero")))
        if kind == "zero" or not base:
            rows.append([0] * c)
        elif kind == "copy":
            a = draw(st.sampled_from([1, 1, -1, 2, -3]))
            rows.append([a * x for x in draw(st.sampled_from(base))])
        else:
            coeffs = draw(st.lists(entry, min_size=len(base),
                                   max_size=len(base)))
            rows.append([sum(a * row[j] for a, row in zip(coeffs, base))
                         for j in range(c)])
    dens = draw(st.lists(st.sampled_from([1, 2, -3, 6]), min_size=len(rows),
                         max_size=len(rows)))
    return RatMatrix(rows, dens, c)


@given(schedule_inputs(), st.data())
@settings(max_examples=300)
def test_echelon_reduce_returns_the_full_width_schedule(m, data):
    rows, pivots = _reference_echelon(m.nums, m.cols)
    k = len(pivots)
    # The rows that lie in the span of the rows before them.
    dependent = [i for i in range(m.rows)
                 if len(_reference_echelon(m.nums[:i + 1], m.cols)[1])
                 == len(_reference_echelon(m.nums[:i], m.cols)[1])]
    dropped = data.draw(st.sets(st.sampled_from(dependent))
                        if dependent else st.just(set()))
    basis = [i for i in range(m.rows) if i not in dependent]
    for subset in (None,
                   [i for i in range(m.rows) if i not in dependent],
                   [i for i in range(m.rows) if i not in dropped]):
        r = echelon_reduce(m, rows=subset)
        assert [list(row) for row in r.echelon.nums] == rows, subset
        assert r.echelon.dens == (1,) * m.rows
        assert (r.pivots, r.rank, r.basis) == (pivots, k, basis), subset


def test_the_row_subset_is_keyword_only():
    # A second positional argument once meant "carry the transform".
    m = identity_matrix(2)
    with pytest.raises(TypeError):
        echelon_reduce(m, None)
    assert echelon_reduce(m, rows=[0, 1]).pivots == [0, 1]


@st.composite
def rank_deficient_matrices(draw):
    """Rows drawn from the span of at most three base rows: combinations
    with Fraction coefficients, copies of a base row, and zero rows, in
    more rows than the base has."""
    c = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=3))
    base = draw(st.lists(st.lists(small_entries, min_size=c, max_size=c),
                         min_size=k, max_size=k))
    rows = []
    for _ in range(draw(st.integers(min_value=k + 1, max_value=7))):
        kind = draw(st.sampled_from(("mix", "copy", "zero")))
        if kind == "zero" or not base:
            rows.append([F(0)] * c)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            coeffs = draw(st.lists(small_entries, min_size=k, max_size=k))
            rows.append([sum((a * b[j] for a, b in zip(coeffs, base)), F(0))
                         for j in range(c)])
    return rat_matrix(rows, c)


def _combine(coeffs, m):
    return tuple(sum((x * row[j] for x, row in zip(coeffs, m.entries)), F(0))
                 for j in range(m.cols))


@given(rank_deficient_matrices(),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=7,
                max_size=7))
@settings(max_examples=150)
def test_solve_writes_row_space_vectors_on_independent_rows(m, mix):
    r = echelon_reduce(m)
    # Targets: the echelon rows, one more integer vector of the row space,
    # and the input rows themselves, over their denominators.
    extra = [sum(a * row[j] for a, row in zip(mix, m.nums))
             for j in range(m.cols)]
    targets = rat_matrix(list(r.echelon.entries[:r.rank]) + [extra]
                         + list(m.entries), m.cols)
    dependent = dependent_rows(m)
    basis = [i for i in range(m.rows) if i not in dependent]
    coords = solve_on_rows(m, r.pivots, basis, targets)
    assert len(basis) == r.rank
    independent = rat_matrix([m.entries[i] for i in basis], m.cols)
    assert len(pivot_columns(independent)) == r.rank
    assert len(coords) == targets.rows
    for target, x in zip(targets.entries, coords):
        assert len(x) == m.rows
        assert all(x[i] == 0 for i in range(m.rows) if i not in basis)
        assert _combine(x, m) == target
    assert r.basis == basis


def test_solve_refuses_a_basis_that_is_not_one():
    # Row 2 is row 0 plus row 1, and row 3 is twice row 0: the pivots are
    # columns 0 and 1, and any two rows but {0, 3} form a basis.
    m = rat_matrix([[1, 0, 2], [0, 1, 3], [1, 1, 5], [2, 0, 4]], 3)
    pivots = pivot_columns(m)
    targets = rat_matrix([[1, 1, 5]], 3)
    assert solve_on_rows(m, pivots, [1, 3], targets) == [
        [0, 1, 0, F(1, 2)]]
    for basis in ([0], [0, 1, 2]):
        with pytest.raises(ShapeError):
            solve_on_rows(m, pivots, basis, targets)
    for basis, row in (([0, 3], 3), ([3, 0], 0), ([2, 2], 2)):
        with pytest.raises(DomainError, match="basis row %d " % row):
            solve_on_rows(m, pivots, basis, targets)


# -- rank, as the pivot count ------------------------------------------------


def test_rank_zero_matrix():
    assert pivot_columns(rat_matrix([[0, 0], [0, 0]], 2)) == []


def test_rank_identity():
    assert pivot_columns(identity_matrix(4)) == [0, 1, 2, 3]
