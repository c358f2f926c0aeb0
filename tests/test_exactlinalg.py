from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from qweier.exactlinalg import RatMatrix, echelon_reduce, rank, solve_on_rows


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
    return RatMatrix(rows, cols=c)


# -- RatMatrix ----------------------------------------------------------------


def test_fraction_entries_are_kept_and_others_converted():
    half = F(1, 2)
    m = RatMatrix([[half, 3]])
    assert m.entries[0][0] is half
    assert m.entries[0][1] == F(3) and type(m.entries[0][1]) is F


# -- echelon_reduce -----------------------------------------------------------


def test_identity_is_fixed():
    r = echelon_reduce(RatMatrix.identity(3))
    assert r.echelon == RatMatrix.identity(3)
    assert r.rank == 3
    assert r.pivots == [0, 1, 2]


def test_proportional_rows_leave_a_relation():
    r = echelon_reduce(RatMatrix([[1, 2], [2, 4]]))
    assert r.rank == 1
    assert r.echelon.entries[1] == (F(0), F(0))
    relation = r.transform.entries[1]
    # (-2, 1) up to sign and content
    assert relation in ((F(-2), F(1)), (F(2), F(-1)))


def test_empty_matrix():
    r = echelon_reduce(RatMatrix([], cols=4))
    assert r.rank == 0 and r.pivots == []


def test_rows_are_content_normalized():
    r = echelon_reduce(RatMatrix([[F(2, 3), F(4, 3)], [0, F(5)]]))
    assert r.echelon.entries[0] == (F(1), F(2))
    assert r.echelon.entries[1] == (F(0), F(1))


def test_leading_entries_positive():
    r = echelon_reduce(RatMatrix([[-3, 6], [0, -7]]))
    assert r.echelon.entries[0][0] > 0
    assert r.echelon.entries[1][1] > 0


@given(small_matrices())
@settings(max_examples=120)
def test_transform_times_input_is_echelon(m):
    r = echelon_reduce(m)
    assert r.transform.mul(m) == r.echelon
    assert rank(r.transform) == m.rows


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
    assert second.echelon == first.echelon
    assert second.pivots == first.pivots


@given(small_matrices(), st.randoms(use_true_random=False))
def test_pivot_set_invariant_under_row_permutation(m, rng):
    perm = list(range(m.rows))
    rng.shuffle(perm)
    shuffled = RatMatrix([m.entries[i] for i in perm], cols=m.cols)
    assert echelon_reduce(shuffled).pivots == echelon_reduce(m).pivots


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
    return RatMatrix(rows, cols=c)


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
    targets = RatMatrix(list(r.echelon.entries[:r.rank]) + [extra]
                        + list(m.entries), cols=m.cols)
    basis, coords = solve_on_rows(m, r.pivots, targets)
    assert len(basis) == r.rank
    assert rank(RatMatrix([m.entries[i] for i in basis], cols=m.cols)) == r.rank
    assert len(coords) == targets.rows
    for target, x in zip(targets.entries, coords):
        assert len(x) == m.rows
        assert all(x[i] == 0 for i in range(m.rows) if i not in basis)
        assert _combine(x, m) == target
    assert r.combinations() == [tuple(x) for x in coords[:r.rank]]


# -- rank ----------------------------------------------------------------------


def test_rank_zero_matrix():
    assert rank(RatMatrix([[0, 0], [0, 0]])) == 0


def test_rank_identity():
    assert rank(RatMatrix.identity(4)) == 4
