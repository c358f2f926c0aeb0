import gc
import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qweier.errors import DependentInput, DomainError, EmptyInput, PrecisionError
from qweier.level1 import delta, eisenstein_e4, eisenstein_e6
from qweier.qseries import QSeries
from qweier.wronskian import (
    _reduced_det,
    elliptic_wronskian_order,
    q_wronskian,
    scalar_exponent,
    span_valuations,
    wronskian_valuation,
    wronskian_weight,
)


def qs(*coeffs, prec=None):
    return QSeries([F(c) for c in coeffs], prec)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def series_lists(draw, k_min=2, k_max=4, prec=8):
    k = draw(st.integers(min_value=k_min, max_value=k_max))
    return [
        QSeries(
            draw(st.lists(small_rationals, min_size=prec, max_size=prec)), prec
        )
        for _ in range(k)
    ]


# -- q_wronskian --------------------------------------------------------------


def test_single_series_is_its_own_wronskian():
    for f in (qs(0, 1, 5, prec=3), qs(F(2, 3), 0, F(-1, 6), prec=3),
              qs(0, 0, F(7, 4), prec=3), QSeries.zero(3)):
        w = q_wronskian([f])
        assert w == f
        assert wronskian_weight(1, 10) == 10 and scalar_exponent(1) == 0


def test_wronskian_of_one_and_q():
    w = q_wronskian([QSeries.one(5), qs(0, 1, prec=5)])
    assert w == qs(0, 1, prec=5)


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        q_wronskian([])


def test_precision_below_matrix_size_rejected():
    with pytest.raises(PrecisionError):
        q_wronskian([qs(1, 1, prec=2)] * 3)


def test_eisenstein_identity():
    prec = 40
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    w = q_wronskian([e4 ** 3, e6 ** 2])
    assert w == (delta(prec) * e4 ** 2 * e6).scaled(-1728)
    assert wronskian_weight(2, 12) == 26
    assert scalar_exponent(2) == 1


def test_monomial_family_t2():
    prec = 60
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    d = delta(prec)
    monos = [(e4 ** 3) ** u * (e6 ** 2) ** (2 - u) for u in (2, 1, 0)]
    w = q_wronskian(monos)
    lam = -2 * 1728 ** 3
    assert w == (d ** 3 * e4 ** 6 * e6 ** 3).scaled(lam)


def test_zero_column_gives_zero_series():
    w = q_wronskian([qs(1, 2, prec=4), QSeries.zero(4)])
    assert w.valuation() is None and w.prec == 4


# -- series determinant ----------------------------------------------------------


def _reference_det(rows, prec):
    """Laplace expansion along the first rows, memoized over column subsets:
    sums of products only, so no pivot can lose precision."""
    k = len(rows)
    memo = {(): QSeries.one(prec)}

    def minor(cols):
        if cols not in memo:
            row = rows[k - len(cols)]
            total = QSeries.zero(prec)
            for pos, j in enumerate(cols):
                term = row[j] * minor(cols[:pos] + cols[pos + 1:])
                total = total + (term if pos % 2 == 0 else -term)
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(k)))


def _seeded_series_lists(seed, k_max):
    """80 seeded lists of k <= k_max series.  Every input of a list has
    the valuation `base` (up to 3) or one or two more, so valuations
    collide and the reduced determinant often has positive valuation;
    every other list ends with a combination of its first two inputs.
    The precision is random, up to a little past base + k(k + 1)/2, so
    the Wronskian is seen to vanish at some precisions and not at
    others."""
    rng = random.Random(seed)
    for trial in range(80):
        k = rng.randint(1, k_max)
        base = rng.randint(0, 3)
        prec = rng.randint(max(k, base + 3), base + 4 + k * (k + 1) // 2)

        def series():
            v = base + rng.choice([0, 0, 1, 2])
            return QSeries([F(0)] * v + [F(rng.choice([-3, -1, 1, 2]))] + [
                F(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(prec - v - 1)], prec)

        fs = [series() for _ in range(k)]
        if k >= 3 and trial % 2:
            a, b = rng.choice([-2, -1, 1]), F(rng.randint(-2, 2), 3)
            fs[-1] = fs[0].scaled(a) + fs[1].scaled(b)
        yield fs


def _reduced_matrix(fs, vals, prec):
    """The explicit reduced matrix [(v_j + theta)^i g_j], f_j = q^(v_j) g_j,
    each entry modulo q^prec, built coefficient by coefficient."""
    return [[QSeries([F(x, f.den) * (v + n) ** i
                      for n, x in enumerate(f.nums[v:v + prec])], prec)
             for f, v in zip(fs, vals)]
            for i in range(len(fs))]


def test_reduced_det_matches_laplace_reference():
    rng = random.Random(1405)
    for trial, fs in enumerate(_seeded_series_lists(1405, 9)):
        vals = [f.valuation() for f in fs]
        if None in vals:
            continue
        prec = rng.randint(1, min(f.prec for f in fs) - max(vals))
        result = _reduced_det(fs, vals, prec)
        want = _reference_det(_reduced_matrix(fs, vals, prec), prec)
        assert (result.nums, result.den, result.prec) == (
            want.nums, want.den, want.prec), (trial, len(fs), prec)


# SHA-256 of q_wronskian(...) as (nums, den, prec) on the level-1
# families t = 1..5 at precision 40 and on the seeded lists, computed by
# the Gaussian elimination over Q[[q]] that theta-reduction replaced: the
# two must agree to the last numerator.
Q_WRONSKIAN_REFERENCE = (
    "9ce359b0d6a4bf98da36684cf49c0d0aaeab004c85efe1ed8feb99cae2349763")


def test_q_wronskian_matches_pinned_digest():
    prec = 40
    a = eisenstein_e4(prec) ** 3
    b = eisenstein_e6(prec) ** 2
    families = [[a ** u * b ** (t - u) for u in range(t, -1, -1)]
                for t in range(1, 6)]
    digest = hashlib.sha256()
    for fs in families + list(_seeded_series_lists(2718, 9)):
        w = q_wronskian(fs)
        digest.update(("%r %d %d\n" % (list(w.nums), w.den, w.prec))
                      .encode())
    assert digest.hexdigest() == Q_WRONSKIAN_REFERENCE


@pytest.mark.parametrize("k", [5, 9])
def test_series_determinant_leaves_no_reference_cycle(k):
    # The series determinant behind q_wronskian must be freed by reference
    # counting alone, not kept alive until the cyclic collector next runs.
    rng = random.Random(34)
    fs = [
        QSeries([F(rng.randint(-4, 4)) for _ in range(12)], 12)
        for _ in range(k)
    ]
    gc.collect()
    gc.disable()
    try:
        q_wronskian(fs)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- alternating multilinearity ---------------------------------------------------


@given(series_lists())
@settings(max_examples=60)
def test_swapping_two_inputs_negates(fs):
    w = q_wronskian(fs)
    swapped = [fs[1], fs[0]] + fs[2:]
    assert q_wronskian(swapped) == -w


@given(series_lists(), small_rationals)
@settings(max_examples=60)
def test_adding_multiple_of_another_input_is_invisible(fs, c):
    w = q_wronskian(fs)
    modified = [fs[0], fs[1] + fs[0].scaled(c)] + fs[2:]
    assert q_wronskian(modified) == w


@given(series_lists(k_min=2, k_max=3), small_rationals, small_rationals)
@settings(max_examples=60)
def test_dependent_inputs_vanish(fs, a, b):
    dependent = fs + [fs[0].scaled(a) + fs[1].scaled(b)]
    assert q_wronskian(dependent).valuation() is None


@given(series_lists())
@settings(max_examples=60)
def test_valuation_lower_bound(fs):
    k = len(fs)
    v = q_wronskian(fs).valuation()
    assert v is None or v >= k * (k - 1) // 2


@given(series_lists(k_min=2, k_max=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_scaling_by_power_of_q(fs, j):
    k = len(fs)
    plain = q_wronskian(fs)
    scaled = q_wronskian([f.shifted(j) for f in fs])
    common = min(scaled.prec, plain.prec + j * k)
    assert scaled.truncated(common) == plain.shifted(j * k).truncated(common)
    pv, sv = plain.valuation(), scaled.valuation()
    if pv is not None and pv + j * k < scaled.prec:
        assert sv == pv + j * k


# -- span_valuations ---------------------------------------------------------------


def test_span_of_powers():
    sv = span_valuations([QSeries.one(5), qs(0, 1, prec=5), qs(0, 0, 1, prec=5)])
    assert sv == (0, 1, 2) and sum(sv) == 3


def test_span_hides_no_valuation():
    sv = span_valuations([qs(0, 1, 1, prec=5), qs(0, 1, prec=5)])
    assert sv == (1, 2) and sum(sv) == 3


def test_span_rejects_dependent():
    with pytest.raises(DependentInput) as err:
        span_valuations([qs(1, 2, prec=4), qs(2, 4, prec=4)])
    message = str(err.value).lower()
    assert "dependent" in message and "precision" in message


# -- cusp-order identity ------------------------------------------------------------


def cusp_order_identity(fs):
    """The certified q-valuation of the q-Wronskian and the sum of the span
    valuations, the two sides `qweier wronskian` compares; they are
    provably equal for any list of linearly independent forms."""
    return wronskian_valuation(fs), sum(span_valuations(fs))


def test_identity_check_one_q():
    assert cusp_order_identity([QSeries.one(6), qs(0, 1, prec=6)]) == (1, 1)


def test_identity_check_eisenstein():
    prec = 30
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    assert cusp_order_identity([e4 ** 3, e6 ** 2]) == (1, 1)


def test_identity_check_t2_monomials():
    prec = 30
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    monos = [(e4 ** 3) ** u * (e6 ** 2) ** (2 - u) for u in (2, 1, 0)]
    assert cusp_order_identity(monos) == (3, 3)


def test_identity_check_raises_when_wronskian_invisible():
    # dependent inputs: the Wronskian vanishes to full precision
    f = qs(1, 1, 1, prec=3)
    with pytest.raises((PrecisionError, DependentInput)):
        cusp_order_identity([f, f.scaled(2)])


@given(series_lists(k_min=2, k_max=3, prec=10))
@settings(max_examples=60)
def test_identity_holds_on_random_independent_lists(fs):
    try:
        lhs, rhs = cusp_order_identity(fs)
    except (DependentInput, PrecisionError):
        return
    assert lhs == rhs


# -- wronskian_valuation --------------------------------------------------------------


def test_wronskian_valuation_matches_series_route():
    prec = 30
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    fs = [e4 ** 3, e6 ** 2]
    assert wronskian_valuation(fs) == q_wronskian(fs).valuation()


def test_wronskian_valuation_beyond_stored_precision():
    # Two forms with valuations 8 and 9 but only 12 stored coefficients:
    # the Wronskian valuation 17 exceeds the precision, yet is certified.
    a = qs(*([0] * 8 + [1, 2, 3, 4]), prec=12)
    b = qs(*([0] * 9 + [1, -1, 2]), prec=12)
    assert wronskian_valuation([a, b]) == 17
    assert q_wronskian([a, b]).valuation() is None
    assert cusp_order_identity([a, b]) == (17, 17)


@pytest.mark.parametrize("gaps", [
    (2, 3, 6, 8),
    (1, 2, 4, 7, 9),
    (2, 3, 5, 8, 9, 12),
    (1, 2, 3, 5, 6, 8, 9, 11, 13),
    (2, 3, 4, 6, 7, 9, 10, 12, 13, 15),
])
def test_wronskian_valuation_deep_probe(gaps, monkeypatch):
    # Every input has the valuation gaps[0], but their span reaches the
    # valuations in gaps, so the Wronskian valuation is sum(gaps) and the
    # reduced determinant vanishes to order sum(gaps) - k * gaps[0] >= 4.
    # The pivot columns find all k gaps, so the one probe is modulo
    # q^(sum(gaps) - k * gaps[0] + 1) and reads the leading term.
    k = len(gaps)
    total = sum(gaps)
    assert total - k * gaps[0] >= 4
    rng = random.Random(total)
    prec = total + 4
    echelon = [
        QSeries([F(0)] * w + [F(1)]
                + [F(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(prec - w - 1)], prec)
        for w in gaps
    ]
    # A unitriangular mix with a nonzero multiple of the lowest form in
    # every row keeps the inputs independent and all at valuation gaps[0].
    fs = [echelon[0]]
    for i in range(1, k):
        acc = echelon[i] + echelon[0].scaled(rng.choice([-2, -1, 1, 3]))
        for j in range(1, i):
            acc = acc + echelon[j].scaled(F(rng.randint(-3, 3), 2))
        fs.append(acc)
    rng.shuffle(fs)
    assert all(f.valuation() == gaps[0] for f in fs)
    assert q_wronskian(fs).valuation() == total
    probes = []

    def spy(fs, vals, prec):
        probes.append(prec)
        return _reduced_det(fs, vals, prec)

    monkeypatch.setattr("qweier.wronskian._reduced_det", spy)
    assert wronskian_valuation(fs) == total
    assert probes == [total - k * gaps[0] + 1]


@st.composite
def colliding_lists(draw):
    """Echelon series q^w + ... mixed as in the deep-probe test, so that
    every input has the lowest valuation; with kind "deficient" one input
    is replaced by a combination of two others.  The precision ranges
    from just above the largest w, where the seeded first probe exceeds
    the working precision, to beyond the Wronskian valuation."""
    gaps = sorted(draw(st.sets(st.integers(0, 8), min_size=2, max_size=5)))
    k = len(gaps)
    prec = draw(st.integers(gaps[-1] + 1, sum(gaps) - k * gaps[0] + gaps[0] + 4))
    coeff = st.fractions(-5, 5, max_denominator=3)
    echelon = [
        QSeries([F(0)] * w + [F(1)]
                + draw(st.lists(coeff, min_size=prec - w - 1,
                                max_size=prec - w - 1)), prec)
        for w in gaps
    ]
    nonzero = coeff.filter(bool)
    fs = [echelon[0]]
    for i in range(1, k):
        acc = echelon[i] + echelon[0].scaled(draw(nonzero))
        for j in range(1, i):
            acc = acc + echelon[j].scaled(draw(coeff))
        fs.append(acc)
    if k >= 3 and draw(st.sampled_from(["full", "deficient"])) == "deficient":
        i, j = draw(st.permutations(range(k - 1)))[:2]
        fs[-1] = fs[i].scaled(draw(nonzero)) + fs[j].scaled(draw(coeff))
    return draw(st.permutations(fs))


@given(colliding_lists())
@settings(max_examples=80, deadline=None)
def test_wronskian_valuation_does_not_depend_on_the_probes(fs):
    # The Laplace determinant of the explicit reduced matrix at the full
    # working precision is the reference; the probe may only change how
    # much work is done.
    prec = min(f.prec for f in fs)
    vals = [f.valuation() for f in fs]
    if None in vals:
        with pytest.raises(DependentInput):
            wronskian_valuation(fs)
        return
    working = prec - max(vals)
    want = _reference_det(_reduced_matrix(fs, vals, working),
                          working).valuation()
    if want is None:
        with pytest.raises(PrecisionError):
            wronskian_valuation(fs)
    else:
        assert wronskian_valuation(fs) == sum(vals) + want


def test_wronskian_valuation_rejects_zero_input():
    with pytest.raises(DependentInput):
        wronskian_valuation([qs(1, 1, prec=3), QSeries.zero(3)])
    with pytest.raises(DependentInput):
        wronskian_valuation([QSeries.zero(3)])


def test_wronskian_valuation_of_one_input_is_its_valuation():
    assert wronskian_valuation([qs(0, 0, 3, 1, prec=4)]) == 2


@given(series_lists(k_min=2, k_max=3, prec=10))
@settings(max_examples=60)
def test_wronskian_valuation_agrees_with_direct_series(fs):
    w = q_wronskian(fs)
    if w.valuation() is None:
        return
    assert wronskian_valuation(fs) == w.valuation()


# -- arithmetic helpers ----------------------------------------------------------------


def test_wronskian_weight_values():
    assert wronskian_weight(2, 12) == 26
    assert wronskian_weight(1, 8) == 8
    assert wronskian_weight(4, 36) == 156
    assert scalar_exponent(4) == 6
    assert scalar_exponent(1) == 0


def test_elliptic_order_values():
    assert elliptic_wronskian_order(1, 1, 1) == 1
    assert elliptic_wronskian_order(3, 2, 2) == 1
    assert elliptic_wronskian_order(9, 3, 3) == 2
    assert elliptic_wronskian_order(4, 2, 4) == F(3, 4)


def test_elliptic_order_rejects_bad_period():
    with pytest.raises(DomainError):
        elliptic_wronskian_order(3, 2, 0)
