"""End-to-end acceptance suite.

One test per item of the package checklist; each prints a single
"acceptance N: PASS" line on success (run with -s to see them; the pytest
-v status column carries the same information).  Expected values are exact
integers and rationals throughout — no floating point, no tolerances.
"""

import hashlib
import json
import random
import time
from fractions import Fraction as F
from math import comb

from conftest import (
    GOLDEN_DIR,
    FIXTURE_LEVELS,
    load_fixture,
    matrix_product,
    random_basis_change,
    rat_matrix,
)
from qweier.exactlinalg import echelon_reduce, pivot_columns
from qweier.level1 import (
    MonomialExponent,
    delta,
    delta_product_oracle,
    dim_m,
    eisenstein_e4,
    eisenstein_e6,
    express_in_monomials,
    m_basis,
    monomial_series,
)
from qweier.qseries import QSeries
from qweier.surface import (
    GENUS_LT_2,
    HYPERELLIPTIC,
    NOT_HYPERELLIPTIC,
    SL2Z_SIGNATURE,
    dim_modular_forms,
    gamma0_invariants,
)
from qweier.weierstrass import (
    _monomial_matrix,
    monomials,
    subspace_dimension,
    weierstrass_test,
    wronskian_criterion,
)
from qweier.wronskian import (
    q_wronskian,
    span_valuations,
    wronskian_valuation,
    wronskian_weight,
)


def _passed(number, text):
    print("acceptance %d: PASS — %s" % (number, text))


def _d_dq(s):
    """Plain d/dq: one coefficient of precision is spent."""
    return QSeries(
        [(n + 1) * s.coeffs[n + 1] for n in range(s.prec - 1)], s.prec - 1
    )


_REPORTS = {}


def report_for(level, m):
    """weierstrass_test on a bundled basis, timed and cached."""
    key = (level, m)
    if key not in _REPORTS:
        inv = gamma0_invariants(level)
        start = time.perf_counter()
        report = weierstrass_test(
            load_fixture(level), m, inv.signature,
            hyperelliptic_status=inv.hyperelliptic_status)
        _REPORTS[key] = (report, time.perf_counter() - start)
    return _REPORTS[key]


# -- 1: the discriminant form three ways ---------------------------------------


def test_criterion_1_discriminant_identities():
    start = time.perf_counter()
    e4 = eisenstein_e4(60)
    e6 = eisenstein_e6(60)
    dl = delta(60)
    assert dl.scaled(1728) == e4 ** 3 - e6 ** 2
    assert [dl.coeff(1), dl.coeff(2), dl.coeff(3)] == [1, -24, 252]
    assert delta(50) == delta_product_oracle(50)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed
    _passed(1, "1728*Delta = E4^3 - E6^2 (prec 60), eta oracle (prec 50), "
               "%.2fs" % elapsed)


# -- 2: the first Wronskian identity -------------------------------------------


def test_criterion_2_wronskian_of_e4_cubed_and_e6_squared():
    e4 = eisenstein_e4(40)
    e6 = eisenstein_e6(40)
    w = q_wronskian([e4 ** 3, e6 ** 2])
    assert w == (delta(40) * e4 ** 2 * e6).scaled(-1728)

    # the same identity stated through plain derivatives: the factor q of
    # q*d/dq cancels one power of q from Delta
    e4p = eisenstein_e4(41)
    e6p = eisenstein_e6(41)
    lhs = e4p.truncated(40).scaled(2) * _d_dq(e6p) \
        - e6p.truncated(40).scaled(3) * _d_dq(e4p)
    dl = delta(41)
    rhs = QSeries(dl.coeffs[1:], 40).scaled(-1728)
    assert lhs == rhs
    _passed(2, "W_q(E4^3, E6^2) = -1728*Delta*E4^2*E6 and "
               "2E4*E6' - 3E6*E4' = -1728*Delta/q (prec 40)")


# -- 3: Wronskians of the weight-12t monomial families -------------------------


def test_criterion_3_lambda_values():
    prec = 80
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    dl = delta(prec)
    a, b = e4 ** 3, e6 ** 2
    expected_lambdas = {1: -1728, 2: -2 * 1728 ** 3, 3: 12 * 1728 ** 6}
    for t, lam in expected_lambdas.items():
        fs = [a ** u * b ** (t - u) for u in range(t, -1, -1)]
        w = q_wronskian(fs)
        half = t * (t + 1) // 2
        quotient = w.exact_div(dl ** half)
        combo = express_in_monomials(
            quotient, wronskian_weight(t + 1, 12 * t) - 12 * half)
        assert combo == [(MonomialExponent(t * (t + 1), half), F(lam))]
    _passed(3, "lambda(1..3) = -1728, -2*1728^3, 12*1728^6 (prec 80)")


# -- 4: dimension formula against the level-1 closed form ----------------------


def test_criterion_4_dimension_formulas_cross_check():
    for m in range(4, 61, 2):
        assert dim_modular_forms(SL2Z_SIGNATURE, m) == dim_m(m)
    _passed(4, "dim M_m matches the closed level-1 formula for even m in 4..60")


# -- 5: Gamma_0(N) invariants ---------------------------------------------------


GENUS_ZERO = set(range(1, 11)) | {12, 13, 16, 18, 25}
GENUS_ONE = {11, 14, 15, 17, 19, 20, 21, 24, 27, 32, 36, 49}
HYPERELLIPTIC_STATUS = {
    34: NOT_HYPERELLIPTIC,
    35: HYPERELLIPTIC,
    38: NOT_HYPERELLIPTIC,
    44: NOT_HYPERELLIPTIC,
    54: NOT_HYPERELLIPTIC,
    55: NOT_HYPERELLIPTIC,
    60: NOT_HYPERELLIPTIC,
}


def test_criterion_5_gamma0_invariants():
    for n in range(1, 501):
        genus = gamma0_invariants(n).signature.genus
        assert (genus == 0) == (n in GENUS_ZERO), n
        assert (genus == 1) == (n in GENUS_ONE), n
    for n, expected in HYPERELLIPTIC_STATUS.items():
        inv = gamma0_invariants(n)
        assert inv.hyperelliptic_status == expected, n
        assert inv.hyperelliptic_status != GENUS_LT_2
    _passed(5, "genus-0/1 level lists complete to N = 500; hyperelliptic "
               "statuses for the seven bundled levels")


# -- 6: Weierstrass verdicts and the published echelon rows --------------------


VERDICTS = {
    (34, 2): False, (34, 4): False, (34, 6): False, (34, 8): False,
    (34, 10): False,
    (55, 2): False, (55, 4): True, (55, 6): True, (55, 8): True,
    (55, 10): True,
}


def _parse_golden(path):
    width = None
    count = None
    rows = []
    exp = combo = None
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "WIDTH":
            width = int(rest)
        elif key == "ROWS":
            count = int(rest)
        elif key == "ROW":
            if exp is not None:
                rows.append((exp, combo))
            exp = combo = None
        elif key == "EXP":
            exp = {int(n): F(c) for n, c in
                   (tok.split(":") for tok in rest.split())}
        elif key == "COMB":
            combo = {int(j): F(c) for j, c in
                     (tok.split(":") for tok in rest.split())}
    rows.append((exp, combo))
    assert width is not None and len(rows) == count
    return width, rows


def _reduce_against(rows, target):
    """Subtract multiples of echelon rows from target; the remainder is
    zero exactly when target lies in their span."""
    for row in rows:
        piv = int(row.valuation())
        c = target.coeff(piv)
        if c != 0:
            target = target - row.scaled(c / row.coeff(piv))
    return target


#: Rows of the reference echelon files that the deterministic elimination
#: schedule reproduces up to the stated scalar.  The remaining rows of the
#: level-55 file mix pivots in a schedule-dependent way; for those the
#: span-membership certificate below is the meaningful comparison.
GOLDEN_SCALARS = {
    34: {0: F(1), 1: F(1), 2: F(1), 3: F(-1), 4: F(-1), 5: F(-17)},
    55: {0: F(1), 1: F(1), 2: F(1), 3: F(1), 4: F(1), 11: F(-22)},
}


def test_criterion_6_weierstrass_fixtures():
    for (level, m), expected in sorted(VERDICTS.items()):
        report, elapsed = report_for(level, m)
        assert report.is_weierstrass == expected, (level, m)
        assert elapsed < 10.0, "(%d, %d) took %.2fs" % (level, m, elapsed)

    report34, _ = report_for(34, 4)
    assert report34.gap_sequence == (2, 3, 4, 5, 6, 7)
    report55, _ = report_for(55, 4)
    assert report55.gap_sequence == (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14)

    for level, report in ((34, report34), (55, report55)):
        basis = load_fixture(level)
        mono = [s for _, s in monomials(basis, 4)]
        width, golden = _parse_golden(GOLDEN_DIR / ("g0n%d_m4.echelon" % level))
        assert len(golden) == report.rank
        for i, (exp, combo) in enumerate(golden):
            # the published combination of monomials reproduces the
            # published expansion exactly
            full = QSeries.zero(basis.prec)
            for j, c in combo.items():
                full = full + mono[j].scaled(c)
            published = QSeries([exp.get(n, F(0)) for n in range(width)], width)
            assert full.truncated(width) == published, (level, i)
            # and it lies in the span of the computed echelon rows
            assert _reduce_against(report.rows, full).valuation() is None, \
                (level, i)
            # where the deterministic schedule pins the row, it agrees up
            # to the recorded scalar
            scalar = GOLDEN_SCALARS[level].get(i)
            if scalar is not None:
                assert report.rows[i].scaled(scalar).truncated(width) \
                    == published, (level, i)
    _passed(6, "verdicts for X_0(34)/X_0(55) at m = 2..10; m = 4 gap "
               "sequences and the 6 + 12 published echelon rows")


# -- 7: monomial ranks --------------------------------------------------------


def test_criterion_7_monomial_ranks():
    # Every even m from 4 to 14 whose required precision the fixture holds.
    for level, weights in (
        (34, range(4, 15, 2)), (38, range(4, 15, 2)), (44, range(4, 15, 2)),
        (55, range(4, 15, 2)), (54, range(4, 15, 2)), (60, range(4, 13, 2)),
    ):
        basis = load_fixture(level)
        g = basis.genus
        for m in weights:
            assert subspace_dimension(basis, m) == (m - 1) * (g - 1), (level, m)
    basis35 = load_fixture(35)
    for m in range(4, 15, 2):
        assert subspace_dimension(basis35, m) == m + 1, m
    basis37 = load_fixture(37)
    for m in range(4, 15, 2):
        assert subspace_dimension(basis37, m) == m // 2 + 1, m
    _passed(7, "rank (m-1)(g-1) on six non-hyperelliptic levels; rank m+1 "
               "on hyperelliptic X_0(35) and m/2+1 on genus-2 X_0(37)")


# -- 8: property suites -------------------------------------------------------


def _random_series_list(rng, k, prec):
    return [
        QSeries([F(rng.randrange(-5, 6)) for _ in range(prec)], prec)
        for _ in range(k)
    ]


def test_criterion_8a_wronskian_properties_on_200_instances():
    rng = random.Random(801)
    prec = 9
    for instance in range(200):
        k = rng.randrange(2, 5)
        fs = _random_series_list(rng, k, prec)
        kind = instance % 3
        if kind == 0:
            # alternating: swapping two inputs flips the sign
            i, j = rng.sample(range(k), 2)
            swapped = list(fs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert q_wronskian(swapped) == -q_wronskian(fs)
        elif kind == 1:
            # multilinear in each slot: scaling and addition pass through
            i = rng.randrange(k)
            c = F(rng.randrange(-4, 5), rng.randrange(1, 4))
            scaled = list(fs)
            scaled[i] = fs[i].scaled(c)
            assert q_wronskian(scaled) \
                == q_wronskian(fs).scaled(c)
            g = QSeries([F(rng.randrange(-5, 6)) for _ in range(prec)], prec)
            summed = list(fs)
            summed[i] = fs[i] + g
            other = list(fs)
            other[i] = g
            assert q_wronskian(summed) \
                == q_wronskian(fs) + q_wronskian(other)
        else:
            # a dependent list has an identically zero Wronskian
            coeffs = [F(rng.randrange(-3, 4)) for _ in range(k - 1)]
            combo = QSeries.zero(prec)
            for c, s in zip(coeffs, fs[:-1]):
                combo = combo + s.scaled(c)
            dependent = fs[:-1] + [combo]
            assert q_wronskian(dependent).valuation() is None
    _passed(8, "A: alternating/multilinear/dependence-vanishing on 200 "
               "random instances")


def test_criterion_8b_cusp_order_identity_on_families():
    # level-1 monomial families for t = 1, 2, 3
    e4 = eisenstein_e4(40)
    e6 = eisenstein_e6(40)
    a, b = e4 ** 3, e6 ** 2
    for t in (1, 2, 3):
        fs = [a ** u * b ** (t - u) for u in range(t, -1, -1)]
        assert wronskian_valuation(fs) == sum(span_valuations(fs))

    # every bundled weight-2 basis
    for level in FIXTURE_LEVELS:
        fs = load_fixture(level).series_list()
        assert wronskian_valuation(fs) == sum(span_valuations(fs)), level

    # the degree-2 monomial families behind criterion 6: at level 34 the
    # six monomials are independent; at level 55 they are not, so the
    # identity is checked on an echelon basis of their span
    fs34 = [s for _, s in monomials(load_fixture(34), 4)]
    assert wronskian_valuation(fs34) == sum(span_valuations(fs34))
    rows55 = report_for(55, 4)[0].rows
    assert wronskian_valuation(rows55) == sum(span_valuations(rows55))

    # 100 random subsets of level-1 monomial bases, optionally shifted
    # into the cuspidal range by a common Delta power
    rng = random.Random(802)
    checked = 0
    while checked < 100:
        w = 2 * rng.randrange(8, 25)
        basis = m_basis(w)
        if len(basis) < 2:
            continue
        size = rng.randrange(2, min(4, len(basis)) + 1)
        chosen = rng.sample(basis, size)
        j = rng.randrange(0, 3)
        dl = delta(30) ** j if j else QSeries.one(30)
        fs = [monomial_series(exp, 30) * dl for exp in chosen]
        assert wronskian_valuation(fs) == sum(span_valuations(fs))
        checked += 1
    _passed(8, "B: Wronskian valuation = span-valuation total on all "
               "fixture families and 100 random level-1 subsets")


def test_criterion_8c_report_is_basis_invariant():
    rng = random.Random(803)
    for level in FIXTURE_LEVELS:
        basis = load_fixture(level)
        inv = gamma0_invariants(level)
        baseline = weierstrass_test(
            basis, 4, inv.signature,
            hyperelliptic_status=inv.hyperelliptic_status)
        for _ in range(20):
            changed = random_basis_change(basis, rng)
            report = weierstrass_test(
                changed, 4, inv.signature,
                hyperelliptic_status=inv.hyperelliptic_status)
            assert report.rank == baseline.rank, level
            assert report.gap_sequence == baseline.gap_sequence, level
            assert report.is_weierstrass == baseline.is_weierstrass, level
            assert report.flags == baseline.flags, level
    _passed(8, "C: rank/gaps/verdict/flags invariant under 20 random "
               "changes of basis per bundled level")


def _criterion_8d_matrices():
    """40 seeded random Fraction matrices, each with a row permutation."""
    rng = random.Random(804)
    for _ in range(40):
        r = rng.randrange(2, 7)
        c = rng.randrange(r, 9)
        entries = [
            [F(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(c)]
            for _ in range(r)
        ]
        # sprinkle exact zeros so leading-zero structure varies
        for _ in range(r * c // 3):
            entries[rng.randrange(r)][rng.randrange(c)] = F(0)
        perm = list(range(r))
        rng.shuffle(perm)
        yield entries, c, perm


def test_criterion_8d_echelon_invariants_on_random_matrices():
    for entries, c, perm in _criterion_8d_matrices():
        r = len(entries)
        matrix = rat_matrix(entries, c)
        result = echelon_reduce(matrix)
        assert matrix_product(rat_matrix(result.combinations(), r),
                              matrix) == result.echelon.entries[:result.rank]
        assert list(result.pivots) == sorted(result.pivots)
        assert result.rank == len(result.pivots)
        for i in range(result.rank, r):
            assert all(x == 0 for x in result.echelon.entries[i])
        assert pivot_columns(matrix) == list(result.pivots)
        shuffled = rat_matrix([entries[i] for i in perm], c)
        assert pivot_columns(shuffled) == list(result.pivots)
    _passed(8, "D: combinations*input = echelon rows and pivot-set "
               "permutation invariance on 40 random matrices")


#: sha256 of the exact core's output on the 12 bench verdict matrices,
#: (55, 10), (60, 10) and the 40 criterion-8d matrices: echelon
#: numerators, pivots, rank and combinations.  A change to it
#: is a change to the rows the engine reports.
EXACT_CORE_SHA256 = (
    "8922443309ebbf5df5fc630c8e20088b8e2e1ce53af4893134f0f2ed28e30507")


def test_exact_core_digest_is_pinned():
    cases = ([(34, m) for m in range(2, 11, 2)]
             + [(55, m) for m in range(2, 9, 2)]
             + [(38, 10), (44, 10), (60, 8), (55, 10), (60, 10)])
    matrices = [_monomial_matrix(load_fixture(n), m, load_fixture(n).prec)[1]
                for n, m in cases]
    matrices += [rat_matrix(entries, c)
                 for entries, c, _ in _criterion_8d_matrices()]
    digest = hashlib.sha256()
    for matrix in matrices:
        result = echelon_reduce(matrix)
        digest.update(json.dumps([
            [list(row) for row in result.echelon.nums],
            list(result.pivots),
            result.rank,
            [[str(x) for x in c] for c in result.combinations()],
        ]).encode())
    assert digest.hexdigest() == EXACT_CORE_SHA256
    _passed(8, "E: the exact core's output on %d matrices matches its "
               "pinned sha256" % len(matrices))


# -- 9: the two verdict routes agree -------------------------------------------


def test_criterion_9_gap_and_wronskian_verdicts_agree():
    for (level, m) in sorted(VERDICTS):
        report, _ = report_for(level, m)
        order, bound, wronskian_verdict = wronskian_criterion(report.rows, m)
        assert order == sum(report.gap_sequence), (level, m)
        assert wronskian_verdict == report.is_weierstrass, (level, m)
        assert wronskian_verdict == VERDICTS[(level, m)], (level, m)
    _passed(9, "Wronskian-order verdict matches the gap verdict on every "
               "criterion-6 pair")
