import hashlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qweier.cli
import qweier.weierstrass
from conftest import FIXTURE_LEVELS, fixture_path, load_fixture
from qweier.cli import cli_dispatch, format_gaps
from qweier.ingest import BasisFile, serialize
from qweier.level1 import (
    MonomialExponent,
    delta,
    eisenstein_e4,
    eisenstein_e6,
    express_in_monomials,
)
from qweier.qseries import QSeries
from qweier.surface import gamma0_invariants
from qweier.weierstrass import weierstrass_test
from qweier.wronskian import q_wronskian, wronskian_weight


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


FIX34 = str(fixture_path(34))
FIX35 = str(fixture_path(35))
FIX37 = str(fixture_path(37))
FIX55 = str(fixture_path(55))


# -- gap formatting -----------------------------------------------------------


def test_format_gaps():
    assert format_gaps([2, 3, 4, 5, 6, 7]) == "2..7"
    assert format_gaps([2, 3, 4, 5, 6, 7, 9]) == "2..7, 9"
    assert format_gaps([1, 2]) == "1, 2"
    assert format_gaps([5]) == "5"
    assert format_gaps([]) == "(empty)"
    assert format_gaps([2, 3, 4, 6, 8, 9, 10]) == "2..4, 6, 8..10"


# -- signature ----------------------------------------------------------------


def test_signature_table():
    code, out, err = run("signature", "34")
    assert code == 0 and err == ""
    assert out == (
        "Gamma_0(34)\n"
        "  index          54\n"
        "  nu_2           2\n"
        "  nu_3           0\n"
        "  cusps          4\n"
        "  genus          3\n"
        "  hyperelliptic  no\n"
    )


def test_signature_low_genus_and_hyperelliptic_wording():
    _, out, _ = run("signature", "11")
    assert "hyperelliptic  not applicable (genus < 2)" in out
    _, out, _ = run("signature", "35")
    assert "hyperelliptic  yes" in out


def test_signature_rejects_level_zero():
    code, _, err = run("signature", "0")
    assert code == 1 and "error:" in err


# -- dims ---------------------------------------------------------------------


def test_dims_for_level_34():
    code, out, _ = run("dims", "34", "4")
    assert code == 0
    assert out == (
        "dim S_4 = 12, dim S^H_4 = 6, dim M_4 = 16, deg c' = 18, deg c = 14\n"
    )


def test_dims_from_signature_file(tmp_path):
    sigfile = tmp_path / "mod.sig"
    sigfile.write_text("# full modular group\nGENUS 0\nCUSPS 1\nELLIPTIC 2 3\n")
    code, out, _ = run("dims", str(sigfile), "12")
    assert code == 0
    assert out == (
        "dim S_12 = 1, dim S^H_12 = 0, dim M_12 = 2, deg c' = 1, deg c = 0\n"
    )


@pytest.mark.parametrize("cusps,area", [(1, -1), (2, 0)])
def test_dims_rejects_a_signature_of_no_fuchsian_group(tmp_path, cusps, area):
    sigfile = tmp_path / "flat.sig"
    sigfile.write_text("GENUS 0\nCUSPS %d\n" % cusps)
    code, out, err = run("dims", str(sigfile), "12")
    assert (code, out) == (1, "")
    assert err == (
        "error: no Fuchsian group of the first kind has signature "
        "SurfaceSignature(genus=0, cusps=%d, elliptic=[]): "
        "2g - 2 + t + sum(1 - 1/e) = %d <= 0\n" % (cusps, area))


def test_dims_rejects_bad_signature_file(tmp_path):
    sigfile = tmp_path / "bad.sig"
    sigfile.write_text("GENUS 2\nCUSPS x\n")
    code, _, err = run("dims", str(sigfile), "4")
    assert code == 1 and "line 2" in err


# -- level1 verify ------------------------------------------------------------


def test_level1_verify_reports_lambda():
    code, out, _ = run("level1", "verify", "--tmax", "1")
    assert code == 0
    assert out == (
        "lambda(1) = -1728\n"
        "level1 verify: OK for t = 1..1 "
        "(W_q = lambda * Delta^(t(t+1)/2) * E4^(t(t+1)) * E6^(t(t+1)/2))\n"
    )


def test_level1_verify_two_steps():
    code, out, _ = run("level1", "verify", "--tmax", "2", "--prec", "30")
    assert code == 0
    assert "lambda(2) = -10319560704\n" in out


def test_level1_verify_names_the_precision_a_step_needs():
    # At t = 2, Delta^3 vanishes modulo q^3: the error names the precision
    # t = 2 needs instead of a division by a series that reads as zero.
    code, out, err = run("level1", "verify", "--tmax", "3", "--prec", "3")
    assert code == 1
    assert out == "lambda(1) = -1728\n"
    assert err == (
        "error: t = 2 needs --prec at least 8 (3 for Delta^3 and 5 to "
        "certify the weight-42 quotient), got 3\n")
    code, out, _ = run("level1", "verify", "--tmax", "2", "--prec", "8")
    assert code == 0 and "lambda(2) = -10319560704\n" in out


def test_level1_verify_five_steps_byte_for_byte():
    # t = 3..5 take the deepest power ladders and the heaviest quotients
    # (weight 210 at t = 5), each checked against its one monomial.
    code, out, _ = run("level1", "verify", "--tmax", "5", "--prec", "40")
    assert code == 0
    assert out == (
        "lambda(1) = -1728\n"
        "lambda(2) = -10319560704\n"
        "lambda(3) = 319479999370622926848\n"
        "lambda(4) = 68364378374333704222737683932250112\n"
        "lambda(5) = -126394974305585413518438684379757865623988230600785920\n"
        "level1 verify: OK for t = 1..5 "
        "(W_q = lambda * Delta^(t(t+1)/2) * E4^(t(t+1)) * E6^(t(t+1)/2))\n"
    )


def test_level1_verify_agrees_with_the_monomial_solve():
    # The CLI compares W_q with lambda times one product; the monomial solve
    # over the whole basis of the quotient's weight is one oracle.  The
    # other is the closed form: W(g, g x, ..., g x^t) = g^(t+1) prod k!
    # (theta x)^h with x = E4^3/E6^2, theta x = 1728 Delta E4^2 E6/E6^4 by
    # Ramanujan's identities, and the reversed column order gives (-1)^h.
    prec = 60
    code, out, _ = run("level1", "verify", "--tmax", "6", "--prec", str(prec))
    assert code == 0
    lines = out.splitlines()
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    for t in range(1, 7):
        half = t * (t + 1) // 2
        fs = [e4 ** (3 * u) * e6 ** (2 * (t - u)) for u in range(t, -1, -1)]
        quotient = q_wronskian(fs).exact_div(delta(prec) ** half)
        weight = wronskian_weight(t + 1, 12 * t) - 12 * half
        ((exponent, lam),) = express_in_monomials(quotient, weight)
        assert exponent == MonomialExponent(t * (t + 1), half)
        assert lines[t - 1] == "lambda(%d) = %s" % (t, lam)
        closed = (-1728) ** half * math.prod(
            math.factorial(k) for k in range(1, t + 1))
        assert lines[t - 1] == "lambda(%d) = %d" % (t, closed)


def _replaced_at_t2(change):
    """q_wronskian with the t = 2 Wronskian series w replaced by change(w)."""
    def fake(fs):
        w = q_wronskian(fs)
        if len(fs) != 3:
            return w
        return change(w)
    return fake


def _plus_other_weight_42_form(w):
    # Adds Delta^3 times E4^9 * E6, a weight-42 monomial other than
    # E4^6 * E6^3.
    e4 = eisenstein_e4(w.prec)
    e6 = eisenstein_e6(w.prec)
    return w + delta(w.prec) ** 3 * e4 ** 9 * e6


_L1_FAILED_T2 = ("lambda(1) = -1728\n"
                 "t = 2: FAILED (quotient by Delta^3 is not a multiple of "
                 "E4^6 * E6^3)\n")


@pytest.mark.parametrize("change, expected", [
    # q^4 / Delta^3 = q + O(q^2) is no weight-42 form.
    (lambda w: w + QSeries.monomial(1, 4, w.prec),
     ("lambda(1) = -1728\n",
      "error: not a weight-42 form of the full group at precision 37\n")),
    (_plus_other_weight_42_form, (_L1_FAILED_T2, "")),
    (lambda w: QSeries.zero(w.prec), (_L1_FAILED_T2, "")),
], ids=["outside-the-span", "another-form", "zero"])
def test_level1_verify_failures_byte_for_byte(monkeypatch, change, expected):
    # A quotient that is no nonzero multiple of its monomial goes through
    # the monomial solve over the whole basis, which names the failure.
    monkeypatch.setattr(qweier.cli, "q_wronskian", _replaced_at_t2(change))
    code, out, err = run("level1", "verify", "--tmax", "3", "--prec", "40")
    assert (code, out, err) == (1,) + expected


def test_level1_verify_product_budget(monkeypatch):
    # Fixed counts, unlike wall clock; cached Eisenstein series and Delta
    # only lower them.  Every exact_div is a unit inverse inside a
    # Wronskian: a passing step divides by no power of Delta.  Each step
    # works modulo its own q^needed, not q^--prec, which the output
    # coefficients of the products show.
    calls = {"__mul__": 0, "exact_div": 0, "out_coeffs": 0}
    product, divide = QSeries.__mul__, QSeries.exact_div

    def counted_product(a, b):
        calls["__mul__"] += 1
        result = product(a, b)
        calls["out_coeffs"] += result.prec
        return result

    def counted_divide(a, b):
        calls["exact_div"] += 1
        return divide(a, b)
    monkeypatch.setattr(QSeries, "__mul__", counted_product)
    monkeypatch.setattr(QSeries, "exact_div", counted_divide)
    code, _, _ = run("level1", "verify", "--tmax", "5", "--prec", "40")
    assert code == 0
    assert 0 < calls["__mul__"] <= 118
    assert 0 < calls["exact_div"] <= 15
    assert 0 < calls["out_coeffs"] <= 2700


def test_level1_verify_makes_no_products_past_a_refused_step(monkeypatch):
    # At --prec 40, --tmax 1000 refuses t = 6 after the five steps that
    # --tmax 5 passes, so it makes no more products: the inputs grow with
    # the steps, not up to --tmax in advance.  Each run is made once
    # before counting, so both find Eisenstein series and Delta cached.
    short = ("level1", "verify", "--tmax", "5", "--prec", "40")
    long = ("level1", "verify", "--tmax", "1000", "--prec", "40")
    assert run(*long) == (1, (
        "lambda(1) = -1728\n"
        "lambda(2) = -10319560704\n"
        "lambda(3) = 319479999370622926848\n"
        "lambda(4) = 68364378374333704222737683932250112\n"
        "lambda(5) = -126394974305585413518438684379757865623988230600785920\n"
    ), "error: t = 6 needs --prec at least 47 (21 for Delta^21 and 26 to "
       "certify the weight-294 quotient), got 40\n")
    assert run(*short)[0] == 0
    calls = []
    product = QSeries.__mul__

    def counted_product(a, b):
        calls.append(1)
        return product(a, b)
    monkeypatch.setattr(QSeries, "__mul__", counted_product)
    run(*short)
    short_calls = len(calls)
    run(*long)
    assert 0 < len(calls) - short_calls <= short_calls


@pytest.mark.parametrize("prec", ["40", "200"])
def test_level1_verify_works_at_the_certified_precision(monkeypatch, prec):
    seen = []

    def spy(fs):
        seen.append({f.prec for f in fs})
        return q_wronskian(fs)
    monkeypatch.setattr(qweier.cli, "q_wronskian", spy)
    code, _, _ = run("level1", "verify", "--tmax", "5", "--prec", prec)
    assert code == 0
    assert seen == [{3}, {8}, {15}, {23}, {34}]


def test_level1_certified_precision_exceeds_the_valence_bound():
    # W_q - lambda * R_t has weight w = 13t(t+1); a nonzero level-1 form of
    # weight w vanishes to order at most w/12.
    for t in range(1, 201):
        half, rest_weight, needed = qweier.cli._level1_step(t)
        assert (half, rest_weight) == (t * (t + 1) // 2, 7 * t * (t + 1))
        assert 12 * needed > 13 * t * (t + 1)


_L1_CASES = (
    [["--tmax", str(t), "--prec", "40"] for t in range(1, 8)]
    + [["--tmax", "5", "--prec", "60"], ["--tmax", "6", "--prec", "60"]]
    + [["--tmax", "4", "--prec", p] for p in ("3", "8", "20")]
    + [["--tmax", "3", "--prec", p] for p in ("3", "19")]
    + [["--tmax", "2", "--prec", "8"], ["--tmax", "7", "--prec", "60"],
       ["--tmax", "8", "--prec", "80"]])


def test_level1_verify_outputs_match_the_full_precision_route():
    # Recorded when every step compared all --prec coefficients: passes,
    # precision errors after some lambdas, and --tmax 8 at --prec 80.
    rows = [[["level1", "verify"] + a] + list(run("level1", "verify", *a))
            for a in _L1_CASES]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == (
        "c86cca9c48287cdbedbe9b4fb8b52596976541c85ba7cc607d17408f9c92fe76")


# -- wronskian ----------------------------------------------------------------


def test_wronskian_on_genus_two_fixture():
    code, out, _ = run("wronskian", FIX37)
    assert code == 0
    assert out == (
        "forms: 2, weight 2, precision 30\n"
        "q-Wronskian weight: 6\n"
        "span valuations: 1 2 (total 3)\n"
        "q-Wronskian valuation: 3\n"
        "cusp-order identity: OK (3 = 3)\n"
    )


def test_wronskian_rejects_dependent_forms(tmp_path):
    text = (
        "QEXP 1\nLEVEL test\nWEIGHT 2\nPREC 4\nFORMS 2\n"
        "FORM f0\n0 1 0 0\nFORM f1\n0 2 0 0\n"
    )
    path = tmp_path / "dep.qexp"
    path.write_text(text)
    code, _, err = run("wronskian", str(path))
    assert code == 1 and "error:" in err


def test_wronskian_on_nine_forms_sharing_one_exponent(tmp_path):
    # The echelon rows of X_0(60) at m = 6 lead with q^3 ... q^11; adding
    # the first to the other eight puts all nine on q^3, so the reduced
    # determinant vanishes to order 63 - 27 = 36 and every pivot of the
    # series elimination after the first has positive valuation.
    inv = gamma0_invariants(60)
    rows = weierstrass_test(
        load_fixture(60), 6, inv.signature,
        hyperelliptic_status=inv.hyperelliptic_status).rows
    fs = [rows[0]] + [r + rows[0] for r in rows[1:9]]
    prec = fs[0].prec
    path = tmp_path / "x60_m6_k9.qexp"
    path.write_text(serialize(BasisFile(
        "Gamma0(60)", 6, prec,
        [("r%d" % i, f.coeffs) for i, f in enumerate(fs)])))
    code, out, err = run("wronskian", str(path))
    assert (code, err) == (0, "")
    assert "q-Wronskian valuation: 63\n" in out
    assert out.endswith("cusp-order identity: OK (63 = 63)\n")


# -- weierstrass --------------------------------------------------------------


def test_weierstrass_level34_weight4():
    code, out, _ = run("weierstrass", FIX34, "--weight", "4", "--level", "34")
    assert code == 0
    assert "gap sequence 2..7\n" in out
    assert "is NOT a 2-Weierstrass point" in out
    rows = out.split("echelon rows:\n", 1)[1].splitlines()
    assert len(rows) == 6 and all(r.startswith("  q") or "*q" in r for r in rows)


def test_weierstrass_level55_weight4():
    code, out, _ = run("weierstrass", FIX55, "--weight", "4", "--level", "55")
    assert code == 0
    assert "gap sequence 2..10, 12..14\n" in out
    assert "IS a 2-Weierstrass point" in out


#: sha256 of json.dumps([level, m, extra, code, stdout, stderr]) over
#: `weierstrass <fixture> --weight m` plus extra, [] or ["--level",
#: level], for the eight fixtures and m = 2, 4, ..., 10, as computed at
#: e5116b8, where weierstrass_test still solved for the combinations.
WEIERSTRASS_CLI_SHA256 = (
    "4c1acf93e7b9a28f443b9b6a1b0a466abfd2d45b949a139298be408398555ba6")


def test_weierstrass_never_solves_for_the_combinations(monkeypatch):
    # The CLI prints no combination, so no invocation may reach the solve,
    # and every byte and exit code stays what it was when one ran.
    calls = []
    solve = qweier.weierstrass.solve_on_rows

    def spy(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(qweier.weierstrass, "solve_on_rows", spy)
    digest = hashlib.sha256()
    codes = set()
    for level in FIXTURE_LEVELS:
        for m in (2, 4, 6, 8, 10):
            for extra in ([], ["--level", str(level)]):
                code, out, err = run("weierstrass", str(fixture_path(level)),
                                     "--weight", str(m), *extra)
                codes.add(code)
                digest.update(json.dumps(
                    [level, m, extra, code, out, err]).encode())
    assert calls == []
    assert codes == {0, 1}
    assert digest.hexdigest() == WEIERSTRASS_CLI_SHA256


def test_weierstrass_hyperelliptic_weight4_warns():
    code, out, _ = run("weierstrass", FIX35, "--weight", "4", "--level", "35")
    assert code == 0
    assert "warning: hyperelliptic" in out


def test_weierstrass_hyperelliptic_weight6_fails():
    code, _, err = run("weierstrass", FIX35, "--weight", "6", "--level", "35")
    assert code == 1 and "does not apply" in err


@pytest.mark.parametrize("m", ["4", "6", "8", "10"])
def test_weierstrass_without_level_reads_hyperellipticity_off_the_basis(m):
    # X_0(35) is hyperelliptic of genus 3: its degree-2 monomials have rank
    # 2g - 1 = 5.  Without --level the basis says so itself, and the run
    # matches the --level 35 one past the header.
    bare = run("weierstrass", FIX35, "--weight", m)
    named = run("weierstrass", FIX35, "--weight", m, "--level", "35")
    assert bare[0] == named[0] == (0 if m == "4" else 1)
    assert bare[2] == named[2]
    head, _, rest = bare[1].partition("\n")
    assert head == "Gamma0(35): genus 3 (from form count)"
    assert rest == named[1].partition("\n")[2]


def test_weierstrass_without_level_keeps_the_weight_two_rank_deficit(
        tmp_path):
    # At m = 2 a rank deficit means dependent forms on any curve, so the
    # library's message stands.
    fs = load_fixture(34).series_list()
    path = tmp_path / "dup34.qexp"
    path.write_text(serialize(BasisFile(
        "Gamma0(34)", 2, fs[0].prec,
        [("f%d" % i, f.coeffs) for i, f in enumerate([fs[0], fs[0], fs[1]])])))
    assert run("weierstrass", str(path), "--weight", "2")[2] == (
        "error: the 3 basis forms only span a 2-dimensional space\n")


def test_weierstrass_genus_two_without_level_is_hyperelliptic():
    code, out, _ = run("weierstrass", FIX37, "--weight", "4")
    assert code == 0


@pytest.mark.parametrize("stored, level", [(34, 35), (35, 34)])
def test_weierstrass_rejects_a_level_the_file_contradicts(stored, level):
    path = str(fixture_path(stored))
    code, out, err = run("weierstrass", path, "--weight", "4",
                         "--level", str(level))
    assert (code, out) == (1, "")
    assert err == ("error: %s holds a basis for Gamma0(%d), but --level is "
                   "%d\n" % (path, stored, level))


@pytest.mark.parametrize("stored, level, found, claimed", [
    (34, 35, "NOT_HYPERELLIPTIC", "HYPERELLIPTIC"),
    (35, 34, "HYPERELLIPTIC", "NOT_HYPERELLIPTIC"),
])
def test_weierstrass_level_the_basis_contradicts_is_refused(
        tmp_path, stored, level, found, claimed):
    # Relabeled, the file passes the label check; the degree-2 rank of the
    # basis then contradicts Ogg's status for --level.
    text = fixture_path(stored).read_text(encoding="utf-8").replace(
        "LEVEL Gamma0(%d)" % stored, "LEVEL Gamma0(%d)" % level)
    path = tmp_path / "relabeled.qexp"
    path.write_text(text, encoding="utf-8")
    code, out, err = run("weierstrass", str(path), "--weight", "4",
                         "--level", str(level))
    assert code == 1
    assert out.startswith("Gamma_0(%d): genus 3" % level)
    assert err == ("error: the monomial ranks make the curve %s, against the "
                   "claimed %s\n" % (found, claimed))


@pytest.mark.parametrize("level", ["0", "-3"])
def test_weierstrass_nonpositive_level_is_a_level_error(level):
    # The level is checked before it is compared with the file's label, so
    # the file is not blamed, as with `signature 0`.
    assert run("weierstrass", FIX34, "--weight", "4", "--level", level) == (
        1, "", "error: level must be a positive integer\n")


def test_weierstrass_level_check_leaves_free_text_labels_alone(tmp_path):
    text = fixture_path(34).read_text(encoding="utf-8").replace(
        "LEVEL Gamma0(34)", "LEVEL X_0(34), from modular symbols")
    path = tmp_path / "free_label.qexp"
    path.write_text(text, encoding="utf-8")
    argv = ("--weight", "4", "--level", "34")
    assert run("weierstrass", str(path), *argv) == run(
        "weierstrass", FIX34, *argv)


@pytest.mark.parametrize("text, message", [
    (fixture_path(34).read_text(encoding="utf-8").replace(
        "WEIGHT 2", "WEIGHT 4"),
     "form 'f0' has weight 4; every basis form must have weight 2"),
    ("QEXP 1\nLEVEL x\nWEIGHT 4\nPREC 5\nFORMS 0\n",
     "a cusp basis needs at least one form"),
], ids=["x0_34_weight_4", "no_forms_weight_4"])
def test_weierstrass_basis_file_errors_are_pinned(tmp_path, text, message):
    path = tmp_path / "basis.qexp"
    path.write_text(text, encoding="utf-8")
    for level in ((), ("--level", "34")):
        assert run("weierstrass", str(path), "--weight", "4", *level) == (
            1, "", "error: %s\n" % message)


def _first_forms_of_34(tmp_path, k):
    fs = load_fixture(34).series_list()[:k]
    path = tmp_path / ("first%d_34.qexp" % k)
    path.write_text(serialize(BasisFile(
        "Gamma0(34)", 2, fs[0].prec,
        [("f%d" % i, f.coeffs) for i, f in enumerate(fs)])))
    return str(path)


@pytest.mark.parametrize("forms, argv, message", [
    (3, ("--weight", "5", "--level", "34"),
     "weight must be an even integer >= 2, got 5"),
    (3, ("--weight", "30", "--level", "34"),
     "basis precision 40 is below the 76 coefficients required for genus "
     "3, weight 30"),
    (2, ("--weight", "4", "--level", "34"),
     "signature genus 3 does not match basis genus 2"),
    (1, ("--weight", "4", "--level", "34"),
     "signature genus 3 does not match basis genus 1"),
    (1, ("--weight", "4"),
     "no (m/2)-Weierstrass points exist for genus 0 or 1"),
], ids=["odd_weight", "weight_past_prec", "two_forms", "one_form_level",
        "one_form"])
def test_weierstrass_input_errors_print_nothing(tmp_path, forms, argv,
                                                message):
    # Checked before the header: stdout stays empty on an input error.
    path = FIX34 if forms == 3 else _first_forms_of_34(tmp_path, forms)
    assert run("weierstrass", path, *argv) == (1, "", "error: %s\n" % message)


@pytest.mark.skipif(not 0 < sys.get_int_max_str_digits() < 5000,
                    reason="int() reads 5000-digit integers here")
@pytest.mark.parametrize("token", ["9" * 5000, "1/" + "9" * 5000])
def test_an_integer_past_the_digit_limit_is_a_line_error(tmp_path, token):
    path = tmp_path / "long.qexp"
    path.write_text("QEXP 1\nLEVEL x\nWEIGHT 2\nPREC 2\nFORMS 1\nFORM f\n"
                    "0 %s\n" % token)
    message = ("error: line 7: an integer of 5000 digits is longer than the "
               "%d digits int() reads\n" % sys.get_int_max_str_digits())
    for argv in (["wronskian"], ["weierstrass", "--weight", "2"]):
        assert run(argv[0], str(path), *argv[1:]) == (1, "", message)


def test_wronskian_of_no_forms_prints_nothing(tmp_path):
    path = tmp_path / "empty.qexp"
    path.write_text("QEXP 1\nLEVEL x\nWEIGHT 2\nPREC 5\nFORMS 0\n")
    assert run("wronskian", str(path)) == (
        1, "", "error: need at least one input form\n")


def test_weierstrass_missing_file():
    code, _, err = run("weierstrass", "no-such-file.qexp", "--weight", "4")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [("wronskian",), ("weierstrass", "--weight", "4"), ("dims", "4")],
)
def test_undecodable_file_is_a_clean_error(tmp_path, argv):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"QEXP 1\n\xff\n")
    code, out, err = run(argv[0], str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


# -- exit codes and stability -------------------------------------------------


def test_usage_errors_exit_2():
    for argv in ([], ["nosuch"], ["weierstrass", FIX34],
                 ["level1", "verify", "--tmax", "0"],
                 ["level1", "verify", "--tmax", "-3"],
                 ["level1", "verify", "--tmax", "2", "--prec", "0"],
                 ["level1", "verify", "--tmax", "2", "--prec", "-3"],
                 ["wronskian", FIX34, "--weight", "-3"],
                 ["wronskian", FIX34, "--weight", "0"]):
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 2


def test_one_parser_serves_every_call(capsys, tmp_path):
    calls = [
        ["wronskian", FIX34, "--weight", "0"],
        ["wronskian", str(tmp_path / "missing.qexp")],
        ["level1", "verify", "--tmax", "2", "--prec", "30"],
        ["wronskian", "--weight", "0", FIX34],
        ["wronskian", FIX37],
        ["weierstrass", FIX34, "--weight", "4", "--level", "34"],
        ["level1", "verify", "--tmax", "3", "--prec", "3"],
        ["wronskian", FIX34, "--weight", "0"],
    ]

    def observe(argv):
        try:
            result = run(*argv)
        except SystemExit as info:
            result = (info.code,)
        return result, capsys.readouterr()

    assert qweier.cli._build_parser() is qweier.cli._build_parser()
    reused = [observe(argv) for argv in calls]
    fresh = []
    for argv in calls:
        qweier.cli._build_parser.cache_clear()
        fresh.append(observe(argv))
    assert reused == fresh
    assert [r[0][0] for r in reused] == [2, 1, 0, 2, 0, 0, 1, 2]
    assert "must be at least 1" in reused[0][1].err


@pytest.mark.parametrize(
    "argv",
    [
        ("signature", "55"),
        ("dims", "55", "8"),
        ("wronskian", FIX55),
        ("weierstrass", FIX55, "--weight", "4", "--level", "55"),
        ("weierstrass", FIX35, "--weight", "4"),
    ],
)
def test_output_is_byte_stable(argv):
    first = run(*argv)
    second = run(*argv)
    assert first == second and first[0] == 0


def test_console_script_is_wired_up():
    exe = shutil.which("qweier")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "dims", "34", "4"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "dim S_4 = 12, dim S^H_4 = 6" in proc.stdout


def test_console_script_entry_point_is_cli_main():
    # The wiring the installed script uses, read without an install.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts["qweier"].partition(":")
    assert (module, attr) == ("qweier.cli", "main")
    target = getattr(importlib.import_module(module), attr)
    assert target is qweier.cli.main


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "qweier", "dims", "34", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert "dim S_4 = 12, dim S^H_4 = 6" in proc.stdout


def test_closed_stdout_exits_1_without_a_message():
    # A reader that leaves early, as `| head -2` does, is not an engine
    # error.  Here the reader is gone before the child writes.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qweier", "weierstrass", FIX34,
         "--weight", "4", "--level", "34"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
