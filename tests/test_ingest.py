import hashlib
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_LEVELS, fixture_path, load_fixture
from qweier.errors import DomainError, ParseError, QweierError, ValidationError
from qweier.ingest import (
    BasisFile,
    load_basis,
    load_signature,
    parse_basis,
    parse_basis_file,
    serialize,
)
from qweier.surface import gamma0_invariants
from qweier.weierstrass import required_precision, weierstrass_test

GOOD = """\
QEXP 1
LEVEL Gamma0(11)
WEIGHT 2
PREC 5
FORMS 1
FORM f0
0 1 -2 -1 2
"""


# -- parsing ------------------------------------------------------------------


def test_parse_minimal_file():
    bf = parse_basis_file(GOOD)
    assert bf.level_label == "Gamma0(11)"
    assert (bf.weight, bf.prec, bf.form_count) == (2, 5, 1)
    assert bf.forms == [("f0", [F(0), F(1), F(-2), F(-1), F(2)])]


def test_comments_and_blank_lines_are_ignored():
    noisy = "# header\n\n" + GOOD.replace("PREC 5", "PREC 5\n# interlude\n")
    assert parse_basis_file(noisy) == parse_basis_file(GOOD)


def test_rationals_accept_both_spellings():
    text = GOOD.replace("0 1 -2 -1 2", "0 1/2 -2/3 7 -11")
    bf = parse_basis_file(text)
    assert bf.forms[0][1] == [F(0), F(1, 2), F(-2, 3), F(7), F(-11)]


@pytest.mark.parametrize("level", [34, 35, 37, 38, 44, 54, 55, 60])
def test_bundled_fixtures_parse_and_carry_enough_precision(level):
    basis = load_fixture(level)
    g = basis.genus
    assert basis.level_label == "Gamma0(%d)" % level
    assert [f.label for f in basis.forms] == ["f%d" % i for i in range(g)]
    assert basis.prec >= required_precision(g, 12)
    # every bundled form is normalized to leading coefficient one
    assert all(f.series.coeff(int(f.series.valuation())) == 1
               for f in basis.forms)


def test_load_basis_reads_from_disk():
    basis = load_basis(fixture_path(37))
    assert basis.genus == 2 and basis.prec == 30


# -- parse errors -------------------------------------------------------------


def test_magic_line_is_checked_first():
    with pytest.raises(ParseError) as info:
        parse_basis_file("QEXP 2\n")
    assert info.value.line == 1


def test_missing_header_line():
    with pytest.raises(ParseError) as info:
        parse_basis_file("QEXP 1\nWEIGHT 2\n")
    assert info.value.line == 2


def test_non_integer_header_value():
    bad = GOOD.replace("PREC 5", "PREC five")
    with pytest.raises(ParseError) as info:
        parse_basis_file(bad)
    assert info.value.line == 4


@pytest.mark.parametrize("old, new, line, message", [
    ("PREC 5", "PREC +3", 4, "PREC value '+3' is not an integer"),
    # int() reads 1_0 as 10, and the error was a coefficient count.
    ("PREC 5", "PREC 1_0", 4, "PREC value '1_0' is not an integer"),
    ("WEIGHT 2", "WEIGHT +2", 3, "WEIGHT value '+2' is not an integer"),
    ("FORMS 1", "FORMS 0_1", 5, "FORMS value '0_1' is not an integer"),
    ("WEIGHT 2", "WEIGHT -2", 3, "WEIGHT must be >= 0, got -2"),
    ("PREC 5", "PREC -0", 4, "PREC must be >= 1, got 0"),
], ids=["plus", "underscore", "weight_plus", "forms_underscore",
        "negative_weight", "negative_zero_prec"])
def test_header_values_share_the_coefficient_integer_grammar(
        old, new, line, message):
    # A header value is an integer exactly when it would be one as a
    # coefficient numerator: -?\d+.
    with pytest.raises(ParseError) as info:
        parse_basis_file(GOOD.replace(old, new))
    assert str(info.value) == "line %d: %s" % (line, message)


def test_header_values_read_the_digits_int_reads():
    # \d and int() agree on every decimal digit, as for coefficients.
    text = GOOD.replace("PREC 5", "PREC \u0665")
    assert parse_basis_file(text) == parse_basis_file(GOOD)


@pytest.mark.parametrize("token", ["3/-4", "3/0", "1.5", "x", "--2", "2/"])
def test_bad_rational_tokens(token):
    bad = GOOD.replace("0 1 -2 -1 2", "0 1 %s -1 2" % token)
    with pytest.raises(ParseError) as info:
        parse_basis_file(bad)
    assert info.value.line == 7


LONG = "7" * 5000
DIGIT_LIMIT = sys.get_int_max_str_digits()
needs_digit_limit = pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < len(LONG),
    reason="int() reads %d-digit integers here" % len(LONG))


@needs_digit_limit
@pytest.mark.parametrize("old, new, line", [
    ("-1 2", "-%s 2" % LONG, 7),
    ("-1 2", "%s/3 2" % LONG, 7),
    ("PREC 5", "PREC %s" % LONG, 4),
], ids=["coefficient", "numerator", "prec"])
def test_integers_past_the_digit_limit_are_line_errors(old, new, line):
    with pytest.raises(ParseError) as info:
        parse_basis_file(GOOD.replace(old, new))
    assert info.value.line == line
    assert str(info.value) == (
        "line %d: an integer of 5000 digits is longer than the %d digits "
        "int() reads" % (line, DIGIT_LIMIT))
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


# -- coefficient lines against a per-token reference --------------------------

_REFERENCE_TOKEN = re.compile(r"(-?\d+)(?:/([1-9]\d*))?\Z")


def reference_coefficients(line, label, number):
    """One token at a time: the parser the one-pass line match replaced."""
    coeffs = []
    for tok in line.strip().split():
        match = _REFERENCE_TOKEN.match(tok)
        if not match:
            raise ParseError(
                "bad rational %r in form %r (use 'a' or 'a/b' with b > 0)"
                % (tok, label), line=number)
        num, den = match.groups()
        coeffs.append(F(int(num), int(den)) if den else int(num))
    return coeffs


def _typed(coeffs):
    return [(type(c), c) for c in coeffs]


tokens = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.tuples(st.integers(-99, 99), st.integers(1, 99)).map(
        lambda nd: "%d/%d" % nd),
    st.sampled_from(["0", "-0", "007", "4/2", "\u0663", "1/1\u0663",
                     "+5", "1_0", "\u00b2", "1/0", "1/-2", "--1", "1/",
                     "/2", "1/\u0663", "x", "1.5"]),
)
gaps = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0"])


@st.composite
def coefficient_lines(draw):
    toks = draw(st.lists(tokens, min_size=1, max_size=8))
    line = draw(gaps).join(toks)
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(
        st.sampled_from(["", " ", "\t"]))


@given(coefficient_lines(), st.integers(-1, 1))
@settings(max_examples=300)
def test_coefficient_lines_parse_as_token_by_token(line, slack):
    try:
        expected = reference_coefficients(line, "f0", 7)
    except ParseError as exc:
        expected = exc
    prec = max(len(line.split()) + slack, 1)
    text = GOOD.replace("PREC 5", "PREC %d" % prec).replace(
        "0 1 -2 -1 2", line)
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as info:
            parse_basis_file(text)
        assert (str(info.value), info.value.line) == (str(expected), 7)
    elif len(expected) != prec:
        with pytest.raises(ValidationError):
            parse_basis_file(text)
    else:
        ((label, coeffs),) = parse_basis_file(text).forms
        assert label == "f0"
        assert _typed(coeffs) == _typed(expected)


def _bench_inputs():
    """The two k = 8, 9 QEXP texts the wronskian benchmark generates from
    the echelon rows of X_0(60) at m = 6, 80 coefficients each."""
    inv = gamma0_invariants(60)
    rows = weierstrass_test(
        load_fixture(60), 6, inv.signature,
        hyperelliptic_status=inv.hyperelliptic_status).rows
    texts = []
    for fs in ([rows[0]] + [r + rows[0] for r in rows[1:8]],
               list(rows[:8]) + [rows[8] + rows[0]]):
        lines = ["QEXP 1", "LEVEL Gamma0(60)", "WEIGHT 6", "PREC 80",
                 "FORMS %d" % len(fs)]
        for i, row in enumerate(fs):
            lines += ["FORM r%d" % i, " ".join(map(str, row.coeffs[:80]))]
        texts.append("\n".join(lines) + "\n")
    return texts


def test_parse_is_unchanged_on_fixtures_and_bench_inputs():
    bench = _bench_inputs()
    assert [hashlib.sha256(t.encode()).hexdigest() for t in bench] == [
        "1b9248a417cae9becea3adb3002598c5a3086d7d16b9c9aa7ed8fd2c1538717c",
        "9323d4e853bdc2bd7dbf9dc24f37d437a93c952f043816ee3743c3314ad57644"]
    texts = [fixture_path(n).read_text(encoding="utf-8")
             for n in FIXTURE_LEVELS] + bench
    digest = hashlib.sha256()
    for text in texts:
        bf = parse_basis_file(text)
        digest.update(repr((bf.level_label, bf.weight, bf.prec, [
            (label, _typed(coeffs)) for label, coeffs in bf.forms])).encode())
        lines = text.splitlines()
        for label, coeffs in bf.forms:
            number = lines.index("FORM %s" % label) + 2
            assert _typed(coeffs) == _typed(reference_coefficients(
                lines[number - 1], label, number))
    # Recorded with the token-by-token parser.
    assert digest.hexdigest() == (
        "ef7187828740c3cfee807d6584df48dd4a9a176478964927a70ae7ffb5bc124a")


def test_truncated_file():
    with pytest.raises(ParseError):
        parse_basis_file(GOOD.rsplit("\n", 2)[0] + "\n")


def test_trailing_content_rejected():
    with pytest.raises(ParseError) as info:
        parse_basis_file(GOOD + "FORM extra\n")
    assert info.value.line == 8


def test_malformed_form_line():
    bad = GOOD.replace("FORM f0", "FORMS f0")
    with pytest.raises(ParseError):
        parse_basis_file(bad)


# -- validation ---------------------------------------------------------------


def test_coefficient_count_must_match_prec():
    bad = GOOD.replace("0 1 -2 -1 2", "0 1 -2 -1")
    with pytest.raises(ValidationError):
        parse_basis_file(bad)


def test_parse_basis_rejects_wrong_weight():
    with pytest.raises(ValidationError):
        parse_basis(GOOD.replace("WEIGHT 2", "WEIGHT 4"))


def test_parse_basis_rejects_noncuspidal_form():
    with pytest.raises(ValidationError):
        parse_basis(GOOD.replace("0 1 -2 -1 2", "1 1 -2 -1 2"))


# -- serialization ------------------------------------------------------------


def test_round_trip_on_fixture_files():
    for level in (34, 55):
        text = fixture_path(level).read_text(encoding="utf-8")
        bf = parse_basis_file(text)
        assert parse_basis_file(serialize(bf)) == bf


labels = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8
)
rationals = st.fractions(max_denominator=50)


@st.composite
def basis_files(draw):
    prec = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=4))
    forms = [
        (draw(labels), draw(st.lists(rationals, min_size=prec, max_size=prec)))
        for _ in range(k)
    ]
    return BasisFile(draw(labels), draw(st.integers(0, 20)), prec, forms)


@given(basis_files())
@settings(max_examples=60)
def test_parse_serialize_round_trip_is_the_identity(bf):
    assert parse_basis_file(serialize(bf)) == bf


def test_basis_file_checks_coefficient_counts():
    with pytest.raises(ValidationError):
        BasisFile("x", 2, 3, [("f0", [F(0), F(1)])])


def test_precision_zero_is_refused_on_both_sides():
    # At PREC 0 each form's coefficient line is empty, and the parser skips
    # empty lines, so serialize would write text that parse rejects.
    with pytest.raises(ValidationError):
        BasisFile("x", 2, 0, [("f0", [])])
    text = "QEXP 1\nLEVEL x\nWEIGHT 2\nPREC 0\nFORMS 0\n"
    with pytest.raises(ParseError):
        parse_basis_file(text)


# -- signature files ----------------------------------------------------------


def test_signature_keywords_may_be_followed_by_tabs(tmp_path):
    path = tmp_path / "tabs.sig"
    path.write_text("GENUS\t3\nCUSPS \t4\nELLIPTIC\t2\t2\n")
    assert load_signature(path) == gamma0_invariants(34).signature


@pytest.mark.parametrize("text", [
    "GENUS 1\nCUSPS 0\n",
    "GENUS 0\nCUSPS 0\nELLIPTIC 2 3 6\n",
], ids=["torus", "triangle_2_3_6"])
def test_signature_file_must_be_hyperbolic(tmp_path, text):
    path = tmp_path / "flat.sig"
    path.write_text(text)
    with pytest.raises(DomainError, match="no Fuchsian group"):
        load_signature(path)


@pytest.mark.parametrize("text, line", [
    ("GENUS 1_0\nCUSPS 1\n", 1),
    ("GENUS 2\nCUSPS +1\n", 2),
    ("GENUS 0\nCUSPS 1\nELLIPTIC 2 +3 7\n", 3),
], ids=["genus_underscore", "cusps_plus", "elliptic_plus"])
def test_signature_values_share_the_coefficient_integer_grammar(
        tmp_path, text, line):
    # int() reads 1_0 as 10 and +1 as 1; neither is a -?\d+ token.
    path = tmp_path / "odd.sig"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_signature(path)
    bad = text.splitlines()[line - 1]
    assert str(info.value) == "line %d: non-integer value in %r" % (line, bad)


@needs_digit_limit
def test_signature_integer_past_the_digit_limit_is_a_line_error(tmp_path):
    path = tmp_path / "long.sig"
    path.write_text("CUSPS 4\nGENUS %s\n" % LONG)
    with pytest.raises(ParseError) as info:
        load_signature(path)
    assert info.value.line == 2 and LONG not in str(info.value)


def test_signature_file_just_past_the_bound_is_accepted(tmp_path):
    # 2g - 2 + t + sum(1 - 1/e) = -2 + 1/2 + 2/3 + 6/7 = 1/42.
    path = tmp_path / "hurwitz.sig"
    path.write_text("GENUS 0\nCUSPS 0\nELLIPTIC 2 3 7\n")
    assert load_signature(path).elliptic_orders == (2, 3, 7)


# -- fuzzing ------------------------------------------------------------------

SIGNATURE = "GENUS 3\nCUSPS 4\nELLIPTIC 2 2\n"

words = st.sampled_from([
    "QEXP", "LEVEL", "WEIGHT", "PREC", "FORMS", "FORM", "GENUS", "CUSPS",
    "ELLIPTIC", "#", "0", "1", "-2", "5", "1/2", "-3/4", "2/0", "1/-2",
    "+1", "1.5", "\u0663", "x",
])
lines = st.lists(st.one_of(words, st.text(max_size=4)), max_size=6).map(" ".join)


@st.composite
def mutated(draw, base):
    """base with one line replaced, inserted or deleted, so the parser gets
    past the lines before it."""
    out = base.splitlines()
    i = draw(st.integers(min_value=0, max_value=len(out) - 1))
    action = draw(st.sampled_from(["replace", "insert", "delete"]))
    if action == "delete":
        del out[i]
    else:
        out[i:i + (action == "replace")] = [draw(lines)]
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\r\n"]))


def texts(base):
    return st.one_of(
        st.text(), st.lists(lines, max_size=12).map("\n".join), mutated(base))


@given(texts(GOOD))
@settings(max_examples=300)
def test_arbitrary_basis_text_fails_only_with_parse_errors(text):
    try:
        parse_basis_file(text)
    except (ParseError, ValidationError):
        pass


@given(st.one_of(texts(SIGNATURE).map(str.encode), st.binary()))
@settings(max_examples=300)
def test_arbitrary_signature_file_fails_only_with_typed_errors(
        tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.sig"
    path.write_bytes(data)
    try:
        load_signature(path)
    except QweierError:
        pass
