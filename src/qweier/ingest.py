"""Reading and writing q-expansion basis files (QEXP format).

The format is plain UTF-8 text: a five-line header

    QEXP 1
    LEVEL <label>
    WEIGHT <w>
    PREC <P>
    FORMS <k>

followed by k blocks of two lines each: ``FORM <label>`` and one line of
P space-separated rationals (``a`` or ``a/b`` with b > 0), the
coefficients of q^0 ... q^(P-1), with P >= 1.  Lines starting with ``#``
are comments and blank lines are skipped; everything else must appear in
exactly this order.

A signature file has lines ``GENUS g``, ``CUSPS t`` and optionally
``ELLIPTIC e1 e2 ...``, with the same comment and blank-line rules; it
must be the signature of a Fuchsian group of the first kind.

Every integer in either file (w, P, k, g, t, each e_i, and a and b) is
written -?\\d+; ``+3`` or ``1_0``, which int() would read, is a
ParseError.  Every file the package reads is opened here; bytes that are
not UTF-8 raise ParseError, and so does an integer of more digits than
int() reads (sys.get_int_max_str_digits(), which is read and never set).
"""

import re
import sys

from fractions import Fraction

from .errors import DomainError, ParseError, ValidationError
from .qseries import QSeries
from .surface import SurfaceSignature
from .weierstrass import CuspBasis, ModularFormRecord

_INT = r"-?\d+"
_INTEGER = re.compile(_INT)
_TOKEN = _INT + r"(?:/[1-9]\d*)?"
_RATIONAL = re.compile(_TOKEN + r"\Z")
# A whole line of such tokens; \s is exactly the whitespace str.split()
# splits on, and \d exactly the digits int() reads.
_COEFF_LINE = re.compile(r"%s(?:\s+%s)*" % (_TOKEN, _TOKEN))


class BasisFile:
    """The raw contents of a QEXP file: the header values and, per form,
    its label and coefficient list (an int for an integer token, a
    Fraction for an a/b token)."""

    __slots__ = ("level_label", "weight", "prec", "forms")

    def __init__(self, level_label, weight, prec, forms):
        if prec < 1:
            raise ValidationError("PREC must be >= 1, got %d" % prec)
        forms = [(label, list(coeffs)) for label, coeffs in forms]
        for label, coeffs in forms:
            if len(coeffs) != prec:
                raise ValidationError(
                    "form %r has %d coefficients, expected PREC = %d"
                    % (label, len(coeffs), prec))
        self.level_label = level_label
        self.weight = weight
        self.prec = prec
        self.forms = forms

    @property
    def form_count(self):
        return len(self.forms)

    def __eq__(self, other):
        if not isinstance(other, BasisFile):
            return NotImplemented
        return (self.level_label, self.weight, self.prec, self.forms) == (
            other.level_label, other.weight, other.prec, other.forms)

    def __repr__(self):
        return "BasisFile(%r, weight=%d, prec=%d, %d forms)" % (
            self.level_label, self.weight, self.prec, self.form_count)


def _meaningful_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped


def _take(lines, what):
    try:
        return next(lines)
    except StopIteration:
        raise ParseError("file ended before %s" % what) from None


def _keyword_line(lines, keyword):
    number, line = _take(lines, "the %s line" % keyword)
    parts = line.split(None, 1)
    if parts[0] != keyword or len(parts) != 2:
        raise ParseError("expected '%s <value>'" % keyword, line=number)
    return number, parts[1].strip()


def _ints(texts, line):
    """[int(t) for t in texts], for texts the caller has matched against
    the integer grammar -?\\d+.  A text of more digits than int() reads
    (sys.get_int_max_str_digits()) is a ParseError at `line` that names
    the digit count, not the bare ValueError of int()."""
    try:
        return list(map(int, texts))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        for text in texts:
            digits = sum(map(str.isdecimal, text))
            if limit and digits > limit:
                raise ParseError(
                    "an integer of %d digits is longer than the %d digits "
                    "int() reads" % (digits, limit), line=line) from None
        raise


def _int_header(lines, keyword, minimum):
    number, value = _keyword_line(lines, keyword)
    if not _INTEGER.fullmatch(value):
        raise ParseError(
            "%s value %r is not an integer" % (keyword, value), line=number)
    (out,) = _ints([value], number)
    if out < minimum:
        raise ParseError(
            "%s must be >= %d, got %d" % (keyword, minimum, out), line=number)
    return out


def _coefficients(line, label, number):
    """The tokens of a coefficient line: an int for 'a', a Fraction for
    'a/b'.  One match checks the whole line; only a bad line is scanned
    token by token, to name its first bad token."""
    tokens = line.split()
    if not _COEFF_LINE.fullmatch(line):
        for tok in tokens:
            if not _RATIONAL.match(tok):
                raise ParseError(
                    "bad rational %r in form %r (use 'a' or 'a/b' with "
                    "b > 0)" % (tok, label), line=number)
    if "/" not in line:
        return _ints(tokens, number)
    return [Fraction(*_ints(tok.split("/"), number)) if "/" in tok
            else _ints([tok], number)[0] for tok in tokens]


def parse_basis_file(text):
    """Parse QEXP text into a BasisFile, without interpreting the forms."""
    lines = _meaningful_lines(text)
    number, magic = _take(lines, "the QEXP header")
    if magic != "QEXP 1":
        raise ParseError(
            "not a QEXP file: first line must be 'QEXP 1'", line=number)
    _, level_label = _keyword_line(lines, "LEVEL")
    weight = _int_header(lines, "WEIGHT", 0)
    prec = _int_header(lines, "PREC", 1)
    count = _int_header(lines, "FORMS", 0)
    forms = []
    for _ in range(count):
        number, line = _take(lines, "a FORM line (%d expected)" % count)
        parts = line.split(None, 1)
        if parts[0] != "FORM" or len(parts) != 2:
            raise ParseError("expected 'FORM <label>'", line=number)
        label = parts[1].strip()
        number, line = _take(lines, "the coefficients of %r" % label)
        coeffs = _coefficients(line, label, number)
        if len(coeffs) != prec:
            raise ValidationError(
                "form %r has %d coefficients on line %d, expected PREC = %d"
                % (label, len(coeffs), number, prec))
        forms.append((label, coeffs))
    for number, line in lines:
        raise ParseError("unexpected content after the last form", line=number)
    return BasisFile(level_label, weight, prec, forms)


def serialize(basis_file):
    """Render a BasisFile back to QEXP text (no comments; exact round-trip
    of the values)."""
    out = [
        "QEXP 1",
        "LEVEL %s" % basis_file.level_label,
        "WEIGHT %d" % basis_file.weight,
        "PREC %d" % basis_file.prec,
        "FORMS %d" % basis_file.form_count,
    ]
    for label, coeffs in basis_file.forms:
        out.append("FORM %s" % label)
        out.append(" ".join(str(c) for c in coeffs))
    return "\n".join(out) + "\n"


def parse_basis(text):
    """Parse QEXP text and validate it as a weight-2 cusp-form basis."""
    bf = parse_basis_file(text)
    if bf.forms and bf.weight != 2:
        raise ValidationError(
            "form %r has weight %d; every basis form must have weight 2"
            % (bf.forms[0][0], bf.weight))
    records = [ModularFormRecord(label, QSeries(coeffs, bf.prec))
               for label, coeffs in bf.forms]
    return CuspBasis(bf.level_label, records)


def _read_text(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                "%s is not UTF-8 text (byte 0x%02x at offset %d)"
                % (path, exc.object[exc.start], exc.start)) from None


def load_basis(path):
    """parse_basis on the contents of a file."""
    return parse_basis(_read_text(path))


def load_series(path):
    """Read a QEXP file as raw (label, QSeries) pairs plus its headers,
    without the cusp-basis validation."""
    basis_file = parse_basis_file(_read_text(path))
    series = [QSeries(coeffs, basis_file.prec) for _, coeffs in basis_file.forms]
    return basis_file, series


def load_signature(path):
    """Read a signature file into a SurfaceSignature."""
    fields = {}
    for number, line in _meaningful_lines(_read_text(path)):
        key, *values = line.split()
        if key not in ("GENUS", "CUSPS", "ELLIPTIC") or key in fields:
            raise ParseError(
                "expected one GENUS, CUSPS, or ELLIPTIC line, got %r" % line,
                line=number)
        if not all(map(_INTEGER.fullmatch, values)):
            raise ParseError("non-integer value in %r" % line, line=number)
        fields[key] = _ints(values, number)
    for key in ("GENUS", "CUSPS"):
        if key not in fields or len(fields[key]) != 1:
            raise ParseError("signature file needs a single-value %s line" % key)
    sig = SurfaceSignature(
        fields["GENUS"][0], fields["CUSPS"][0], tuple(fields.get("ELLIPTIC", ())))
    area = 2 * sig.genus - 2 + sig.cusp_count + sum(
        1 - Fraction(1, e) for e in sig.elliptic_orders)
    if area <= 0:
        raise DomainError(
            "no Fuchsian group of the first kind has signature %r: "
            "2g - 2 + t + sum(1 - 1/e) = %s <= 0" % (sig, area))
    return sig
