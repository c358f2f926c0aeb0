"""The benchmark's workloads: fixed case lists and an exact oracle for
every case.

Each case is one timed call into qweier's public API (or ``cli_dispatch``)
plus a check that runs outside the timed region.  Calls go through module
attributes at call time, so the tracer's rebinding reaches them.
"""

import hashlib
import io
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import qweier
import qweier.cli
import qweier.surface

HERE = Path(__file__).resolve().parent

# verdict: the criterion-6 matrix without (55, 10), then two same-shape
# cases (56 x 50, rank 27) that differ in density, then the tallest
# transform case that fits a run (210 x 80).
VERDICT_CASES = ([(34, m) for m in range(2, 11, 2)]
                 + [(55, m) for m in range(2, 9, 2)]
                 + [(38, 10), (44, 10), (60, 8)])

# rank: the criterion-7 matrix without the three largest X_0(55) cases and
# (60, 10), which together take three quarters of its time.
RANK_CASES = ([(n, m) for n in (34, 38, 44) for m in range(4, 13, 2)]
              + [(55, m) for m in range(4, 8, 2)]
              + [(54, m) for m in range(4, 11, 2)]
              + [(60, m) for m in range(4, 9, 2)]
              + [(35, m) for m in range(4, 15, 2)])

FIXTURE_LEVELS = (34, 35, 37, 38, 44, 54, 55, 60)


class Case:
    """One timed call.  ``check(raw, expected)`` returns a problem string
    or None; ``digest(raw)`` is a canonical text of the whole output, used
    to compare passes with each other and traced with untraced runs."""

    __slots__ = ("id", "call", "check", "digest", "expected")

    def __init__(self, cid, call, check, digest, expected):
        self.id = cid
        self.call = call
        self.check = check
        self.digest = digest
        self.expected = expected


class Workload:
    """A named case list with the files its set-up loads; ``files`` holds
    (kind, path) pairs, kind "basis" for load_basis and "qexp" for
    parse_basis_file."""

    def __init__(self, name, cases, files):
        self.name = name
        self.cases = cases
        self.files = files


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fixture(root, level):
    return Path(root) / "fixtures" / ("g0n%d_s2.qexp" % level)


def _basis_files(root, levels):
    return [("basis", fixture(root, n)) for n in sorted(levels)]


def load_expected():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- verdict ----------------------------------------------


def _verdict_call(basis, level, m):
    def call():
        inv = qweier.surface.gamma0_invariants(level)
        report = qweier.weierstrass_test(
            basis, m, inv.signature,
            hyperelliptic_status=inv.hyperelliptic_status)
        return basis, report, qweier.wronskian_criterion(report.rows, m)
    return call


def _rows_text(report):
    return "\n".join(" ".join(map(str, r.coeffs)) for r in report.rows)


def verdict_facts(raw):
    """The basis invariants of a verdict and its Wronskian route."""
    _, report, (order, bound, wronskian_verdict) = raw
    return {"rank": report.rank, "gaps": list(report.gap_sequence),
            "is_weierstrass": report.is_weierstrass,
            "flags": list(report.flags), "order": order, "bound": bound,
            "wronskian_verdict": wronskian_verdict}


def rows_sha256(raw):
    return _sha(_rows_text(raw[1]))


def _verdict_digest(raw):
    _, report, _ = raw
    combos = "\n".join(" ".join(map(str, c)) for c in report.combinations)
    return _sha(json.dumps(verdict_facts(raw)) + _rows_text(report) + combos)


def _int_mul(a, b, prec):
    out = [0] * prec
    for i, x in enumerate(a):
        if x:
            for j in range(prec - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def combination_problem(basis, report):
    """None when every combination reproduces its echelon row exactly:
    sum_j c_j * monomial_j == row.  Monomials are rebuilt here in integer
    arithmetic, independently of qweier."""
    prec = basis.prec
    den = lcm(*(c.denominator for f in basis.forms for c in f.series.coeffs))
    ints = [[int(c * den) for c in f.series.coeffs] for f in basis.forms]
    memo = {(0,) * basis.genus: [1] + [0] * (prec - 1)}

    def mono(e):
        if e not in memo:
            i = next(k for k, x in enumerate(e) if x)
            rest = e[:i] + (e[i] - 1,) + e[i + 1:]
            memo[e] = _int_mul(mono(rest), ints[i], prec)
        return memo[e]

    scale = den ** (report.m // 2)
    if len(report.combinations) != len(report.rows):
        return "%d combinations for %d rows" % (
            len(report.combinations), len(report.rows))
    for r, (row, combo) in enumerate(zip(report.rows, report.combinations)):
        cden = lcm(*(Fraction(c).denominator for c in combo))
        acc = [0] * prec
        for c, e in zip(combo, report.monomial_exponents):
            if c:
                ci = int(c * cden)
                for n, x in enumerate(mono(tuple(e))):
                    if x:
                        acc[n] += ci * x
        for n in range(prec):
            if Fraction(acc[n], cden * scale) != row.coeffs[n]:
                return "combination %d misses its row at q^%d" % (r, n)
    return None


def _verdict_check(raw, expected):
    facts = verdict_facts(raw)
    for key, want in expected.items():
        got = rows_sha256(raw) if key == "rows_sha256" else facts[key]
        if got != want:
            return "%s: got %r, expected %r" % (key, got, want)
    return combination_problem(raw[0], raw[1])


def _verdict(root, expected):
    bases = {n: qweier.load_basis(fixture(root, n)) for n, _ in VERDICT_CASES}
    cases = []
    for n, m in VERDICT_CASES:
        key = "%d/%d" % (n, m)
        want = dict(expected["invariants"][key],
                    rows_sha256=expected["rows_sha256"][key])
        cases.append(Case("verdict:" + key, _verdict_call(bases[n], n, m),
                          _verdict_check, _verdict_digest, want))
    return cases, _basis_files(root, bases)


# -- rank ----------------------------------------------------------------


def _rank_check(raw, expected):
    if raw != expected["dim"]:
        return "dimension %r, expected %r" % (raw, expected["dim"])
    return None


def _rank(root, expected):
    levels = sorted({n for n, _ in RANK_CASES})
    bases = {n: qweier.load_basis(fixture(root, n)) for n in levels}
    cases = []
    for n, m in RANK_CASES:
        g = bases[n].genus
        # (m-1)(g-1) on non-hyperelliptic curves; X_0(35) is hyperelliptic
        # of genus 3, where the monomials span only m+1 dimensions.
        dim = m + 1 if n == 35 else (m - 1) * (g - 1)
        basis = bases[n]
        cases.append(Case(
            "rank:%d/%d" % (n, m),
            lambda basis=basis, m=m: qweier.subspace_dimension(basis, m),
            _rank_check, str, {"dim": dim}))
    return cases, _basis_files(root, bases)


# -- wronskian -----------------------------------------------------------


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        code = qweier.cli.cli_dispatch(argv, out, err)
        return code, out.getvalue(), err.getvalue()
    return call


def _cli_check(raw, expected):
    code, out, err = raw
    if code != 0:
        return "exit code %d: %s" % (code, err.strip())
    if out != expected["stdout"]:
        return "stdout differs from the pinned one: %r" % out
    return None


def _cli_digest(raw):
    return json.dumps(raw)


def _qexp_text(label, weight, rows, prec):
    lines = ["QEXP 1", "LEVEL %s" % label, "WEIGHT %d" % weight,
             "PREC %d" % prec, "FORMS %d" % len(rows)]
    for i, row in enumerate(rows):
        lines += ["FORM r%d" % i, " ".join(map(str, row.coeffs[:prec]))]
    return "\n".join(lines) + "\n"


def generated_inputs(root):
    """Write the two series-determinant inputs under ``.bench_work`` and
    return {name: (path, sha256 of the text)}.

    Both start from the echelon rows of X_0(60) at m = 6.  In the k = 8
    file every row after the first has the first added, so all eight share
    the leading exponent q^3, the constant-term probe is singular and the
    valuation comes from the Laplace series determinant.  In the k = 9 file
    only the last row shares an exponent (the first row's): every leading
    minor but the full one keeps a nonzero constant term, so the
    fraction-free series elimination runs with unit pivots.  Nine rows that
    all share one exponent make ``wronskian`` exit 1 at this precision
    today (an open precision defect), so that input is not a case here.
    """
    work = Path(root) / ".bench_work"
    work.mkdir(exist_ok=True)
    basis = qweier.load_basis(fixture(root, 60))
    inv = qweier.surface.gamma0_invariants(60)
    rows = qweier.weierstrass_test(
        basis, 6, inv.signature,
        hyperelliptic_status=inv.hyperelliptic_status).rows
    inputs = {
        "x60_m6_k8": [rows[0]] + [r + rows[0] for r in rows[1:8]],
        "x60_m6_k9": list(rows[:8]) + [rows[8] + rows[0]],
    }
    out = {}
    for name, fs in inputs.items():
        text = _qexp_text("Gamma0(60)", 6, fs, 80)
        path = work / (name + ".qexp")
        path.write_text(text, encoding="utf-8")
        out[name] = (path, _sha(text))
    return out


def _generated_check(sha):
    def check(raw, expected):
        if sha != expected["input_sha256"]:
            return "generated input differs from the pinned one"
        return _cli_check(raw, expected)
    return check


def _wronskian(root, expected):
    calls = [("g0n%d" % n, ["wronskian", str(fixture(root, n))], _cli_check)
             for n in FIXTURE_LEVELS]
    files = _basis_files(root, FIXTURE_LEVELS)
    calls.append(("level1", ["level1", "verify", "--tmax", "5", "--prec",
                             "40"], _cli_check))
    for name, (path, sha) in generated_inputs(root).items():
        calls.append((name, ["wronskian", str(path)], _generated_check(sha)))
        files.append(("qexp", path))
    cases = [Case("wronskian:" + name, _cli_call(argv), check, _cli_digest,
                  dict(expected["wronskian"][name]))
             for name, argv, check in calls]
    return cases, files


_BUILDERS = {"verdict": _verdict, "rank": _rank, "wronskian": _wronskian}
NAMES = tuple(_BUILDERS)


def build(name, root):
    """The workload's cases; every case list is fixed."""
    cases, files = _BUILDERS[name](root, load_expected())
    return Workload(name, cases, files)
