"""Command-line surface.

Subcommands:

  signature <N>                         invariants of Gamma_0(N)
  dims <N|sigfile> <m>                  dimension and degree table
  level1 verify --tmax T [--prec P]     Wronskian identities for SL(2,Z)
  wronskian <basisfile> [--weight m]    q-Wronskian valuation bookkeeping
  weierstrass <basisfile> --weight m [--level N]
                                        Weierstrass-point test at the cusp

Exit codes: 0 on success, 1 on any engine error or a failed verification,
and also, without a message, when the reader of standard output goes away
early (`| head`); 2 on usage errors.  All output is deterministic for fixed
inputs.
"""

import argparse
import os
import re
import sys
from functools import lru_cache

from .errors import PrecisionError, QweierError, ValidationError
from .ingest import load_basis, load_series, load_signature
from .level1 import (
    delta,
    dim_m,
    eisenstein_e4,
    eisenstein_e6,
    express_in_monomials,
    monomial_ladder,
)
from .qseries import QSeries
from .surface import (
    HYPERELLIPTIC,
    NOT_HYPERELLIPTIC,
    SurfaceSignature,
    deg_c,
    deg_c_prime,
    dim_cusp_forms,
    dim_modular_forms,
    dim_s_h,
    gamma0_invariants,
)
from .weierstrass import SPAN_NOT_GUARANTEED, check_inputs, weierstrass_test
from .wronskian import (
    q_wronskian,
    span_valuations,
    wronskian_valuation,
    wronskian_weight,
)

#: Terms shown per echelon row before eliding with "...".
_ROW_TERMS = 8


def _print(out, line=""):
    out.write(line + "\n")


def format_gaps(gaps):
    """Render a sorted integer sequence compactly: runs of three or more
    become 'a..b', everything else is listed, comma-separated."""
    if not gaps:
        return "(empty)"
    parts = []
    i = 0
    while i < len(gaps):
        j = i
        while j + 1 < len(gaps) and gaps[j + 1] == gaps[j] + 1:
            j += 1
        if j - i >= 2:
            parts.append("%d..%d" % (gaps[i], gaps[j]))
        else:
            parts.extend(str(g) for g in gaps[i : j + 1])
        i = j + 1
    return ", ".join(parts)


def _hyperelliptic_word(status):
    if status == HYPERELLIPTIC:
        return "yes"
    if status == NOT_HYPERELLIPTIC:
        return "no"
    return "not applicable (genus < 2)"


# -- signature ------------------------------------------------------------


def _cmd_signature(args, out):
    inv = gamma0_invariants(args.level)
    _print(out, "Gamma_0(%d)" % inv.level)
    rows = [
        ("index", str(inv.index)),
        ("nu_2", str(inv.nu2)),
        ("nu_3", str(inv.nu3)),
        ("cusps", str(inv.signature.cusp_count)),
        ("genus", str(inv.signature.genus)),
        ("hyperelliptic", _hyperelliptic_word(inv.hyperelliptic_status)),
    ]
    for name, value in rows:
        _print(out, "  %-14s %s" % (name, value))
    return 0


# -- dims -----------------------------------------------------------------


def _cmd_dims(args, out):
    if re.fullmatch(r"\d+", args.group):
        sig = gamma0_invariants(int(args.group)).signature
    else:
        sig = load_signature(args.group)
    m = args.weight
    _print(
        out,
        "dim S_%d = %d, dim S^H_%d = %d, dim M_%d = %d, deg c' = %d, deg c = %d"
        % (
            m,
            dim_cusp_forms(sig, m),
            m,
            dim_s_h(sig, m),
            m,
            dim_modular_forms(sig, m),
            deg_c_prime(sig, m),
            deg_c(sig, m),
        ),
    )
    return 0


# -- level1 verify ----------------------------------------------------------


def _level1_step(t):
    """(half, rest_weight, needed) for step t of level1 verify: W_q of the
    t + 1 inputs is Delta^half times a form of weight rest_weight.

    W_q - lambda * R_t is a level-1 form of weight w = 13t(t+1), and a
    nonzero one vanishes to order at most w/12.  needed exceeds w/12
    (dim_m(r) + 1 > r/12 for r = w - 12 half), so agreement modulo
    q^needed proves W_q = lambda * R_t.  needed grows with t.
    """
    half = t * (t + 1) // 2
    rest_weight = wronskian_weight(t + 1, 12 * t) - 12 * half
    return half, rest_weight, half + dim_m(rest_weight) + 1


def _cmd_level1(args, out):
    # --prec caps the working precision; each step works modulo its own
    # q^needed, the most the certificate asks for.
    prec = min(args.prec, _level1_step(args.tmax)[2])
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    a, b = e4 ** 3, e6 ** 2
    s = delta(prec) * e4 * e4 * e6
    # The powers of E4^3 and E6^2 up to t, whose products are the t + 1
    # inputs E4^(3u) * E6^(2(t-u)), u = t..0; S^t and R_t = S^(t(t+1)/2)
    # for S = Delta * E4^2 * E6.  Each grows by one product per step, once
    # the step's precision check has passed.
    one = QSeries.one(prec)
    a_pows, b_pows, s_t, r_t = [one], [one], one, one
    for t in range(1, args.tmax + 1):
        half, rest_weight, needed = _level1_step(t)
        if args.prec < needed:
            raise PrecisionError(
                "t = %d needs --prec at least %d (%d for Delta^%d and %d to "
                "certify the weight-%d quotient), got %d"
                % (t, needed, half, half, needed - half, rest_weight,
                   args.prec))
        a_pows.append(a_pows[-1] * a)
        b_pows.append(b_pows[-1] * b)
        s_t = s_t * s
        r_t = r_t * s_t
        wq = q_wronskian([a_pows[u].truncated(needed)
                          * b_pows[t - u].truncated(needed)
                          for u in range(t, -1, -1)])
        # R_t = q^half + ..., so the only candidate multiple of it is
        # lambda * R_t with lambda the coefficient of q^half in W_q.
        lam = wq.coeff(half)
        if lam == 0 or wq != r_t.truncated(needed).scaled(lam):
            # At the full --prec, the monomial solve raises NotInSpace or
            # DependentInput when W_q / Delta^half is no form of weight
            # rest_weight; otherwise it is a form other than a nonzero
            # multiple of E4^(2 half) * E6^half.  The inputs are the
            # weight-12t monomials, in m_basis order.
            wq = q_wronskian(monomial_ladder(12 * t, args.prec))
            quotient = wq.exact_div(delta(args.prec) ** half)
            express_in_monomials(quotient, rest_weight)
            _print(
                out,
                "t = %d: FAILED (quotient by Delta^%d is not a multiple of "
                "E4^%d * E6^%d)" % (t, half, 2 * half, half),
            )
            return 1
        _print(out, "lambda(%d) = %s" % (t, lam))
    _print(
        out,
        "level1 verify: OK for t = 1..%d "
        "(W_q = lambda * Delta^(t(t+1)/2) * E4^(t(t+1)) * E6^(t(t+1)/2))"
        % args.tmax,
    )
    return 0


# -- wronskian --------------------------------------------------------------


def _cmd_wronskian(args, out):
    basis_file, series = load_series(args.basisfile)
    weight = args.weight if args.weight is not None else basis_file.weight
    k = len(series)
    # Refuses an empty form list before anything is printed.
    w_weight = wronskian_weight(k, weight)
    _print(
        out,
        "forms: %d, weight %d, precision %d" % (k, weight, basis_file.prec),
    )
    _print(out, "q-Wronskian weight: %d" % w_weight)
    spans = span_valuations(series)
    total = sum(spans)
    _print(
        out,
        "span valuations: %s (total %d)"
        % (" ".join(str(v) for v in spans), total),
    )
    val = wronskian_valuation(series)
    _print(out, "q-Wronskian valuation: %d" % val)
    if val == total:
        _print(out, "cusp-order identity: OK (%d = %d)" % (val, total))
        return 0
    _print(out, "cusp-order identity: FAILED (%d != %d)" % (val, total))
    return 1


# -- weierstrass ------------------------------------------------------------


def _cmd_weierstrass(args, out):
    basis = load_basis(args.basisfile)
    status = None
    if args.level is not None:
        inv = gamma0_invariants(args.level)
        named = re.fullmatch(r"Gamma0\((\d+)\)", basis.level_label)
        if named and int(named.group(1)) != args.level:
            raise ValidationError(
                "%s holds a basis for Gamma0(%d), but --level is %d"
                % (args.basisfile, int(named.group(1)), args.level))
        sig = inv.signature
        status = inv.hyperelliptic_status
        header = "Gamma_0(%d): genus %d, %d cusps, hyperelliptic: %s" % (
            inv.level,
            sig.genus,
            sig.cusp_count,
            _hyperelliptic_word(status),
        )
    else:
        sig = SurfaceSignature(basis.genus, 1)
        header = "%s: genus %d (from form count)" % (basis.level_label,
                                                     basis.genus)
    # Input errors leave stdout empty; errors found by the elimination
    # come after the header.
    check_inputs(basis, args.weight, sig)
    _print(out, header)
    report = weierstrass_test(basis, args.weight, sig,
                              hyperelliptic_status=status)
    _print(
        out,
        "weight m = %d: %d monomials of degree %d, expected dim %d, rank %d"
        % (
            report.m,
            len(report.monomial_exponents),
            report.m // 2,
            report.expected_dim,
            report.rank,
        ),
    )
    _print(out, "gap sequence %s" % format_gaps(report.gap_sequence))
    _print(
        out,
        "the cusp at infinity %s a %d-Weierstrass point of this curve"
        % ("IS" if report.is_weierstrass else "is NOT", report.m // 2),
    )
    if SPAN_NOT_GUARANTEED in report.flags:
        _print(
            out,
            "warning: hyperelliptic curve with rank below the expected "
            "dimension; the computed span may be a proper subspace and the "
            "verdict is not certified",
        )
    _print(out, "echelon rows:")
    for row in report.rows:
        _print(out, "  %s" % row.qstring(max_terms=_ROW_TERMS))
    return 0


# -- dispatch ---------------------------------------------------------------


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and usage errors go to the sys.stderr of the
    moment."""
    parser = argparse.ArgumentParser(
        prog="qweier",
        description="Exact q-expansion arithmetic, Wronskians, and "
        "Weierstrass-point tests for modular curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sig = sub.add_parser("signature", help="invariants of Gamma_0(N)")
    p_sig.add_argument("level", type=int, metavar="N")

    p_dims = sub.add_parser("dims", help="dimension and degree table")
    p_dims.add_argument("group", metavar="N|sigfile")
    p_dims.add_argument("weight", type=int, metavar="m")

    p_l1 = sub.add_parser("level1", help="full-modular-group checks")
    p_l1.add_argument("action", choices=["verify"])
    p_l1.add_argument("--tmax", type=positive_int, required=True, metavar="T")
    p_l1.add_argument(
        "--prec", type=positive_int, default=40, metavar="P",
        help="cap on the working precision (default 40); step t works "
        "modulo q^needed_t, the precision that certifies it, and a P "
        "below needed_t is an error")

    p_wr = sub.add_parser("wronskian", help="q-Wronskian of a basis file")
    p_wr.add_argument("basisfile")
    p_wr.add_argument("--weight", type=positive_int, default=None,
                      metavar="m")

    p_ws = sub.add_parser(
        "weierstrass", help="Weierstrass-point test at the cusp at infinity"
    )
    p_ws.add_argument("basisfile")
    p_ws.add_argument("--weight", type=int, required=True, metavar="m")
    p_ws.add_argument("--level", type=int, default=None, metavar="N")

    return parser


_HANDLERS = {
    "signature": _cmd_signature,
    "dims": _cmd_dims,
    "level1": _cmd_level1,
    "wronskian": _cmd_wronskian,
    "weierstrass": _cmd_weierstrass,
}


def cli_dispatch(argv, out=None, err=None):
    """Run one CLI invocation and return its exit code.

    Usage errors follow argparse convention and raise SystemExit(2).  A
    BrokenPipeError from writing to out propagates: the caller owns out.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args, out)
    except QweierError as exc:
        err.write("error: %s\n" % exc)
        return 1
    except BrokenPipeError:
        raise
    except OSError as exc:
        err.write("error: %s\n" % exc)
        return 1


def main():
    try:
        code = cli_dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so the flush
        # at interpreter exit does not fail again, and exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
