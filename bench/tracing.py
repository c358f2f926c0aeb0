"""Spans and counters recorded around qweier's layers, from outside the
package.

Modules inside qweier import names with ``from .x import y``, so a wrapper
is rebound in every loaded ``qweier`` module that holds the original
object, not only where it is defined.  Methods are wrapped on their class.
Spans stay in memory as (name, start, end, parent index, case id) tuples
and are summarised, or written out, after the run.
"""

import json
import sys
from time import perf_counter

#: Function layers: (module, attribute, metric prefix).  ``echelon_reduce``
#: is named per call by its transform flag, see ``_echelon_name``.
_FUNCTIONS = (
    ("qweier.ingest", "load_basis", "ingest.load_basis"),
    ("qweier.ingest", "parse_basis_file", "ingest.parse_basis_file"),
    ("qweier.weierstrass", "monomials", "weierstrass.monomials"),
    ("qweier.weierstrass", "weierstrass_test", "weierstrass.weierstrass_test"),
    ("qweier.weierstrass", "wronskian_criterion",
     "weierstrass.wronskian_criterion"),
    ("qweier.weierstrass", "subspace_dimension",
     "weierstrass.subspace_dimension"),
    ("qweier.exactlinalg", "echelon_reduce", None),
    ("qweier.exactlinalg", "pivot_columns", "exactlinalg.pivot_columns"),
    ("qweier.exactlinalg", "det_bareiss", "exactlinalg.det_bareiss"),
    ("qweier.wronskian", "wronskian_valuation",
     "wronskian.wronskian_valuation"),
    ("qweier.wronskian", "q_wronskian", "wronskian.q_wronskian"),
    ("qweier.wronskian", "span_valuations", "wronskian.span_valuations"),
    # Private: the series-determinant dispatch (Laplace for k <= 8,
    # fraction-free beyond).  Skipped, and reported as 0, once it is gone.
    ("qweier.wronskian", "_det_series", "wronskian.det_series"),
    ("qweier.level1", "monomial_series", "level1.monomial_series"),
    ("qweier.level1", "express_in_monomials", "level1.express_in_monomials"),
    ("qweier.cli", "cli_dispatch", "cli.cli_dispatch"),
    ("qweier.surface", "gamma0_invariants", "surface.gamma0_invariants"),
)

#: Method layers: (module, class, method, metric prefix).
_METHODS = (
    ("qweier.qseries", "QSeries", "__mul__", "qseries.mul"),
    ("qweier.qseries", "QSeries", "__pow__", "qseries.pow"),
    ("qweier.qseries", "QSeries", "exact_div", "qseries.exact_div"),
    ("qweier.exactlinalg", "RatMatrix", "__init__", "exactlinalg.RatMatrix"),
)

#: Every per-layer metric a traced run reports, with its unit.
METRICS = {
    "ingest.load_basis.calls": "count",
    "ingest.load_basis.busy_s": "s",
    "ingest.parse_basis_file.busy_s": "s",
    "ingest.coeffs": "count",
    "qseries.mul.calls": "count",
    "qseries.mul.self_s": "s",
    "qseries.mul.out_coeffs": "count",
    "qseries.pow.busy_s": "s",
    "qseries.exact_div.busy_s": "s",
    "weierstrass.monomials.self_s": "s",
    "weierstrass.monomials.count": "count",
    "weierstrass.weierstrass_test.self_s": "s",
    "weierstrass.wronskian_criterion.self_s": "s",
    "weierstrass.subspace_dimension.self_s": "s",
    "exactlinalg.echelon_transform.busy_s": "s",
    "exactlinalg.echelon_plain.busy_s": "s",
    "exactlinalg.pivot_columns.busy_s": "s",
    "exactlinalg.RatMatrix.busy_s": "s",
    "exactlinalg.det_bareiss.busy_s": "s",
    "exactlinalg.echelon.cells": "count",
    "exactlinalg.echelon.transform_cells": "count",
    "exactlinalg.echelon.useful_ratio": "ratio",
    "exactlinalg.echelon.max_bits": "bits",
    "wronskian.wronskian_valuation.self_s": "s",
    "wronskian.q_wronskian.calls": "count",
    "wronskian.q_wronskian.self_s": "s",
    "wronskian.q_wronskian.k_max": "count",
    "wronskian.span_valuations.busy_s": "s",
    "wronskian.det_series.busy_s": "s",
    "level1.monomial_series.busy_s": "s",
    "level1.express_in_monomials.self_s": "s",
    "cli.cli_dispatch.self_s": "s",
    "surface.gamma0_invariants.busy_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _echelon_name(args, kwargs):
    transform = kwargs.get("want_transform", args[1] if len(args) > 1 else True)
    return ("exactlinalg.echelon_transform" if transform
            else "exactlinalg.echelon_plain")


def _bits(x):
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Records spans and counters while installed; ``install`` and
    ``uninstall`` rebind and restore every wrapped layer."""

    def __init__(self):
        self.spans = []
        self.case = None
        self.counters = {}
        self._stack = []
        self._active = {}
        self._restore = []

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name, name_of=None, count=None):
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth = active.get(label, 0)
            active[label] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[label] = depth
                # A span nested in one of the same name adds no busy time.
                spans[idx] = (label, start, end, parent, self.case, depth > 0)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer that exists in the loaded qweier modules."""
        loaded = {k: m for k, m in sys.modules.items()
                  if k == "qweier" or k.startswith("qweier.")}
        counts = {
            "ingest.parse_basis_file": _count_parse,
            "weierstrass.monomials": _count_monomials,
            "wronskian.q_wronskian": _count_q_wronskian,
            "qseries.mul": _count_mul,
        }
        for modname, attr, name in _FUNCTIONS:
            orig = getattr(loaded.get(modname), attr, None)
            if orig is None:
                continue
            if name is None:
                wrapper = self._wrap(orig, None, _echelon_name, _count_echelon)
            else:
                wrapper = self._wrap(orig, name, count=counts.get(name))
            for module in loaded.values():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, orig))
        for modname, clsname, attr, name in _METHODS:
            cls = getattr(loaded.get(modname), clsname, None)
            orig = getattr(cls, attr, None)
            if orig is None:
                continue
            setattr(cls, attr, self._wrap(orig, name, count=counts.get(name)))
            self._restore.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def reset(self):
        self.spans.clear()
        self.counters = {}

    # -- summaries ------------------------------------------------------

    def summary(self):
        """Per-layer metrics over the spans and counters recorded since the
        last reset: busy_s (time inside the layer, outermost spans only),
        self_s (busy time minus time covered by child spans), calls."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, own, calls = {}, {}, {}
        for i, (label, start, end, _, _, nested) in enumerate(self.spans):
            calls[label] = calls.get(label, 0) + 1
            own[label] = own.get(label, 0.0) + (end - start) - child[i]
            if not nested:
                busy[label] = busy.get(label, 0.0) + (end - start)
        c = self.counters
        out = {}
        for metric in METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "busy_s":
                out[metric] = busy.get(layer, 0.0)
            elif stat == "self_s":
                out[metric] = own.get(layer, 0.0)
            elif stat == "calls":
                out[metric] = calls.get(layer, 0)
        rows = c.get("echelon.rows", 0)
        out.update({
            "ingest.coeffs": c.get("ingest.coeffs", 0),
            "qseries.mul.out_coeffs": c.get("mul.out_coeffs", 0),
            "weierstrass.monomials.count": c.get("monomials.count", 0),
            "exactlinalg.echelon.cells": c.get("echelon.cells", 0),
            "exactlinalg.echelon.transform_cells":
                c.get("echelon.transform_cells", 0),
            "exactlinalg.echelon.useful_ratio":
                c.get("echelon.rank", 0) / rows if rows else 0.0,
            "exactlinalg.echelon.max_bits": c.get("echelon.max_bits", 0),
            "wronskian.q_wronskian.k_max": c.get("q_wronskian.k_max", 0),
            "trace.spans": len(self.spans),
        })
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, case id."""
        with open(path, "w", encoding="utf-8") as fh:
            for label, start, end, parent, case, _ in self.spans:
                fh.write(json.dumps([label, start, end, parent, case]) + "\n")


# -- counters, computed from arguments and results -------------------------


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _count_parse(counters, args, kwargs, result):
    _add(counters, "ingest.coeffs", sum(len(c) for _, c in result.forms))


def _count_monomials(counters, args, kwargs, result):
    _add(counters, "monomials.count", len(result))


def _count_q_wronskian(counters, args, kwargs, result):
    k = len(args[0])
    counters["q_wronskian.k_max"] = max(counters.get("q_wronskian.k_max", 0), k)


def _count_mul(counters, args, kwargs, result):
    if result is not NotImplemented:
        _add(counters, "mul.out_coeffs", result.prec)


def _count_echelon(counters, args, kwargs, result):
    m = args[0]
    _add(counters, "echelon.cells", m.rows * m.cols)
    if result.transform is not None:
        _add(counters, "echelon.transform_cells", m.rows * m.rows)
    _add(counters, "echelon.rows", m.rows)
    _add(counters, "echelon.rank", result.rank)
    bits = max((_bits(x) for row in result.echelon.entries for x in row),
               default=0)
    counters["echelon.max_bits"] = max(counters.get("echelon.max_bits", 0), bits)
