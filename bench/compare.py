"""Compare two sets of benchmark records (JSON lines written by
``run.py --out``): the parent commit's and a change's.

For every workload and end-to-end metric it prints each side's median and
quartiles and a label:

  improved    the change wins at least 9 of 10 pairs (at least ten pairs,
              ties count for neither) and the medians differ by more than
              the parent's interquartile range;
  no worse    the change's median is within the metric's bound of the
              parent's, and the run-to-run spread is within the bound (or
              every change run beats every parent run);
  worse       the median is worse by more than the bound, spread within it;
  unresolved  the spread on either side is wider than the bound.

Pairs are formed in record order.  Per-layer metrics from traced records
are printed as change/parent ratios with the parent's value as the base.
"""

import json
import statistics
import sys
from collections import defaultdict

#: Percentiles tried for a tail, highest first; one is reported only if at
#: least ten samples lie beyond it.
_TAILS = (99.9, 99, 95, 90, 75, 50)


def load(path):
    by_workload = defaultdict(lambda: {0: [], 1: []})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                by_workload[rec["workload"]][rec["trace"]].append(rec)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples):
    """(percentile, value) for the highest percentile in _TAILS with at
    least ten samples beyond it, or None."""
    n = len(samples)
    for p in _TAILS:
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, cuts[int(round(p * 10)) - 1]
    return None


def label(parent, change, better, bound):
    sign = 1 if better == "lower" else -1
    q1a, meda, q3a = quartiles(parent)
    q1b, medb, q3b = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (a - b) * sign > 0)
    gain = (meda - medb) * sign
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "improved", wins, len(pairs)
    if sign > 0:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if all_better:
        return "no worse", wins, len(pairs)
    spread = max((q3a - q1a) / abs(meda) if meda else 0.0,
                 (q3b - q1b) / abs(medb) if medb else 0.0)
    if spread > bound:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(meda):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


def report(spec, parent, change, out):
    """Write the comparison of two load() results to ``out``."""
    for workload in sorted(set(parent) | set(change)):
        a, b = parent[workload], change[workload]
        out.write("== %s: %d parent / %d change runs\n"
                  % (workload, len(a[0]), len(b[0])))
        if a[0] and b[0]:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                va = [r["metrics"][name] for r in a[0]]
                vb = [r["metrics"][name] for r in b[0]]
                verdict, wins, n = label(va, vb, metric["better"],
                                         metric["bound"])
                out.write("  %-15s parent %s  change %s  ratio %.3f  "
                          "wins %d/%d  %s\n" % (
                              name, _fmt(va), _fmt(vb),
                              statistics.median(vb) / statistics.median(va),
                              wins, n, verdict))
            for side, recs in (("parent", a[0]), ("change", b[0])):
                pooled = [x for r in recs for x in r["pass_samples"]]
                t = tail(pooled)
                if t:
                    out.write("  pass_s %s p%g %.4g (%d passes)\n"
                              % (side, t[0], t[1], len(pooled)))
        if a[1] and b[1]:
            for metric in spec["per_layer"]:
                name = metric["name"]
                va = statistics.median(r["per_layer"][name] for r in a[1])
                vb = statistics.median(r["per_layer"][name] for r in b[1])
                ratio = "%.3f" % (vb / va) if va else "n/a"
                out.write("  %-42s %s (base %.4g)\n" % (name, ratio, va))


def main(root, parent_path, change_path):
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    report(spec, load(parent_path), load(change_path), sys.stdout)
    return 0
