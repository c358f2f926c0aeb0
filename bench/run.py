"""qweier benchmark: exact workloads timed end to end, and a traced run
for per-layer numbers.

    python3 bench/run.py --workload verdict --seed 1 --seconds 28 --trace 0
    python3 bench/run.py ... --out results.jsonl      # also append the record
    python3 bench/run.py --compare parent.jsonl change.jsonl
    python3 bench/run.py --self-test

Run it from the repository root; it imports qweier from ``src`` and reads
``fixtures``.  One workload runs per process, single-threaded, and the
set-up interpreters it starts run one at a time, never beside the
measured work.

A run builds the workload's inputs (the case lists are fixed, so
``--seed`` is recorded but changes nothing), times a fresh interpreter
importing qweier and loading the workload's files (``setup_s``), runs one
untimed warm-up pass whose every result is checked by an exact oracle,
then repeats timed passes until ``--seconds`` is used up, comparing each
result with the checked one.  A pass's time is the sum of its cases' times
per call; cases shorter than MIN_CASE_S are called back to back within
the pass and timed per call.  With ``--trace 1`` half the time goes to
untraced passes and half to traced passes, one call per case; the traced
results must equal the untraced ones and no source file may change.
The last line of standard output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters timed for setup_s; each takes tens of milliseconds.
SETUP_SAMPLES = 15

#: A case faster than this is called back to back until the calls last this
#: long, and timed per call, so millisecond cases are not timer noise.
MIN_CASE_S = 0.05

_SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import qweier, qweier.cli
from qweier.ingest import load_basis, parse_basis_file
for item in sys.argv[2:]:
    kind, path = item.split(":", 1)
    if kind == "basis":
        load_basis(path)
    else:
        with open(path, encoding="utf-8") as fh:
            parse_basis_file(fh.read())
"""


def _fail(message):
    print("bench: %s" % message, file=sys.stderr)
    return 2


def source_digest(root):
    """sha256 over every .py file under src, by relative path."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(root, files):
    """Wall seconds for each of SETUP_SAMPLES fresh interpreters to import
    qweier and load the workload's files."""
    argv = [sys.executable, "-I", "-c", _SETUP_CODE, str(root / "src")]
    argv += ["%s:%s" % (kind, path) for kind, path in files]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(argv, cwd=root, check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


class Ledger:
    """Cases attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, case_id, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("%s: %s" % (case_id, problem))


def _timed(case, reps=1):
    """(results, seconds per call, problem or None) of ``reps`` back-to-back
    calls; results is empty when a call raised."""
    results = []
    start = perf_counter()
    try:
        for _ in range(reps):
            results.append(case.call())
    except Exception as exc:  # a raising case is a failed case, not a crash
        return [], perf_counter() - start, "raised %s: %s" % (
            type(exc).__name__, exc)
    return results, (perf_counter() - start) / reps, None


def _checked(check, raw, expected):
    try:
        return check(raw, expected)
    except Exception as exc:  # a result the oracle cannot read is wrong
        return "oracle raised %s: %s" % (type(exc).__name__, exc)


def checked_pass(cases, ledger):
    """The untimed warm-up: every result goes through its oracle.  Returns
    {case id: (digest, repetitions)}: the digest of the checked result
    (None for a case that failed), and how many back-to-back calls make the
    case last MIN_CASE_S in a timed pass."""
    reference = {}
    for case in cases:
        results, seconds, problem = _timed(case)
        if problem is None:
            problem = _checked(case.check, results[0], case.expected)
        digest = None if problem else case.digest(results[0])
        reps = max(1, math.ceil(MIN_CASE_S / seconds))
        reference[case.id] = (digest, reps)
        ledger.record(case.id, problem)
    return reference


def timed_pass(cases, reference, ledger, times):
    """One timed pass; appends each case's seconds per call to ``times`` and
    returns their sum.  Every result must equal the checked warm-up one."""
    total = 0.0
    for case in cases:
        digest, reps = reference[case.id]
        results, seconds, problem = _timed(case, reps)
        total += seconds
        times.setdefault(case.id, []).append(seconds)
        if problem is None and any(case.digest(r) != digest for r in results):
            problem = "result differs from the checked warm-up result"
        ledger.record(case.id, problem)
    return total


def repeat_passes(cases, reference, ledger, budget, times, before=None):
    """Timed passes until the next one would overrun ``budget`` seconds
    (at least one).  ``before`` runs ahead of each pass, untimed."""
    totals = []
    start = perf_counter()
    while True:
        if before:
            before()
        totals.append(timed_pass(cases, reference, ledger, times))
        used = perf_counter() - start
        if used + used / len(totals) > budget:
            return totals


def geomean_of_medians(times):
    return math.exp(statistics.fmean(
        math.log(statistics.median(v)) for v in times.values()))


#: Units of the end-to-end metrics.
E2E_UNITS = {"pass_s": "s", "case_geomean_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def traced_layers(wl, reference, ledger, budget, root):
    """Traced passes over the workload for ``budget`` seconds.  Each pass
    starts with the workload's file loads, so the ingest layer shows beside
    the cases.  Returns the per-layer metrics (the median over passes of
    each pass's summary) and the traced pass totals; the spans of the last
    pass are written under .bench_work."""
    import qweier
    import tracing

    tracer = tracing.Tracer()
    summaries = []

    def load_files():
        if tracer.spans:
            summaries.append(tracer.summary())
        tracer.reset()
        tracer.case = "setup"
        for kind, path in wl.files:
            if kind == "basis":
                qweier.load_basis(path)
            else:
                with open(path, encoding="utf-8") as fh:
                    qweier.parse_basis_file(fh.read())

    def tagged(case):
        def call():
            tracer.case = case.id
            return case.call()
        return type(case)(case.id, call, case.check, case.digest,
                          case.expected)

    cases = [tagged(case) for case in wl.cases]
    # One call per case, so that every count repeats exactly pass to pass.
    once = {k: (digest, 1) for k, (digest, _) in reference.items()}
    tracer.install()
    try:
        totals = repeat_passes(cases, once, ledger, budget, {},
                               before=load_files)
    finally:
        tracer.uninstall()
    summaries.append(tracer.summary())
    spans_path = root / ".bench_work" / ("spans-%s.jsonl" % wl.name)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    layer = {name: statistics.median(s[name] for s in summaries)
             for name in summaries[0]}
    return layer, totals


def run(workload, seed, seconds, trace, root=ROOT):
    """Measure one workload.  Returns the full record and the result line."""
    import tracing
    import workloads

    src_before = source_digest(root)
    wl = workloads.build(workload, root)
    setup = measure_setup(root, wl.files)
    ledger = Ledger()
    reference = checked_pass(wl.cases, ledger)
    times = {}
    budget = seconds / 2 if trace else seconds
    totals = repeat_passes(wl.cases, reference, ledger, budget, times)
    metrics = {
        "pass_s": statistics.median(totals),
        "case_geomean_s": geomean_of_medians(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cases": len(wl.cases),
        "metrics": metrics, "pass_samples": totals, "setup_samples": setup,
        "case_medians": {k: statistics.median(v) for k, v in times.items()},
    }
    if trace:
        layer, traced_totals = traced_layers(wl, reference, ledger, budget,
                                             root)
        layer["trace.overhead_s"] = (
            statistics.median(traced_totals) - metrics["pass_s"])
        record["per_layer"] = layer
        record["traced_pass_samples"] = traced_totals
        shown = {k: {"value": v, "unit": tracing.METRICS[k]}
                 for k, v in layer.items()}
    else:
        shown = {k: {"value": v, "unit": E2E_UNITS[k]}
                 for k, v in metrics.items()}
    if source_digest(root) != src_before:
        ledger.record("source", "a file under src changed during the run")
    record.update({
        "attempted": ledger.attempted, "failed": ledger.failed,
        "fail_ratio": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
    })
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": shown}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(ROOT, *args.compare)
    if not (ROOT / "src" / "qweier" / "__init__.py").is_file():
        return _fail("no src/qweier under %s; run from a qweier checkout"
                     % ROOT)
    if not (ROOT / "fixtures").is_dir():
        return _fail("no fixtures directory under %s" % ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        import selftest
        return selftest.main(ROOT)
    import workloads
    if args.workload not in workloads.NAMES:
        return _fail("--workload must be one of %s" % ", ".join(workloads.NAMES))
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    record, result = run(args.workload, args.seed, args.seconds, args.trace)
    for problem in record["problems"]:
        print("bench: FAILED %s" % problem, file=sys.stderr)
    print("bench: %s seed %d: %d passes, pass_s %.4f, fail_ratio %.4f"
          % (args.workload, args.seed, len(record["pass_samples"]),
             record["metrics"]["pass_s"], record["fail_ratio"]),
          file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
