"""Self-test of the benchmark, standard library only:

- smoke: the smallest case of each workload passes its oracle;
- a deliberately wrong expectation raises the fail ratio;
- tracing changes no result, restores every wrapped layer, and reports
  every per-layer metric;
- the compare labels follow their rules.
"""

import compare
import run
import tracing
import workloads


class _Wrong:
    """An expectation no result can meet."""

    def __eq__(self, other):
        return False

    __hash__ = None

    def __repr__(self):
        return "<wrong on purpose>"


def _smoke(name, root):
    """The workload cut to its first, smallest case, run through its
    oracle once."""
    ledger = run.Ledger()
    wl = workloads.build(name, root)
    wl.cases = wl.cases[:1]
    reference = run.checked_pass(wl.cases, ledger)
    return wl, reference, ledger


def _tracing_problems(root):
    import qweier
    problems = []
    for name in ("verdict", "wronskian"):
        wl, reference, _ = _smoke(name, root)
        tracer = tracing.Tracer()
        original = qweier.weierstrass_test
        tracer.install()
        try:
            if qweier.weierstrass_test is original:
                problems.append("install left weierstrass_test unwrapped")
            ledger = run.Ledger()
            traced = run.checked_pass(wl.cases, ledger)
        finally:
            tracer.uninstall()
        if qweier.weierstrass_test is not original:
            problems.append("uninstall did not restore weierstrass_test")
        digests = {k: v[0] for k, v in traced.items()}
        if digests != {k: v[0] for k, v in reference.items()} or ledger.failed:
            problems.append("%s: traced results differ" % name)
        summary = tracer.summary()
        missing = set(tracing.METRICS) - set(summary) - {"trace.overhead_s"}
        if missing:
            problems.append("%s: no %s" % (name, sorted(missing)))
        if not tracer.spans:
            problems.append("%s: no spans recorded" % name)
        for metric, value in summary.items():
            layer, _, stat = metric.rpartition(".")
            if stat == "self_s" and value > summary.get(layer + ".busy_s",
                                                        value) + 1e-9:
                problems.append("%s: self time above busy time" % metric)
    return problems


def _compare_problems():
    lower = [1.0 + 0.01 * i for i in range(10)]
    cases = (
        ([x * 0.5 for x in lower], "improved"),
        (lower, "no worse"),
        ([x * 1.5 for x in lower], "worse"),
        ([x * (3 if i % 2 else 1) for i, x in enumerate(lower)], "unresolved"),
    )
    problems = []
    for change, want in cases:
        got = compare.label(lower, change, "lower", 0.1)[0]
        if got != want:
            problems.append("compare labelled %s as %s" % (want, got))
    return problems


def main(root):
    problems = []
    for name in workloads.NAMES:
        wl, _, ledger = _smoke(name, root)
        if ledger.failed:
            problems.append("%s smoke: %s" % (name, ledger.problems))
        for case in wl.cases:
            case.expected = {key: _Wrong() for key in case.expected}
        wrong = run.Ledger()
        run.checked_pass(wl.cases, wrong)
        if wrong.failed == 0:
            problems.append("%s: a wrong expectation left fail_ratio at 0"
                            % name)
        print("self-test: %s smoke fail_ratio %.2f, with a wrong expectation "
              "%.2f" % (name, ledger.failed / ledger.attempted,
                        wrong.failed / wrong.attempted))
    problems += _tracing_problems(root)
    problems += _compare_problems()
    for problem in problems:
        print("self-test: FAILED %s" % problem)
    print("self-test: %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0
