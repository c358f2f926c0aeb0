"""The benchmark harness still runs against the package.  Its tracer wraps
QSeries.__mul__, QSeries.exact_div and RatMatrix.__init__ and its oracles
read .coeffs and .entries, so a change to those objects that breaks the
benchmark shows here."""

import subprocess
import sys
from pathlib import Path

import qweier.weierstrass
from conftest import load_fixture
from qweier.surface import gamma0_invariants
from qweier.weierstrass import weierstrass_test

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "self-test: OK" in proc.stdout.splitlines()


def test_a_traced_run_solves_as_often_as_an_untraced_one(monkeypatch):
    # The tracer reads each echelon result; reading it must not make the
    # exact core build anything an untraced run does not.  The spy sits where the report looks the solve up: a bare
    # weierstrass_test call solves nothing, and the first read of its
    # combinations solves exactly once, so a spy that sees no call
    # cannot pass.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import Tracer

    calls = []
    solve = qweier.weierstrass.solve_on_rows

    def spy(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(qweier.weierstrass, "solve_on_rows", spy)
    basis, inv = load_fixture(55), gamma0_invariants(55)

    def run():
        del calls[:]
        report = weierstrass_test(
            basis, 8, inv.signature,
            hyperelliptic_status=inv.hyperelliptic_status)
        counts = [len(calls)]
        first = report.combinations
        counts.append(len(calls))
        assert report.combinations is first
        counts.append(len(calls))
        return counts

    untraced = run()
    assert untraced == [0, 1, 1]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert tracer.counters["echelon.rows"] > 0
    assert traced == untraced


def test_the_verdict_oracle_checks_the_lazy_combinations(monkeypatch):
    # The bench reads report.combinations only in its oracle, outside
    # the timed call; a solve that misses by one coordinate must still
    # be caught there.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    case = next(c for c in workloads.build("verdict", ROOT).cases
                if c.id == "verdict:34/4")
    assert workloads._verdict_check(case.call(), case.expected) is None
    solve = qweier.weierstrass.solve_on_rows

    def perturbed(*args):
        coords = solve(*args)
        coords[0][0] += 1
        return coords

    monkeypatch.setattr(qweier.weierstrass, "solve_on_rows", perturbed)
    problem = workloads._verdict_check(case.call(), case.expected)
    assert problem is not None
    assert problem.startswith("combination ")
    assert " misses its row" in problem
