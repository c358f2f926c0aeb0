"""The benchmark harness still runs against the package.  Its tracer wraps
QSeries.__mul__, QSeries.exact_div and RatMatrix.__init__ and its oracles
read .coeffs and .entries, so a change to those objects that breaks the
benchmark shows here."""

import subprocess
import sys
from pathlib import Path

import qweier.exactlinalg
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
    # exact core build anything an untraced run does not.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import Tracer

    calls = []
    solve = qweier.exactlinalg._coordinates

    def spy(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(qweier.exactlinalg, "_coordinates", spy)
    basis, inv = load_fixture(55), gamma0_invariants(55)

    def run():
        del calls[:]
        weierstrass_test(basis, 8, inv.signature,
                         hyperelliptic_status=inv.hyperelliptic_status)
        return len(calls)

    untraced = run()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert tracer.counters["echelon.rows"] > 0
    assert traced == untraced
