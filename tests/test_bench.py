"""The benchmark harness still runs against the package.  Its tracer wraps
QSeries.__mul__, QSeries.exact_div and RatMatrix.__init__ and its oracles
read .coeffs and .entries, so a change to those objects that breaks the
benchmark shows here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "self-test: OK" in proc.stdout.splitlines()
