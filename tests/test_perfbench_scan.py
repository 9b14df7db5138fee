"""perfbench's control scan runs against this checkout's verifier.

``perfbench/scan_controls.py`` corrupts one symbol per index through
``theory.verify(..., mutate=...)`` and counts the indices no check
detects; the suite_verify workload draws its control indices from such a
range.  A short scan keeps that caller of ``mutate`` working.
"""

from pathlib import Path

SCAN = Path(__file__).resolve().parent.parent / "perfbench" / "scan_controls.py"


def test_short_scan_detects_every_corruption(run_python):
    proc = run_python(str(SCAN), "--n-max", "64", "--lo", "56", timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert all(line.endswith(": 0 of 8 undetected") for line in lines), lines
