"""The benchmark's self-test, run with the rest of the suite.

perfbench counts its matrix2 items, and plants its faults, through the
checker's per-cell ``check_postulate`` calls.  A change that stops making
those calls, or hides a planted fault, fails here as well.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
