"""The benchmark harness still runs against this source tree.

``perfbench/run.py --smoke`` traces named graphsep functions by attribute
lookup and checks every metric it reports, so a renamed or removed function
breaks it.  The smoke run takes about a second.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
