"""The benchmark's smoke check runs against this checkout.

``perfbench/run.py --smoke`` runs one traced op per workload.  Its tracer
reads library results by shape: ``merge_weighted_rows(rows, weights)[1]``,
``len(build_pair(...).alt_plan)``, ``solve_transport(...).size`` and
``push_through_quantiles(...)[1]``.  A library change that breaks one of them
fails here, not only when the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
