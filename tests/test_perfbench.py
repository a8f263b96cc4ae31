import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    # the harness calls search_ratio(..., jobs=1), gamma_exact, both kernel
    # modules and the functions its tracer wraps by name; its self-test runs
    # each workload on tiny inputs, traced and untraced, in under a second
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "self-test ok"
