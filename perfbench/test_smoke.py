"""The benchmark's own test: tiny runs of every workload in both modes.

`run.py --smoke` fails unless every metric named in BENCHMARK.json is
emitted and every op passes the correctness gate.
"""
import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    assert proc.stdout.rstrip().endswith("smoke ok")
