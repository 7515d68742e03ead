"""The example scripts run end to end on tiny inputs and exit 0, so a change
to the public API they import cannot break them unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, outputs", [
    ("threshold_demo.py", ["--workers", "4", "--iterations", "10",
                           "--trace-out", "trace.csv", "--curve-out", "curve.csv"],
     ["trace.csv", "trace_comm.csv", "curve.csv"]),
    ("scale_curve.py", ["--n-list", "2", "4", "--iterations", "10", "--warmup", "5",
                        "--out", "scale.csv"], ["scale.csv"]),
    ("noise_comparison.py", ["--workers", "4", "--iterations", "10", "--warmup", "5"], []),
])
def test_script_runs(tmp_path, script, args, outputs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
