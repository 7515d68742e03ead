"""The example scripts, the example config and README's Python examples run
end to end and exit 0, so a change to the public API or the config format
they use cannot break them unnoticed."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dropsim import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, outputs", [
    ("threshold_demo.py", ["--workers", "4", "--iterations", "10",
                           "--trace-out", "trace.csv", "--curve-out", "curve.csv"],
     ["trace.csv", "trace_comm.csv", "curve.csv"]),
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


def test_scale_curve_config_runs(tmp_path):
    # The fleet-size curve under heavy-tailed delay: the simulated-delay
    # noise on a 1 s micro-batch, swept up to 2048 workers. It runs here
    # with fewer fleet sizes and iterations.
    doc = json.loads((ROOT / "scripts" / "scale_curve.json").read_text())
    assert doc == {
        "fleet": {"workers": 8, "base_mean": 1.0, "noise": {"kind": "simulated_delay"},
                  "noise_mode": "additive_scaled_by_mean"},
        "m_per_step": 12, "t_comm": 0.5, "tau": "auto", "iterations": 300,
        "warmup_iterations": 100, "seed": 0,
        "n_list": [8, 16, 32, 64, 128, 200, 256, 512, 1024, 2048]}
    config = tmp_path / "scale_curve.json"
    config.write_text(json.dumps({**doc, "n_list": [2, 4], "iterations": 10,
                                  "warmup_iterations": 5}))
    assert cli.main(["scale-sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["n_workers", "tau", "throughput_base", "throughput_drop",
                       "s_eff", "linear_ref", "s_eff_analytic"]
    assert [r[0] for r in rows[1:]] == ["2", "4"]


def test_readme_python_blocks_run(capsys):
    # The blocks share one namespace, in order, as a reader would paste them.
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.count("\n") >= 4
