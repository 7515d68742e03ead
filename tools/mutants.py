"""Re-run the recorded mutation checks: every mutant must be killed.

Each mutant in mutants.json names a file, an exact `old` text that occurs
there once, its `new` text, the tests that must kill it, and the CHANGES.md
entry it comes from. The runner first runs every named test on an unchanged
copy of the tree, where all must pass. Then, for each mutant, it copies the
tree (without .git or caches) to a temporary directory, replaces `old` by
`new` and runs `pytest -x -q` on the mutant's tests there, with PYTHONPATH at
the copy's src. A mutant is killed when its tests fail.

Exit status: 0 when every mutant is killed; 1 when a mutant survives, its
`old` text is not found exactly once, pytest cannot run its tests or
times out, or the unchanged copy fails a named test. Standard library only (pytest runs the tests):

    python3 tools/mutants.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).with_name("mutants.json")
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               ".benchmarks", ".perfbench_work", "*.egg-info")


# Seconds one pytest run may take; a mutant that hangs its tests is not killed.
_TIMEOUT = 600


def _pytest(tree: Path, tests: list[str]) -> tuple[str, str]:
    """(outcome, pytest's last line) of `pytest -x -q tests` in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timed out after {_TIMEOUT} s", ""
    lines = done.stdout.strip().splitlines()
    outcome = {0: "passed", 1: "failed"}.get(done.returncode, f"pytest exit {done.returncode}")
    return outcome, (lines[-1] if lines else "")


def _in_copy(mutant: dict | None, tests: list[str]) -> tuple[str, str]:
    """(outcome, pytest's last line) of tests on a copy of the tree with the
    mutant applied. outcome is "passed", "failed" (a test failed), "pytest
    exit N" (pytest could not run the tests, as on a collection error),
    "timed out after N s" or "old text found N times"."""
    with tempfile.TemporaryDirectory(prefix="dropsim-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        if mutant is not None:
            path = tree / mutant["file"]
            text = path.read_text()
            found = text.count(mutant["old"])
            if found != 1:
                return f"old text found {found} times", ""
            path.write_text(text.replace(mutant["old"], mutant["new"]))
        return _pytest(tree, tests)


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
    outcome, last = _in_copy(None, tests)
    print(f"unchanged tree: {len(tests)} test ids {outcome}: {last}", flush=True)
    if outcome != "passed":
        return 1
    survivors = []
    for mutant in mutants:
        start = time.perf_counter()
        outcome, last = _in_copy(mutant, mutant["tests"])
        verdict = "killed" if outcome == "failed" else "SURVIVED" if outcome == "passed" else outcome
        print(f"{mutant['name']}: {verdict} in {time.perf_counter() - start:.1f} s"
              f"{': ' + last if last else ''}", flush=True)
        if verdict != "killed":
            survivors.append(mutant["name"])
    if survivors:
        print(f"not killed: {', '.join(survivors)}")
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
