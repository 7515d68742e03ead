"""List the `raise` statements of src/dropsim that the tier-1 suite never runs.

The runner runs pytest on tests/ in this process, with a trace hook
(sys.settrace, and threading.settrace for threads started later) that records
the lines executed in files under src/dropsim and traces nothing else. It
then finds every `raise` statement there with `ast` and counts one as reached
when any line of it ran. Lines run in child processes, as by the tests that
start the command line in a subprocess, are not seen. Each unreached `raise`
is printed as file:line, its enclosing function and its first line.

ALLOWED names the raises that no test can reach, by file and enclosing
function, each with its reason. Exit status: 0 when pytest passes and every
unreached `raise` is allowed; 1 when pytest fails, a `raise` outside ALLOWED
is unreached, dropsim was imported from outside src, or an ALLOWED entry
names no `raise` in its file. Standard library only (pytest runs the tests).
CI runs it in dev mode with every warning an error:

    python3 -X dev -W error tools/raises.py
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dropsim"

# (file under src/dropsim, enclosing function's qualified name): reason.
ALLOWED = {
    ("latency.py", "NoiseSpec.sample"): "abstract stub: every noise kind overrides it",
    ("latency.py", "NoiseSpec.mean"): "abstract stub: every noise kind overrides it",
    ("latency.py", "NoiseSpec.variance"): "abstract stub: every noise kind overrides it",
    ("sgd.py", "_newton_direction"):
        "the ladder's last shift makes the matrix diagonally dominant, so it factorises",
}


def _raises(path: Path) -> list[tuple[str, ast.Raise]]:
    """(enclosing function's qualified name, node) of each raise in the file;
    the name is "<module>" for a raise outside any function."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found.append((".".join(scope) if in_function else "<module>", child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), in_function)
            else:
                visit(child, scope, in_function)

    visit(ast.parse(path.read_text(), str(path)), (), False)
    return found


def _traced_pytest(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs run under src/dropsim."""
    import pytest

    prefix = str(SRC) + os.sep
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            seen.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    code, seen = _traced_pytest(["-q", "-p", "no:cacheprovider", "tests"])
    module = sys.modules.get("dropsim")
    if module is None or not Path(module.__file__).resolve().is_relative_to(SRC):
        print(f"dropsim was not imported from {SRC}")
        return 1
    total, keys, unreached, allowed = 0, set(), [], []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for function, node in _raises(path):
            key = (path.name, function)
            total += 1
            keys.add(key)
            if any((str(path), n) in seen for n in range(node.lineno, node.end_lineno + 1)):
                continue
            (allowed if key in ALLOWED else unreached).append(key)
            print(f"{'allowed' if key in ALLOWED else 'UNREACHED'} {path.name}:{node.lineno} "
                  f"in {function}: {lines[node.lineno - 1].strip()}")
    stale = sorted(ALLOWED.keys() - keys)
    for file, function in stale:
        print(f"ALLOWED entry names no raise: {file} {function}")
    print(f"pytest exited {code}; {total} raise statements, {len(allowed)} unreached and "
          f"allowed, {len(unreached)} unreached and not allowed")
    return 1 if code != 0 or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
