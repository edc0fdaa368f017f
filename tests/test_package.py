"""Package-level properties: dependencies, and invariant checks that survive -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rcforms
from rcforms import InvariantError, brackets, verify

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_does_not_load_numpy():
    result = run_python("-c", "import rcforms, sys; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_package_has_no_assert_statements():
    for path in sorted((SRC / "rcforms").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} uses assert at lines {asserts}"


def test_invariant_error_is_exported_arithmetic_error():
    assert rcforms.InvariantError is InvariantError
    assert issubclass(InvariantError, ArithmeticError)
    assert not issubclass(InvariantError, AssertionError)


OPTIMIZED_SCRIPT = """
import sys
from rcforms import E8, E8_INDEX1_VECTOR, InvariantError, brackets, jacobi_theta, series
if not sys.flags.optimize:
    sys.exit("not running under -O")
raised = []
try:
    series._class_members(1, 0, 1, 2)  # disc 1 admits no integral n at r = 0
except InvariantError:
    raised.append("series")
theta = jacobi_theta(E8, E8_INDEX1_VECTOR, 2)
brackets._exact_rank = lambda rows: len(rows)
try:
    brackets.bracket_rank_over_x(theta, theta, 2)
except InvariantError:
    raised.append("brackets")
print(" ".join(raised))
"""


def test_invariant_checks_survive_optimize_flag():
    result = run_python("-O", "-c", OPTIMIZED_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["series", "brackets"]


def test_verify_reports_rank_invariant_as_failed_check(monkeypatch):
    monkeypatch.setattr(brackets, "_exact_rank", lambda rows: len(rows))
    results = verify.check_bracket_rank(verify.FormSet(trunc=2, siegel_trunc=1))
    assert results and not any(r.passed for r in results)
    assert all("exceeds the degree bound" in r.detail for r in results)

