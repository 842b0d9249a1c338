"""The example scripts still run against the library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run a script in a subprocess; require exit 0 without a traceback, return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ["cubic_benchmark.py", "--segments", "20"],
    ["rigid_body_compare.py", "--segments", "20"],
    ["rigid_body_compare.py", "--segments", "20", "--m", "2", "--steps", "50"],
])
def test_script_runs(argv):
    assert "direct" in run_script(*argv)


def test_shooting_traffic_script_runs():
    # a tree against itself does the same work on every target
    src = str(ROOT / "src")
    out = run_script("shooting_traffic.py", "--src", src, "--src", src,
                     "--kinds", "act", "--steps", "50", "--targets", "2")
    assert "converged=[2, 2]" in out and "same_work=2" in out


def test_shooting_answers_match_the_pinned_corpus():
    # fast parts of the 120-target corpus: the 24 act and under targets at 50
    # steps, and two e3 and two big ones, which take the multi-start and the
    # rerun after a failed continuation
    corpus = ROOT / "scripts" / "shooting_corpus.json"
    out = run_script("shooting_traffic.py", "--check", str(corpus),
                     "--kinds", "act", "under", "--steps", "50")
    assert "check: 24 of 24 targets match the corpus" in out
    out = run_script("shooting_traffic.py", "--check", str(corpus),
                     "--kinds", "e3", "big", "--steps", "50", "--targets", "2")
    assert "check: 4 of 4 targets match the corpus" in out


def test_csv_format_check_script_runs():
    out = run_script("csv_format_check.py", "--count", "20000", "--seed", "5")
    assert "20000 values match" in out


def test_integrator_order_script_runs():
    out = run_script("integrator_order.py", "--base-steps", "10", "--doublings", "2")
    assert out.split()[0] == "steps"


def test_code_lines_total_is_the_sum_of_the_modules():
    rows = [line.split() for line in run_script("code_lines.py").splitlines()]
    counts = {name: int(count) for name, count in rows}
    total = counts.pop("total")
    assert "pmp.py" in counts and "__init__.py" in counts
    assert total == sum(counts.values()) > 0
