"""The example scripts still run against the library API."""

import json
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


def test_shooting_traffic_records_its_trees_from_the_checkout_root(tmp_path):
    # by default and by an absolute --src alike, this tree is `src`, as
    # `--src src` names it, so a --json file names no machine path
    for args in ((), ("--src", str(ROOT / "src"))):
        run_script("shooting_traffic.py", *args, "--kinds", "act", "--steps", "16",
                   "--targets", "1", "--json", str(tmp_path / "rows.json"))
        assert json.loads((tmp_path / "rows.json").read_text())["sources"] == ["src"]


def test_shooting_answers_match_the_pinned_corpus():
    # fast parts of the 144-target corpus, with the answers and the work (flows,
    # LM steps and row-steps) of each: the 24 act and under targets at 50 steps, e3
    # k = 0-9, which take the multi-start, two big ones and two far ones, which
    # start far from the rest linearization; e3 k = 9 converges only when the trial
    # flow's gain ratio judges every geodesic step
    corpus = ROOT / "scripts" / "shooting_corpus.json"
    for kinds, targets in ((["act", "under"], 12), (["e3"], 10), (["big"], 2), (["far"], 2)):
        out = run_script("shooting_traffic.py", "--check", str(corpus), "--kinds", *kinds,
                         "--steps", "50", "--targets", str(targets))
        count = len(kinds) * targets
        assert f"check: {count} of {count} targets match the corpus" in out
        assert f"check: {count} of {count} targets do the corpus's work" in out


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


def test_flow_cost_script_runs(tmp_path):
    out = run_script("flow_cost.py", "--calls", "3", "--warmup", "1",
                     "--json", str(tmp_path / "cost.json"))
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(1, 16), (13, 16), (1, 200), (13, 200),
                                                       (1, 2000), (13, 2000)]
    for _, steps, total, total_per_step, alone, alone_per_step, fixed, fixed_per_step in rows:
        assert float(total) > float(alone) > 0.0 and float(fixed) > 0.0
        # each figure is followed by itself over the grid's steps, to its 2 decimals
        for figure, per_step in ((total, total_per_step), (alone, alone_per_step),
                                 (fixed, fixed_per_step)):
            assert abs(float(per_step) - float(figure) / int(steps)) <= 0.01
    figures = json.loads((tmp_path / "cost.json").read_text())["figures"]
    assert len(figures) == 6
    assert all(abs(f[f"{name}_us_per_step"] - f[f"{name}_us"] / f["steps"]) <= 0.01
               for f in figures for name in ("evaluation", "steps", "fixed"))


def test_op_digests_script_prints_one_digest_per_workload():
    # run_script requires exit 0, which every op passing its check gives
    lines = run_script("op_digests.py", "--seed", "121").splitlines()
    assert len(lines) == len({line.split()[0] for line in lines}) == 4
    for line in lines:
        workload, _, seed, sha = line.split()
        assert seed == "121" and len(sha) == 64 and set(sha) <= set("0123456789abcdef")
