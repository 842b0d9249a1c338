"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _aoc_bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "aoc" or name.startswith("aoc.")
            for attr, value in vars(module).items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    def configs(seed, name):
        return [op.path.read_bytes()
                for op in workloads.setup(workload, seed, tmp_path / name, pool=8)]

    assert configs(7, "a") == configs(7, "b")
    assert configs(7, "a") != configs(8, "c")


@pytest.mark.parametrize("workload, steps", [("shoot-actuated", 20), ("extremal-long", 100)])
def test_traced_op_writes_the_same_bytes(workload, steps, tmp_path):
    op = workloads.setup(workload, 3, tmp_path / "configs", pool=1, steps=steps)[0]
    tracer, runs, _, same = run._traced_op(op, tmp_path)
    assert same
    assert all(workloads.check(op, rc, base)[0] for op, base, rc, _ in runs)
    metrics = tracer.metrics(0.0)
    assert metrics["cli.self_s"][0] > 0.0
    if op.command == "shoot":
        summary = json.loads((tmp_path / "traced.json").read_text())
        assert metrics["shooting.lm_iters"][0] == summary["iterations"]
        assert metrics["shooting.jacobians"][0] >= summary["iterations"]
    else:
        assert metrics["pmp.flow_extremal_calls"][0] == 1
        assert metrics["groups.step_calls"][0] == steps
        assert metrics["dynamics.csv_bytes"][0] == (tmp_path / "traced.csv").stat().st_size


def test_tracer_restores_every_binding():
    import aoc

    before = _aoc_bindings()
    with Tracer() as tracer:
        assert len(tracer._patched) >= len(TRACED)
        assert aoc.pmp.bias is not before[("aoc.pmp", "bias")]
        assert aoc.direct.zoh_rollout is not before[("aoc.direct", "zoh_rollout")]
    after = _aoc_bindings()
    assert all(after[key] is value for key, value in before.items())


def test_speed_probe_leaves_outputs_and_signals_alone(tmp_path):
    op = workloads.setup("extremal-long", 3, tmp_path / "configs", pool=1, steps=400)[0]
    run._execute(op, tmp_path / "plain")
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        mark = probe.mark()
        _, wall = run._execute(op, tmp_path / "probed")
        seconds, factor = probe.normalized(mark, wall)
    assert len(probe.samples) > 1 and 0.0 < seconds < wall * 10 and factor > 0.0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert ((tmp_path / "plain.csv").read_bytes() == (tmp_path / "probed.csv").read_bytes())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "extremal-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
