import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoc
from aoc.cli import main


def write_config(path, **overrides):
    config = {
        "algebra": {"kind": "so3", "inertia": [1.0, 2.0, 3.0], "m": 3},
        "cost": {"kind": "min_acc"},
        "problem": {"x0": [0, 0, 0], "xT": [0, 0, 0.5], "y0": [0, 0, 0],
                    "yT": [0, 0, 0], "T": 1.0, "steps": 100},
        "output": {"path": str(path.parent / "out")},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def test_validate_builtin_passes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_validate_broken_jacobi_file_fails(tmp_path, capsys):
    model_file = tmp_path / "broken.json"
    # antisymmetric but Jacobi-violating bracket table
    model_file.write_text(json.dumps({
        "n": 3, "m": 3,
        "structure_constants": [[3, 1, 2, 1.0], [3, 2, 1, -1.0],
                                [1, 1, 3, 1.0], [1, 3, 1, -1.0]],
        "inertia": np.eye(3).tolist(),
    }))
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "custom", "file": str(model_file)})
    assert main(["validate", "--config", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert "FAIL  jacobi_identity" in out


def test_config_error_m_greater_than_n(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "so3", "inertia": [1, 2, 3], "m": 5})
    assert main(["validate", "--config", str(cfg)]) == 1


def test_so3_full_inertia_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    full = [[1.0, 0.2, 0.0], [0.2, 2.0, 0.0], [0.0, 0.0, 3.0]]
    write_config(cfg, algebra={"kind": "so3", "inertia": full, "m": 3})
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "diagonal" in capsys.readouterr().err


def test_so3_diagonal_matrix_inertia_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "so3", "inertia": np.diag([1.0, 2.0, 3.0]).tolist(), "m": 3})
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    config = write_config(cfg)
    config["bogus"] = 1
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("section,key", [
    ({"algebra": {"kind": "so3", "n": 7}}, "algebra.n"),
    ({"algebra": {"kind": "so3", "file": "model.json"}}, "algebra.file"),
    ({"algebra": {"kind": "so3", "structure_constants": []}}, "structure_constants"),
    ({"algebra": {"kind": "abelian", "n": 3, "file": "model.json"}}, "algebra.file"),
    ({"algebra": {"kind": "custom", "file": "model.json", "n": 3}}, "algebra.n"),
    ({"algebra": {"kind": "custom", "file": "model.json", "m": 3}}, "algebra.m"),
    ({"algebra": {"kind": "custom", "file": "model.json", "inertia": [1, 1, 1]}},
     "algebra.inertia"),
    ({"cost": {"kind": "min_acc", "R": np.eye(3).tolist()}}, "cost.R"),
    ({"cost": {"R": np.eye(3).tolist()}}, "cost.R"),
], ids=["so3-n", "so3-file", "structure_constants", "abelian-file", "custom-n", "custom-m",
        "custom-inertia", "min_acc-R", "default-R"])
def test_a_key_the_kind_does_not_read_is_rejected(tmp_path, capsys, section, key):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **section)
    assert main(["validate", "--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


def test_simulate_writes_trajectory(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["simulate", "--config", str(cfg)]) == 0
    data = (tmp_path / "out.csv").read_text().splitlines()
    header = data[0].split(",")
    assert header[:2] == ["t", "x_00"]
    assert len(data) == 102


def test_simulate_steady_rotation_from_matrix_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"x0": np.eye(3).tolist(), "xT": np.eye(3).tolist(),
                               "y0": [1, 0, 0], "yT": [0, 0, 0], "T": 2.0, "steps": 50})
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
    assert np.abs(rows[:, 10] - 1.0).max() < 1e-12  # y_0 constant


def test_extremal_writes_hamiltonian_column(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "abelian", "n": 1},
                 problem={"x0": [0.0], "xT": [1.0], "y0": [0.0], "yT": [0.0],
                          "T": 1.0, "steps": 100})
    assert main(["extremal", "--config", str(cfg), "--mu0", "12", "--xi0", "6"]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "H"
    rows = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
    assert np.abs(rows[:, -1] - rows[0, -1]).max() < 1e-7


def test_shoot_writes_json_and_trajectory(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "abelian", "n": 1},
                 problem={"x0": [0.0], "xT": [1.0], "y0": [0.0], "yT": [0.0],
                          "T": 1.0, "steps": 150})
    assert main(["shoot", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["converged"]
    assert abs(payload["mu0"][0] - 12.0) < 1e-5
    assert abs(payload["cost"] - 6.0) < 1e-6
    assert (tmp_path / "out.csv").exists()


def test_shoot_nonconvergence_exit_code(tmp_path):
    # an off-axis so(3) target: the linearized root that starts a fully actuated
    # solve misses it, so no start converges without a step
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"x0": [0, 0, 0], "xT": [0.3, -0.6, 0.5], "y0": [0, 0, 0],
                               "yT": [0, 0, 0], "T": 1.0, "steps": 50},
                 solver={"max_iter": 0})
    assert main(["shoot", "--config", str(cfg)]) == 4
    assert (tmp_path / "out.json").exists()  # best iterate still written


def test_shoot_from_a_converged_guess_takes_no_step(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["shoot", "--config", str(cfg)]) == 0
    first = json.loads((tmp_path / "out.json").read_text())
    write_config(cfg, solver={"guess": first["mu0"] + first["xi0"]})
    assert main(["shoot", "--config", str(cfg)]) == 0
    again = json.loads((tmp_path / "out.json").read_text())
    assert again["iterations"] == 0
    assert again["mu0"] == first["mu0"] and again["xi0"] == first["xi0"]


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_shoot_without_a_seed_flow_writes_strict_json(tmp_path):
    # a half-turn in T = 1000 over 2 steps: every seed's flow fails, so no
    # residual is known and the summary carries null for it
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"x0": [0, 0, 0], "xT": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                               "y0": [0, 0, 0], "yT": [0, 0, 0], "T": 1000.0, "steps": 2})
    assert main(["shoot", "--config", str(cfg)]) == 4
    payload = strict_json((tmp_path / "out.json").read_text())
    assert payload["residual_norm"] is None and payload["converged"] is False
    assert "cost" not in payload and not (tmp_path / "out.csv").exists()


def test_json_summaries_reject_other_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        aoc.cli._write_json(tmp_path / "out.json", {"gap": float("nan")})
    assert not (tmp_path / "out.json").exists()


def test_compare_abelian_small_gap(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "abelian", "n": 1},
                 problem={"x0": [0.0], "xT": [1.0], "y0": [0.0], "yT": [0.0],
                          "T": 1.0, "steps": 150},
                 oracle={"segments": 25})
    assert main(["compare", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert abs(payload["gap"]) < 0.01
    assert payload["indirect_cost"] == pytest.approx(6.0, abs=1e-6)
    assert payload["direct_summary"]["converged"] is True


def test_compare_zero_motion_gap_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "abelian", "n": 1},
                 problem={"x0": [0.0], "xT": [0.0], "y0": [0.0], "yT": [0.0],
                          "T": 1.0, "steps": 50},
                 oracle={"segments": 8})
    assert main(["compare", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["gap"] == pytest.approx(0.0, abs=1e-12)


def test_compare_unconverged_shooting_exit_code(tmp_path, capsys):
    # shooting takes no step, so there is nothing to compare and no summary; the
    # target is off-axis, where the linearized root of the first start misses
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"x0": [0, 0, 0], "xT": [0.3, -0.6, 0.5], "y0": [0, 0, 0],
                               "yT": [0, 0, 0], "T": 1.0, "steps": 50},
                 solver={"max_iter": 0}, oracle={"segments": 8})
    assert main(["compare", "--config", str(cfg)]) == 4
    assert "indirect solver did not converge" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_compare_unconverged_oracle_exit_code(tmp_path, capsys):
    # criterion-8 problem: the m = 2 oracle cannot step from U = 0
    axis = 0.4 * np.array([0.6, 0.7, 0.25]) / np.linalg.norm([0.6, 0.7, 0.25])
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "so3", "inertia": [1.0, 2.0, 3.0], "m": 2},
                 problem={"x0": [0, 0, 0], "xT": axis.tolist(), "y0": [0, 0, 0],
                          "yT": [0, 0, 0], "T": 1.0, "steps": 20},
                 oracle={"segments": 10})
    assert main(["compare", "--config", str(cfg)]) == 4
    captured = capsys.readouterr()
    assert "direct oracle did not converge" in captured.err
    assert "gap" not in captured.out
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["direct_summary"]["converged"] is False
    # no answer from the oracle: no cost, gap or control distance, not the U = 0 values
    assert payload["direct_cost"] is None and payload["gap"] is None
    assert payload["control_sup_distance"] is None
    assert payload["indirect_cost"] > 0.0


@pytest.mark.parametrize("section", [{"output": {"path": "out", "format": "csv"}},
                                     {"solver": {"seed": 0}}])
def test_removed_config_keys_rejected(tmp_path, section):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **section)
    assert main(["validate", "--config", str(cfg)]) == 1


def test_seed_flag_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["validate", "--config", str(cfg), "--seed", "3"]) == 1


@pytest.mark.parametrize("command,flags,outputs", [
    ("simulate", [], [".csv"]),
    ("extremal", ["--mu0", "0.5,-0.2,0.3", "--xi0", "1,0.4,-0.6"], [".csv"]),
    ("shoot", [], [".json", ".csv"]),
    ("compare", [], [".json"]),
], ids=["simulate", "extremal", "shoot", "compare"])
def test_dump_config_roundtrip_byte_identical(tmp_path, capsys, command, flags, outputs):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"x0": [0, 0, 0], "xT": [0, 0, 0.5],
                               "y0": [0.1, 0, 0], "yT": [0, 0, 0],
                               "T": 1.0, "steps": 60},
                 oracle={"segments": 10})
    assert main([command, "--config", str(cfg), *flags]) == 0
    first = [(tmp_path / "out").with_suffix(ext).read_bytes() for ext in outputs]
    capsys.readouterr()  # drop the command's chatter

    assert main([command, "--config", str(cfg), *flags, "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    cfg2 = tmp_path / "resolved.json"
    cfg2.write_text(dumped)
    for ext in outputs:
        (tmp_path / "out").with_suffix(ext).unlink()
    assert main([command, "--config", str(cfg2)]) == 0
    assert [(tmp_path / "out").with_suffix(ext).read_bytes() for ext in outputs] == first


def test_control_samples_interpolated(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "abelian", "n": 1},
                 problem={"x0": [0.0], "xT": [0.0], "y0": [0.0], "yT": [0.0],
                          "T": 1.0, "steps": 100},
                 control={"times": [0.0, 1.0], "values": [[1.0], [1.0]]})
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
    # constant unit control on R: y(T) = 1, x(T) = 1/2
    assert rows[-1, 5] == pytest.approx(1.0, abs=1e-12)
    assert rows[-1, 2] == pytest.approx(0.5, abs=1e-12)


def test_console_script_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    proc = subprocess.run([sys.executable, "-m", "aoc.cli", "validate",
                           "--config", str(cfg)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def test_usage_error_exit_code():
    assert main(["simulate"]) == 1  # missing --config


def test_the_parser_is_built_on_first_use_and_serves_every_command(capsys):
    # importing the CLI builds no parser; the one built on first use gives
    # every later command the usage errors and help of a parser built anew
    proc = subprocess.run([sys.executable, "-c", "import aoc.cli as c; "
                           "print(c._parser.cache_info().currsize)"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(aoc.__file__).parents[1])})
    assert proc.stdout.split() == ["0"], proc.stderr
    errors, helps = [], []
    for _ in range(2):
        assert main(["simulate"]) == 1
        errors.append(capsys.readouterr().err)
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        helps.append(capsys.readouterr().out)
    assert errors[0] == errors[1] and "the following arguments are required: --config" in errors[0]
    assert helps[0] == helps[1] == aoc.cli._parser.__wrapped__().format_help()
    assert aoc.cli._parser() is aoc.cli._parser()


def test_numeric_blowup_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"x0": [0, 0, 0], "xT": [0, 0, 0], "y0": [0, 0, 0],
                               "yT": [0, 0, 0], "T": 1.0, "steps": 40},
                 control={"times": [0.0, 1.0],
                          "values": [[1e200, 0.0, 0.0], [1e200, 0.0, 0.0]]})
    assert main(["simulate", "--config", str(cfg)]) == 3


def test_missing_model_file_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "custom", "file": str(tmp_path / "ghost.json")})
    assert main(["validate", "--config", str(cfg)]) == 1


_PROBLEM = {"x0": [0, 0, 0], "xT": [0, 0, 0.5], "y0": [0, 0, 0], "yT": [0, 0, 0],
            "T": 1.0, "steps": 20}


@pytest.mark.parametrize("command,section,message", [
    ("simulate", {"problem": {**_PROBLEM, "steps": 40.7}},
     "problem.steps must be an integer, got 40.7"),
    ("simulate", {"problem": {**_PROBLEM, "T": True}}, "problem.T must be finite and positive"),
    ("simulate", {"problem": {**_PROBLEM, "T": "1"}}, "problem.T must be finite and positive"),
    ("simulate", {"problem": {**_PROBLEM, "T": 10**400}}, "problem.T must be finite and positive"),
    *[(command, {"problem": {**_PROBLEM, "steps": 10**30}},
       "problem.steps must be at most 1000000, got 1000000000000000000000000000000")
      for command in ("simulate", "extremal", "shoot")],
    *[(command, {"problem": {**_PROBLEM, "T": 5e-324, "steps": 4}},
       "problem.T must leave the 5 grid times strictly increasing, got 5e-324")
      for command in ("simulate", "extremal", "shoot")],
    ("shoot", {"solver": {"max_iter": 3.7}}, "solver.max_iter must be an integer, got 3.7"),
    ("shoot", {"solver": {"fd_step": 0}}, "solver.fd_step must be finite and positive"),
    ("shoot", {"solver": {"tol": -1}}, "solver.tol must be finite and positive"),
    ("shoot", {"solver": {"max_iter": -5}}, "solver.max_iter must be at least 0"),
    ("shoot", {"solver": {"tol": "1e-8"}}, "solver.tol must be finite and positive"),
    ("shoot", {"solver": {"tol": 10**400}}, "solver.tol must be finite and positive"),
    ("shoot", {"solver": {"fd_step": 10**400}}, "solver.fd_step must be finite and positive"),
    ("compare", {"oracle": {"segments": 20.5}},
     "bad oracle section: segments must be an integer"),
    ("compare", {"oracle": {"steps_per_segment": 2.0}},
     "bad oracle section: steps_per_segment must be an integer"),
    ("validate", {"algebra": {"kind": "so3", "m": 2.7}},
     "actuated dimension m must be an integer"),
    ("validate", {"algebra": {"kind": "abelian", "n": 3.9}}, "algebra.n must be an integer"),
    ("validate", {"algebra": {"kind": "abelian", "n": 2.0}}, "algebra.n must be an integer"),
    ("validate", {"algebra": {"kind": "abelian", "n": -1}}, "algebra.n must be at least 1"),
    ("validate", {"algebra": {"kind": "abelian", "n": 3, "m": True}},
     "actuated dimension m must be an integer"),
], ids=["steps-float", "T-bool", "T-string", "T-beyond-float", "simulate-steps-beyond-ceiling",
        "extremal-steps-beyond-ceiling", "shoot-steps-beyond-ceiling", "simulate-T-subnormal",
        "extremal-T-subnormal", "shoot-T-subnormal", "max_iter-float", "fd_step-zero",
        "tol-negative", "max_iter-negative", "tol-string", "tol-beyond-float",
        "fd_step-beyond-float", "segments-float", "steps_per_segment-float",
        "so3-m-float", "abelian-n-float", "abelian-n-integral-float", "abelian-n-negative",
        "abelian-m-bool"])
def test_bad_numeric_config_value_is_config_error(tmp_path, capsys, monkeypatch,
                                                  command, section, message):
    # the library's rule, reported with its key before any flow runs; nothing is written
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr("aoc.groups.rkmk_integrate", no_flow)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **section)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not list(tmp_path.glob("out*"))


def test_dump_config_checks_form_not_values(tmp_path, capsys):
    # the dump prints a config with a bad value, and a run of the dump fails as
    # the original does
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={**_PROBLEM, "steps": 40.7})
    assert main(["simulate", "--config", str(cfg)]) == 1
    original = capsys.readouterr().err
    assert original.startswith("error: problem.steps must be an integer")
    assert main(["simulate", "--config", str(cfg), "--dump-config"]) == 0
    dumped = tmp_path / "dumped.json"
    dumped.write_text(capsys.readouterr().out)
    assert main(["simulate", "--config", str(dumped)]) == 1
    assert capsys.readouterr().err == original
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("solver", [{"tol": -1}, {"guess": [0, 0, 0]}], ids=["tol", "guess"])
def test_validate_does_not_read_the_solver_section(tmp_path, capsys, solver):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solver=solver)
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command,section,where", [
    ("validate", {"algebra": {"kind": "so3", "inertia": [1, "b", 3], "m": 3}}, "algebra.inertia"),
    ("simulate", {"problem": {**_PROBLEM, "y0": [0, 0, "a"]}}, "problem.y0"),
    ("simulate", {"problem": {**_PROBLEM, "yT": [0, None, 0]}}, "problem.yT"),
    ("simulate", {"problem": {**_PROBLEM, "x0": [0, [0], 0]}}, "problem.x0"),
    ("shoot", {"solver": {"guess": [0, 0, 0, 0, 0, "1"]}}, "solver.guess"),
    ("compare", {"solver": {"guess": [0, 0, 0, 0, 0, "1"]}}, "solver.guess"),
    ("extremal", {"costate0": {"mu0": "abc", "xi0": [0, 0, 0]}}, "costate0.mu0"),
    ("extremal", {"costate0": {"mu0": [0, 0, 0], "xi0": [0, {}, 0]}}, "costate0.xi0"),
], ids=["inertia", "y0", "yT", "x0-ragged", "guess", "compare-guess", "mu0", "xi0"])
def test_non_numeric_array_entry_is_config_error(tmp_path, capsys, command, section, where):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **section)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where} must be a number")
    assert not list(tmp_path.glob("out*"))


_NAN, _INF = float("nan"), float("inf")  # json writes these as NaN and Infinity


@pytest.mark.parametrize("argv,section", [
    (["--mu0", "nan,0,0", "--xi0", "0,0,0"], {}),
    (["--mu0", "0,0,0", "--xi0", "0,inf,0"], {}),
    ([], {"costate0": {"mu0": [_NAN, 0, 0], "xi0": [0, 0, 0]}}),
], ids=["mu0-flag-nan", "xi0-flag-inf", "mu0-config-nan"])
def test_dump_config_is_strict_json(tmp_path, capsys, argv, section):
    # the dump reproduces a run, and no run takes a non-finite costate: exit 1,
    # not a printed bare NaN
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **section)
    assert main(["extremal", "--config", str(cfg), *argv, "--dump-config"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("command,section,argv,where", [
    ("shoot", {"cost": {"kind": "quadratic", "R": [[_NAN, 0, 0], [0, 1, 0], [0, 0, 1]]}}, [],
     "cost.R"),
    ("shoot", {"solver": {"guess": [0, 0, 0, 0, 0, _INF]}}, [], "solver.guess"),
    ("extremal", {"costate0": {"mu0": [_NAN, 0, 0], "xi0": [0, 0, 0]}}, [], "costate0.mu0"),
    ("extremal", {}, ["--mu0", "0,0,0", "--xi0", "0,-inf,0"], "costate0.xi0"),
    ("shoot", {"problem": {**_PROBLEM, "y0": [0, _NAN, 0]}}, [], "problem.y0"),
    ("shoot", {"problem": {**_PROBLEM, "xT": [0, 0, _NAN]}}, [], "problem.xT"),
], ids=["R-nan", "guess-inf", "mu0-nan", "xi0-flag-inf", "y0-nan", "xT-nan"])
def test_non_finite_input_is_config_error(tmp_path, capsys, monkeypatch, command, section,
                                          argv, where):
    # valid JSON literals and valid flag values, rejected before any flow runs
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr("aoc.groups.rkmk_integrate", no_flow)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **section)
    assert main([command, "--config", str(cfg), *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where} must be finite")
    assert not list(tmp_path.glob("out*"))


# so(3) with its matrix representation, a model file that validates
_SO3_FILE = {"n": 3, "m": 3, "inertia": np.diag([1.0, 2.0, 3.0]).tolist(),
             "structure_constants": [[3, 1, 2, 1.0], [3, 2, 1, -1.0], [1, 2, 3, 1.0],
                                     [1, 3, 2, -1.0], [2, 3, 1, 1.0], [2, 1, 3, -1.0]],
             "rep_dim": 3, "basis_matrices": [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                                              [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                                              [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]}


@pytest.mark.parametrize("content", [
    {**_SO3_FILE, "m": 2.7},
    {**_SO3_FILE, "n": 3.9},
    {**_SO3_FILE, "m": True},
    {**_SO3_FILE, "rep_dim": 3.5},
    {**_SO3_FILE, "n": "3"},
    {**_SO3_FILE, "n": 2.0},
    {**_SO3_FILE, "rep_dim": True},
    {**_SO3_FILE, "structure_constants": [[3, 1.5, 2, 1.0]] + _SO3_FILE["structure_constants"][1:]},
    {**_SO3_FILE, "structure_constants": [[3, 1, 2, "1"]] + _SO3_FILE["structure_constants"][1:]},
    {**_SO3_FILE, "structure_constants": 7},
    5,
    None,
    [[1]],
    {**_SO3_FILE, "name": [1, 2]},
    {**_SO3_FILE, "basis_matrices": [[[0, 0, 0], [0, 0, -1], [0, 1, _NAN]]]
     + _SO3_FILE["basis_matrices"][1:]},
    {**_SO3_FILE, "basis_matrices": _SO3_FILE["basis_matrices"][:2]
     + [[[0, -1, 0], [1, 0, 0], [0, 0, _INF]]]},
], ids=["m-float", "n-float", "m-bool", "rep_dim-float", "n-string", "n-integral-float",
        "rep_dim-bool", "index-float",
        "value-string", "constants-number", "number", "null", "list", "name-list",
        "basis-nan", "basis-inf"])
def test_malformed_model_file_is_config_error(tmp_path, capsys, content):
    # never truncated or converted into a model that validates, and reported as
    # what is wrong with the file, not as the failure of a routine it reached
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(content))
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "custom", "file": str(model_file)})
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad model file: ")
    assert "did not converge" not in err


@pytest.mark.parametrize("n", [0, -1])
def test_a_model_file_of_no_dimension_names_n(tmp_path, capsys, n):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps({**_SO3_FILE, "n": n}))
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "custom", "file": str(model_file)})
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad model file: 'n' must be at least 1, "
                                              f"got {n}")


def test_the_valid_model_file_validates(tmp_path, capsys):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(_SO3_FILE))
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "custom", "file": str(model_file)})
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_compare_on_so3_as_a_generic_group_matches_so3(tmp_path):
    # the same problem through the generic-group code: scipy's logarithm in
    # the residual and the series readback in the oracle's segment Jacobian
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(_SO3_FILE))
    gaps = []
    for name, section in [("so3", {"kind": "so3", "inertia": [1.0, 2.0, 3.0], "m": 3}),
                          ("generic", {"kind": "custom", "file": str(model_file)})]:
        cfg = tmp_path / f"{name}-config.json"
        write_config(cfg, algebra=section,
                     problem={"x0": [0, 0, 0], "xT": [0.2, -0.3, 0.5], "y0": [0, 0, 0],
                              "yT": [0, 0, 0], "T": 1.0, "steps": 40},
                     oracle={"segments": 10}, output={"path": str(tmp_path / name)})
        assert main(["compare", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / f"{name}.json").read_text())
        assert payload["direct_summary"]["converged"] is True
        gaps.append(payload["gap"])
    assert abs(gaps[1] - gaps[0]) < 1e-8


@pytest.mark.parametrize("times", [[0.0, 1.0, 0.5], [0.0, 0.5, 0.5]], ids=["back", "repeated"])
def test_control_times_must_increase(tmp_path, capsys, times):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "abelian", "n": 1},
                 problem={"x0": [0.0], "xT": [0.0], "y0": [0.0], "yT": [0.0],
                          "T": 1.0, "steps": 10},
                 control={"times": times, "values": [[1.0], [0.0], [1.0]]})
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "control.times must be strictly increasing" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("algebra_section,problem", [
    ({"kind": "so3", "inertia": [1.0, 2.0, 3.0], "m": 3}, _PROBLEM),
    ({"kind": "abelian", "n": 1},
     {"x0": [0.0], "xT": [1.0], "y0": [0.0], "yT": [0.0], "T": 1.0, "steps": 20}),
], ids=["so3", "abelian"])
def test_shoot_validates_the_model_once(tmp_path, monkeypatch, algebra_section, problem):
    calls = []
    original = aoc.algebra.validate_model

    def counted(model, *args, **kwargs):
        calls.append(model)
        return original(model, *args, **kwargs)

    monkeypatch.setattr(aoc.algebra, "validate_model", counted)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra=algebra_section, problem=problem)
    assert main(["shoot", "--config", str(cfg)]) == 0
    assert len(calls) == 1


_NOT_ADAPTED = [[1.0, 0.5], [0.5, 2.0]]


@pytest.mark.parametrize("inertia,failed", [(_NOT_ADAPTED, "adapted_basis"),
                                            ([1.0, -1.0], "inertia_positive")],
                         ids=["not-adapted", "not-positive"])
def test_invalid_abelian_model_reports_like_the_same_custom_model(tmp_path, capsys,
                                                                  inertia, failed):
    model_file = tmp_path / "model.json"
    full = np.diag(inertia) if np.ndim(inertia) == 1 else np.array(inertia)
    model_file.write_text(json.dumps({"n": 2, "m": 1, "inertia": full.tolist(),
                                      "rep_dim": 3, "basis_matrices": [
                                          [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                                          [[0, 0, 0], [0, 0, 1], [0, 0, 0]]]}))
    reports = []
    for algebra_section in ({"kind": "abelian", "n": 2, "m": 1, "inertia": inertia},
                            {"kind": "custom", "file": str(model_file)}):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, algebra=algebra_section)
        assert main(["validate", "--config", str(cfg)]) == 2
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert f"FAIL  {failed}" in reports[0] and "overall: FAIL" in reports[0]
    write_config(cfg, algebra={"kind": "abelian", "n": 2, "m": 1, "inertia": inertia},
                 problem={"x0": [0, 0], "xT": [1, 0], "y0": [0, 0], "yT": [0, 0],
                          "T": 1.0, "steps": 10})
    assert main(["shoot", "--config", str(cfg)]) == 2
    assert failed in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


_FLIP = np.diag([1.0, -1.0, -1.0])


@pytest.mark.parametrize("command,section,where", [
    ("shoot", {"algebra": {"kind": "so3", "inertia": [1.0, 2.0, 3.0], "m": 3},
               "problem": {**_PROBLEM, "xT": np.diag([2.0, 1.0, 1.0]).tolist()}}, "problem.xT"),
    ("simulate", {"algebra": {"kind": "so3", "inertia": [1.0, 2.0, 3.0], "m": 3},
                  "problem": {**_PROBLEM, "x0": np.diag([1.0, 1.0, -1.0]).tolist()}},
     "problem.x0"),
    ("shoot", {"algebra": {"kind": "abelian", "n": 1},
               "problem": {"x0": [0.0], "xT": [[1.0, 1.0], [0.5, 1.0]], "y0": [0.0],
                           "yT": [0.0], "T": 1.0, "steps": 20}}, "problem.xT"),
    ("simulate", {"algebra": {"kind": "abelian", "n": 1},
                  "problem": {"x0": [[2.0, 0.0], [0.0, 1.0]], "xT": [0.0], "y0": [0.0],
                              "yT": [0.0], "T": 1.0, "steps": 20}}, "problem.x0"),
], ids=["so3-scaled", "so3-reflection", "abelian-shear", "abelian-scaled"])
def test_matrix_outside_the_group_is_config_error(tmp_path, capsys, command, section, where):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **section)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where} is not a")
    assert not list(tmp_path.glob("out*"))


def test_group_matrices_of_the_benchmark_load(tmp_path):
    gm = aoc.so3_group(aoc.so3_model((1.0, 2.0, 3.0)))
    x0 = aoc.exp_map(gm, np.array([0.3, -1.2, 2.9])) @ aoc.exp_map(gm, np.array([2.0, 0.4, 1.1]))
    for start, target in ((x0, x0 @ aoc.exp_map(gm, np.array([0.0, 0.0, 0.5]))),
                          (_FLIP, _FLIP @ aoc.exp_map(gm, np.array([0.0, 0.0, 0.5])))):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, problem={**_PROBLEM, "x0": start.tolist(), "xT": target.tolist()})
        assert main(["simulate", "--config", str(cfg)]) == 0
        rows = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[0, 1:10], start.ravel())


@pytest.mark.parametrize("argv", [
    ["validate", "--mu0", "1,2"],
    ["simulate", "--xi0", "1"],
    ["validate", "--out", "x"],
    ["shoot", "--mu0", "9,9,9"],
    ["compare", "--xi0", "1,2,3", "--mu0", "1,2,3"],
    ["validate", "--out", "x", "--dump-config"],
], ids=["validate-mu0", "simulate-xi0", "validate-out", "shoot-mu0", "compare-costate",
        "validate-out-dump"])
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr("aoc.groups.rkmk_integrate", no_flow)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {argv[0]} does not read --")
    assert "overall" not in captured.out
    assert not list(tmp_path.glob("out*")) and not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("section,argv", [
    ({"output": {"path": ""}}, []),
    ({"output": {"path": 5}}, []),
    ({}, ["--out", ""]),
    ({"algebra": {"kind": "so3", "inertia": 2.0}}, []),
], ids=["empty-path", "numeric-path", "empty-out", "so3-scalar-inertia"])
def test_malformed_output_path_or_inertia_is_config_error(tmp_path, capsys, section, argv):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **section)
    assert main(["simulate", "--config", str(cfg), *argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# A fresh interpreter, since this test session may have imported scipy already.
_NO_SCIPY_RUN = """
import json, sys
import numpy as np
import aoc
from aoc.cli import main
so3, abelian, out = sys.argv[1:4]
codes = [main(["shoot", "--config", so3, "--out", out + "/shoot"]),
         main(["compare", "--config", so3, "--out", out + "/compare"]),
         main(["extremal", "--config", abelian, "--out", out + "/extremal",
               "--mu0", "12", "--xi0", "6"])]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
model = aoc.so3_model((1.0, 2.0, 3.0))
y = np.array([0.4, -0.2, 0.9])
generic = aoc.generic_group(model, aoc.so3_group(model).basis)
log = aoc.log_map(generic, aoc.exp_map(aoc.so3_group(model), y))
print(json.dumps({"codes": codes, "scipy": loaded, "log_error": float(np.abs(log - y).max())}))
"""


def test_commands_run_without_importing_scipy(tmp_path):
    so3, abelian = tmp_path / "so3.json", tmp_path / "abelian.json"
    write_config(so3, problem=_PROBLEM, oracle={"segments": 8})
    write_config(abelian, algebra={"kind": "abelian", "n": 1},
                 problem={"x0": [0.0], "xT": [1.0], "y0": [0.0], "yT": [0.0],
                          "T": 1.0, "steps": 20})
    src = str(Path(aoc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(so3), str(abelian),
                           str(tmp_path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == []
    # a custom representation still takes its logarithm, through scipy
    assert result["log_error"] < 1e-10


_DROP = object()  # a section the case removes from the config
_CUSTOM_NO_REP = {key: value for key, value in _SO3_FILE.items()
                  if key not in ("rep_dim", "basis_matrices")}


@pytest.mark.parametrize("command,config,argv,message", [
    ("validate", "{", [], "config is not valid JSON"),
    ("simulate", '{"algebra": {"kind": "so3"}, "problem": {"T": 1' + "0" * 5000 + "}}", [],
     "config is not valid JSON: Exceeds the limit (4300 digits)"),
    ("validate", "[1, 2]", [], "config must be a JSON object"),
    ("simulate", {"problem": [1]}, [], "config section 'problem' must be an object"),
    ("validate", {"algebra": _DROP}, [], "config needs an 'algebra' section"),
    ("validate", {"algebra": {"kind": "se3"}}, [], "algebra kind must be so3, abelian or custom"),
    ("shoot", {"cost": {"kind": "l1"}}, [], "cost kind must be min_acc or quadratic"),
    ("validate", {"algebra": {"kind": "abelian"}}, [], "abelian algebra needs 'n'"),
    ("validate", {"algebra": {"kind": "custom"}}, [], "custom algebra needs 'file'"),
    ("shoot", {"cost": {"kind": "quadratic"}}, [], "quadratic cost needs 'R'"),
    ("simulate", {"problem": _DROP}, [], "this command needs a 'problem' section"),
    ("simulate", {"problem": {k: v for k, v in _PROBLEM.items() if k != "T"}}, [],
     "problem section missing 'T'"),
    ("shoot", {"cost": {"kind": "quadratic", "R": [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]}}, [],
     "bad quadratic weight: quadratic weight must be symmetric"),
    ("shoot", {"cost": {"kind": "quadratic", "R": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}}, [],
     "bad quadratic weight: quadratic weight must be symmetric positive definite"),
    ("compare", {"cost": {"kind": "quadratic", "R": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]}}, [],
     "bad quadratic weight: quadratic weight must be symmetric positive definite"),
    ("simulate", {"problem": {**_PROBLEM, "x0": [0, 0]}}, [],
     "problem.x0 must be a 3x3 matrix or an 3-vector"),
    ("simulate", {"problem": {**_PROBLEM, "y0": [0, 0]}}, [], "y0 and yT must have 3 components"),
    ("simulate", {"problem": {**_PROBLEM, "yT": [0, 0, 0, 0]}}, [],
     "y0 and yT must have 3 components"),
    ("simulate", {"problem": {**_PROBLEM, "steps": 0}}, [], "problem.steps must be at least 1"),
    ("simulate", {"control": {"times": [0.0, 1.0], "values": [[0, 0, 0]]}}, [],
     "control samples need matching"),
    ("simulate", {"control": "one"}, [], "control must be \"zero\" or an object"),
    ("extremal", {}, [], "extremal needs mu0 and xi0"),
    ("extremal", {"costate0": {"mu0": [0, 0], "xi0": [0, 0, 0]}}, [],
     "mu0 and xi0 must have 3 components"),
    ("shoot", {"solver": {"guess": [0, 0, 0]}}, [], "solver guess must have 6 components"),
    ("compare", {"oracle": {"segments": 1}}, [],
     "bad oracle section: segments must be at least 2, got 1"),
    ("compare", {"oracle": {"segments": 2, "steps_per_segment": 1000000}}, [],
     "bad oracle section: segments * steps_per_segment must be at most 1000000, got 2000000"),
    ("simulate", {"algebra": {"kind": "custom", "file": "model.json"}}, [],
     "this command needs a matrix representation"),
    ("extremal", {}, ["--mu0", "a,b", "--xi0", "0,0,0"],
     "expected a comma-separated list of numbers, got 'a,b'"),
], ids=["invalid-json", "integer-beyond-the-digit-limit", "not-an-object", "section-not-an-object", "no-algebra",
        "unknown-algebra-kind", "unknown-cost-kind", "abelian-without-n", "custom-without-file",
        "quadratic-without-R", "no-problem", "missing-problem-key", "R-not-symmetric",
        "R-indefinite", "R-singular",
        "x0-shape", "y0-length", "yT-length", "steps-zero", "control-mismatch",
        "control-string", "extremal-without-costates", "costate-length", "guess-length",
        "oracle-segments", "oracle-grid-beyond-ceiling", "custom-without-representation",
        "mu0-flag-not-numbers"])
def test_config_problem_is_usage_error(tmp_path, capsys, monkeypatch, command, config, argv,
                                       message):
    # each problem exits 1 with its own message before any flow runs
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr("aoc.groups.rkmk_integrate", no_flow)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(_CUSTOM_NO_REP))
    cfg = tmp_path / "cfg.json"
    if isinstance(config, str):
        cfg.write_text(config)
    else:
        data = write_config(cfg, **{k: v for k, v in config.items() if v is not _DROP})
        cfg.write_text(json.dumps({k: v for k, v in data.items() if config.get(k) is not _DROP}))
    assert main([command, "--config", str(cfg), *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not list(tmp_path.glob("out*"))


def test_out_flag_suffix_is_stripped(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem=_PROBLEM)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    assert f"wrote {tmp_path / 'x.csv'}" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.glob("x*")) == ["x.csv"]


@pytest.mark.parametrize("out,names", [
    ("t.2026", ["t.2026.csv", "t.2026.json"]),
    ("t.json", ["t.csv", "t.json"]),
], ids=["dotted-base", "json-suffix"])
def test_out_flag_appends_the_suffix_to_a_dotted_base(tmp_path, capsys, out, names):
    # a dot in the base is kept, so t.a and t.b write apart; only .csv and
    # .json are stripped before the suffixes are appended
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algebra={"kind": "abelian", "n": 1},
                 problem={"x0": [0.0], "xT": [1.0], "y0": [0.0], "yT": [0.0],
                          "T": 1.0, "steps": 20})
    assert main(["shoot", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    assert f"wrote {tmp_path / names[1]}" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.glob("t*")) == names


@pytest.mark.parametrize("command,argv", [
    ("simulate", []),
    ("extremal", ["--mu0", "0.5,-0.2,0.3", "--xi0", "1,0.4,-0.6"]),
    ("shoot", []),
    ("compare", []),
])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_a_missing_output_directory_exits_before_any_flow(tmp_path, capsys, monkeypatch,
                                                          command, argv, where):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr("aoc.groups.rkmk_integrate", no_flow)
    cfg = tmp_path / "cfg.json"
    base = tmp_path / "missing" / "o"
    if where == "config":
        write_config(cfg, problem=_PROBLEM, output={"path": str(base)})
    else:
        write_config(cfg, problem=_PROBLEM)
        argv = [*argv, "--out", str(base)]
    assert main([command, "--config", str(cfg), *argv]) == 1
    assert capsys.readouterr().err.startswith("error: output.path: no directory ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("tail", ["/", "/.", "/.."], ids=["separator", "dot", "dot-dot"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_an_output_path_naming_a_directory_exits_1(tmp_path, capsys, monkeypatch, where, tail):
    # "runs/" names the directory, not a file in it: Path would drop the
    # separator and write runs.csv beside it
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr("aoc.groups.rkmk_integrate", no_flow)
    (tmp_path / "runs").mkdir()
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "runs") + tail
    if where == "config":
        write_config(cfg, problem=_PROBLEM, output={"path": out})
        argv = []
    else:
        write_config(cfg, problem=_PROBLEM)
        argv = ["--out", out]
    assert main(["simulate", "--config", str(cfg), *argv]) == 1
    assert capsys.readouterr().err == f"error: output.path must name a file, got {out!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "runs"]
    assert not list((tmp_path / "runs").iterdir())
