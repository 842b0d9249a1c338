"""Command line front end.

One JSON config per run; group elements may be written either as full
d x d matrices or as exponential coordinates (an n-vector expanded
through the group exponential at load time).  Unknown keys anywhere in
the config are rejected, and so are algebra and cost keys that the chosen
kind does not read.

Every command runs one pipeline (``run``): build the model and group and
validate them once, then build the problem, the cost and the command's
own inputs before any flow runs.  ``load_config`` checks the config's
form only (JSON, known keys and kinds); each value is checked once, by the
library rule of what it builds (``BoundaryProblem``'s grid, ``CostModel``'s
weight, ``solve_shooting``'s arguments, ``TranscriptionConfig``), and a
rule that fails exits 1 naming the config key or section.  So
``--dump-config``, which prints the loaded config, checks no value.  A flag
the command does not read is a usage error.

Exit codes: 0 ok, 1 usage or config error, 2 validation failure,
3 numeric blow-up, 4 no convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import algebra, direct, dynamics, groups, pmp, shooting
from .errors import AngleOutOfRange, NoConvergence, NonFinite, SingularRegularity


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


# the keys each algebra and cost kind reads besides "kind"; any other is a usage error
_KIND_KEYS = {
    "algebra": {"so3": {"inertia", "m"}, "abelian": {"n", "m", "inertia"}, "custom": {"file"}},
    "cost": {"min_acc": set(), "quadratic": {"R"}},
}
_SCHEMA = {
    **{section: {"kind"}.union(*kinds.values()) for section, kinds in _KIND_KEYS.items()},
    "problem": {"x0", "xT", "y0", "yT", "T", "steps"},
    "solver": {"tol", "max_iter", "fd_step", "guess"},
    "oracle": {"segments", "steps_per_segment"},
    "control": None,
    "costate0": {"mu0", "xi0"},
    "output": {"path"},
}

_SOLVER_DEFAULTS = {"tol": shooting.TOL, "max_iter": shooting.MAX_ITER,
                    "fd_step": shooting.FD_STEP, "guess": None}
_OUTPUT_DEFAULTS = {"path": "aoc_out"}


def _floats(raw, what):
    """A config number or nested list of numbers as a float array; anything
    else (strings, null, ragged lists, NaN or infinities) is a usage error."""
    try:
        arr = np.asarray(raw)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise UsageError(f"{what} must be a number or a list of numbers, got {raw!r}")
    if not np.isfinite(arr).all():
        raise UsageError(f"{what} must be finite, got {raw!r}")
    return arr.astype(float)


def load_config(path):
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except ValueError as e:  # bad JSON, or an integer beyond Python's 4,300-digit limit
        raise UsageError(f"config is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(data) - set(_SCHEMA)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for section, keys in _SCHEMA.items():
        if keys is None or section not in data:
            continue
        if not isinstance(data[section], dict):
            raise UsageError(f"config section '{section}' must be an object")
        bad = set(data[section]) - keys
        if bad:
            raise UsageError(f"unknown keys in config section '{section}': {sorted(bad)}")
    if "algebra" not in data:
        raise UsageError("config needs an 'algebra' section")
    for section, kinds in _KIND_KEYS.items():
        keys = data.get(section, {})
        kind = keys.get("kind", "min_acc" if section == "cost" else None)
        if isinstance(kind, str) and kind in kinds:
            unread = sorted(set(keys) - {"kind"} - kinds[kind])
            if unread:
                raise UsageError(f"{section} kind {kind!r} does not read "
                                 + ", ".join(f"{section}.{key}" for key in unread))
    data.setdefault("cost", {"kind": "min_acc"})
    data["solver"] = {**_SOLVER_DEFAULTS, **data.get("solver", {})}
    data["output"] = {**_OUTPUT_DEFAULTS, **data.get("output", {})}
    data.setdefault("control", "zero")
    return data


def build_model(config):
    """Model plus group from the algebra section.  Raises UsageError on
    config problems; the model is built without its invariant checks, which
    ``run`` makes once for every kind."""
    section = config["algebra"]
    kind = section.get("kind")
    try:
        if kind == "so3":
            diag = _floats(section.get("inertia", [1.0, 1.0, 1.0]), "algebra.inertia")
            if diag.ndim == 2:
                if diag.shape != (3, 3) or np.any(diag != np.diag(np.diag(diag))):
                    raise UsageError("so3 inertia must be diagonal (a list of 3 or a diagonal "
                                     "3x3 matrix); use a custom algebra for a full inertia")
                diag = np.diag(diag)
            model = algebra.so3_model(diag, m=section.get("m", 3))
            return model, groups.so3_group(model)
        if kind == "abelian":
            if "n" not in section:
                raise UsageError("abelian algebra needs 'n'")
            n = algebra._count(section["n"], "algebra.n", 1)  # before any array of n entries
            inertia = section.get("inertia")
            inertia = np.eye(n) if inertia is None else _floats(inertia, "algebra.inertia")
            model = algebra.make_model(n, section.get("m", n), np.zeros((n, n, n)),
                                       np.diag(inertia) if inertia.ndim == 1 else inertia,
                                       name="abelian", strict=False)
            return model, groups.abelian_group(model)
        if kind == "custom":
            if "file" not in section:
                raise UsageError("custom algebra needs 'file'")
            model, rep = algebra.load_model(section["file"])
            gm = None if rep is None else groups.generic_group(model, rep["basis_matrices"])
            return model, gm
    except FileNotFoundError:
        raise UsageError(f"model file not found: {section['file']}")
    except (ValueError, KeyError) as e:
        raise UsageError(f"bad model file: {e}" if kind == "custom" else str(e))
    raise UsageError(f"algebra kind must be so3, abelian or custom, got {kind!r}")


def build_cost(config, model):
    section = config["cost"]
    kind = section.get("kind", "min_acc")
    if kind == "min_acc":
        return pmp.min_acc_cost(model)
    if kind == "quadratic":
        if "R" not in section:
            raise UsageError("quadratic cost needs 'R'")
        try:
            return pmp.quadratic_cost(model, _floats(section["R"], "cost.R"))
        except ValueError as e:
            raise UsageError(f"bad quadratic weight: {e}")
    raise UsageError(f"cost kind must be min_acc or quadratic, got {kind!r}")


def _group_element(gm, raw, what):
    """A group element from a matrix, which must lie in the group (a rotation
    for so3, a translation [[I, t], [0, 1]] for abelian; a custom
    representation has no membership test), or from exp coordinates."""
    arr = _floats(raw, what)
    d, n = gm.rep_dim, gm.algebra.n
    if arr.shape == (n,):
        return groups.exp_map(gm, arr)
    if arr.shape != (d, d):
        raise UsageError(f"{what} must be a {d}x{d} matrix or an {n}-vector of exp coordinates")
    if gm.kind == "so3":
        err, det = float(np.abs(arr.T @ arr - np.eye(3)).max()), float(np.linalg.det(arr))
        if not (err <= 1e-9 and det > 0):
            raise UsageError(f"{what} is not a rotation: |R^T R - I| = {err:.3g}, "
                             f"det R = {det:.3g}")
    elif gm.kind == "abelian":
        translation = np.eye(d)
        translation[:n, n] = arr[:n, n]
        if not np.array_equal(arr, translation):
            raise UsageError(f"{what} is not a translation matrix [[I, t], [0, 1]]")
    return arr


def build_problem(config, model, gm):
    if "problem" not in config:
        raise UsageError("this command needs a 'problem' section")
    section = config["problem"]
    for key in ("x0", "xT", "y0", "yT", "T", "steps"):
        if key not in section:
            raise UsageError(f"problem section missing '{key}'")
    y0 = _floats(section["y0"], "problem.y0")
    yT = _floats(section["yT"], "problem.yT")
    if y0.shape != (model.n,) or yT.shape != (model.n,):
        raise UsageError(f"y0 and yT must have {model.n} components")
    x0 = _group_element(gm, section["x0"], "problem.x0")
    xT = _group_element(gm, section["xT"], "problem.xT")
    try:
        return shooting.BoundaryProblem(x0=x0, xT=xT, y0=y0, yT=yT, T=section["T"],
                                        steps=section["steps"])
    except ValueError as e:  # the grid rule, which names T or steps
        raise UsageError(f"problem.{e}")


def build_control(config, model):
    section = config["control"]
    if section == "zero":
        return dynamics.zero_control(model)
    if isinstance(section, dict) and set(section) <= {"times", "values"}:
        times = _floats(section.get("times", []), "control.times")
        values = _floats(section.get("values", []), "control.values")
        if times.ndim != 1 or values.shape != (len(times), model.m) or len(times) < 2:
            raise UsageError("control samples need matching 'times' (k) and 'values' (k x m), k >= 2")
        if np.any(np.diff(times) <= 0):
            raise UsageError(f"control.times must be strictly increasing, got {times.tolist()}")

        def u(t):
            return np.array([np.interp(t, times, values[:, a]) for a in range(model.m)])

        return u
    raise UsageError("control must be \"zero\" or an object with 'times' and 'values'")


def _costate(config, model):
    seed = config.get("costate0", {})
    if seed.get("mu0") is None or seed.get("xi0") is None:
        raise UsageError("extremal needs mu0 and xi0 (flags --mu0/--xi0 or config costate0)")
    mu0 = _floats(seed["mu0"], "costate0.mu0")
    xi0 = _floats(seed["xi0"], "costate0.xi0")
    if mu0.shape != (model.n,) or xi0.shape != (model.n,):
        raise UsageError(f"mu0 and xi0 must have {model.n} components")
    return pmp.Costate(mu0, xi0)


def _solver(config, model):
    """``solve_shooting`` keywords from the solver section, its guess included."""
    sol = config["solver"]
    guess = sol["guess"]
    if guess is not None:
        guess = _floats(guess, "solver.guess")
        if guess.shape != (2 * model.n,):
            raise UsageError(f"solver guess must have {2 * model.n} components")
        guess = (guess[: model.n], guess[model.n:])
    try:  # the rule that solve_shooting applies, checked before any flow
        shooting._check_solver_arguments(sol["tol"], sol["max_iter"], sol["fd_step"])
    except ValueError as e:
        raise UsageError(f"solver.{e}")
    return {"initial_guess": guess, "tol": sol["tol"], "max_iter": sol["max_iter"],
            "fd_step": sol["fd_step"]}


def _oracle_config(config):
    try:
        return direct.TranscriptionConfig(**config.get("oracle", {}))
    except ValueError as e:
        raise UsageError(f"bad oracle section: {e}")


def _out_base(path):
    if not isinstance(path, str) or not Path(path).name:
        raise UsageError(f"output path must name a file, got {path!r}")
    p = Path(path)
    if p.suffix in (".csv", ".json"):
        p = p.with_suffix("")
    return p


def _write_json(path, payload):
    """Strict JSON: a non-finite float anywhere in ``payload`` raises ValueError
    rather than writing a bare Infinity or NaN."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


class Setup(NamedTuple):
    """The validated model and group, the problem, the cost and the output
    base path (without suffix) that every command but ``validate`` runs on."""

    model: algebra.LieAlgebraModel
    gm: groups.GroupModel
    problem: shooting.BoundaryProblem
    cost: pmp.CostModel
    base: Path

    def out(self, suffix):
        """The output file of ``suffix``: the base path with it appended, so
        that a dot in the base's name keeps what follows it."""
        return self.base.with_name(self.base.name + suffix)


def run(command, config):
    """The pipeline of every command.  Builds the model and group and
    validates them once: ``validate`` prints the report, and any other
    command exits 2 on a failed one.  Then checks that the output base's
    directory exists and builds the problem, the cost and the command's own
    inputs, so that a bad input exits 1 before any flow runs, and hands them
    to the command."""
    model, gm = build_model(config)
    if command != "validate" and gm is None:
        raise UsageError("this command needs a matrix representation "
                         "(custom models must carry rep_dim/basis_matrices)")
    checks = algebra.validate_model(model).checks
    if gm is not None:
        checks += groups.validate_group(gm).checks
    report = algebra.ValidationReport(checks)
    if command == "validate":
        print("\n".join(report.lines()))
        print("overall:", "PASS" if report.passed else "FAIL")
        return 0 if report.passed else 2
    if not report.passed:
        print("validation failed: " + ", ".join(report.failures()), file=sys.stderr)
        return 2
    base = _out_base(config["output"]["path"])
    if not base.parent.is_dir():
        raise UsageError(f"output.path: no directory {str(base.parent)!r} to write into")
    setup = Setup(model, gm, build_problem(config, model, gm), build_cost(config, model), base)
    if command == "simulate":
        return cmd_simulate(setup, build_control(config, model))
    if command == "extremal":
        return cmd_extremal(setup, _costate(config, model))
    solver = _solver(config, model)
    if command == "shoot":
        return cmd_shoot(setup, solver)
    return cmd_compare(setup, solver, _oracle_config(config))


def cmd_simulate(s, u):
    traj = dynamics.simulate(s.model, s.gm, dynamics.State(s.problem.x0, s.problem.y0),
                             u, s.problem.T, s.problem.steps)
    dynamics.write_trajectory_csv(traj, s.out(".csv"), s.model, s.gm)
    print(f"wrote {s.out('.csv')}")
    print(f"kinetic energy drift: {dynamics.energy_drift(s.model, traj):.6e}")
    return 0


def cmd_extremal(s, costate):
    p0 = dynamics.State(s.problem.x0, s.problem.y0), costate
    traj = pmp.flow_extremal(s.model, s.gm, s.cost, p0, s.problem.T, s.problem.steps)
    dynamics.write_trajectory_csv(traj, s.out(".csv"), s.model, s.gm)
    print(f"wrote {s.out('.csv')}")
    print(f"H drift: {np.abs(traj.hams - traj.hams[0]).max():.6e}")
    return 0


def cmd_shoot(s, solver):
    result = shooting.solve_shooting(s.model, s.gm, s.cost, s.problem, **solver)
    # the residual is inf when no start's seed flow succeeded; JSON has null for it
    residual = result.residual_norm if np.isfinite(result.residual_norm) else None
    payload = {"mu0": list(result.mu0), "xi0": list(result.xi0),
               "residual_norm": residual, "iterations": result.iterations,
               "converged": result.converged}
    if result.trajectory is not None:
        payload["cost"] = pmp.running_cost(s.cost, result.trajectory)
        dynamics.write_trajectory_csv(result.trajectory, s.out(".csv"), s.model, s.gm)
    _write_json(s.out(".json"), payload)
    print(f"wrote {s.out('.json')}")
    print(f"converged: {result.converged}  residual: {result.residual_norm:.3e}")
    return 0 if result.converged else 4


def cmd_compare(s, solver, oracle_cfg):
    indirect = shooting.solve_shooting(s.model, s.gm, s.cost, s.problem, **solver)
    if not indirect.converged or indirect.trajectory is None:
        print("indirect solver did not converge; no comparison", file=sys.stderr)
        return 4
    indirect_cost = pmp.running_cost(s.cost, indirect.trajectory)

    direct_res = direct.optimize_direct(s.model, s.gm, s.cost, s.problem, oracle_cfg)
    # an unconverged oracle has no answer to compare: null, not the values at its iterate
    direct_cost = gap = sup = None
    if direct_res.converged:
        direct_cost = direct_res.running_cost
        if abs(indirect_cost) > 1e-12:
            gap = (direct_cost - indirect_cost) / indirect_cost
        else:
            gap = direct_cost - indirect_cost

        # compare controls at the direct segment midpoints
        T, N, K = s.problem.T, oracle_cfg.segments, len(indirect.trajectory)
        mids = (np.arange(N) + 0.5) * T / N
        idx = np.clip(np.round(mids / T * (K - 1)).astype(int), 0, K - 1)
        sup = float(np.abs(direct_res.U - indirect.trajectory.us[idx]).max())

    payload = {
        "indirect_cost": indirect_cost,
        "direct_cost": direct_cost,
        "gap": gap,
        "control_sup_distance": sup,
        "shooting_residual": indirect.residual_norm,
        "direct_summary": {
            "objective": direct_res.running_cost,
            "boundary_error": direct_res.boundary_error,
            "iterations": direct_res.iterations,
            "converged": direct_res.converged,
        },
    }
    _write_json(s.out(".json"), payload)
    print(f"wrote {s.out('.json')}")
    if not direct_res.converged:
        print(f"indirect {indirect_cost:.6f}")
        print(f"direct oracle did not converge (boundary error "
              f"{direct_res.boundary_error:.3e} after {direct_res.iterations} iterations)",
              file=sys.stderr)
        return 4
    print(f"indirect {indirect_cost:.6f}  direct {direct_cost:.6f}  gap {gap:+.4%}")
    return 0


# the optional flags each command reads; giving it any other is a usage error
_FLAGS = {"validate": (), "simulate": ("out",), "extremal": ("out", "mu0", "xi0"),
          "shoot": ("out",), "compare": ("out",)}


def _parse_vector(text):
    """The numbers of a --mu0 or --xi0 flag; ``_costate`` checks them as
    ``costate0.mu0`` or ``costate0.xi0``."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"expected a comma-separated list of numbers, got {text!r}")


def main(argv=None) -> int:
    parser = _Parser(prog="aoc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(_FLAGS))
    parser.add_argument("--config", required=True, help="path to the run config (JSON)")
    parser.add_argument("--out", default=None,
                        help="output base path (overrides config; all but validate)")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the resolved config and exit")
    parser.add_argument("--mu0", default=None,
                        help="initial mu costate, comma separated (extremal only)")
    parser.add_argument("--xi0", default=None,
                        help="initial xi costate, comma separated (extremal only)")
    try:
        args = parser.parse_args(argv)
        unread = [f"--{flag}" for flag in ("out", "mu0", "xi0")
                  if getattr(args, flag) is not None and flag not in _FLAGS[args.command]]
        if unread:
            raise UsageError(f"{args.command} does not read {', '.join(unread)}")
        config = load_config(args.config)
        if args.out is not None:
            config["output"]["path"] = str(_out_base(args.out))
        for key in ("mu0", "xi0"):
            if getattr(args, key) is not None:
                config.setdefault("costate0", {})[key] = _parse_vector(getattr(args, key))
        if args.dump_config:
            try:
                print(json.dumps(config, indent=2, sort_keys=True, allow_nan=False))
            except ValueError:
                raise UsageError("the config holds a non-finite number; it has no JSON form")
            return 0
        return run(args.command, config)
    except (UsageError, NonFinite, NoConvergence, SingularRegularity, AngleOutOfRange) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, UsageError) else 3 if isinstance(e, NonFinite) else 4


if __name__ == "__main__":
    sys.exit(main())
