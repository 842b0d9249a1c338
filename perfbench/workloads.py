"""Seeded ops for the aoc benchmark, and the checks on their outputs.

Every workload is so(3) with inertia (1, 2, 3), T = 1 and rest-to-rest
boundary data.  An op is one ``aoc`` command on one generated config.
Op k depends only on (workload, seed, k), so a seed always gives the same
configs.  Op 0 of the shoot and compare workloads is an acceptance
problem (criterion 7 or 8 of the test suite); see README.md for why the
later ops are drawn as they are.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("shoot-actuated", "shoot-underactuated", "compare-actuated", "extremal-long")
POOL = 16          # configs built in set-up; a run cycles through them
INERTIA = [1.0, 2.0, 3.0]
TOL = 1e-8         # shooting tolerance written into each shoot/compare config
CRIT7_TARGET = np.array([0.0, 0.0, 0.5])
CRIT8_AXIS = np.array([0.6, 0.7, 0.25]) / np.linalg.norm([0.6, 0.7, 0.25])
CRIT8_ANGLE = 0.4
# rotations by pi about the principal axes: exact symmetries of the
# diagonal-inertia problem whose floating point work is bitwise the same
PRINCIPAL_FLIPS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


@dataclass(frozen=True)
class Op:
    index: int
    command: str
    config: dict
    path: Path

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.path.read_bytes()).hexdigest()[:16]


def _problem(m, steps, x0, xT):
    return {
        "algebra": {"kind": "so3", "inertia": INERTIA, "m": m},
        "problem": {"x0": np.asarray(x0, dtype=float).tolist(),
                    "xT": np.asarray(xT, dtype=float).tolist(),
                    "y0": [0.0] * 3, "yT": [0.0] * 3, "T": 1.0, "steps": steps},
    }


def _axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _shoot_actuated(rng, k, exp):
    target = CRIT7_TARGET if k == 0 else _axis(rng) * rng.uniform(0.2, 1.0)
    cfg = _problem(3, 200, np.zeros(3), target)
    cfg["solver"] = {"tol": TOL}
    return "shoot", cfg


def _shoot_underactuated(rng, k, exp):
    # the criterion-8 target, left-translated by a seeded rotation
    x0 = np.eye(3) if k == 0 else exp(_axis(rng) * rng.uniform(0.0, np.pi))
    cfg = _problem(2, 50, x0, x0 @ exp(CRIT8_AXIS * CRIT8_ANGLE))
    cfg["solver"] = {"tol": TOL}
    return "shoot", cfg


def _compare_actuated(rng, k, exp):
    # the criterion-7 target under a seeded principal-axis symmetry
    x0 = np.diag(PRINCIPAL_FLIPS[0 if k == 0 else rng.integers(len(PRINCIPAL_FLIPS))])
    cfg = _problem(3, 200, x0, x0 @ exp(CRIT7_TARGET))
    cfg["solver"] = {"tol": TOL}
    cfg["oracle"] = {"segments": 20}
    return "compare", cfg


def _extremal_long(rng, k, exp):
    cfg = _problem(2, 2000, np.zeros(3), np.zeros(3))
    cfg["costate0"] = {"mu0": rng.uniform(-0.5, 0.5, 3).tolist(),
                       "xi0": rng.uniform(-0.5, 0.5, 3).tolist()}
    return "extremal", cfg


_GENERATORS = {
    "shoot-actuated": (3, _shoot_actuated),
    "shoot-underactuated": (2, _shoot_underactuated),
    "compare-actuated": (3, _compare_actuated),
    "extremal-long": (2, _extremal_long),
}


def setup(workload, seed, workdir, pool=POOL, steps=None):
    """Import aoc, build the workload's model and group, and write ``pool``
    op configs into ``workdir``, each loaded back through the CLI's own
    config, model and problem builders.  ``steps`` overrides the horizon
    (the self-tests use it to keep ops small).  Returns the ops.
    """
    import aoc  # imported here so that set-up time includes the import
    from aoc import cli

    m, generate = _GENERATORS[workload]
    gm = aoc.so3_group(aoc.so3_model(tuple(INERTIA), m=m))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for k in range(pool):
        command, cfg = generate(np.random.default_rng([seed, k]), k,
                                lambda w: aoc.exp_map(gm, w))
        if steps is not None:
            cfg["problem"]["steps"] = steps
        path = workdir / f"op{k}.json"
        path.write_text(json.dumps(cfg, sort_keys=True) + "\n")
        loaded = cli.load_config(path)
        model, group = cli.build_model(loaded)
        cli.build_problem(loaded, model, group)
        ops.append(Op(k, command, cfg, path))
    return ops


def check(op, rc, base):
    """(ok, summary) for one executed op whose outputs sit at ``base``.json/.csv.

    shoot: exit 0, converged and residual below tol.  compare: exit 0,
    |gap| < 2% and direct cost >= indirect * (1 - 1e-3) (criterion 7).
    extremal: steps + 1 CSV rows and H within 1e-7 of its first value
    (criterion 5).
    """
    if rc != 0:
        return False, {"rc": rc}
    if op.command == "shoot":
        out = json.loads(base.with_suffix(".json").read_text())
        ok = out["converged"] is True and out["residual_norm"] < op.config["solver"]["tol"]
        return ok, {"iterations": out["iterations"], "residual": out["residual_norm"]}
    if op.command == "compare":
        out = json.loads(base.with_suffix(".json").read_text())
        ok = (abs(out["gap"]) < 0.02
              and out["direct_cost"] >= out["indirect_cost"] * (1.0 - 1e-3))
        return ok, {"gap": out["gap"], "oracle_iterations": out["direct_summary"]["iterations"]}
    lines = base.with_suffix(".csv").read_text().splitlines()
    hams = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    drift = max(abs(h - hams[0]) for h in hams)
    ok = (lines[0].endswith(",H") and len(hams) == op.config["problem"]["steps"] + 1
          and drift <= 1e-7)
    return ok, {"rows": len(hams), "h_drift": drift}
