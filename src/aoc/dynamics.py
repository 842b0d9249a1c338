"""Forward simulation of the controlled velocity equations.

The state is a pair (x, y): group element and body velocity.  The
velocity equation ``ydot = bias(y) + embed(u)`` does not involve x, so
``groups.rkmk_integrate`` steps y alone by classical RK4 and reconstructs
x from the stage velocities after its loop, by the Munthe-Kaas scheme.
``simulate`` samples the control callable at the RK stage times (no zero
order hold inside a step).  ``zoh_rollout`` is one stepper call over all
N * steps_per_segment steps; its right-hand side adds the drift of step
k's segment, read from one table of all N segments.  Both return the
stepper's record of the grid as their samples.  The drift ``bias`` is one
stacked matmul against the model's ``drift`` matrix, the tensor that the
extremal field of ``pmp`` reads its y-block from, so the rollouts and
the extremal flows share one drift kernel.

Trajectories store their samples as arrays (struct of arrays); the CSV
layout is ``t, x (row-major d^2), y (n), u (m)`` plus optional
``mu (n), xi (n), H`` columns written with 17 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .algebra import bias, embed_control, kinetic_energy
from .errors import DimensionMismatch


@dataclass(frozen=True)
class State:
    """Group element and body velocity."""

    x: np.ndarray
    y: np.ndarray


@dataclass
class Trajectory:
    times: np.ndarray            # (K,)
    xs: np.ndarray               # (K, d, d)
    ys: np.ndarray               # (K, n)
    us: np.ndarray               # (K, m)
    mus: np.ndarray | None = None
    xis: np.ndarray | None = None
    hams: np.ndarray | None = None

    def __post_init__(self):
        k = len(self.times)
        for name in ("xs", "ys", "us", "mus", "xis", "hams"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != k:
                raise DimensionMismatch(f"{name} has {len(arr)} samples, expected {k}")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    def state(self, k) -> State:
        return State(x=self.xs[k], y=self.ys[k])


def simulate(model, gm, s0, u, T, steps) -> Trajectory:
    """Integrate the controlled system on a uniform grid.

    ``u`` is a callable t -> m-vector.  Raises NonFinite with the step
    index if the state blows up.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)

    def rhs(k, c, _x, y):
        uu = np.asarray(u(times[k] + c * h), dtype=float)
        return y, bias(model, y) + embed_control(model, uu)

    xs, ys = groups.rkmk_integrate(gm, s0.x, s0.y, steps, h, rhs)
    us = np.empty((steps + 1, model.m))
    for k, t in enumerate(times):
        us[k] = np.asarray(u(t), dtype=float)
    return Trajectory(times=times, xs=xs, ys=ys, us=us)


def zero_control(model):
    """The zero control signal for a model."""
    z = np.zeros(model.m)
    return lambda t: z


def zoh_rollout(gm, x0, y0, U, T, steps_per_segment=2):
    """Batched rollout under piecewise-constant controls.

    ``U`` has shape (N, m) or (B, N, m); integrates with
    ``steps_per_segment`` steps per control segment so that every step
    (stage times included) lies inside one segment and sees that
    segment's control.  Returns ``(times, xs, ys)`` sampled on the full
    sub-grid, with shapes (K, B?, d, d) and (K, B?, n).  Raises NonFinite
    with the 1-based sub-grid step index if the state blows up.
    """
    U = np.asarray(U, dtype=float)
    spb = int(steps_per_segment)
    steps = U.shape[-2] * spb
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    drifts = np.moveaxis(embed_control(gm.algebra, U), -2, 0)  # (N, B?, n)

    def rhs(k, c, _x, y):
        return y, bias(gm.algebra, y) + drifts[k // spb]

    xs, ys = groups.rkmk_integrate(gm, x0, np.broadcast_to(y0, drifts.shape[1:]), steps, h,
                                   rhs)
    return times, xs, ys


def energy_drift(model, traj) -> float:
    """Peak deviation of the kinetic energy along a trajectory."""
    e = kinetic_energy(model, traj.ys)
    return float(np.abs(e - e[0]).max())


# -- serialization -------------------------------------------------------------

def trajectory_header(model, gm, with_costates):
    d = gm.rep_dim
    cols = ["t"]
    cols += [f"x_{r}{c}" for r in range(d) for c in range(d)]
    cols += [f"y_{i}" for i in range(model.n)]
    cols += [f"u_{a}" for a in range(model.m)]
    if with_costates:
        cols += [f"mu_{i}" for i in range(model.n)]
        cols += [f"xi_{i}" for i in range(model.n)]
        cols += ["H"]
    return cols


def write_trajectory_csv(traj, path, model, gm):
    """Write a trajectory with 17 significant digits per value."""
    with_costates = traj.mus is not None and traj.xis is not None and traj.hams is not None
    cols = [traj.times, traj.xs.reshape(len(traj), gm.rep_dim ** 2), traj.ys, traj.us]
    if with_costates:
        cols += [traj.mus, traj.xis, traj.hams]
    table = np.column_stack(cols)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(",".join(trajectory_header(model, gm, with_costates)) + "\n")
        for vals in table:
            f.write(row % tuple(vals.tolist()))
