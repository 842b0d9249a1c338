"""Forward simulation of the controlled velocity equations.

The state is a pair (x, y): group element and body velocity.  The
velocity equation ``ydot = bias(y) + embed(u)`` does not involve x, so a
classical RK4 on y rides along with the Munthe-Kaas reconstruction of x
inside one coupled step.  Controls are sampled at the RK stage times
from the control callable (no zero order hold inside a step).

Trajectories store their samples as arrays (struct of arrays); the CSV
layout is ``t, x (row-major d^2), y (n), u (m)`` plus optional
``mu (n), xi (n), H`` columns written with 17 significant digits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import groups
from .algebra import bias, embed_control, kinetic_energy
from .errors import DimensionMismatch, NonFinite


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


def euler_poincare_rhs(model, y, u):
    """Right-hand sides of the controlled velocity system.

    Returns ``(ydot, xdot_body)``: the velocity derivative
    ``bias(y) + embed(u)`` and the body direction of xdot (which is y).
    """
    y = np.asarray(y, dtype=float)
    return bias(model, y) + embed_control(model, u), y


def covariant_acceleration(model, y, ydot) -> np.ndarray:
    """ydot - bias(y); along a controlled trajectory this equals embed(u)."""
    return np.asarray(ydot, dtype=float) - bias(model, y)


def _check_finite(x, y, step):
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise NonFinite(step)


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
    n, m = model.n, model.m

    def rhs(t, _x, y):
        uu = np.asarray(u(t), dtype=float)
        return y, bias(model, y) + embed_control(model, uu)

    times = np.linspace(0.0, T, steps + 1)
    xs = np.empty((steps + 1, gm.rep_dim, gm.rep_dim))
    ys = np.empty((steps + 1, n))
    us = np.empty((steps + 1, m))
    x = np.asarray(s0.x, dtype=float)
    y = np.asarray(s0.y, dtype=float)
    xs[0], ys[0], us[0] = x, y, np.asarray(u(0.0), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x, y = groups.rkmk_coupled_step(gm, x, y, times[k], h, rhs)
            _check_finite(x, y, k + 1)
            xs[k + 1], ys[k + 1] = x, y
            us[k + 1] = np.asarray(u(times[k + 1]), dtype=float)
    return Trajectory(times=times, xs=xs, ys=ys, us=us)


def zero_control(model):
    """The zero control signal for a model."""
    z = np.zeros(model.m)
    return lambda t: z


def zoh_control(model, U, T):
    """Piecewise-constant control over N equal segments of [0, T].

    Exact segment boundaries are attributed to the segment on their
    left.  Note that ``simulate`` samples this callable at RK stage
    times, so a step straddling a control jump sees mixed values; the
    transcription oracle therefore integrates through ``zoh_rollout``,
    which aligns steps with segments.
    """
    U = np.asarray(U, dtype=float)
    N = U.shape[0]

    def u(t):
        j = int(np.floor(t * N / T - 1e-9))
        return U[min(max(j, 0), N - 1)]

    return u


def batch_slices(total):
    """Slices of at most ``AOC_THREADS`` rows covering ``range(total)``.

    The environment variable caps how many flows one batched evaluation
    carries; unset, non-integer or <= 0 means no cap (one slice).
    """
    try:
        cap = int(os.environ.get("AOC_THREADS", ""))
    except ValueError:
        cap = 0
    if cap <= 0:
        return [slice(0, total)]
    return [slice(i, min(i + cap, total)) for i in range(0, total, cap)]


def zoh_rollout(model, gm, x0, y0, U, T, steps_per_segment=2):
    """Batched rollout under piecewise-constant controls.

    ``U`` has shape (N, m) or (B, N, m); integrates with
    ``steps_per_segment`` steps per control segment so that every step
    (stage times included) lies inside one segment and sees that
    segment's control.  Returns ``(times, xs, ys)`` sampled on the full
    sub-grid, with shapes (K, B?, d, d) and (K, B?, n).
    """
    U = np.asarray(U, dtype=float)
    batched = U.ndim == 3
    N = U.shape[-2]
    spb = int(steps_per_segment)
    h = T / (N * spb)
    times = np.linspace(0.0, T, N * spb + 1)

    x = np.asarray(x0, dtype=float)
    y = np.asarray(y0, dtype=float)
    if batched:
        y = np.broadcast_to(y, (U.shape[0], y.shape[-1])).copy()
        x = np.broadcast_to(x, (U.shape[0],) + x.shape).copy()
    ys = np.empty((len(times),) + y.shape)
    xs = np.empty((len(times),) + x.shape)
    xs[0], ys[0] = x, y
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(N):
            drift = embed_control(gm.algebra, U[..., j, :])

            def rhs(t, _x, yy, drift=drift):
                return yy, bias(gm.algebra, yy) + drift

            for _ in range(spb):
                x, y = groups.rkmk_coupled_step(gm, x, y, times[k], h, rhs)
                k += 1
                xs[k], ys[k] = x, y
    if not (np.isfinite(ys).all() and np.isfinite(xs).all()):
        bad = np.where(~np.isfinite(ys).reshape(len(times), -1).all(axis=1))[0]
        raise NonFinite(int(bad[0]) if len(bad) else len(times) - 1)
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
    rows = []
    for k in range(len(traj)):
        vals = [traj.times[k]]
        vals += list(traj.xs[k].reshape(-1))
        vals += list(traj.ys[k])
        vals += list(traj.us[k])
        if with_costates:
            vals += list(traj.mus[k])
            vals += list(traj.xis[k])
            vals.append(traj.hams[k])
        rows.append(",".join("%.17g" % v for v in vals))
    text = ",".join(trajectory_header(model, gm, with_costates)) + "\n" + "\n".join(rows) + "\n"
    Path(path).write_text(text)
