"""Indirect solver: Levenberg-Marquardt on the initial costates.

The unknowns are the 2n components of (mu0, xi0); the residual stacks
the body-frame configuration error log(x(T)^{-1} xT) with the velocity
error yT - y(T), so a zero residual is exactly the boundary conditions.
The direct oracle closes the same boundary conditions with the same
residual, ``endpoint_residual``.

Each LM step is one batched propagation (see ``propagate_endpoints``)
of 4n + 1 rows: the trial point and its central-difference
perturbations, with per-column steps fd_step (1 + |component|).  An
accepted step therefore already has its Jacobian, and a rejected one
costs a single flow.  A batch whose flow blows up or whose boundary log
is ill-posed is a rejected step (a failed start at the seed); no row is
rerun on its own.  The damping follows Nielsen's gain-ratio rule (H. B.
Nielsen, "Damping parameter in Marquardt's method", 1999): it starts at
1e-6 max diag(J^T J), shrinks by max(1/3, 1 - (2 rho - 1)^3) after an
accepted step and grows by a doubling factor after a rejected one.  A
start ends on convergence, after ``max_iter`` steps, when the damping
exceeds 1e16 or when the step is negligible against theta.

For underactuated problems (m < n) the unactuated directions are reached
only through brackets, so the residual is strongly curved in the
costates and plain LM creeps along a curved valley.  There each step
adds geodesic acceleration (M. K. Transtrum and J. P. Sethna,
"Improvements to the Levenberg-Marquardt algorithm for nonlinear
least-squares minimization", arXiv:1201.5885, 2012): a 1-row probe flow
at theta + GEO_H delta gives the second directional derivative r_vv of
the residual, the same damped normal matrix gives the acceleration
a = -(J^T J + lambda I)^-1 J^T r_vv, and the trial moves to
theta + delta + a / 2.  A step with 2 |a| > GEO_ALPHA |delta|, or whose
probe fails, is rejected without a trial flow; the gain ratio is still
measured against the model of delta.  A step therefore costs a probe
flow plus a trial flow.  Fully actuated problems (m = n) converge in a
few plain steps, where the probe would only add flows, so they run
without it.  ``ShootingResult.flows`` counts every propagation of a
solve: seeds, probes and trials.

Every 4n + 1-row flow records its states on the grid, so the returned
trajectory is row 0 of the last accepted flow of the best start (its
seed flow when no step was accepted): bitwise the flow of the returned
costates, with no flow run for it.  It is None only when no start's
seed flow succeeded.

Globalization is a deterministic multi-start (scale patterns
{0, +-1, +-10} on two sign masks, 8 seeds total); there is no
continuation or homotopy in this version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, pmp
from .dynamics import State, Trajectory
from .errors import AngleOutOfRange, NonFinite

# Geodesic acceleration (Transtrum and Sethna, arXiv:1201.5885): the
# finite-difference step along delta and the largest accepted 2 |a| / |delta|
GEO_H = 0.1
GEO_ALPHA = 0.75


@dataclass(frozen=True)
class BoundaryProblem:
    """Fixed-endpoint, fixed-time boundary data in body coordinates."""

    x0: np.ndarray
    xT: np.ndarray
    y0: np.ndarray
    yT: np.ndarray
    T: float
    steps: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if int(self.steps) < 1:
            raise ValueError("steps must be at least 1")


def endpoint_residual(gm, problem, xT, yT) -> np.ndarray:
    """(log(x(T)^-1 xT), yT - y(T)) for terminal states that may carry a batch dimension."""
    err_x = groups.log_map(gm, groups.compose(groups.inverse(gm, xT), problem.xT))
    return np.concatenate([err_x, np.asarray(problem.yT, dtype=float) - yT], axis=-1)


@dataclass
class ShootingResult:
    mu0: np.ndarray
    xi0: np.ndarray
    residual_norm: float
    iterations: int
    trajectory: Trajectory | None
    converged: bool
    flows: int


def _residual_batch(model, gm, cost, problem, thetas, out=None):
    """Boundary residuals for a (B, 2n) array of costate seeds, one batched flow
    (recorded to ``out`` as in ``propagate_endpoints``)."""
    n = model.n
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    xT, yT = pmp.propagate_endpoints(model, gm, cost, problem.x0, problem.y0,
                                     thetas[:, :n], thetas[:, n:], problem.T, problem.steps,
                                     out=out)
    return endpoint_residual(gm, problem, xT, yT)


def boundary_residual(model, gm, cost, problem, mu0, xi0) -> np.ndarray:
    """(log(x(T)^{-1} xT), yT - y(T)) stacked; zero iff the flow hits the target."""
    theta = np.concatenate([np.asarray(mu0, dtype=float), np.asarray(xi0, dtype=float)])
    return _residual_batch(model, gm, cost, problem, theta[None, :])[0]


def _residual_and_jacobian(model, gm, cost, problem, theta, fd_step):
    """Residual at theta, its central-difference Jacobian and the flow from theta,
    from one batched flow.

    Row 0 of the batch is theta; rows 1..p and p+1..2p add and subtract
    the per-column steps fd_step (1 + |theta_i|).  The flow is row 0's
    (xs, vs) on the grid, as ``flow_extremal`` records it.  Returns None
    when the flow blows up or a boundary log is ill-posed anywhere in the
    batch.
    """
    p = len(theta)
    h = fd_step * (1.0 + np.abs(theta))
    steps, d, rows = int(problem.steps), gm.rep_dim, 2 * p + 1
    xs, vs = np.empty((steps + 1, rows, d, d)), np.empty((steps + 1, rows, 3 * model.n))
    try:
        res = _residual_batch(model, gm, cost, problem,
                              theta + np.vstack([np.zeros(p), np.diag(h), -np.diag(h)]),
                              out=(xs, vs))
    except (NonFinite, AngleOutOfRange):
        return None
    return res[0], (res[1:p + 1] - res[p + 1:]).T / (2.0 * h), (xs[:, 0], vs[:, 0])


def _start_points(n):
    """Eight deterministic seeds: scales {0, +-1, +-10} on all-ones,
    {1, -1, 10} on the (ones, -ones) mask."""
    ones = np.ones(2 * n)
    mask = np.concatenate([np.ones(n), -np.ones(n)])
    seeds = [s * ones for s in (0.0, 1.0, -1.0, 10.0, -10.0)]
    seeds += [s * mask for s in (1.0, -1.0, 10.0)]
    return seeds


def _levenberg_marquardt(evaluate, theta0, tol, max_iter, probe=None):
    """Levenberg-Marquardt with Nielsen's gain-ratio damping update.

    ``evaluate(theta)`` returns (r, J, flow) or None, so every step costs
    one call: a rejected trial is one lost flow, and an accepted one
    already carries the Jacobian of the next step.  With ``probe(theta)``,
    which returns r or None, each step adds the geodesic acceleration of
    the module docstring.  Returns (theta, sup-norm residual, steps,
    converged, flow of theta), the flow None when the seed failed.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    point = evaluate(theta)
    if point is None:
        return theta, np.inf, 0, False, None
    r, J, flow = point
    lam, nu = 1e-6 * (J ** 2).sum(axis=0).max(), 2.0
    steps = 0
    while np.abs(r).max() >= tol and steps < max_iter and lam <= 1e16:
        g = J.T @ r
        A = J.T @ J + lam * np.eye(len(theta))
        try:
            delta = np.linalg.solve(A, -g)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(delta) <= 1e-12 * (np.linalg.norm(theta) + 1e-12):
            break
        steps += 1
        step = delta
        if probe is not None:
            r_h = probe(theta + GEO_H * delta)
            step = None
            if r_h is not None:
                r_vv = (2.0 / GEO_H) * ((r_h - r) / GEO_H - J @ delta)
                a = -np.linalg.solve(A, J.T @ r_vv)
                if 2.0 * np.linalg.norm(a) <= GEO_ALPHA * np.linalg.norm(delta):
                    step = delta + 0.5 * a
        trial = None if step is None else evaluate(theta + step)
        gain = -1.0 if trial is None else (r @ r - trial[0] @ trial[0]) / (delta @ (lam * delta - g))
        if gain > 0:
            theta, (r, J, flow) = theta + step, trial
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
    norm = float(np.abs(r).max())
    return theta, norm, steps, norm < tol, flow


def solve_shooting(model, gm, cost, problem, initial_guess=None,
                   tol=1e-8, max_iter=200, fd_step=1e-6) -> ShootingResult:
    """Find (mu0, xi0) whose extremal flow meets the boundary data.

    Runs Levenberg-Marquardt from the supplied guess, or from the eight
    deterministic multi-start seeds when none is given; returns the best
    iterate with ``converged=False`` rather than raising when every
    start stalls.  The trajectory is row 0 of that iterate's LM flow.
    """
    n = model.n
    flows = 0

    def evaluate(theta):
        nonlocal flows
        flows += 1
        return _residual_and_jacobian(model, gm, cost, problem, theta, fd_step)

    def probe(theta):
        nonlocal flows
        flows += 1
        try:
            return _residual_batch(model, gm, cost, problem, theta[None, :])[0]
        except (NonFinite, AngleOutOfRange):
            return None

    if initial_guess is not None:
        mu0, xi0 = initial_guess
        starts = [np.concatenate([np.asarray(mu0, dtype=float), np.asarray(xi0, dtype=float)])]
    else:
        starts = _start_points(n)

    best = None
    total_iters = 0
    for theta0 in starts:
        theta, norm, iters, ok, flow = _levenberg_marquardt(evaluate, theta0, tol, max_iter,
                                                            probe if model.m < n else None)
        total_iters += iters
        if best is None or norm < best[1]:
            best = (theta, norm, ok, flow)
        if ok:
            break

    theta, norm, ok, flow = best
    trajectory = None if flow is None else pmp.extremal_trajectory(model, gm, cost,
                                                                   problem.T, *flow)
    return ShootingResult(mu0=theta[:n].copy(), xi0=theta[n:].copy(),
                          residual_norm=norm, iterations=total_iters,
                          trajectory=trajectory, converged=bool(ok), flows=flows)


def extremal_defect(model, gm, cost, traj):
    """Sup-norm defects of the stored trajectory against the critical flow.

    Fourth order five-point stencils approximate the time derivatives of
    (y, mu, xi) at interior grid points; the stationarity condition is
    re-checked exactly.  Defects shrink as O(h^4) for a valid extremal.
    The rates and controls of the whole grid come from one batched pass of
    ``pmp.extremal_field`` (which evaluates ydot at the stationary control)
    and ``pmp.eliminate_control``.
    """
    h = float(traj.times[1] - traj.times[0])
    n = model.n

    def ddt(arr):
        return (arr[:-4] - 8 * arr[1:-3] + 8 * arr[3:-1] - arr[4:]) / (12.0 * h)

    vs = np.concatenate([traj.ys, traj.mus, traj.xis], axis=1)
    vdot = pmp.extremal_field(model, gm, cost)(0, 0.0, traj.xs, vs)[1]
    us = pmp.eliminate_control(model, cost, State(traj.xs, traj.ys), traj.xis)
    return {
        "y": float(np.abs(ddt(traj.ys) - vdot[2:-2, :n]).max()),
        "mu": float(np.abs(ddt(traj.mus) - vdot[2:-2, n:2 * n]).max()),
        "xi": float(np.abs(ddt(traj.xis) - vdot[2:-2, 2 * n:]).max()),
        "stationarity": float(np.abs(traj.us - us).max()),
    }
