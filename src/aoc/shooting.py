"""Indirect solver: Levenberg-Marquardt on the initial costates.

The unknowns are the 2n components of (mu0, xi0); the residual stacks
the body-frame configuration error log(x(T)^{-1} xT) with the velocity
error yT - y(T), so a zero residual is exactly the boundary conditions.
The direct oracle closes the same boundary conditions with the same
residual, ``endpoint_residual``.  The Jacobian uses central finite
differences with per-column steps 1e-6 (1 + |component|); all 4n flows
of one Jacobian evaluation run as a single batched propagation (see
``propagate_endpoints``), which is how columns are evaluated
concurrently.

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


def _residual_batch(model, gm, cost, problem, thetas):
    """Boundary residuals for a (B, 2n) array of costate seeds, one batched flow."""
    n = model.n
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    xT, yT = pmp.propagate_endpoints(model, gm, cost, problem.x0, problem.y0,
                                     thetas[:, :n], thetas[:, n:], problem.T, problem.steps)
    return endpoint_residual(gm, problem, xT, yT)


def boundary_residual(model, gm, cost, problem, mu0, xi0) -> np.ndarray:
    """(log(x(T)^{-1} xT), yT - y(T)) stacked; zero iff the flow hits the target."""
    theta = np.concatenate([np.asarray(mu0, dtype=float), np.asarray(xi0, dtype=float)])
    return _residual_batch(model, gm, cost, problem, theta[None, :])[0]


def _safe_residual(model, gm, cost, problem, thetas):
    """Residuals with flow blow-ups and ill-posed logs mapped to +inf rows."""
    try:
        return _residual_batch(model, gm, cost, problem, thetas)
    except (NonFinite, AngleOutOfRange):
        pass
    # retry row by row so one bad column does not poison the batch
    thetas = np.atleast_2d(thetas)
    n2 = thetas.shape[1]
    out = np.empty((len(thetas), n2))
    for b in range(len(thetas)):
        try:
            out[b] = _residual_batch(model, gm, cost, problem, thetas[b][None, :])[0]
        except (NonFinite, AngleOutOfRange):
            out[b] = np.inf
    return out


def _fd_jacobian(model, gm, cost, problem, theta, fd_step):
    """Central-difference Jacobian; all columns in one batched propagation."""
    p = len(theta)
    steps = fd_step * (1.0 + np.abs(theta))
    pert = np.zeros((2 * p, p))
    for i in range(p):
        pert[2 * i, i] = steps[i]
        pert[2 * i + 1, i] = -steps[i]
    res = _safe_residual(model, gm, cost, problem, theta[None, :] + pert)
    J = np.empty((p, p))
    for i in range(p):
        J[:, i] = (res[2 * i] - res[2 * i + 1]) / (2.0 * steps[i])
    return J


def _start_points(n):
    """Eight deterministic seeds: scales {0, +-1, +-10} on all-ones,
    {1, -1, 10} on the (ones, -ones) mask."""
    ones = np.ones(2 * n)
    mask = np.concatenate([np.ones(n), -np.ones(n)])
    seeds = [s * ones for s in (0.0, 1.0, -1.0, 10.0, -10.0)]
    seeds += [s * mask for s in (1.0, -1.0, 10.0)]
    return seeds


def _levenberg_marquardt(fun, jac, theta0, tol, max_iter):
    theta = np.asarray(theta0, dtype=float).copy()
    r = fun(theta[None, :])[0]
    if not np.isfinite(r).all():
        return theta, np.inf, 0, False
    lam = 1e-3
    best_theta, best_norm = theta.copy(), float(np.abs(r).max())
    iters = 0
    while iters < max_iter:
        if np.abs(r).max() < tol:
            return theta, float(np.abs(r).max()), iters, True
        J = jac(theta)
        if not np.isfinite(J).all():
            break
        JTJ = J.T @ J
        JTr = J.T @ r
        accepted = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(JTJ + lam * np.eye(len(theta)), -JTr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_try = fun((theta + delta)[None, :])[0]
            if np.isfinite(r_try).all() and np.linalg.norm(r_try) < np.linalg.norm(r):
                theta = theta + delta
                r = r_try
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        iters += 1
        norm = float(np.abs(r).max())
        if norm < best_norm:
            best_theta, best_norm = theta.copy(), norm
        if not accepted:
            break
    converged = best_norm < tol
    return best_theta, best_norm, iters, converged


def solve_shooting(model, gm, cost, problem, initial_guess=None,
                   tol=1e-8, max_iter=200, fd_step=1e-6) -> ShootingResult:
    """Find (mu0, xi0) whose extremal flow meets the boundary data.

    Runs Levenberg-Marquardt from the supplied guess, or from the eight
    deterministic multi-start seeds when none is given; returns the best
    iterate with ``converged=False`` rather than raising when every
    start stalls.
    """
    n = model.n

    def fun(thetas):
        return _safe_residual(model, gm, cost, problem, thetas)

    def jac(theta):
        return _fd_jacobian(model, gm, cost, problem, theta, fd_step)

    if initial_guess is not None:
        mu0, xi0 = initial_guess
        starts = [np.concatenate([np.asarray(mu0, dtype=float), np.asarray(xi0, dtype=float)])]
    else:
        starts = _start_points(n)

    best = None
    total_iters = 0
    for theta0 in starts:
        theta, norm, iters, ok = _levenberg_marquardt(fun, jac, theta0, tol, max_iter)
        total_iters += iters
        if best is None or norm < best[1]:
            best = (theta, norm, ok)
        if ok:
            break

    theta, norm, ok = best
    try:
        start = pmp.ExtremalPoint(
            state=State(np.asarray(problem.x0, dtype=float), np.asarray(problem.y0, dtype=float)),
            costate=pmp.Costate(theta[:n], theta[n:]),
            u=np.zeros(model.m))
        trajectory = pmp.flow_extremal(model, gm, cost, start, problem.T, problem.steps)
    except (NonFinite, AngleOutOfRange):
        trajectory = None
    return ShootingResult(mu0=theta[:n].copy(), xi0=theta[n:].copy(),
                          residual_norm=norm, iterations=total_iters,
                          trajectory=trajectory, converged=bool(ok))


def extremal_defect(model, gm, cost, traj):
    """Sup-norm defects of the stored trajectory against the critical flow.

    Fourth order five-point stencils approximate the time derivatives of
    (y, mu, xi) at interior grid points; the stationarity condition is
    re-checked exactly.  Defects shrink as O(h^4) for a valid extremal.
    """
    h = float(traj.times[1] - traj.times[0])

    def ddt(arr):
        return (arr[:-4] - 8 * arr[1:-3] + 8 * arr[3:-1] - arr[4:]) / (12.0 * h)

    K = len(traj)
    rates = [pmp.extremal_rhs(model, gm, cost,
                              pmp.ExtremalPoint(traj.state(k),
                                                pmp.Costate(traj.mus[k], traj.xis[k]),
                                                traj.us[k]))
             for k in range(K)]
    ydot = np.stack([r.ydot for r in rates])
    mudot = np.stack([r.mudot for r in rates])
    xidot = np.stack([r.xidot for r in rates])
    stat = max(
        float(np.abs(traj.us[k] - pmp.eliminate_control(model, cost, traj.state(k), traj.xis[k])).max())
        for k in range(K)
    )
    return {
        "y": float(np.abs(ddt(traj.ys) - ydot[2:-2]).max()),
        "mu": float(np.abs(ddt(traj.mus) - mudot[2:-2]).max()),
        "xi": float(np.abs(ddt(traj.xis) - xidot[2:-2]).max()),
        "stationarity": stat,
    }
