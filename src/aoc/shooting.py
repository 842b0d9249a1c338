"""Indirect solver: Levenberg-Marquardt on the initial costates.

The unknowns are the 2n components of (mu0, xi0); the residual stacks
the body-frame configuration error log(x(T)^{-1} xT) with the velocity
error yT - y(T), so a zero residual is exactly the boundary conditions.
The direct oracle closes the same boundary conditions with the same
residual, ``endpoint_residual``.

Each LM step of a run from a seed is one batched propagation (see
``propagate_endpoints``) of 4n + 1 rows: the trial point and its
central-difference perturbations, with per-column steps
fd_step (1 + |component|).  An accepted step therefore already has its
Jacobian, and a rejected one costs a single flow.  (A continuation on
the requested grid, below, steps with a carried Jacobian instead.)  A
batch whose flow blows up, whose control elimination stalls
(NoConvergence, which only the Newton of a non-quadratic cost raises) or
whose boundary log is ill-posed is a rejected step (a failed start at
the seed); no row is rerun on its own.
The damping follows Nielsen's gain-ratio rule (H. B. Nielsen, "Damping
parameter in Marquardt's method", 1999): it starts at 1e-6 max
diag(J^T J), shrinks by max(1/3, 1 - (2 rho - 1)^3) after an accepted
step and grows by a doubling factor after a rejected one.  A start ends
on convergence, after ``max_iter`` steps, when the damping exceeds 1e16
or when the step is negligible against theta.

For underactuated problems (m < n) the unactuated directions are reached
only through brackets, so the residual is strongly curved in the
costates and plain LM creeps along a curved valley.  There each step
adds geodesic acceleration (M. K. Transtrum and J. P. Sethna,
"Improvements to the Levenberg-Marquardt algorithm for nonlinear
least-squares minimization", arXiv:1201.5885, 2012): a residual-only
evaluation (a 1-row probe flow) at theta + GEO_H delta gives the second
directional derivative r_vv of the residual, the same damped normal
matrix gives the acceleration
a = -(J^T J + lambda I)^-1 J^T r_vv, and the trial moves to
theta + delta + a / 2.  A step whose probe fails is rejected without a
trial flow; every other step is judged by its trial flow's gain ratio, as
in plain LM, measured against the model of delta.  A step therefore costs
a probe flow plus a trial flow.  Fully actuated problems (m = n) converge
in a few plain steps, where the probe would only add flows, so they run
without it.

Each start is nested over two grids (nested iteration; P. Deuflhard,
"Newton Methods for Nonlinear Problems", Springer, 2004).  LM first runs
to the same tol on a coarse copy of the problem with
max(COARSE_MIN_STEPS, steps // COARSE_DIVISOR) steps, when the requested
grid is at least COARSE_RATIO times longer, and then continues on the
requested grid from the coarse costates with the damping (lambda, nu) and
the Jacobian it reached, so the early steps far from the root cost short
flows.  The continuation is Deuflhard's simplified Newton iteration: the
root moves by only O(h_coarse^4) between the grids, so the coarse Jacobian
still gives good steps, and each of its evaluations is a 1-row flow of
the residual alone.  While the Jacobian is stale (not taken at the
current theta) a step takes no geodesic probe, and a step rejected with
a stale Jacobian refreshes it with one full 4n + 1-row evaluation at
theta (whose row 0 repeats r(theta) bit for bit) and retries with the
same (lambda, nu).  When that continuation does not converge, the start
reruns on the requested grid from its seed with fresh damping, the
single-grid run.  A start whose coarse run does not converge takes no
requested-grid flow: the solve moves on to the next seed.  When no start
converges this way, the solve is the single-grid multi-start (every
seed's run on the requested grid, each run at most once), bitwise the
solve without a coarse grid, so nesting never loses a convergence.
``max_iter`` caps the steps of each run, so a start takes at most
3 max_iter steps.  ``ShootingResult.iterations``, ``flows`` and
``coarse_flows`` sum the steps, the flows (seeds, probes, trials and
refreshes) and the coarse-grid flows of the solve's runs (``_Run``).

The stepper records every flow on its grid, so the returned trajectory
is row 0 of the last accepted requested-grid flow of the best start (its
seed flow when no step was accepted): bitwise the flow of the returned
costates, with no flow run for it.  It is None only when no start's seed
flow succeeded.

Globalization is a deterministic multi-start (scale patterns {0, +-1,
+-10} on two sign masks, 8 seeds total, ``_start_points``).  A fully
actuated problem with a quadratic cost starts from the closed-form root of
its linearization at rest in place of 0 (``_linear_root``): the coarse
guess of nested iteration, exact where the field's quadratic terms vanish
along it (criterion 7 converges there with no step), and about one coarse
step closer elsewhere.  There is no continuation or homotopy in the
costates or the weights, only the nested grids above.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import groups, pmp
from .algebra import _count, _positive
from .dynamics import State, Trajectory
from .errors import AngleOutOfRange, NoConvergence, NonFinite

# Geodesic acceleration (Transtrum and Sethna, arXiv:1201.5885): the
# finite-difference step along delta
GEO_H = 0.1
# Nested iteration: each start is first solved on a coarse copy of the
# problem with max(COARSE_MIN_STEPS, steps // COARSE_DIVISOR) steps, when
# the requested grid is at least COARSE_RATIO times longer (40 steps and up).
# Paired solves of seeded so(3) targets (BENCH_pr13_nested_grid.json,
# "break_even") put the break-even there: fully actuated ones took
# 0.92-1.06x the single-grid time at 32-36 steps and 0.87-0.92x at 40 over
# three runs, while underactuated ones already won at 28.
COARSE_MIN_STEPS = 16
COARSE_DIVISOR = 8
COARSE_RATIO = 2.5
# the defaults of ``solve_shooting``, which the CLI's solver section reads too
TOL = 1e-8
MAX_ITER = 200
FD_STEP = 1e-6


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
        groups._uniform_grid(self.T, self.steps)


def endpoint_residual(gm, problem, xT, yT) -> np.ndarray:
    """(log(x(T)^-1 xT), yT - y(T)) for terminal states that may carry a batch dimension."""
    err_x = groups.log_map(gm, groups.inverse(gm, xT) @ problem.xT)
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
    coarse_flows: int


def _residual_batch(model, gm, cost, problem, thetas):
    """Boundary residuals for a (B, 2n) array of costate seeds, from one batched
    flow, and that flow (xs, vs) as ``propagate_endpoints`` records it."""
    n = model.n
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    xT, yT, flow = pmp.propagate_endpoints(model, gm, cost, problem.x0, problem.y0,
                                           thetas[:, :n], thetas[:, n:], problem.T,
                                           problem.steps)
    return endpoint_residual(gm, problem, xT, yT), flow


def boundary_residual(model, gm, cost, problem, mu0, xi0) -> np.ndarray:
    """(log(x(T)^{-1} xT), yT - y(T)) stacked; zero iff the flow hits the target."""
    theta = np.concatenate([np.asarray(mu0, dtype=float), np.asarray(xi0, dtype=float)])
    return _residual_batch(model, gm, cost, problem, theta[None, :])[0][0]


def _residual_and_jacobian(model, gm, cost, problem, theta, fd_step, jacobian=True):
    """Residual at theta, its central-difference Jacobian and the flow from theta,
    from one batched flow.

    Row 0 of the batch is theta; rows 1..p and p+1..2p add and subtract
    the per-column steps fd_step (1 + |theta_i|).  The flow is row 0's
    (xs, vs), as ``flow_extremal`` records it.  Without ``jacobian`` the
    batch is row 0 alone, with the same bits, and J is None.  Returns None
    when the flow blows up, the control elimination stalls or a boundary
    log is ill-posed anywhere in the batch.
    """
    p = len(theta)
    h = fd_step * (1.0 + np.abs(theta)) if jacobian else None
    offsets = np.vstack([np.zeros(p), np.diag(h), -np.diag(h)]) if jacobian else np.zeros((1, p))
    try:
        res, (xs, vs) = _residual_batch(model, gm, cost, problem, theta + offsets)
    except (NonFinite, AngleOutOfRange, NoConvergence):
        return None
    J = (res[1:p + 1] - res[p + 1:]).T / (2.0 * h) if jacobian else None
    return res[0], J, (xs[:, 0], vs[:, 0])


def _start_points(model, gm, cost, problem):
    """Eight deterministic seeds: scales {0, +-1, +-10} on all-ones,
    {1, -1, 10} on the (ones, -ones) mask.  A fully actuated problem (m = n)
    with a quadratic cost starts from ``_linear_root`` in place of 0."""
    n = model.n
    ones = np.ones(2 * n)
    mask = np.concatenate([np.ones(n), -np.ones(n)])
    seeds = [s * ones for s in (0.0, 1.0, -1.0, 10.0, -10.0)]
    seeds += [s * mask for s in (1.0, -1.0, 10.0)]
    if model.m == n and cost.quad_weight is not None:
        seeds[0] = _linear_root(gm, cost.quad_weight, problem)
    return seeds


def _linear_root(gm, R, problem):
    """The costates (mu0, xi0) that close the problem linearized at rest.

    There the bias, ad* and bracket terms, all quadratic, drop out of the
    field: omega' = y, y' = R^-1 xi, mu' = 0 and xi' = -mu, with omega the
    log of x0^-1 x.  Its two-point problem is the double integrator's, whose
    root is mu0 = 12 R (omega - T (y0 + yT) / 2) / T^3 and
    xi0 = R (yT - y0) / T + mu0 T / 2 for omega = log(x0^-1 xT).  It is 0 when
    the ends coincide, and an exact root wherever the quadratic terms vanish
    along it (abelian groups, rotations about a principal axis of a diagonal
    inertia).  Zeros when that log is ill-posed or the root not finite.
    """
    zero = np.zeros(2 * len(R))
    try:
        omega = groups.log_map(gm, groups.inverse(gm, problem.x0) @ problem.xT)
    except AngleOutOfRange:
        return zero
    T, y0, yT = float(problem.T), np.asarray(problem.y0, float), np.asarray(problem.yT, float)
    with np.errstate(all="ignore"):
        mu0 = 12.0 * (R @ (omega - 0.5 * T * (y0 + yT))) / T / T / T
        theta = np.concatenate([mu0, R @ (yT - y0) / T + 0.5 * T * mu0])
    return theta if np.isfinite(theta).all() else zero


class _Run(NamedTuple):
    """One LM run as ``_levenberg_marquardt`` returns it; flow is None when its seed failed."""

    theta: np.ndarray
    norm: float
    steps: int
    converged: bool
    flow: tuple | None
    damping: tuple | None
    jacobian: np.ndarray | None
    flows: int


def _levenberg_marquardt(evaluate, theta0, tol, max_iter, geodesic=False, damping=None,
                         jacobian=None):
    """Levenberg-Marquardt with Nielsen's gain-ratio damping update.

    ``evaluate(theta, jacobian=True)`` returns (r, J, flow) or None (J None
    without ``jacobian``), so every step costs one call: a rejected trial
    is one lost flow, and an accepted one already carries the Jacobian of
    the next step.  ``geodesic`` adds the geodesic acceleration of the
    module docstring, from a residual-only probe.  ``damping`` is the
    (lambda, nu) to start from, by default 1e-6 max diag(J^T J) and 2.

    A carried ``jacobian`` makes the run the simplified Newton iteration of
    the module docstring: every evaluation is residual only until a step
    is rejected while J is stale (not taken at theta), which refreshes J
    by a full evaluation at theta; only a rejection with a fresh J grows
    the damping, and a refresh that fails ends the run.  Returns the run's
    ``_Run`` record.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    carried = jacobian is not None
    point, flows = evaluate(theta, jacobian=not carried), 1
    if point is None:
        return _Run(theta, np.inf, 0, False, None, damping, jacobian, flows)
    r, J, flow = point
    J, fresh = (jacobian, False) if carried else (J, True)
    lam, nu = damping if damping is not None else (1e-6 * (J ** 2).sum(axis=0).max(), 2.0)
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
        if geodesic and fresh:
            probe, flows = evaluate(theta + GEO_H * delta, jacobian=False), flows + 1
            step = None
            if probe is not None:
                r_vv = (2.0 / GEO_H) * ((probe[0] - r) / GEO_H - J @ delta)
                a = -np.linalg.solve(A, J.T @ r_vv)
                step = delta + 0.5 * a
        trial = None
        if step is not None:
            trial, flows = evaluate(theta + step, jacobian=not carried), flows + 1
        gain = -1.0 if trial is None else (r @ r - trial[0] @ trial[0]) / (delta @ (lam * delta - g))
        if gain > 0:
            theta, (r, J_trial, flow) = theta + step, trial
            J, fresh = (J, False) if carried else (J_trial, True)
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        elif not fresh:
            point, flows = evaluate(theta), flows + 1
            if point is None:
                break
            J, fresh = point[1], True
        else:
            lam *= nu
            nu *= 2.0
    norm = float(np.abs(r).max())
    return _Run(theta, norm, steps, norm < tol, flow, (lam, nu), J, flows)


def _check_solver_arguments(tol, max_iter, fd_step):
    """ValueError unless ``tol`` and ``fd_step`` are finite positive reals and
    ``max_iter`` an integer >= 0: the rule of ``solve_shooting``'s arguments."""
    _positive(tol, "tol")
    _positive(fd_step, "fd_step")
    _count(max_iter, "max_iter", 0)


def solve_shooting(model, gm, cost, problem, initial_guess=None,
                   tol=TOL, max_iter=MAX_ITER, fd_step=FD_STEP) -> ShootingResult:
    """Find (mu0, xi0) whose extremal flow meets the boundary data.

    Runs Levenberg-Marquardt from the supplied guess, or from the eight
    deterministic multi-start seeds when none is given, each start nested
    as in the module docstring; returns the best iterate with
    ``converged=False`` rather than raising when every start stalls.  The
    trajectory is row 0 of that iterate's LM flow on the requested grid.
    ``tol`` (the residual norm that stops a start) and ``fd_step`` (the
    Jacobian's difference step) must be finite positive reals and
    ``max_iter`` (the LM steps of one run) an integer >= 0, else ValueError
    before any flow (``_check_solver_arguments``, which the CLI applies too).
    """
    _check_solver_arguments(tol, max_iter, fd_step)
    n = model.n
    coarse_steps = max(COARSE_MIN_STEPS, int(problem.steps) // COARSE_DIVISOR)
    coarse = (replace(problem, steps=coarse_steps)
              if COARSE_RATIO * coarse_steps <= int(problem.steps) else None)
    fine_runs, coarse_runs = [], []

    def lm(prob, theta0, damping=None, J0=None):
        evaluate = partial(_residual_and_jacobian, model, gm, cost, prob, fd_step=fd_step)
        run = _levenberg_marquardt(evaluate, theta0, tol, max_iter, model.m < n, damping, J0)
        (coarse_runs if prob is coarse else fine_runs).append(run)
        return run

    starts = (_start_points(model, gm, cost, problem) if initial_guess is None
              else [np.concatenate([np.asarray(part, dtype=float) for part in initial_guess])])

    @cache
    def single(i):
        # the requested-grid run from start i's seed, run at most once per solve
        return lm(problem, starts[i])

    found = None
    for i in range(len(starts) if coarse is not None else 0):
        coarse_run = lm(coarse, starts[i])
        if coarse_run.converged:
            run = lm(problem, coarse_run.theta, coarse_run.damping, coarse_run.jacobian)
            if not run.converged:
                run = single(i)
            if run.converged:
                found = run
                break
    if found is None:
        # the single-grid multi-start
        for i in range(len(starts)):
            run = single(i)
            if found is None or run.norm < found.norm:
                found = run
            if run.converged:
                break

    trajectory = None if found.flow is None else pmp.extremal_trajectory(
        model, cost, problem.T, *found.flow)
    runs = fine_runs + coarse_runs
    return ShootingResult(mu0=found.theta[:n].copy(), xi0=found.theta[n:].copy(),
                          residual_norm=found.norm, iterations=sum(run.steps for run in runs),
                          trajectory=trajectory, converged=bool(found.converged),
                          flows=sum(run.flows for run in runs),
                          coarse_flows=sum(run.flows for run in coarse_runs))


def extremal_defect(model, cost, traj):
    """Sup-norm defects of the stored trajectory against the critical flow.

    Fourth order five-point stencils approximate the time derivatives of
    (y, mu, xi) at interior grid points; the stationarity condition is
    re-checked exactly.  Defects shrink as O(h^4) for a valid extremal.
    The rates and controls of the whole grid come from one batched pass of
    ``pmp.extremal_field`` (which evaluates ydot at the stationary control)
    and ``pmp.eliminate_control``.  The stencils need at least 5 grid
    points, else ValueError.
    """
    if len(traj) < 5:
        raise ValueError(f"the five-point stencils need at least 5 grid points, got {len(traj)}")
    h = float(traj.times[1] - traj.times[0])
    n = model.n

    def ddt(arr):
        return (arr[:-4] - 8 * arr[1:-3] + 8 * arr[3:-1] - arr[4:]) / (12.0 * h)

    vs = np.concatenate([traj.ys, traj.mus, traj.xis], axis=1)
    vdot = pmp.extremal_field(model, cost)(0, 0.0, traj.xs, vs)[1]
    us = pmp.eliminate_control(model, cost, State(traj.xs, traj.ys), traj.xis)
    return {
        "y": float(np.abs(ddt(traj.ys) - vdot[2:-2, :n]).max()),
        "mu": float(np.abs(ddt(traj.mus) - vdot[2:-2, n:2 * n]).max()),
        "xi": float(np.abs(ddt(traj.xis) - vdot[2:-2, 2 * n:]).max()),
        "stationarity": float(np.abs(traj.us - us).max()),
    }
