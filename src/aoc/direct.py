"""Direct-transcription oracle: penalty objective plus momentum descent.

Controls are piecewise constant over N segments; the objective is the
running cost (Simpson within each segment, so a control discontinuity
never straddles a quadrature panel) plus ``penalty_weight`` times the
squared boundary errors.  The optimizer is plain gradient descent with
momentum, central finite-difference gradients and a step-halving line
search; after the first descent terminates the penalty is escalated
once by a factor 10 to tighten the boundary error.

Deliberately simple: no adjoints, no NLP machinery.  The point is an
auditable independent check on the indirect solver.  For quadratic
costs all 2 N m gradient perturbations run as one batched rollout
(chunked by the AOC_THREADS cap, like the shooting Jacobian).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import groups
from .dynamics import State, Trajectory, batch_slices, zoh_rollout
from .errors import NoConvergence


@dataclass(frozen=True)
class TranscriptionConfig:
    segments: int = 50
    penalty_weight: float = 1e4
    max_outer: int = 400
    grad_step: float = 1e-6
    lr: float = 0.05
    momentum: float = 5.0  # upper clip for the adaptive coefficient
    lr_grow: float = 1.3
    max_halvings: int = 30
    grad_tol: float = 1e-5
    steps_per_segment: int = 2

    def __post_init__(self):
        if self.segments < 2:
            raise ValueError("need at least 2 control segments")
        if self.penalty_weight <= 0:
            raise ValueError("penalty weight must be positive")
        if self.steps_per_segment < 2 or self.steps_per_segment % 2:
            raise ValueError("steps_per_segment must be even and >= 2")


@dataclass
class DirectResult:
    U: np.ndarray
    objective: float
    trajectory: Trajectory
    iterations: int
    converged: bool
    boundary_error: float
    running_cost: float


def _simpson_panel(spb, h):
    panel = np.ones(spb + 1)
    panel[1:-1:2] = 4.0
    panel[2:-1:2] = 2.0
    return panel * (h / 3.0)


def _boundary_sq(gm, problem, xT, yT):
    """Squared boundary error; xT may carry a batch dimension."""
    dy = yT - np.asarray(problem.yT, dtype=float)
    log_err = groups.log_map(gm, groups.compose(groups.inverse(gm, xT), problem.xT))
    return (np.einsum("...i,...i->...", log_err, log_err)
            + np.einsum("...i,...i->...", dy, dy))


def _objective_batch(model, gm, cost, problem, U, config):
    """Penalty objective for U of shape (N, m) or (B, N, m)."""
    U = np.asarray(U, dtype=float)
    batched = U.ndim == 3
    N, spb = config.segments, config.steps_per_segment
    h = problem.T / (N * spb)

    if cost.quad_weight is not None:
        # running cost is state independent, its ZOH integral is exact
        _, xs, ys = zoh_rollout(model, gm, problem.x0, problem.y0, U,
                                problem.T, steps_per_segment=spb)
        xT, yT = xs[-1], ys[-1]
        seg_vals = 0.5 * np.einsum("...ja,ab,...jb->...j", U, cost.quad_weight, U)
        run = (problem.T / N) * seg_vals.sum(axis=-1)
    else:
        if batched:
            raise NoConvergence("batched objective evaluation needs a quadratic cost")
        _, xs, ys = zoh_rollout(model, gm, problem.x0, problem.y0, U,
                                problem.T, steps_per_segment=spb)
        panel = _simpson_panel(spb, h)
        run = 0.0
        for j in range(N):
            vals = [cost.eval(State(xs[k], ys[k]), U[j])
                    for k in range(j * spb, (j + 1) * spb + 1)]
            run += float(np.dot(panel, vals))
        xT, yT = xs[-1], ys[-1]

    total = run + config.penalty_weight * _boundary_sq(gm, problem, xT, yT)
    return total if batched else float(total)


def transcription_objective(model, gm, cost, problem, U, config) -> float:
    """Running cost plus boundary penalty of one piecewise-constant control."""
    U = np.asarray(U, dtype=float)
    if U.shape != (config.segments, model.m):
        raise ValueError(f"U must have shape {(config.segments, model.m)}, got {U.shape}")
    return _objective_batch(model, gm, cost, problem, U, config)


def _fd_gradient(model, gm, cost, problem, U, config):
    """Component-wise central differences, batched when the cost allows."""
    N, m = U.shape
    eps = config.grad_step
    if cost.quad_weight is not None:
        pert = np.zeros((2 * N * m, N * m))
        for i in range(N * m):
            pert[2 * i, i] = eps
            pert[2 * i + 1, i] = -eps
        stack = U.reshape(1, N, m) + pert.reshape(-1, N, m)
        vals = np.empty(2 * N * m)
        for sl in batch_slices(len(stack)):
            vals[sl] = _objective_batch(model, gm, cost, problem, stack[sl], config)
    else:
        vals = np.empty(2 * N * m)
        for i in range(N * m):
            for sign, off in ((1.0, 0), (-1.0, 1)):
                V = U.copy().reshape(-1)
                V[i] += sign * eps
                vals[2 * i + off] = _objective_batch(model, gm, cost, problem,
                                                     V.reshape(N, m), config)
    g = (vals[0::2] - vals[1::2]) / (2.0 * eps)
    return g.reshape(N, m)


def _line_min(obj, U, direction, f0, alpha0, max_halvings):
    """Step length along a direction: parabola fit first, halving fallback.

    The objective is close to quadratic, so fitting f at steps alpha and
    2 alpha usually lands the exact line minimum in two extra
    evaluations; when the fit is not convex or not descending, fall back
    to plain step halving from alpha0.
    """
    f1 = obj(U + alpha0 * direction)
    f2 = obj(U + 2.0 * alpha0 * direction)
    denom = f2 - 2.0 * f1 + f0
    if denom > 0.0:
        alpha = alpha0 * max(min((3.0 * f0 - 4.0 * f1 + f2) / (2.0 * denom), 50.0), 1e-3)
        f_try = obj(U + alpha * direction)
        best = min((f_try, alpha), (f1, alpha0), (f2, 2.0 * alpha0))
        if best[0] < f0:
            return best[1], best[0]
    elif min(f1, f2) < f0:
        return (alpha0, f1) if f1 <= f2 else (2.0 * alpha0, f2)
    alpha = 0.5 * alpha0
    for _ in range(max_halvings):
        f_try = obj(U + alpha * direction)
        if f_try < f0:
            return alpha, f_try
        alpha *= 0.5
    return None, f0


def _descend(model, gm, cost, problem, U, config):
    """Momentum descent with line search, one penalty stage.

    The momentum coefficient is chosen per iteration by the
    Polak-Ribiere rule (clipped to [0, config.momentum]), which kills
    the zig-zag between the stiff penalty directions and the soft cost
    directions; with the parabola line search the loop behaves like
    conjugate directions on the nearly quadratic objective.
    """

    def obj(V):
        return _objective_batch(model, gm, cost, problem, V, config)

    f = obj(U)
    p_old = None
    g_old = None
    lr = config.lr
    it = 0
    grad_ok = False
    while it < config.max_outer:
        g = _fd_gradient(model, gm, cost, problem, U, config)
        it += 1
        if np.abs(g).max() < config.grad_tol:
            grad_ok = True
            break
        if g_old is None:
            beta = 0.0
        else:
            denom = float(np.sum(g_old * g_old))
            beta = float(np.sum(g * (g - g_old))) / denom if denom > 0 else 0.0
            beta = min(max(beta, 0.0), config.momentum)
        candidates = [beta * p_old - g] if p_old is not None and beta > 0 else []
        candidates.append(-g)
        accepted = False
        for direction in candidates:
            alpha, f_new = _line_min(obj, U, direction, f, lr, config.max_halvings)
            if alpha is not None:
                U = U + alpha * direction
                f = f_new
                p_old = direction
                g_old = g
                lr = min(alpha * config.lr_grow, 1e3)
                accepted = True
                break
        if not accepted:
            break  # no descent at line-search resolution
    return U, f, it, grad_ok


def optimize_direct(model, gm, cost, problem, config) -> DirectResult:
    """Minimize the transcription objective starting from U = 0.

    Fine grids (N > 12) first run a 10-segment coarse descent and
    upsample its controls, which costs little and removes most of the
    penalty stiffness before the expensive fine iterations.  Returns the
    best iterate flagged ``converged=False`` instead of raising.
    """
    N, m = config.segments, model.m
    U = np.zeros((N, m))
    total_iters = 0

    if N > 12:
        coarse = replace(config, segments=10, max_outer=min(config.max_outer, 150))
        Uc, _, its, _ = _descend(model, gm, cost, problem, np.zeros((10, m)), coarse)
        total_iters += its
        U = Uc[np.minimum((np.arange(N) * 10) // N, 9)]

    U, _, its, _ = _descend(model, gm, cost, problem, U, config)
    total_iters += its

    escalated = replace(config, penalty_weight=10.0 * config.penalty_weight)
    U, f, its, grad_ok = _descend(model, gm, cost, problem, U, escalated)
    total_iters += its

    spb = config.steps_per_segment
    times, xs, ys = zoh_rollout(model, gm, problem.x0, problem.y0, U,
                                problem.T, steps_per_segment=spb)
    node_u = U[np.minimum(np.arange(N * spb + 1) // spb, N - 1)]
    traj = Trajectory(times=times, xs=xs, ys=ys, us=node_u)
    bdry_sq = float(_boundary_sq(gm, problem, xs[-1], ys[-1]))
    run = float(f - escalated.penalty_weight * bdry_sq)
    converged = bool(grad_ok or np.sqrt(bdry_sq) < 1e-4)
    return DirectResult(U=U, objective=float(f), trajectory=traj,
                        iterations=total_iters, converged=converged,
                        boundary_error=float(np.sqrt(bdry_sq)),
                        running_cost=run)
