"""Direct-transcription oracle: constrained Gauss-Newton on exact boundary constraints.

Controls are piecewise constant over N segments, z = vec(U).  For the
quadratic cost L = u^T R u / 2 the running cost is exactly
z^T W z / 2 with W = (T / N) blockdiag(R), and the transcription is

    min  z^T W z / 2   subject to   c(z) = 0,

where c = (log(x(T)^-1 xT), yT - y(T)) is the 2n-vector boundary
residual of a ``zoh_rollout``, the one shooting closes
(``shooting.endpoint_residual``).  Each iteration rolls out the current
U, builds the 2n x Nm Jacobian A of c by forward differences (one
batched rollout of Nm rows) and takes the minimum W-norm point on the
linearized constraints,

    z <- W^-1 A^T (A W^-1 A^T)^-1 (A z - c),

the constrained Gauss-Newton step of direct multiple shooting (Bock and
Plitt, 1984).  A fixed point satisfies c = 0 and W z = A^T lambda, the
first-order optimality conditions.  The iteration starts from U = 0 and
``converged`` means ||c|| < TOL.  When A W^-1 A^T is singular to working
precision (an underactuated problem at U = 0 is) it stops and reports
``converged=False`` instead of stepping.

The oracle shares only the forward rollout with the rest of the package:
no costates, no extremal flow.  Non-quadratic costs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _count
from .dynamics import Trajectory, zoh_rollout
from .shooting import endpoint_residual

FD_STEP = 1e-7      # forward-difference step of the constraint Jacobian
TOL = 1e-10         # boundary residual norm that counts as converged
MAX_ITER = 50
RCOND_MIN = 1e-12   # smallest inverse condition number of A W^-1 A^T


@dataclass(frozen=True)
class TranscriptionConfig:
    segments: int = 50
    steps_per_segment: int = 2

    def __post_init__(self):
        _count(self.segments, "segments")
        _count(self.steps_per_segment, "steps_per_segment")
        if self.segments < 2:
            raise ValueError("need at least 2 control segments")
        if self.steps_per_segment < 2 or self.steps_per_segment % 2:
            raise ValueError("steps_per_segment must be even and >= 2")


@dataclass
class DirectResult:
    U: np.ndarray
    trajectory: Trajectory
    iterations: int
    converged: bool
    boundary_error: float
    running_cost: float


def _weight(cost):
    if cost.quad_weight is None:
        raise ValueError("the transcription oracle needs a quadratic control cost")
    return cost.quad_weight


def _jacobian(gm, problem, U, c, spb):
    """Forward-difference Jacobian of c at U, one batched rollout of all N m columns."""
    N, m = U.shape
    Z = U + FD_STEP * np.eye(N * m).reshape(-1, N, m)
    _, xs, ys = zoh_rollout(gm, problem.x0, problem.y0, Z, problem.T,
                            steps_per_segment=spb)
    return (endpoint_residual(gm, problem, xs[-1], ys[-1]) - c).T / FD_STEP


def transcription_objective(model, gm, cost, problem, U, config) -> float:
    """Running cost of one piecewise-constant control (exact for the ZOH)."""
    U = np.asarray(U, dtype=float)
    if U.shape != (config.segments, model.m):
        raise ValueError(f"U must have shape {(config.segments, model.m)}, got {U.shape}")
    R = _weight(cost)
    return float(0.5 * problem.T / config.segments * np.einsum("ja,ab,jb->", U, R, U))


def optimize_direct(model, gm, cost, problem, config) -> DirectResult:
    """Solve the transcription from U = 0 by constrained Gauss-Newton."""
    N, m, spb = config.segments, model.m, config.steps_per_segment
    W_inv = np.kron(np.eye(N), np.linalg.inv(_weight(cost))) * (N / problem.T)
    U = np.zeros((N, m))
    iterations = 0
    while True:
        times, xs, ys = zoh_rollout(gm, problem.x0, problem.y0, U, problem.T,
                                    steps_per_segment=spb)
        c = endpoint_residual(gm, problem, xs[-1], ys[-1])
        converged = bool(np.linalg.norm(c) < TOL)
        if converged or iterations == MAX_ITER:
            break
        A = _jacobian(gm, problem, U, c, spb)
        WAt = W_inv @ A.T
        M = A @ WAt
        sv = np.linalg.svd(M, compute_uv=False)
        if not sv[-1] > RCOND_MIN * sv[0]:
            break  # rank-deficient linearization: no minimum-norm step exists
        U = (WAt @ np.linalg.solve(M, A @ U.reshape(-1) - c)).reshape(N, m)
        iterations += 1

    node_u = U[np.minimum(np.arange(N * spb + 1) // spb, N - 1)]
    run = transcription_objective(model, gm, cost, problem, U, config)
    return DirectResult(U=U, trajectory=Trajectory(times=times, xs=xs, ys=ys, us=node_u),
                        iterations=iterations, converged=converged,
                        boundary_error=float(np.linalg.norm(c)), running_cost=run)
