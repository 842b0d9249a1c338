"""Direct-transcription oracle: constrained Gauss-Newton on exact boundary constraints.

Controls are piecewise constant over N segments, z = vec(U).  For the
quadratic cost L = u^T R u / 2 the running cost is exactly
z^T W z / 2 with W = (T / N) blockdiag(R), and the transcription is

    min  z^T W z / 2   subject to   c(z) = 0,

where c = (log(x(T)^-1 xT), yT - y(T)) is the 2n-vector boundary
residual of a ``zoh_rollout``, the one shooting closes
(``shooting.endpoint_residual``).  Each iteration rolls out the current
U, builds the 2n x Nm Jacobian A of c and takes the minimum W-norm point
on the linearized constraints,

    z <- W^-1 A^T (A W^-1 A^T)^-1 (A z - c),

the constrained Gauss-Newton step of direct multiple shooting (Bock and
Plitt, 1984).  A comes from that method's condensing step.  Controls are
piecewise constant, so with s = (x, y), Phi_j = ds_{j+1}/ds_j and
B_j = ds_{j+1}/du_j, column block j of A is
dc/ds_N Phi_{N-1} ... Phi_{j+1} B_j.  Every (Phi_j, B_j) is a forward
difference of one segment's flow from its start in the recorded rollout,
all N segments in one batched rollout (``_jacobian``).

A fixed point satisfies c = 0 and W z = A^T lambda, the first-order
optimality conditions.  The iteration starts from U = 0 and
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
from .groups import exp_map, inverse, unhat
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
        _count(self.segments, "segments", 2)
        _count(self.steps_per_segment, "steps_per_segment", 1)


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


def _jacobian(gm, problem, U, xs, ys, spb):
    """The 2n x Nm Jacobian of c at U, chained from one-segment forward differences.

    ``xs``, ``ys`` are the rollout of U.  Each segment j starts 2n + m + 1
    rows at its recorded start s_j: s_j itself, x_j exp(eps e_i), y_j + eps
    e_i and u_j + eps e_i.  One rollout of all N (2n + m + 1) rows over one
    segment gives Phi_j and B_j against the segment's own unperturbed row;
    an x difference is read back as unhat(E - E^2 / 2), E = x'^-1 x'' - I,
    the logarithm to rounding at |E| ~ eps without a per-row matrix log.
    2n + 1 rows of the residual at s_N give dc/ds_N, and the chain runs
    backward from it.
    """
    N, m = U.shape
    n, d = gm.algebra.n, gm.rep_dim
    k = 2 * n + m  # perturbed rows per segment
    x0 = np.repeat(xs[:-1:spb, None], k + 1, axis=1)  # (N, k + 1, d, d)
    y0 = np.repeat(ys[:-1:spb, None], k + 1, axis=1)
    u = np.repeat(U[:, None], k + 1, axis=1)
    x0[:, 1:n + 1] = x0[:, 1:n + 1] @ exp_map(gm, FD_STEP * np.eye(n))
    y0[:, n + 1:2 * n + 1] += FD_STEP * np.eye(n)
    u[:, 2 * n + 1:] += FD_STEP * np.eye(m)
    _, xe, ye = zoh_rollout(gm, x0.reshape(-1, d, d), y0.reshape(-1, n),
                            u.reshape(-1, 1, m), problem.T / N, steps_per_segment=spb)
    xe, ye = xe[-1].reshape(N, k + 1, d, d), ye[-1].reshape(N, k + 1, n)
    E = inverse(gm, xe[:, :1]) @ xe[:, 1:] - np.eye(d)
    # D[j, i] is the change of s_{j+1} per unit of perturbation i of segment j
    D = np.concatenate([unhat(gm, E - E @ E / 2.0), ye[:, 1:] - ye[:, :1]],
                       axis=-1) / FD_STEP

    xN = xs[-1] @ exp_map(gm, FD_STEP * np.eye(2 * n + 1, n, -1))
    yN = ys[-1] + FD_STEP * np.eye(2 * n + 1, n, -n - 1)
    r = endpoint_residual(gm, problem, xN, yN)
    G = (r[1:] - r[0]).T / FD_STEP  # dc/ds_N
    A = np.empty((2 * n, N, m))
    for j in range(N - 1, -1, -1):
        A[:, j] = G @ D[j, 2 * n:].T
        G = G @ D[j, :2 * n].T
    return A.reshape(2 * n, N * m)


def transcription_objective(model, cost, problem, U, config) -> float:
    """Running cost of one piecewise-constant control (exact for the ZOH)."""
    U = np.asarray(U, dtype=float)
    if U.shape != (config.segments, model.m):
        raise ValueError(f"U must have shape {(config.segments, model.m)}, got {U.shape}")
    R = _weight(cost)
    return float(0.5 * problem.T / config.segments * np.einsum("ja,ab,jb->", U, R, U))


def optimize_direct(model, gm, cost, problem, config) -> DirectResult:
    """Solve the transcription from U = 0 by constrained Gauss-Newton: one
    rollout and one segment Jacobian per iteration, with W^-1 applied to the
    Jacobian's m-column blocks as (N / T) R^-1."""
    N, m, spb = config.segments, model.m, config.steps_per_segment
    R_inv = np.linalg.inv(_weight(cost)) * (N / problem.T)  # W^-1 is blockdiag(R_inv)
    U = np.zeros((N, m))
    iterations = 0
    while True:
        times, xs, ys = zoh_rollout(gm, problem.x0, problem.y0, U, problem.T,
                                    steps_per_segment=spb)
        c = endpoint_residual(gm, problem, xs[-1], ys[-1])
        converged = bool(np.linalg.norm(c) < TOL)
        if converged or iterations == MAX_ITER:
            break
        A = _jacobian(gm, problem, U, xs, ys, spb)
        WAt = (A.reshape(-1, m) @ R_inv.T).reshape(A.shape).T
        M = A @ WAt
        sv = np.linalg.svd(M, compute_uv=False)
        if not sv[-1] > RCOND_MIN * sv[0]:
            break  # rank-deficient linearization: no minimum-norm step exists
        U = (WAt @ np.linalg.solve(M, A @ U.reshape(-1) - c)).reshape(N, m)
        iterations += 1

    node_u = U[np.minimum(np.arange(N * spb + 1) // spb, N - 1)]
    run = transcription_objective(model, cost, problem, U, config)
    return DirectResult(U=U, trajectory=Trajectory(times=times, xs=xs, ys=ys, us=node_u),
                        iterations=iterations, converged=converged,
                        boundary_error=float(np.linalg.norm(c)), running_cost=run)
