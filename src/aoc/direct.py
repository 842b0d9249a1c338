"""Direct-transcription oracle: lifted constrained Gauss-Newton on exact boundary constraints.

Controls are piecewise constant over N segments, z = vec(U).  For the
quadratic cost L = u^T R u / 2 the running cost is exactly
z^T W z / 2 with W = (T / N) blockdiag(R), and the transcription is

    min  z^T W z / 2   subject to   c(z) = 0,

where c = (log(x(T)^-1 xT), yT - y(T)) is the 2n-vector boundary
residual of a ``zoh_rollout``, the one shooting closes
(``shooting.endpoint_residual``).  The method is direct multiple
shooting (Bock and Plitt, 1984) in its lifted form (Albersmeyer and
Diehl, SIAM J. Optim. 20, 2010): the segment start states
s_j = (x_j, y_j), j = 1 .. N, are iterates next to U, and s_0 is the
start.  Each iteration is one batched rollout of every segment from its
node (``_linearize``), which gives the segment ends F_j, their
derivatives Phi_j = dF_j/ds_j and B_j = dF_j/du_j, the defects
d_j = (log(x_{j+1}^-1 F_j^x), F_j^y - y_{j+1}) and c at s_N.  With
G_j = dc/ds_N Phi_{N-1} ... Phi_j, column block j of the Jacobian A is
G_{j+1} B_j, and closing the defects to first order changes c into
c~ = c + sum_j G_{j+1} d_j.  The step is the minimum W-norm point on the
linearized constraints,

    z <- W^-1 A^T (A W^-1 A^T)^-1 (A z - c~),

and the nodes follow the linearization, ds_{j+1} = Phi_j ds_j + B_j dU_j
+ d_j from ds_0 = 0, with x moving as x exp(dx).  At the first iterate,
U = 0 and every node at s_0, a rest start has no defects.

A fixed point satisfies c = 0, d = 0 and W z = A^T lambda, the
first-order optimality conditions.  ``converged`` means that c and
every d_j are below TOL in norm and that the last step was stationary:
|dU|_inf <= STEP_TOL (1 + |U|_inf).  When A W^-1 A^T is singular to
working precision (an underactuated problem at U = 0 is) it stops and
reports ``converged=False`` instead of stepping.

The oracle shares only the forward rollout with the rest of the package:
no costates, no extremal flow.  Non-quadratic costs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _count
from .dynamics import Trajectory, zoh_rollout
from .groups import MAX_STEPS, exp_map, inverse, log_map, unhat
from .shooting import endpoint_residual

FD_STEP = 1e-7      # forward-difference step of the constraint Jacobian
TOL = 1e-10         # end residual and defect norm that counts as feasible
STEP_TOL = 1e-6     # a step of |dU|_inf under STEP_TOL (1 + |U|_inf) is stationary
MAX_ITER = 50
RCOND_MIN = 1e-12   # smallest inverse condition number of A W^-1 A^T


@dataclass(frozen=True)
class TranscriptionConfig:
    segments: int = 50
    steps_per_segment: int = 2

    def __post_init__(self):
        steps = (_count(self.segments, "segments", 2)
                 * _count(self.steps_per_segment, "steps_per_segment", 1))
        if steps > MAX_STEPS:  # the oracle's grid, which each segment's check does not see
            raise ValueError(f"segments * steps_per_segment must be at most {MAX_STEPS}, "
                             f"got {steps}")


@dataclass
class DirectResult:
    """The last iterate.  ``trajectory`` is the segment flows from the last
    nodes, end to end, so it jumps by the defects at the nodes (at most TOL
    when converged).  ``boundary_error`` is the larger of |c| and the
    largest |d_j| there, and ``iterations`` the Gauss-Newton steps taken
    (one rollout each, plus the one that judged the last iterate)."""
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


def _linearize(gm, problem, U, xn, yn, spb):
    """The segment flows from the nodes and the linearization of c about them.

    ``xn``, ``yn`` hold the nodes s_0 .. s_N.  Each segment j starts
    2n + m + 1 rows at s_j: s_j itself, x_j exp(eps e_i), y_j + eps e_i and
    u_j + eps e_i.  One rollout of all N (2n + m + 1) rows over one segment
    gives its end F_j and, against its own unperturbed row, Phi_j and B_j;
    an x difference is read back as unhat(E - E^2 / 2), E = x'^-1 x'' - I,
    the logarithm to rounding at |E| ~ eps without a per-row matrix log.
    2n + 1 rows of the residual at s_N give c and dc/ds_N, and the chain
    runs backward from it.

    Returns A, the predicted residual c~ = c + sum_j G_{j+1} d_j, the
    largest of |c| and the |d_j|, the affine segment maps D (row j is
    [Phi_j B_j d_j]^T, so ds_{j+1} = (ds_j, du_j, 1) D[j]) and the record
    (xs, ys) of the unperturbed rows, each of shape (spb + 1, N, ...).
    """
    N, m = U.shape
    n, d = gm.algebra.n, gm.rep_dim
    k = 2 * n + m  # perturbed rows per segment
    x0 = np.repeat(xn[:-1, None], k + 1, axis=1)  # (N, k + 1, d, d)
    y0 = np.repeat(yn[:-1, None], k + 1, axis=1)
    u = np.repeat(U[:, None], k + 1, axis=1)
    x0[:, 1:n + 1] = x0[:, 1:n + 1] @ exp_map(gm, FD_STEP * np.eye(n))
    y0[:, n + 1:2 * n + 1] += FD_STEP * np.eye(n)
    u[:, 2 * n + 1:] += FD_STEP * np.eye(m)
    _, xs, ys = zoh_rollout(gm, x0.reshape(-1, d, d), y0.reshape(-1, n),
                            u.reshape(-1, 1, m), problem.T / N, steps_per_segment=spb)
    xs, ys = xs.reshape(spb + 1, N, k + 1, d, d), ys.reshape(spb + 1, N, k + 1, n)
    xe, ye = xs[-1], ys[-1]
    E = inverse(gm, xe[:, :1]) @ xe[:, 1:] - np.eye(d)
    defects = np.concatenate([log_map(gm, inverse(gm, xn[1:]) @ xe[:, 0]),
                              ye[:, 0] - yn[1:]], axis=-1)
    # D[j, i] is the change of s_{j+1} per unit of perturbation i of segment j
    D = np.concatenate([np.concatenate([unhat(gm, E - E @ E / 2.0), ye[:, 1:] - ye[:, :1]],
                                       axis=-1) / FD_STEP, defects[:, None]], axis=1)

    xN = xn[-1] @ exp_map(gm, FD_STEP * np.eye(2 * n + 1, n, -1))
    yN = yn[-1] + FD_STEP * np.eye(2 * n + 1, n, -n - 1)
    r = endpoint_residual(gm, problem, xN, yN)
    G = (r[1:] - r[0]).T / FD_STEP  # G_N = dc/ds_N
    A = np.empty((2 * n, N, m + 1))  # (G_{j+1} B_j, G_{j+1} d_j) for every j
    for j in range(N - 1, -1, -1):
        A[:, j] = G @ D[j, 2 * n:].T
        G = G @ D[j, :2 * n].T
    err = max(np.linalg.norm(r[0]), np.linalg.norm(defects, axis=-1).max())
    return (A[..., :m].reshape(2 * n, N * m), r[0] + A[..., m].sum(axis=1), err, D,
            (xs[:, :, 0], ys[:, :, 0]))


def transcription_objective(model, cost, problem, U, config) -> float:
    """Running cost of one piecewise-constant control (exact for the ZOH)."""
    U = np.asarray(U, dtype=float)
    if U.shape != (config.segments, model.m):
        raise ValueError(f"U must have shape {(config.segments, model.m)}, got {U.shape}")
    R = _weight(cost)
    return float(0.5 * problem.T / config.segments * np.einsum("ja,ab,jb->", U, R, U))


def optimize_direct(model, gm, cost, problem, config) -> DirectResult:
    """Solve the transcription from U = 0 and every node at s_0 by lifted
    constrained Gauss-Newton: one batched segment rollout per iteration,
    with W^-1 applied to A's m-column blocks as (N / T) R^-1."""
    N, m, spb = config.segments, model.m, config.steps_per_segment
    n = model.n
    R_inv = np.linalg.inv(_weight(cost)) * (N / problem.T)  # W^-1 is blockdiag(R_inv)
    U = np.zeros((N, m))
    xn = np.repeat(np.asarray(problem.x0, dtype=float)[None], N + 1, axis=0)
    yn = np.repeat(np.asarray(problem.y0, dtype=float)[None], N + 1, axis=0)
    iterations, step = 0, np.inf
    while True:
        A, c, err, D, (xs, ys) = _linearize(gm, problem, U, xn, yn, spb)
        converged = bool(err < TOL and step <= STEP_TOL * (1.0 + np.abs(U).max()))
        if converged or iterations == MAX_ITER:
            break
        WAt = (A.reshape(-1, m) @ R_inv.T).reshape(A.shape).T
        M = A @ WAt
        sv = np.linalg.svd(M, compute_uv=False)
        if not sv[-1] > RCOND_MIN * sv[0]:
            break  # rank-deficient linearization: no minimum-norm step exists
        z = (WAt @ np.linalg.solve(M, A @ U.reshape(-1) - c)).reshape(N, m)
        dU, U = z - U, z
        step = np.abs(dU).max()
        # the nodes follow the linearization: ds_{j+1} = (ds_j, dU_j, 1) D[j], ds_0 = 0
        b = np.einsum("ja,jak->jk", dU, D[:, 2 * n:-1]) + D[:, -1]
        ds = np.zeros((N + 1, 2 * n))
        for j in range(N):
            ds[j + 1] = ds[j] @ D[j, :2 * n] + b[j]
        xn[1:], yn[1:] = xn[1:] @ exp_map(gm, ds[1:, :n]), yn[1:] + ds[1:, n:]
        iterations += 1

    def chain(a):  # the segments' records end to end, each segment's end at the last
        return np.concatenate([np.swapaxes(a[:-1], 0, 1).reshape((-1,) + a.shape[2:]), a[-1, -1:]])

    node_u = U[np.minimum(np.arange(N * spb + 1) // spb, N - 1)]
    times = np.linspace(0.0, problem.T, N * spb + 1)
    run = transcription_objective(model, cost, problem, U, config)
    return DirectResult(U=U, trajectory=Trajectory(times=times, xs=chain(xs), ys=chain(ys),
                                                   us=node_u),
                        iterations=iterations, converged=converged,
                        boundary_error=float(err), running_cost=run)
