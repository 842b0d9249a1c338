"""Hamiltonian structure of the optimal control problem.

Everything is computed in left-trivialized coordinates (x, y; mu, xi):
group element, body velocity and two algebra covectors.  The Hamiltonian

    H = <mu, y> + <xi, embed(u) + bias(y)> - L(x, y, u)

is maximized over u on the regular set where the control Hessian of L
is invertible; ``eliminate_control`` solves the stationarity condition
(components 1..m of xi equal dL/du) in closed form for quadratic costs
and by damped Newton otherwise.  ``extremal_field(model, cost)`` is the one
form of the critical flow, built from the structure constants, the inertia
and the cost (the group model enters only where the stepper carries or
rebuilds x)

    xdot   = x hat(y)
    ydot   = embed(u) + bias(y)
    mudot  = (dL/dx trivialized) + ad_star(y, mu)
    xidot  = -mu + dL/dy - flat([y, sharp(xi)]) + ad_star(sharp(xi), flat(y))

and ``hamiltonian_field_check`` verifies numerically that this field is
the Hamiltonian field of H for the trivialized symplectic form

    Omega((z,w,vmu,vxi), (z',w',vmu',vxi'))
        = vmu'(z) + vxi'(w) - vmu(z') - vxi(w') + <mu, [z, z']>.

``extremal_field`` is the flow as a right-hand side batched over rows for
every cost; it and ``eliminate_control`` are the only code that reads the
cost's form.  Every ``CostModel`` callable takes a batch of points, so a
batch or a grid costs one call of each.  For x-independent quadratic costs
the flow is bilinear in v = (y; mu, xi): vdot = [v, y (x) v] @ Kf, with the
lifted matrix Kf built once per (model, cost) from a tensor whose y-block
is the model's ``drift`` matrix (the one that ``algebra.bias`` contracts).
The field evaluates that product by one outer product and one stacked
matmul, and carries Kf, so that the stepper folds the RK4 coefficients
into it and steps the field by a lifted RK4 step (``groups._lifted_loop``);
any other cost takes one batched ``eliminate_control``, whose damped
Newton steps every row at once, and one batched ``extremal_rhs``, the
general-cost kernel, which is also the reference the fused field is
tested against.  The Hamiltonian checks
(``hamiltonian_field_check``, ``hamiltonian_observable``) evaluate
``extremal_field`` itself, so they certify the kernel that the flows step.
``propagate_endpoints`` steps the field
through ``groups.rkmk_integrate`` in one call over the grid, for a batch
of shooting rows as for the single flow of ``flow_extremal``, under the
stepper's two rules.  No field raises on a state that is not finite:
control elimination gives such a row a NaN control, and the stepper
reports the step.  The fused field ignores the step and acts on each row
alone, so its flows of at least ``groups.PARAREAL_MIN_STEPS`` steps take
Parareal, which matches the sequential loop to rounding in the rows it
admits, while a batch keeps each row's bits.
``extremal_trajectory`` turns a recorded flow into a trajectory.  A flow
(``flow_extremal``) and the field check start from p = (state, costate), the
point that ``symplectic_form`` and ``poisson_bracket`` take.
x-independent flows step (y, mu, xi) alone; x-dependent costs take
coupled steps, which carry x along and record it; the others reconstruct
x after the loop.  ``symplectic_form`` is the one pairing of the Hamiltonian checks:
``poisson_bracket`` pairs the derivative tuples of two observables with
it.  Only normal extremals are
treated, with a control Hessian that is symmetric positive definite with a
condition number below 1 / RCOND_MIN (``_regular``): ``CostModel`` refuses
a quadratic weight that is not (ValueError, where the cost is made), and any
other cost's control Hessian that is not, at the eliminated control, raises
SingularRegularity, so the control maximizes H and never minimizes it.

Note on orientation: with the five-term linear Poisson bracket
implemented here ({xi_i, y_j} = delta_ij), observables evolve along the
flow as df/dt = {H, f}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import groups
from .algebra import _count, _positive, ad_star, bias, bracket, embed_control, flat, sharp
from .dynamics import State, Trajectory
from .errors import DimensionMismatch, SingularRegularity, NoConvergence

FD_STEP_CHECK = 1e-5   # verification finite differences
FD_STEP_COST = 1e-6    # cost derivative helper
RCOND_MIN = 1e-12      # smallest inverse condition number of a regular control Hessian
NEWTON_TOL = 1e-12     # sup-norm stationarity residual of a solved control
NEWTON_MAX_ITER = 50   # Newton steps of one control elimination


@dataclass(frozen=True)
class Costate:
    """Pair of algebra covectors (mu, xi)."""

    mu: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class ExtremalPoint:
    state: State
    costate: Costate
    u: np.ndarray


@dataclass(frozen=True, eq=False)
class CostModel:
    """Running cost with its left-trivialized partial derivatives.

    Every callable takes ``(s, u)`` for a batch of points, ``s.x`` (..., d, d),
    ``s.y`` (..., n) and ``u`` (..., m) with broadcast leading dimensions, and
    returns one result per point (a scalar, an (n,) covector for ``dL_dx_triv``
    and ``dL_dy``, (m,) for ``dL_du``, (m, m) for ``d2L_du2``) that depends on
    that point alone, with the bits it gets alone; a single point is the batch
    of shape ().  ``dL_dx_triv`` pairs with body directions of x variations
    (x along x exp(eps E_i)) and is zero when ``x_independent`` is set.
    ``quad_weight`` marks purely quadratic control costs L = u^T R u / 2, whose
    elimination has the closed form u = R^{-1} xi restricted.  It is checked
    once, here (``dataclasses.replace`` runs the check too): ValueError unless R
    is regular (``_regular``).
    """

    eval: Callable
    dL_dx_triv: Callable
    dL_dy: Callable
    dL_du: Callable
    d2L_du2: Callable
    x_independent: bool
    quad_weight: np.ndarray | None = None

    def __post_init__(self):
        R = self.quad_weight
        if R is not None and not _regular(R):
            raise ValueError("quadratic weight must be symmetric positive definite with a "
                             f"condition number below {1 / RCOND_MIN:g}, got {R.tolist()}")


def _regular(H):
    """Whether H, or each matrix of a stack H (..., m, m), is a regular control
    Hessian: finite, symmetric and with its least eigenvalue above RCOND_MIN
    times its greatest, a scale-invariant rule that a negative or zero
    eigenvalue fails.  The one rule for a quadratic weight and for the Hessian
    at an eliminated control."""
    finite = np.isfinite(H).all(axis=(-2, -1))
    H = np.where(finite[..., None, None], H, 0.0)  # a zero matrix fails the eigenvalue test
    ev = np.linalg.eigvalsh(H)  # which reads H's lower triangle
    return (finite & (np.abs(H - np.swapaxes(H, -2, -1)).max(axis=(-2, -1)) <= 1e-12)
            & (ev[..., 0] > RCOND_MIN * ev[..., -1]))


def _lead(s, u):
    """The leading (batch) shape of a cost's arguments, broadcast together."""
    return np.broadcast_shapes(np.shape(s.x)[:-2], np.shape(s.y)[:-1], np.shape(u)[:-1])


def min_acc_cost(model) -> CostModel:
    """Minimum covariant acceleration cost: the inertia quadratic form of u."""
    R = model.inertia[: model.m, : model.m].copy()
    return quadratic_cost(model, R)


def quadratic_cost(model, R) -> CostModel:
    """L = u^T R u / 2 with an m x m weight (DimensionMismatch otherwise), which
    ``CostModel`` checks: ValueError unless it is symmetric positive definite."""
    R = np.asarray(R, dtype=float)
    m = model.m
    if R.shape != (m, m):
        raise DimensionMismatch(f"quadratic weight must be {m}x{m}, got {R.shape}")
    zero = lambda s, u: np.zeros(_lead(s, u) + (model.n,))
    # stacked matmuls run the same product on every row, so each point keeps its bits
    return CostModel(eval=lambda s, u: np.broadcast_to(
                         0.5 * (u[..., None, :] @ (R @ u[..., None]))[..., 0, 0], _lead(s, u)),
                     dL_dx_triv=zero, dL_dy=zero,
                     dL_du=lambda s, u: (R @ u[..., None])[..., 0],
                     d2L_du2=lambda s, u: np.broadcast_to(R, _lead(s, u) + (m, m)),
                     x_independent=True, quad_weight=R)


def fd_dL_dx_triv(gm, cost_eval, s, u):
    """Left-trivialized x-derivative of a cost by central differences, for a
    batch of points as for one: x varies along x exp(t E_i), all n directions
    in one call of ``cost_eval`` per sign, with each point's step 1e-6 (1 + ||x||).
    """
    x = np.asarray(s.x, dtype=float)
    h = FD_STEP_COST * (1.0 + np.sqrt(np.sum(x * x, axis=(-2, -1))))[..., None, None]
    x, y, u = x[..., None, :, :], np.asarray(s.y)[..., None, :], np.asarray(u)[..., None, :]
    tilt = h * np.eye(gm.algebra.n)  # row i is h E_i
    plus = cost_eval(State(x @ groups.exp_map(gm, tilt), y), u)
    minus = cost_eval(State(x @ groups.exp_map(gm, -tilt), y), u)
    return (plus - minus) / (2.0 * h[..., 0])


def hamiltonian(model, cost, a):
    """<mu, y> + <xi, embed(u) + bias(y)> - L(x, y, u), at a point or at every
    point of a batch."""
    y = np.asarray(a.state.y, dtype=float)
    u = np.asarray(a.u, dtype=float)
    acc = embed_control(model, u) + bias(model, y)
    return (np.einsum("...i,...i->...", a.costate.mu, y)
            + np.einsum("...i,...i->...", a.costate.xi, acc) - cost.eval(a.state, u))


def eliminate_control(model, cost, s, xi) -> np.ndarray:
    """Solve dL/du = restricted xi for u, for a batch of points (``s.x``, ``s.y``
    and ``xi`` broadcast together) as for one: in closed form for quadratic
    costs, else by ``_newton`` on every row at once from u = 0, then from the
    restricted xi on the rows that fail.  A row whose x, y or xi is not finite
    gets a NaN control.  A quadratic weight is regular by construction
    (``CostModel``); any other cost's control Hessian is checked per row at the
    returned u by the same rule (``_regular``): SingularRegularity when it is
    not regular, as for a Newton iterate whose Hessian cannot be solved.
    NoConvergence when Newton stalls on any finite row."""
    xi = np.asarray(xi, dtype=float)
    m = model.m
    target = xi[..., :m]
    if cost.quad_weight is not None:
        return np.linalg.solve(cost.quad_weight, target[..., None])[..., 0]
    x, y = np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)
    lead = np.broadcast_shapes(x.shape[:-2], y.shape[:-1], xi.shape[:-1])
    x, y, xi = (_stack_rows(a, lead, k) for a, k in ((x, 2), (y, 1), (xi, 1)))
    rows = np.flatnonzero(np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
                          & np.isfinite(xi).all(axis=1))
    u = np.full((len(xi), m), np.nan)
    if len(rows):
        s, target = State(x[rows], y[rows]), xi[rows, :m]
        tol = NEWTON_TOL * np.maximum(1.0, np.abs(target).max(axis=1))
        ul, ok = _newton(cost, s, target, tol, np.zeros_like(target))
        if not ok.all():  # converged rows stop at once; the others start from their xi
            ul, ok = _newton(cost, s, target, tol, np.where(ok[:, None], ul, target))
        if not ok.all():
            raise NoConvergence("control elimination Newton failed to converge")
        H = cost.d2L_du2(s, ul)
        bad = ~_regular(H)
        if bad.any():
            ev = np.linalg.eigvalsh(H[np.argmax(bad)])
            raise SingularRegularity("control Hessian is not regular at the eliminated control "
                                     f"(eigenvalues {ev[0]:.3g} .. {ev[-1]:.3g})")
        u[rows] = ul
    return u.reshape(lead + (m,))


def _stack_rows(a, lead, k):
    """``a`` broadcast to the leading shape ``lead``, one row per point of its last k axes."""
    tail = a.shape[a.ndim - k:]
    return (a if a.shape[:-k] == lead else np.broadcast_to(a, lead + tail)).reshape((-1,) + tail)


def _newton(cost, s, target, tol, u):
    """Damped Newton on g = dL/du(s, u) - target = 0 for rows (R, m) together,
    from u, each row with the bits it gets alone.  A row stops once |g|_inf <
    its ``tol`` (NEWTON_TOL max(1, |target|_inf)), or unconverged when 30
    halvings of its step do not lower |g|^2 or after NEWTON_MAX_ITER steps; a
    stopped row keeps its u and g but stays in the batch that the callables
    and the solve take.  Returns every row's u and whether it converged."""
    e = np.frexp(tol)[1][:, None]  # 2^e is within a factor 2 of each row's tol
    g = cost.dL_du(s, u) - target
    gg = _sq(g, e)
    live = np.ones(len(u), dtype=bool)
    for it in range(NEWTON_MAX_ITER + 1):
        live &= ~(np.abs(g).max(axis=1) < tol)
        if it == NEWTON_MAX_ITER or not live.any():
            break
        try:
            du = np.linalg.solve(cost.d2L_du2(s, u), -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise SingularRegularity("control Hessian is singular at a Newton iterate")
        step, search = 1.0, live  # the rows still halving their step
        for _ in range(30):
            u_try = u + step * du
            g_try = cost.dL_du(s, u_try) - target
            gg_try = _sq(g_try, e)
            took = search & (gg_try < gg)
            u, g = np.where(took[:, None], u_try, u), np.where(took[:, None], g_try, g)
            gg, search = np.where(took, gg_try, gg), search & ~took
            if not search.any():
                break
            step *= 0.5
        live &= ~search
    return u, np.abs(g).max(axis=1) < tol


def _sq(g, e):
    """|g 2^-e|^2 of every row, by a stacked matmul (each row keeps its bits).
    Scaling by a power of two changes no comparison between squares that
    stay finite and normal either way, and with 2^e near the row's tol a row
    near the largest float keeps a finite square that its line search can
    lower, where |g|^2 is inf."""
    g = np.ldexp(g, -e)
    return (g[..., None, :] @ g[..., None])[..., 0, 0]


def extremal_rhs(model, cost, a):
    """The critical flow at a stationarity point as the field's pair (y, vdot),
    vdot = (ydot, mudot, xidot): the kernel of ``extremal_field`` for every
    cost that is not fused, and the reference the fused field is tested against."""
    y = np.asarray(a.state.y, dtype=float)
    mu = np.asarray(a.costate.mu, dtype=float)
    xi = np.asarray(a.costate.xi, dtype=float)
    u = np.asarray(a.u, dtype=float)
    ydot = embed_control(model, u) + bias(model, y)
    sx = sharp(model, xi)
    mudot = ad_star(model, y, mu)
    xidot = -mu - flat(model, bracket(model, y, sx)) + ad_star(model, sx, flat(model, y))
    if not cost.x_independent:
        mudot = mudot + np.asarray(cost.dL_dx_triv(a.state, u), dtype=float)
    dLdy = np.asarray(cost.dL_dy(a.state, u), dtype=float)
    if dLdy.any():
        xidot = xidot + dLdy
    return y, np.concatenate([ydot, mudot, xidot], axis=-1)


# -- extremal flow --------------------------------------------------------------

def _quadratic_tensor(model, R):
    """K with vdot_o = K[o, a, q] y1_a v_q for v = (y, mu, xi), y1 = (1, y): slice
    a = 0 is linear (the control map embed(R^-1 xi[:m]) and -mu), the y slices
    hold sharp(ad_star(y, flat y)) (the model's ``drift`` matrix, the tensor
    ``algebra.bias`` contracts), ad_star(y, mu) and the xi terms
    -flat([y, sharp xi]) + ad_star(sharp xi, flat y).  R is the cost's weight,
    which ``CostModel`` has checked."""
    n, m = model.n, model.m
    C, J, Jinv = model.C, model.inertia, model.inertia_inv
    K = np.zeros((3, n, n + 1, 3, n))  # (out block, out, 1 or y index, in block, in)
    K[0, :m, 0, 2, :m] = np.linalg.inv(R)
    K[0, :, 1:, 0] = model.drift.reshape(n, n, n).transpose(1, 2, 0)
    K[1, :, 1:, 1] = np.einsum("kij->jik", C)
    K[2, :, 0, 1] = -np.eye(n)
    K[2, :, 1:, 2] = (np.einsum("kij,iq,kp->jpq", C, Jinv, J)
                      - np.einsum("lk,kij,jq->liq", J, C, Jinv))
    return K.reshape(3 * n, n + 1, 3 * n)


@lru_cache(maxsize=16)
def extremal_field(model, cost):
    """The extremal flow as a stepper right-hand side ``rhs(k, c, x, v) -> (y, vdot)``
    with v = (y, mu, xi), batched over leading dimensions of v for every cost.

    Quadratic x-independent costs get the fused field: the tensor K of
    ``_quadratic_tensor``, held as the lifted matrix Kf of shape
    ((n + 1) p, p), p = 3n, with Kf[a p + q, o] = K[o, a, q], gives
    vdot = [v, y (x) v] @ Kf, the lift being the outer product (1, y) (x) v;
    the field carries Kf (``rhs.Kf``) for the stepper's lifted RK4 step, and
    ``rhs.stages(h)``, the step's read-only stage matrices
    (``groups._stage_matrices``), formed once per step size h.
    Any other cost takes one batched ``eliminate_control``, whose Newton runs
    every row at once and gives a row that is not finite a NaN control, and
    one batched ``extremal_rhs``.  Either way each row gets the bits it gets
    alone.  Cached per (model, cost)."""
    n = model.n
    if cost.quad_weight is not None and cost.x_independent:
        K = _quadratic_tensor(model, cost.quad_weight)
        Kf = np.ascontiguousarray(K.transpose(1, 2, 0).reshape(3 * n * (n + 1), 3 * n))
        Kf.flags.writeable = False  # the cached field hands it to every flow

        def rhs(k, c, x, v):
            y1 = np.concatenate([np.ones(v.shape[:-1] + (1,)), v[..., :n]], axis=-1)
            lift = (y1[..., :, None] * v[..., None, :]).reshape(v.shape[:-1] + (1, len(Kf)))
            return v[..., :n], (lift @ Kf)[..., 0, :]

        rhs.Kf = Kf
        # the read-only stage matrices of each step size (``groups._stages``), a
        # few per field: a solve steps two grids, a Parareal flow its step and
        # one or two segment lengths; they live as long as the field, and this
        # function's cache bounds how many fields live
        rhs.stages = lru_cache(maxsize=8)(partial(groups._stage_matrices, Kf))
        return rhs

    def rhs(k, c, x, v):
        s, costate = State(x, v[..., :n]), Costate(v[..., n:2 * n], v[..., 2 * n:])
        u = eliminate_control(model, cost, s, costate.xi)
        return extremal_rhs(model, cost, ExtremalPoint(s, costate, u))

    return rhs


def flow_extremal(model, gm, cost, p0, T, steps) -> Trajectory:
    """Integrate the critical flow from p0 = (state, costate) by
    ``propagate_endpoints``, recording controls and H on the grid (see
    ``extremal_trajectory``)."""
    s, c = p0
    _, _, (xs, vs) = propagate_endpoints(model, gm, cost, s.x, s.y, c.mu, c.xi, T, steps)
    return extremal_trajectory(model, cost, T, xs, vs)


def extremal_trajectory(model, cost, T, xs, vs) -> Trajectory:
    """The trajectory of an extremal flow recorded on the uniform grid of [0, T]:
    group elements ``xs`` and v = (y, mu, xi) rows ``vs``, with the controls
    and H of the grid in one batched pass each.  ``xs`` and ``vs`` may be one
    row of a recorded batch; the trajectory keeps compact copies, not views
    that pin the batch."""
    n = model.n
    xs, vs = np.ascontiguousarray(xs), np.ascontiguousarray(vs)
    steps = len(vs) - 1
    ys, mus, xis = vs[:, :n], vs[:, n:2 * n], vs[:, 2 * n:]
    us = eliminate_control(model, cost, State(xs, ys), xis)
    hams = hamiltonian(model, cost, ExtremalPoint(State(xs, ys), Costate(mus, xis), us))
    return Trajectory(times=np.linspace(0.0, T, steps + 1), xs=xs, ys=ys, us=us,
                      mus=mus, xis=xis, hams=hams)


def propagate_endpoints(model, gm, cost, x0, y0, mu0, xi0, T, steps):
    """Terminal (x, y) of the extremal flow, and the flow; mu0/xi0 may carry a
    batch dim.

    Every extremal flow runs here, the rows of a shooting step as well as
    the single flow of ``flow_extremal``, and a batch of flows is bitwise
    the run of each element alone.  The fused field of a quadratic cost
    takes lifted RK4 steps, and Parareal on long grids (see the module
    docstring).  T and ``steps`` must make a uniform grid
    (``groups._uniform_grid``), else ValueError.  Returns (x_T, y_T, (xs, vs)), where
    (xs, vs) is the stepper's record of the batch's group elements and
    v = (y, mu, xi) at the steps + 1 grid points, the initial state first
    (see ``groups.rkmk_integrate``).
    """
    mu0 = np.asarray(mu0, dtype=float)
    y0b = np.broadcast_to(np.asarray(y0, dtype=float), mu0.shape)
    v = np.concatenate([y0b, mu0, np.asarray(xi0, dtype=float)], axis=-1)
    steps, h = groups._uniform_grid(T, steps)
    xs, vs = groups.rkmk_integrate(gm, np.asarray(x0, dtype=float), v, steps, h,
                                   extremal_field(model, cost),
                                   needs_x=not cost.x_independent)
    return xs[-1], vs[-1, ..., : model.n], (xs, vs)


def running_cost(cost, traj) -> float:
    """Composite Simpson quadrature of the running cost along a trajectory
    (the trapezoid on a grid of one interval)."""
    K = len(traj) - 1
    vals = cost.eval(State(traj.xs, traj.ys), traj.us)
    h = float(traj.times[1] - traj.times[0])
    if K == 1:
        return float(0.5 * h * (vals[0] + vals[1]))
    # Simpson over an even number of cells; an odd count adds a trapezoid on the last
    S = K - K % 2
    w = np.ones(S + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    total = h / 3.0 * np.dot(w, vals[:S + 1])
    return float(total + 0.5 * h * (vals[-2] + vals[-1]) if K % 2 else total)


# -- symplectic and Poisson verification ----------------------------------------

class TangentTuple(NamedTuple):
    """Left-trivialized tangent direction (z, w, v_mu, v_xi)."""

    z: np.ndarray
    w: np.ndarray
    v_mu: np.ndarray
    v_xi: np.ndarray


def symplectic_form(model, p, A, B) -> float:
    """Trivialized symplectic pairing of two tangent tuples at p = (state, costate),
    summed pair by pair."""
    _, costate = p
    mu = np.asarray(costate.mu, dtype=float)
    return float(
        np.dot(B.v_mu, A.z) - np.dot(A.v_mu, B.z)
        + np.dot(B.v_xi, A.w) - np.dot(A.v_xi, B.w)
        + np.dot(mu, bracket(model, A.z, B.z))
    )


def _shift_point(gm, s, costate, V, eps):
    x = s.x @ groups.exp_map(gm, V.z, eps)
    return State(x, s.y + eps * V.w), Costate(costate.mu + eps * V.v_mu,
                                              costate.xi + eps * V.v_xi)


def _hamiltonian_vector(model, cost, s, c) -> TangentTuple:
    """X_H at (s, c): ``extremal_field``, the field every flow steps, evaluated there."""
    v = np.concatenate([s.y, c.mu, c.xi], axis=-1).astype(float)
    y, vdot = extremal_field(model, cost)(0, 0.0, s.x, v)
    return TangentTuple(y, *np.split(vdot, 3, axis=-1))


def hamiltonian_field_check(model, gm, cost, p, n_directions=10,
                            fd_step=FD_STEP_CHECK, seed=0) -> float:
    """Max mismatch of Omega(X_H, V) against the directional derivative of H
    at p = (state, costate), over ``n_directions`` random unit directions V.

    X_H is the extremal field at p, with the control eliminated there, and dH
    is a central finite difference with the control eliminated at each
    shifted point.  Small residuals certify that the flow solves the
    symplectic equation.  ``fd_step`` must be finite and positive
    (``algebra._positive``) and ``n_directions`` an integer of at least 1
    (``algebra._count``), else ValueError; a residual that is NaN (a point
    that is not finite) makes the result NaN.
    """
    fd_step = _positive(fd_step, "fd_step")
    residuals = np.empty(_count(n_directions, "n_directions", 1))
    state, costate = p
    X = _hamiltonian_vector(model, cost, state, costate)
    rng = np.random.default_rng(seed)
    for i in range(len(residuals)):
        parts = rng.standard_normal(4 * model.n)
        parts /= np.linalg.norm(parts)
        V = TangentTuple(*np.split(parts, 4))
        lhs = symplectic_form(model, p, X, V)
        # the points shifted by +-fd_step, as one batch of two
        s, c = _shift_point(gm, state, costate, V, np.array([[fd_step], [-fd_step]]))
        hp, hm = hamiltonian(model, cost, ExtremalPoint(s, c, eliminate_control(model, cost, s, c.xi)))
        residuals[i] = abs(lhs - (hp - hm) / (2.0 * fd_step))
    return float(residuals.max())


# -- observables and the linear Poisson bracket ---------------------------------

@dataclass(frozen=True)
class Observable:
    """Scalar function of (state, costate) with its functional derivatives.

    ``derivatives(state, costate)`` returns the tuple
    (d/dx trivialized, d/dy, d/dmu, d/dxi) where the first two are
    covectors and the last two are vectors.
    """

    value: Callable
    derivatives: Callable


def coordinate_observable(model, slot, index) -> Observable:
    """The coordinate function y_i, mu_i or xi_i with exact derivatives."""
    if slot not in ("y", "mu", "xi"):
        raise ValueError(f"slot must be y, mu or xi, got {slot!r}")
    n = model.n
    e = np.zeros(n)
    e[index] = 1.0
    zero = np.zeros(n)

    def value(s, c):
        src = {"y": s.y, "mu": c.mu, "xi": c.xi}[slot]
        return float(src[index])

    def derivatives(s, c):
        return (zero, e if slot == "y" else zero,
                e if slot == "mu" else zero, e if slot == "xi" else zero)

    return Observable(value=value, derivatives=derivatives)


def fd_observable(model, gm, value_fn, step=FD_STEP_CHECK) -> Observable:
    """Wrap a scalar function with central-difference functional derivatives,
    one per coordinate tangent direction (z, w, v_mu, v_xi) of the point."""

    def derivatives(s, c):
        d = np.empty(4 * model.n)
        for i, e in enumerate(np.eye(4 * model.n)):
            V = TangentTuple(*np.split(e, 4))
            d[i] = (value_fn(*_shift_point(gm, s, c, V, step))
                    - value_fn(*_shift_point(gm, s, c, V, -step))) / (2 * step)
        return tuple(np.split(d, 4))

    return Observable(value=value_fn, derivatives=derivatives)


def hamiltonian_observable(model, cost) -> Observable:
    """The reduced Hamiltonian as an observable with analytic derivatives.

    The functional derivatives are read off the extremal field:
    dH/dmu = y, dH/dxi = ydot, dH/dy = -xidot and the trivialized
    dH/dx = ad_star(y, mu) - mudot.
    """

    def value(s, c):
        u = eliminate_control(model, cost, s, c.xi)
        return hamiltonian(model, cost, ExtremalPoint(s, c, u))

    def derivatives(s, c):
        X = _hamiltonian_vector(model, cost, s, c)
        return ad_star(model, s.y, c.mu) - X.v_mu, -X.v_xi, s.y.copy(), X.w

    return Observable(value=value, derivatives=derivatives)


def poisson_bracket(model, f, g, p) -> float:
    """Linear Poisson bracket of two observables at p = (state, costate).

    Five-term formula: <g_x, f_mu> - <f_x, g_mu> + <g_y, f_xi>
    - <f_y, g_xi> + <mu, [f_mu, g_mu]>, the symplectic pairing of the
    derivative tuples read as tangent tuples (f_mu, f_xi, f_x, f_y).  With
    this orientation {xi_i, y_j} = delta_ij and d/dt f = {H, f} along the
    extremal flow.
    """
    fx, fy, fmu, fxi = f.derivatives(*p)
    gx, gy, gmu, gxi = g.derivatives(*p)
    return symplectic_form(model, p, TangentTuple(fmu, fxi, fx, fy), TangentTuple(gmu, gxi, gx, gy))


def spatial_momentum(gm, x, mu) -> np.ndarray:
    """Coadjoint-transported costate <mu, Ad_{x^{-1}} .> in coordinates.

    Constant along extremal flows of configuration-independent costs.
    """
    return groups.adjoint_matrix(gm, groups.inverse(gm, x)).T @ np.asarray(mu, dtype=float)
