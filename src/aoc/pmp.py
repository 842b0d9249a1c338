"""Hamiltonian structure of the optimal control problem.

Everything is computed in left-trivialized coordinates (x, y; mu, xi):
group element, body velocity and two algebra covectors.  The Hamiltonian

    H = <mu, y> + <xi, embed(u) + bias(y)> - L(x, y, u)

is maximized over u on the regular set where the control Hessian of L
is invertible; ``eliminate_control`` solves the stationarity condition
(components 1..m of xi equal dL/du) in closed form for quadratic costs
and by damped Newton otherwise.  ``extremal_rhs`` evaluates the critical
flow

    xdot   = x hat(y)
    ydot   = embed(u) + bias(y)
    mudot  = (dL/dx trivialized) + ad_star(y, mu)
    xidot  = -mu + dL/dy - flat([y, sharp(xi)]) + ad_star(sharp(xi), flat(y))

and ``hamiltonian_field_check`` verifies numerically that this flow is
the Hamiltonian field of H for the trivialized symplectic form

    Omega((z,w,vmu,vxi), (z',w',vmu',vxi'))
        = vmu'(z) + vxi'(w) - vmu(z') - vxi(w') + <mu, [z, z']>.

``extremal_field`` is the flow as a right-hand side batched over rows for
every cost; it, ``eliminate_control`` and ``_cost_values`` (L on a grid)
are the only code that reads the cost's form.  For x-independent
quadratic costs the flow is bilinear in (y; mu, xi), and the field
evaluates a batch of RK stages by two stacked matmuls against a tensor
built once per (model, cost); any other cost runs row by row, each row
as a single point.  The y-block of that tensor is the model's ``drift``
matrix, the one that ``algebra.bias`` contracts, so the extremal field
and the forward rollouts of ``dynamics`` share one drift tensor.
``propagate_endpoints`` steps the field through ``groups.rkmk_integrate``
in one call over the grid, for a batch of shooting rows as for the
single flow of ``flow_extremal``, and returns the stepper's record of the
batch's flow with its terminal states, under the stepper's two rules (see
``groups.rkmk_integrate``).  No field raises on a state that is not
finite: the row-by-row field returns NaN rates for such a row, and the
stepper reports the step.  The fused field ignores the step and acts on
each row alone, so it alone turns on the stepper's ``parareal``: Parareal
in time for flows of at least ``groups.PARAREAL_MIN_STEPS`` steps, whose
rows of a small enough coarse error match the sequential loop to
rounding while a batch keeps each row's bits; shorter flows and the
other rows keep the loop's bits.  ``extremal_trajectory`` turns a
recorded flow into a trajectory, eliminating the control once per grid
point.  x-independent flows step (y, mu, xi) alone and reconstruct x
after the loop; x-dependent costs take coupled steps.  Only normal extremals are
treated; a control Hessian with condition number above 1 / RCOND_MIN at
the eliminated control raises SingularRegularity.

Note on orientation: with the five-term linear Poisson bracket
implemented here ({xi_i, y_j} = delta_ij), observables evolve along the
flow as df/dt = {H, f}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import groups
from .algebra import _count, ad_star, bias, bracket, embed_control, flat, sharp
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

    ``dL_dx_triv`` returns the covector pairing with body directions of
    x variations (x varied along x exp(eps E_i)); it must be identically
    zero when ``x_independent`` is set.  ``quad_weight`` marks purely
    quadratic control costs L = u^T R u / 2 for which control
    elimination has the closed form u = R^{-1} xi restricted.
    """

    eval: Callable
    dL_dx_triv: Callable
    dL_dy: Callable
    dL_du: Callable
    d2L_du2: Callable
    x_independent: bool
    quad_weight: np.ndarray | None = None


def _zero_cov(n):
    z = np.zeros(n)
    return lambda s, u: z


def min_acc_cost(model) -> CostModel:
    """Minimum covariant acceleration cost: the inertia quadratic form of u."""
    R = model.inertia[: model.m, : model.m].copy()
    return quadratic_cost(model, R)


def quadratic_cost(model, R) -> CostModel:
    """L = u^T R u / 2 with a symmetric positive definite weight."""
    R = np.asarray(R, dtype=float)
    m = model.m
    if R.shape != (m, m):
        raise DimensionMismatch(f"quadratic weight must be {m}x{m}, got {R.shape}")
    if np.abs(R - R.T).max() > 1e-12:
        raise ValueError("quadratic weight must be symmetric")
    return CostModel(
        eval=lambda s, u: 0.5 * float(np.dot(u, R @ u)),
        dL_dx_triv=_zero_cov(model.n),
        dL_dy=_zero_cov(model.n),
        dL_du=lambda s, u: R @ u,
        d2L_du2=lambda s, u: R,
        x_independent=True,
        quad_weight=R,
    )


def fd_dL_dx_triv(gm, cost_eval, s, u, step=None):
    """Left-trivialized x-derivative of a cost by central differences.

    Varies x along x exp(t E_i) with step 1e-6 (1 + ||x||).
    """
    n = gm.algebra.n
    h = step if step is not None else FD_STEP_COST * (1.0 + float(np.linalg.norm(s.x)))
    out = np.empty(n)
    eye = np.eye(n)
    for i in range(n):
        xp = groups.compose(s.x, groups.exp_map(gm, eye[i], h))
        xm = groups.compose(s.x, groups.exp_map(gm, eye[i], -h))
        out[i] = (cost_eval(State(xp, s.y), u) - cost_eval(State(xm, s.y), u)) / (2.0 * h)
    return out


def hamiltonian(model, cost, a) -> float:
    """<mu, y> + <xi, embed(u) + bias(y)> - L(x, y, u)."""
    y = np.asarray(a.state.y, dtype=float)
    u = np.asarray(a.u, dtype=float)
    acc = embed_control(model, u) + bias(model, y)
    return float(np.dot(a.costate.mu, y) + np.dot(a.costate.xi, acc)
                 - cost.eval(a.state, u))


def _check_regular(H, what):
    """Raise SingularRegularity if cond(H) > 1 / RCOND_MIN (a scale-invariant test)."""
    sv = np.linalg.svd(H, compute_uv=False)
    if not sv[-1] > RCOND_MIN * sv[0]:
        raise SingularRegularity(f"{what} is singular (singular values {sv[0]:.3g} "
                                 f".. {sv[-1]:.3g})")


def eliminate_control(model, cost, s, xi) -> np.ndarray:
    """Solve the stationarity condition dL/du = restricted xi for u.

    Closed form for quadratic costs, damped Newton otherwise (start at
    u = 0, retry from the restricted xi components on failure).  ``xi``
    may carry a batch, which Newton takes row by row, ``s`` carrying the
    matching states (x broadcasts).  Regularity is checked once per point,
    on the weight or on the control Hessian at the returned u: it raises
    SingularRegularity when that matrix is numerically singular, as does a
    Newton iterate whose Hessian cannot be solved.  Raises NoConvergence
    when Newton stalls.
    """
    xi = np.asarray(xi, dtype=float)
    target = xi[..., : model.m]
    if cost.quad_weight is not None:
        R = cost.quad_weight
        _check_regular(R, "quadratic weight")
        return np.linalg.solve(R, target[..., None])[..., 0] if target.ndim > 1 \
            else np.linalg.solve(R, target)
    if xi.ndim > 1:
        rows = [eliminate_control(model, cost, State(x, y), row)
                for x, y, row in _rows(s.x, s.y, xi)]
        return np.reshape(rows, target.shape)

    def newton(u0):
        u = u0.copy()
        for _ in range(NEWTON_MAX_ITER):
            g = np.asarray(cost.dL_du(s, u), dtype=float) - target
            if np.abs(g).max() < NEWTON_TOL:
                return u
            Hm = np.asarray(cost.d2L_du2(s, u), dtype=float)
            try:
                du = np.linalg.solve(Hm, -g)
            except np.linalg.LinAlgError:
                raise SingularRegularity("control Hessian is singular at a Newton iterate")
            step = 1.0
            base = float(np.dot(g, g))
            for _ in range(30):
                g_try = np.asarray(cost.dL_du(s, u + step * du), dtype=float) - target
                if float(np.dot(g_try, g_try)) < base:
                    break
                step *= 0.5
            else:
                return None
            u = u + step * du
        g = np.asarray(cost.dL_du(s, u), dtype=float) - target
        return u if np.abs(g).max() < NEWTON_TOL else None

    u = newton(np.zeros(model.m))
    if u is None:
        u = newton(target.copy())
    if u is None:
        raise NoConvergence("control elimination Newton failed to converge")
    _check_regular(np.asarray(cost.d2L_du2(s, u), dtype=float), "control Hessian")
    return u


class ExtremalRHS(NamedTuple):
    ydot: np.ndarray
    mudot: np.ndarray
    xidot: np.ndarray
    xdot_body: np.ndarray


def extremal_rhs(model, gm, cost, a) -> ExtremalRHS:
    """Critical-flow right-hand sides at a stationarity point."""
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
    return ExtremalRHS(ydot=ydot, mudot=mudot, xidot=xidot, xdot_body=y)


def min_acc_rhs(model, gm, a) -> ExtremalRHS:
    """Minimum-acceleration specialization with the control inlined:
    ydot = sharp(restricted xi) + bias(y), evaluated by the fused field."""
    v = np.concatenate([a.state.y, a.costate.mu, a.costate.xi]).astype(float)
    y, vdot = extremal_field(model, gm, min_acc_cost(model))(0, 0.0, a.state.x, v)
    return ExtremalRHS(*np.split(vdot, 3), xdot_body=y)


# -- extremal flow --------------------------------------------------------------

def _is_quadratic(cost):
    return cost.quad_weight is not None and cost.x_independent


def _quadratic_tensor(model, R):
    """K with vdot_o = K[o, a, q] y1_a v_q for v = (y, mu, xi), y1 = (1, y): slice
    a = 0 is linear (the control map embed(R^-1 xi[:m]) and -mu), the y slices
    hold sharp(ad_star(y, flat y)) (the model's ``drift`` matrix, the tensor
    ``algebra.bias`` contracts), ad_star(y, mu) and the xi terms
    -flat([y, sharp xi]) + ad_star(sharp xi, flat y)."""
    _check_regular(R, "quadratic weight")
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


def _rows(x, *arrays):
    """The rows of a batch of ``arrays``, each with its x (x broadcasts)."""
    d = np.shape(x)[-2:]
    x = np.broadcast_to(x, arrays[0].shape[:-1] + d).reshape((-1,) + d)
    return zip(x, *(a.reshape(-1, a.shape[-1]) for a in arrays))


@lru_cache(maxsize=16)
def extremal_field(model, gm, cost):
    """The extremal flow as a stepper right-hand side ``rhs(k, c, x, v) -> (y, vdot)``
    with v = (y, mu, xi), batched over leading dimensions of v for every cost.

    Quadratic x-independent costs get the fused field: one stacked matmul of
    v against the tensor K of ``_quadratic_tensor``, held as a (3n, 3n (n + 1))
    matrix, gives W[o, a] = K[o, a, q] v_q, and then W[:, 0] + W[:, 1:] y.
    Other costs run ``eliminate_control`` and ``extremal_rhs`` row by row, and
    give NaN rates for a row that is not finite rather than run its Newton.
    Either way each row gets the bits it gets alone."""
    n = model.n
    if _is_quadratic(cost):
        K = _quadratic_tensor(model, cost.quad_weight)
        Kt = np.ascontiguousarray(K.transpose(2, 0, 1).reshape(3 * n, 3 * n * (n + 1)))

        def rhs(k, c, x, v):
            y = v[..., :n]
            W = (v[..., None, :] @ Kt).reshape(v.shape[:-1] + (3 * n, n + 1))
            return y, W[..., 0] + (W[..., 1:] @ y[..., None])[..., 0]

        return rhs

    def point(x, y, v):
        if not (np.isfinite(v).all() and np.isfinite(x).all()):
            return np.full(3 * n, np.nan)
        s, mu, xi = State(x, y), v[n:2 * n], v[2 * n:]
        u = eliminate_control(model, cost, s, xi)
        r = extremal_rhs(model, gm, cost, ExtremalPoint(s, Costate(mu, xi), u))
        return np.concatenate([r.ydot, r.mudot, r.xidot])

    def rhs(k, c, x, v):
        y = v[..., :n]
        return y, np.reshape([point(*row) for row in _rows(x, y, v)], v.shape)

    return rhs


def flow_extremal(model, gm, cost, a0, T, steps) -> Trajectory:
    """Integrate the critical flow by ``propagate_endpoints``, recording
    controls and H on the grid (see ``extremal_trajectory``)."""
    if T <= 0:
        raise ValueError("T must be positive")
    _, _, (xs, vs) = propagate_endpoints(model, gm, cost, a0.state.x, a0.state.y,
                                         a0.costate.mu, a0.costate.xi, T, steps)
    return extremal_trajectory(model, gm, cost, T, xs, vs)


def extremal_trajectory(model, gm, cost, T, xs, vs) -> Trajectory:
    """The trajectory of an extremal flow recorded on the uniform grid of [0, T]:
    group elements ``xs`` and v = (y, mu, xi) rows ``vs``, with the controls and
    H of the grid in one batched pass (L by ``_cost_values``).
    The controls are eliminated once per point, and H reads
    ydot = embed(u) + bias(y) from them.  ``xs`` and ``vs`` may be one row of
    a recorded batch; the trajectory keeps compact copies, not views that pin
    the batch."""
    n = model.n
    xs, vs = np.ascontiguousarray(xs), np.ascontiguousarray(vs)
    steps = len(vs) - 1
    ys, mus, xis = vs[:, :n], vs[:, n:2 * n], vs[:, 2 * n:]
    us = eliminate_control(model, cost, State(xs, ys), xis)
    ydot = embed_control(model, us) + bias(model, ys)
    L = _cost_values(cost, xs, ys, us)
    hams = np.einsum("ki,ki->k", mus, ys) + np.einsum("ki,ki->k", xis, ydot) - L
    return Trajectory(times=np.linspace(0.0, T, steps + 1), xs=xs, ys=ys, us=us,
                      mus=mus, xis=xis, hams=hams)


def propagate_endpoints(model, gm, cost, x0, y0, mu0, xi0, T, steps):
    """Terminal (x, y) of the extremal flow, and the flow; mu0/xi0 may carry a
    batch dim.

    Every extremal flow runs here, the rows of a shooting step as well as
    the single flow of ``flow_extremal``, and a batch of flows is bitwise
    the run of each element alone.  The fused field of a quadratic cost
    may take Parareal (see the module docstring).  ``steps`` must be an
    integer, else ValueError.
    Returns (x_T, y_T, (xs, vs)), where
    (xs, vs) is the stepper's record of the batch's group elements and
    v = (y, mu, xi) at the steps + 1 grid points, the initial state first
    (see ``groups.rkmk_integrate``).
    """
    mu0 = np.asarray(mu0, dtype=float)
    y0b = np.broadcast_to(np.asarray(y0, dtype=float), mu0.shape)
    v = np.concatenate([y0b, mu0, np.asarray(xi0, dtype=float)], axis=-1)
    steps = _count(steps, "steps")
    xs, vs = groups.rkmk_integrate(gm, np.asarray(x0, dtype=float), v, steps, T / steps,
                                   extremal_field(model, gm, cost),
                                   needs_x=not cost.x_independent,
                                   parareal=_is_quadratic(cost))
    return xs[-1], vs[-1, ..., : model.n], (xs, vs)


def _cost_values(cost, xs, ys, us):
    """L at every grid point.  A quadratic x-independent cost takes one batched
    pass, whose stacked matmuls give each point the bits of ``cost.eval``;
    any other cost runs ``cost.eval`` point by point."""
    if _is_quadratic(cost):
        return 0.5 * (us[:, None, :] @ (cost.quad_weight @ us[..., None]))[:, 0, 0]
    return np.array([cost.eval(State(x, y), u) for x, y, u in zip(xs, ys, us)])


def running_cost(cost, traj) -> float:
    """Composite Simpson quadrature of the running cost along a trajectory
    (the trapezoid on a grid of one interval)."""
    K = len(traj) - 1
    vals = _cost_values(cost, traj.xs, traj.ys, traj.us)
    h = float(traj.times[1] - traj.times[0])
    if K == 1:
        return float(0.5 * h * (vals[0] + vals[1]))
    if K % 2 == 0:
        w = np.ones(K + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float(h / 3.0 * np.dot(w, vals))
    # odd interval count: Simpson up to K-1, trapezoid on the last cell
    w = np.ones(K)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, vals[:-1]) + 0.5 * h * (vals[-2] + vals[-1]))


# -- symplectic and Poisson verification ----------------------------------------

class TangentTuple(NamedTuple):
    """Left-trivialized tangent direction (z, w, v_mu, v_xi)."""

    z: np.ndarray
    w: np.ndarray
    v_mu: np.ndarray
    v_xi: np.ndarray


def symplectic_form(model, p, A, B) -> float:
    """Trivialized symplectic pairing of two tangent tuples at p = (state, costate)."""
    _, costate = p
    mu = np.asarray(costate.mu, dtype=float)
    return float(
        np.dot(B.v_mu, A.z) + np.dot(B.v_xi, A.w)
        - np.dot(A.v_mu, B.z) - np.dot(A.v_xi, B.w)
        + np.dot(mu, bracket(model, A.z, B.z))
    )


def _shift_point(model, gm, s, costate, V, eps):
    x = groups.compose(s.x, groups.exp_map(gm, V.z, eps))
    return State(x, s.y + eps * V.w), Costate(costate.mu + eps * V.v_mu,
                                              costate.xi + eps * V.v_xi)


def hamiltonian_field_check(model, gm, cost, a, n_directions=10,
                            fd_step=FD_STEP_CHECK, seed=0) -> float:
    """Max mismatch of Omega(X_H, V) against the directional derivative of H.

    X_H is the extremal field at ``a`` (control re-eliminated), dH is a
    central finite difference with the control re-eliminated at each
    shifted point.  Small residuals certify that the flow solves the
    symplectic equation.
    """
    u = eliminate_control(model, cost, a.state, a.costate.xi)
    a = ExtremalPoint(a.state, a.costate, u)
    r = extremal_rhs(model, gm, cost, a)
    X = TangentTuple(z=r.xdot_body, w=r.ydot, v_mu=r.mudot, v_xi=r.xidot)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(n_directions)):
        parts = rng.standard_normal(4 * model.n)
        parts /= np.linalg.norm(parts)
        V = TangentTuple(*np.split(parts, 4))
        lhs = symplectic_form(model, (a.state, a.costate), X, V)
        sp, cp = _shift_point(model, gm, a.state, a.costate, V, fd_step)
        sm, cm = _shift_point(model, gm, a.state, a.costate, V, -fd_step)
        hp = hamiltonian(model, cost, ExtremalPoint(sp, cp, eliminate_control(model, cost, sp, cp.xi)))
        hm = hamiltonian(model, cost, ExtremalPoint(sm, cm, eliminate_control(model, cost, sm, cm.xi)))
        worst = max(worst, abs(lhs - (hp - hm) / (2.0 * fd_step)))
    return worst


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
    """Wrap a scalar function with central-difference functional derivatives."""
    n = model.n
    eye = np.eye(n)

    def derivatives(s, c):
        dx = np.empty(n)
        dy = np.empty(n)
        dmu = np.empty(n)
        dxi = np.empty(n)
        for i in range(n):
            xp = groups.compose(s.x, groups.exp_map(gm, eye[i], step))
            xm = groups.compose(s.x, groups.exp_map(gm, eye[i], -step))
            dx[i] = (value_fn(State(xp, s.y), c) - value_fn(State(xm, s.y), c)) / (2 * step)
            dy[i] = (value_fn(State(s.x, s.y + step * eye[i]), c)
                     - value_fn(State(s.x, s.y - step * eye[i]), c)) / (2 * step)
            dmu[i] = (value_fn(s, Costate(c.mu + step * eye[i], c.xi))
                      - value_fn(s, Costate(c.mu - step * eye[i], c.xi))) / (2 * step)
            dxi[i] = (value_fn(s, Costate(c.mu, c.xi + step * eye[i]))
                      - value_fn(s, Costate(c.mu, c.xi - step * eye[i]))) / (2 * step)
        return dx, dy, dmu, dxi

    return Observable(value=value_fn, derivatives=derivatives)


def hamiltonian_observable(model, gm, cost) -> Observable:
    """The reduced Hamiltonian as an observable with analytic derivatives.

    The functional derivatives are read off the extremal field:
    dH/dmu = y, dH/dxi = ydot, dH/dy = -xidot and the trivialized
    dH/dx = ad_star(y, mu) - mudot.
    """

    def value(s, c):
        u = eliminate_control(model, cost, s, c.xi)
        return hamiltonian(model, cost, ExtremalPoint(s, c, u))

    def derivatives(s, c):
        u = eliminate_control(model, cost, s, c.xi)
        r = extremal_rhs(model, gm, cost, ExtremalPoint(s, c, u))
        dx = ad_star(model, s.y, c.mu) - r.mudot
        return dx, -r.xidot, s.y.copy(), r.ydot

    return Observable(value=value, derivatives=derivatives)


def poisson_bracket(model, f, g, p) -> float:
    """Linear Poisson bracket of two observables at p = (state, costate).

    Five-term formula: <g_x, f_mu> - <f_x, g_mu> + <g_y, f_xi>
    - <f_y, g_xi> + <mu, [f_mu, g_mu]>.  With this orientation
    {xi_i, y_j} = delta_ij and d/dt f = {H, f} along the extremal flow.
    """
    s, c = p
    fx, fy, fmu, fxi = f.derivatives(s, c)
    gx, gy, gmu, gxi = g.derivatives(s, c)
    return float(
        np.dot(gx, fmu) - np.dot(fx, gmu)
        + np.dot(gy, fxi) - np.dot(fy, gxi)
        + np.dot(c.mu, bracket(model, fmu, gmu))
    )


def spatial_momentum(gm, x, mu) -> np.ndarray:
    """Coadjoint-transported costate <mu, Ad_{x^{-1}} .> in coordinates.

    Constant along extremal flows of configuration-independent costs.
    """
    return groups.adjoint_matrix(gm, groups.inverse(gm, x)).T @ np.asarray(mu, dtype=float)
