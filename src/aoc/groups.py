"""Matrix Lie group layer: exp, log and group-aware integration steps.

Group elements are plain ``(d, d)`` numpy arrays (leading batch
dimensions broadcast through ``compose``, ``exp_map`` and the
integrator).  Reconstruction always uses the left-translation form
``xdot = x @ hat(y)``, so one step of the fourth order Munthe-Kaas
scheme composes ``x`` with the exponential of a bracket-corrected
combination of the stage velocities and stays on the manifold up to the
accuracy of ``exp``.

so(3) uses batched closed forms (Rodrigues for exp, quaternion
extraction for log) with series fallbacks below angle 1e-4 to avoid
cancellation.  The generic branch uses scaling and squaring on the
exponential series, with the scaling exponent and the last term chosen
per matrix, and delegates the logarithm to ``scipy.linalg.logm`` row by
row.  That is the only scipy use in the package, and it imports scipy on
its first call, so ``import aoc`` loads numpy alone.  On every branch
each row of a batch gets the bits it gets alone.  ``dexpinv``
forms the matrix ad(omega) once by a stacked matmul against the
structure constants and applies it twice; a stacked matmul runs the same
product per row, which keeps those bits.

``rkmk_integrate`` is the one stepper: the forward simulation, the
zero-order-hold rollout of the oracle and the extremal flows all step
through it, each in one call over its whole uniform grid.  A right-hand
side ``rhs(k, c, x, v)`` sees the index k of the step and its RK4 node c,
and the stepper returns the states of every grid point, the initial
state first.  Its one time loop, ``_rk4_loop``, keeps two rules for
every flow: a look at the record every FINITE_CHECK_STEPS steps, and a
one-row batch stepped as a vector.  ``munthe_kaas_increment`` is the one
place of the scheme's bracket-corrected combination.  For a vector field
that reads x each step of the loop is a coupled step
(``rkmk_coupled_step``), which carries x along.  One that does not,
which is every cost the CLI accepts, is split as Munthe-Kaas splits a
Lie-group integrator: the loop takes classical RK4 steps of v alone.
Either way the loop keeps the stage velocities, and batched passes after
the loop rebuild x from them with the coupled step's bits.  A split
field that also ignores the step and node and acts on each row alone
(the fused extremal field) takes the v-record of a flow of at least
PARAREAL_MIN_STEPS steps from Parareal in time (``_parareal``), which
matches the loop to rounding while a batch keeps each row's bits.
``_uniform_grid`` is the one check of a time grid, T and its step count,
for every caller of the stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, prod

import numpy as np

from .algebra import VALIDATE_TOL, CheckResult, LieAlgebraModel, ValidationReport, _count, _positive
from .errors import AngleOutOfRange, DimensionMismatch, NonFinite

SO3_MAX_LOG_ANGLE = np.pi - 1e-6
EXP_RTOL, EXP_MAX_TERMS = 1e-13, 60  # where _exp_series stops its series

# hat map of so(3): E_i v = e_i x v
_SO3_BASIS = np.array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                       [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                       [[0, -1, 0], [1, 0, 0], [0, 0, 0]]], dtype=float)
_EYE3 = np.eye(3)


@dataclass(frozen=True, eq=False)
class GroupModel:
    """Matrix representation of the group integrating a LieAlgebraModel.

    ``basis`` holds the n generator matrices (the hat map); ``unhat_pinv``
    is the precomputed pseudo-inverse used to project a matrix in the
    span of the generators back to coordinates.
    """

    algebra: LieAlgebraModel
    rep_dim: int
    basis: np.ndarray
    kind: str  # "so3" | "abelian" | "generic"
    unhat_pinv: np.ndarray


def _make_group(model, basis, kind) -> GroupModel:
    basis = np.asarray(basis, dtype=float)
    n, d = model.n, basis.shape[-1]
    if basis.shape != (n, d, d):
        raise DimensionMismatch(f"basis matrices must have shape {(n, d, d)}, got {basis.shape}")
    pinv = np.linalg.pinv(basis.reshape(n, d * d).T)
    return GroupModel(algebra=model, rep_dim=d, basis=basis, kind=kind, unhat_pinv=pinv)


def so3_group(model) -> GroupModel:
    if model.n != 3:
        raise DimensionMismatch("so3 group needs a 3-dimensional algebra")
    return _make_group(model, _SO3_BASIS.copy(), "so3")


def abelian_group(model) -> GroupModel:
    """R^n as (n+1)x(n+1) translation matrices (identity plus last column)."""
    n = model.n
    basis = np.zeros((n, n + 1, n + 1))
    for i in range(n):
        basis[i, i, n] = 1.0
    return _make_group(model, basis, "abelian")


def generic_group(model, basis_matrices) -> GroupModel:
    return _make_group(model, basis_matrices, "generic")


def hat(gm, y) -> np.ndarray:
    """Map coordinates to the matrix representation."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (gm.algebra.n,):
        raise DimensionMismatch(f"expected {gm.algebra.n} components, got shape {y.shape}")
    return np.einsum("...i,ijk->...jk", y, gm.basis)


def unhat(gm, M) -> np.ndarray:
    """Project a matrix in the span of the generators back to coordinates."""
    M = np.asarray(M, dtype=float)
    d = gm.rep_dim
    return np.einsum("ij,...j->...i", gm.unhat_pinv, M.reshape(M.shape[:-2] + (d * d,)))


def identity(gm) -> np.ndarray:
    return np.eye(gm.rep_dim)


def compose(a, b) -> np.ndarray:
    return np.matmul(a, b)


def inverse(gm, g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if gm.kind == "so3":
        return np.swapaxes(g, -1, -2)
    if gm.kind == "abelian":
        n = gm.algebra.n
        out = g.copy()
        out[..., :n, n] = -g[..., :n, n]
        return out
    return np.linalg.inv(g)


# -- so(3) closed forms ------------------------------------------------------

def _so3_exp(w):
    """Rodrigues formula, batched over leading dimensions of (..., 3); sin(t)/t
    and (1-cos t)/t^2 switch to their series below t = 1e-4."""
    w = np.asarray(w, dtype=float)
    theta2 = np.einsum("...i,...i->...", w, w)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    with np.errstate(invalid="ignore"):
        a = np.sin(theta) / np.where(small, 1.0, theta)
        b = (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2)
    if small.any():
        a = np.where(small, 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0, a)
        b = np.where(small, 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0, b)
    K = np.einsum("...i,ijk->...jk", w, _SO3_BASIS)
    return _EYE3 + a[..., None, None] * K + b[..., None, None] * np.matmul(K, K)


def _so3_log(R, max_angle):
    """Rotation vectors of a (B, 3, 3) stack by quaternion extraction: q is the
    row of Q = 4 q q^T (q = w, x, y, z) at the pivot (w if the trace is positive,
    else the largest diagonal axis) over 2 sqrt(pivot entry), which stays stable
    near pi where the skew part alone cancels."""
    t = R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2]
    d = np.diagonal(R, axis1=1, axis2=2)
    Q = np.empty((len(R), 4, 4))
    Q[:, 0, 0] = t + 1.0
    Q[:, 1:, 1:] = R + np.swapaxes(R, 1, 2)
    Q[:, [1, 2, 3], [1, 2, 3]] = 1.0 + d - d[:, [1, 0, 0]] - d[:, [2, 2, 1]]
    Q[:, 0, 1:] = Q[:, 1:, 0] = R[:, [2, 0, 1], [1, 2, 0]] - R[:, [1, 2, 0], [2, 0, 1]]
    rows = np.arange(len(R))
    pivot = np.where(t > 0.0, 0, 1 + np.argmax(d, axis=1))
    s = 2.0 * np.sqrt(np.maximum(Q[rows, pivot, pivot], 0.0))
    q = Q[rows, pivot] / s[:, None]
    q[rows, pivot] = 0.25 * s
    q *= np.where(q[:, :1] < 0.0, -1.0, 1.0)
    qw, qv = q[:, 0], np.ascontiguousarray(q[:, 1:])
    # a dot product and libm's atan2 per row, so every row gets the bits
    # of the one-matrix computation (numpy's SIMD arctan2 differs in the last bit)
    vn = np.sqrt(np.matmul(qv[:, None, :], qv[:, :, None])[:, 0, 0])
    angle = 2.0 * np.fromiter(map(atan2, vn.tolist(), qw.tolist()), float, len(vn))
    if (angle >= max_angle).any():
        raise AngleOutOfRange(
            f"rotation angle {angle.max():.6f} >= {max_angle:.6f}; log is ill conditioned here"
        )
    tiny = vn < 1e-12
    scale = angle / np.where(tiny, 1.0, vn)
    if tiny.any():
        scale[tiny] = 2.0 / qw[tiny]
    return scale[:, None] * qv


# -- generic matrix exponential ----------------------------------------------

def _exp_series(A):
    """Scaling and squaring on the exponential series, batched.  Each matrix
    takes its own scaling exponent and stopping term, so every row of a batch
    gets the bits it gets alone."""
    A = np.asarray(A, dtype=float)
    nrm = np.sqrt(np.einsum("...ij,...ij->...", A, A))
    m, e = np.frexp(nrm)
    s = np.where(nrm > 0.5, e + (m > 0.5), 0)  # ceil(log2(nrm / 0.5)), exactly
    B = np.ldexp(A, -s[..., None, None])
    out = np.eye(A.shape[-1]) + B
    term = B
    done = np.zeros(A.shape[:-2], dtype=bool)
    for k in range(2, EXP_MAX_TERMS + 1):
        term = np.matmul(term, B) / k
        out = np.where(done[..., None, None], out, out + term)
        done |= (np.abs(term).max(axis=(-2, -1))
                 <= EXP_RTOL * np.maximum(np.abs(out).max(axis=(-2, -1)), 1.0))
        if done.all():
            break
    for i in range(int(s.max(initial=0))):
        out = np.where((s > i)[..., None, None], np.matmul(out, out), out)
    return out


def exp_map(gm, y, t=1.0) -> np.ndarray:
    """exp(t * hat(y)), batched over leading dimensions of y."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (gm.algebra.n,):
        raise DimensionMismatch(f"expected {gm.algebra.n} components, got shape {y.shape}")
    w = t * y
    if gm.kind == "so3":
        return _so3_exp(w)
    if gm.kind == "abelian":
        # generators are nilpotent of order 2, the series terminates
        out = np.broadcast_to(np.eye(gm.rep_dim), w.shape[:-1] + (gm.rep_dim,) * 2).copy()
        out[..., : gm.algebra.n, gm.algebra.n] = w
        return out
    return _exp_series(hat(gm, w))


def log_map(gm, g, max_angle=SO3_MAX_LOG_ANGLE) -> np.ndarray:
    """Smallest-magnitude algebra coordinates with exp_map(log_map(g)) = g.

    Raises AngleOutOfRange outside the injectivity radius (for so3 the
    default cutoff is pi - 1e-6; pass a larger ``max_angle`` to relax).
    """
    g = np.asarray(g, dtype=float)
    d = gm.rep_dim
    if g.shape[-2:] != (d, d):
        raise DimensionMismatch(f"expected {(d, d)} matrices, got shape {g.shape}")
    if gm.kind == "abelian":
        return g[..., : gm.algebra.n, gm.algebra.n].copy()
    lead = g.shape[:-2]
    flat_g = g.reshape((-1, d, d))
    if gm.kind == "so3":
        return _so3_log(flat_g, max_angle).reshape(lead + (3,))
    import scipy.linalg  # here, not at module level: see the module docstring

    out = np.empty((flat_g.shape[0], gm.algebra.n))
    for b in range(flat_g.shape[0]):
        L = scipy.linalg.logm(flat_g[b])
        if np.abs(L.imag).max() > 1e-9:
            raise AngleOutOfRange("matrix logarithm left the real algebra")
        coords = unhat(gm, L.real)
        back = exp_map(gm, coords)
        if np.abs(back - flat_g[b]).max() > 1e-9 * (1.0 + np.abs(flat_g[b]).max()):
            raise AngleOutOfRange("logarithm round trip failed; element outside chart")
        out[b] = coords
    return out.reshape(lead + (gm.algebra.n,))


# -- Munthe-Kaas integration --------------------------------------------------

def dexpinv(model, omega, v) -> np.ndarray:
    """Inverse differential of exp truncated for order 4:
    v + [omega, v]/2 + [omega, [omega, v]]/12, with the matrix ad(omega)
    formed once, by a stacked matmul of omega against the structure
    constants held as an (n, n n) matrix, and applied twice by stacked
    matmuls, so each row of a batch gets the bits it gets alone."""
    n = model.n
    Ct = model.C.transpose(1, 0, 2).reshape(n, n * n)
    ad = (omega[..., None, :] @ Ct).reshape(omega.shape[:-1] + (n, n))
    c1 = (ad @ v[..., None])[..., 0]
    return v + 0.5 * c1 + (ad @ c1[..., None])[..., 0] / 12.0


def munthe_kaas_increment(model, h, z1, stage):
    """The bracket-corrected increment omega of one fourth order Munthe-Kaas
    step, so that x advances to x exp(omega).

    ``z1`` is the body velocity at the start of the step and ``stage(i, theta)``
    returns the body velocity of stage i = 1, 2, 3 (times t + h/2, t + h/2,
    t + h), taken at the group element x exp(theta).  All arrays broadcast
    over leading dimensions, a leading axis of steps included.
    """
    th = 0.5 * h * z1
    k2 = dexpinv(model, th, stage(1, th))
    th = 0.5 * h * k2
    k3 = dexpinv(model, th, stage(2, th))
    th = h * k3
    k4 = dexpinv(model, th, stage(3, th))
    return (h / 6.0) * (z1 + 2.0 * k2 + 2.0 * k3 + k4)


_RK4_NODES = (0.0, 0.5, 0.5, 1.0)


def rkmk_coupled_step(gm, x, v, k, h, rhs):
    """Step k (0-based) of the fourth order Munthe-Kaas scheme for
    (x in G, v in R^p) whose vector field reads x.

    ``rhs(k, c, x, v) -> (z, vdot)`` returns, at the RK4 node c in
    {0, 0.5, 1} of step k, the body velocity ``z`` of the group part and the
    plain derivative of the vector part; all arrays broadcast over leading
    batch dimensions.  Each stage is evaluated at its own group element
    x exp(theta), and v takes the classical RK4 step.  Returns the new x and
    v and the four stage velocities z1..z4.
    """
    z1, f1 = rhs(k, 0.0, x, v)
    zs, fs = [z1], [f1]

    def stage(i, theta):
        c = _RK4_NODES[i]
        z, f = rhs(k, c, compose(x, exp_map(gm, theta)), v + c * h * fs[-1])
        zs.append(z)
        fs.append(f)
        return z

    omega = munthe_kaas_increment(gm.algebra, h, z1, stage)
    f1, f2, f3, f4 = fs
    return (compose(x, exp_map(gm, omega)), v + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
            tuple(zs))


# rows times steps per batched reconstruction pass: its temporaries take about
# 0.5 kB per row and step on so(3), so a pass stays under a few MB however
# long or wide the flow
_PASS_ROWS = 4096

# Parareal (``_parareal``) steps a flow of at least PARAREAL_MIN_STEPS steps in
# PARAREAL_SEGMENTS segments.  A row takes part only if one RK4 step over each
# pair of segments lands within PARAREAL_MAX_COARSE_ERROR of the row's scale of
# the pair's two coarse steps: that gap foretells the sweeps the row needs.  A
# row stops once its largest correction is at most PARAREAL_ULPS ulps of its
# scale, and reruns the sequential loop if it has not after
# PARAREAL_MAX_SWEEPS sweeps.  Paired so(3), se(2) and abelian flows set the
# values (BENCH_pr18_parareal.json; ROADMAP item 5 has the figures).  Stopped
# rows' corrections settle at up to 7.3 ulps, so a stop at 8 ulps would cost
# 11 of them a fourth sweep.
PARAREAL_MIN_STEPS = 500
PARAREAL_SEGMENTS = 20
PARAREAL_MAX_COARSE_ERROR = 1e-6
PARAREAL_MAX_SWEEPS = 4
PARAREAL_ULPS = 16

# every flow looks at its record every FINITE_CHECK_STEPS steps, not after each:
# a look costs about 2.7 us of a 47 us step of a 1-row so(3) extremal flow, and
# a flow runs at most FINITE_CHECK_STEPS - 1 steps past its first bad step
FINITE_CHECK_STEPS = 32


def _uniform_grid(T, steps):
    """``(steps, h)`` of the uniform grid of ``steps`` steps over [0, T], the
    one check of a time grid in the package: ``steps`` must be an integer of
    at least 1 and T a finite positive real (``algebra._positive``), else
    ValueError."""
    steps = _count(steps, "steps")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return steps, _positive(T, "T") / steps


def _reconstruct(gm, zs, h, xs):
    """Fill ``xs[1:]`` with x after the steps whose stage velocities are ``zs``
    (4, steps, ..., n), from x = ``xs[0]``: the increments and their
    exponentials in one batched pass, then the product over the steps in order."""
    omega = munthe_kaas_increment(gm.algebra, h, zs[0], lambda i, theta: zs[i])
    es = exp_map(gm, omega)
    for k in range(len(es)):
        xs[k + 1] = compose(xs[k], es[k])


def _rk4_step(x, v, k, h, rhs):
    """Step k of classical RK4 on v for a field that ignores x: the four stage
    velocities and the new v."""
    z1, f1 = rhs(k, 0.0, x, v)
    z2, f2 = rhs(k, 0.5, x, v + 0.5 * h * f1)
    z3, f3 = rhs(k, 0.5, x, v + 0.5 * h * f2)
    z4, f4 = rhs(k, 1.0, x, v + h * f3)
    return (z1, z2, z3, z4), v + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)


def _looks_bad(k, vs):
    """Whether step k (0-based) ends a span of FINITE_CHECK_STEPS steps, where
    the loop looks at its record ``vs``, with a state that is not finite."""
    if (k + 1) % FINITE_CHECK_STEPS:
        return False
    return not np.isfinite(vs[k + 2 - FINITE_CHECK_STEPS:k + 2]).all()


def _finite_steps(*records):
    """The number of steps before the first whose state in a record is not finite."""
    finite = np.logical_and.reduce([np.isfinite(r[1:]).all(axis=tuple(range(1, r.ndim)))
                                    for r in records])
    return len(finite) if finite.all() else int(np.argmin(finite))


def _rk4_loop(x, steps, h, rhs, vs, look=True, coupled=None):
    """``steps`` RK4 steps of v from ``vs[0]``, filling ``vs[1:]``.  Returns the
    stage velocities, shape (4, steps, ..., n), and the number of steps
    recorded: with ``look`` the loop stops at a look (``_looks_bad``) that
    finds a v that is not finite.  A field that ignores x is passed ``x`` at
    every stage; with ``coupled``, the group model of a field that reads x,
    each step is a coupled step (``rkmk_coupled_step``), which carries x
    along without recording it.  A one-row batch steps as a vector, v and x
    both, which numpy's matmul runs faster than a stack of one, same bits."""
    batch = vs.shape[1:-1]
    lone = batch and prod(batch) == 1
    if lone:
        vs, x = vs[(slice(None),) + (0,) * len(batch)], np.reshape(x, np.shape(x)[-2:])
    v, zs, recorded = vs[0], None, steps
    for k in range(steps):
        if coupled is None:
            z, v = _rk4_step(x, v, k, h, rhs)
        else:
            x, v, z = rkmk_coupled_step(coupled, x, v, k, h, rhs)
        if zs is None:
            zs = np.empty((4, steps) + np.shape(z[0]))
        zs[:, k] = z
        vs[k + 1] = v
        if look and _looks_bad(k, vs):
            recorded = k + 1
            break
    if lone and zs is not None:
        zs = zs.reshape((4, steps) + batch + zs.shape[-1:])
    return zs, recorded


def _parareal(x, steps, h, rhs, vs):
    """The v-record of ``steps`` RK4 steps by Parareal (Lions, Maday and
    Turinici 2001), for rows ``vs[0]`` of shape (R, p) and their x (R, d, d);
    fills ``vs[1:]`` and returns the stage velocities (4, steps, R, n) and
    the number of steps recorded, as ``_rk4_loop`` does.

    The grid is cut into K segments.  The fine propagator F is the RK4 loop,
    run as one batch over the K x R segment starts, without a look, so that
    a row that blows up does not cut the sweep of the others; the coarse
    propagator G is one RK4 step over each segment.  A sweep sets U[i + 1] =
    F(U_old[i]) + (G(U_new[i]) - G(U_old[i])) in order.  Every choice is per
    row, so a row of a batch gets the bits it gets alone.  A row takes part
    if its coarse pass is finite and one RK4 step over each pair of segments
    ends within PARAREAL_MAX_COARSE_ERROR of its scale of the pair's two
    coarse steps; a row whose largest correction is at most PARAREAL_ULPS
    ulps of its scale keeps the record of its last fine sweep and leaves the
    iteration; a row that does not take part, goes non-finite in a sweep or
    reaches PARAREAL_MAX_SWEEPS reruns the sequential loop.
    """
    K = PARAREAL_SEGMENTS
    R, p = vs.shape[1:]
    q, r = divmod(steps, K)
    lengths = np.array([q + 1] * r + [q] * (K - r))
    first = np.concatenate([[0], np.cumsum(lengths)])
    # the segments of q steps run one step past their end in a sweep of q + 1
    past_end = np.arange(q + (r > 0) + 1)[:, None] > lengths
    U = np.empty((K + 1, R, p))
    G = np.empty((K, R, p))
    U[0] = vs[0]
    for i in range(K):
        z, U[i + 1] = _rk4_step(x, U[i], 0, lengths[i] * h, rhs)
        G[i] = U[i + 1]
    # one RK4 step over each pair of segments, all pairs as one batch, against
    # the pair's two coarse steps; a NaN gap compares false
    pairs = (lengths[0:K - 1:2] + lengths[1:K:2])[:, None, None] * h
    gap = np.abs(_rk4_step(x, U[0:K - 1:2], 0, pairs, rhs)[1] - U[2:K + 1:2]).max(axis=(0, 2))
    zs = np.empty((4, steps, R, z[0].shape[-1]))
    active = np.flatnonzero(np.isfinite(U).all(axis=(0, 2))
                            & (gap <= PARAREAL_MAX_COARSE_ERROR * np.abs(U).max(axis=(0, 2))))
    converged = np.zeros(R, dtype=bool)
    for _ in range(PARAREAL_MAX_SWEEPS):
        if not len(active):
            break
        fine = np.empty((len(past_end), K, len(active), p))
        fine[0] = U[:K, active]
        zf, _ = _rk4_loop(x[active], len(past_end) - 1, h, rhs, fine, look=False)
        ends = fine[lengths, np.arange(K)]
        # coarse[i] holds G(U_old[i]) of the active rows, then G(U_new[i])
        old, coarse = U[:, active], G[:, active]
        new = np.empty_like(old)
        new[0] = old[0]
        for i in range(K):
            g = _rk4_step(x[active], new[i], 0, lengths[i] * h, rhs)[1]
            new[i + 1] = ends[i] + (g - coarse[i])
            coarse[i] = g
        finite = (np.isfinite(new).all(axis=(0, 2))
                  & (np.isfinite(fine).all(axis=3) | past_end[:, :, None]).all(axis=(0, 1)))
        scale = np.abs(new).max(axis=(0, 2))
        done = finite & (np.abs(new - old).max(axis=(0, 2))
                         <= PARAREAL_ULPS * np.finfo(float).eps * scale)
        rows = active[done]
        converged[rows] = True
        for i in range(K):
            span = slice(first[i], first[i + 1])
            zs[:, span, rows] = zf[:, :lengths[i], i, done]
            vs[span, rows] = fine[:lengths[i], i, done]
        vs[steps, rows] = ends[K - 1, done]
        U[:, active], G[:, active] = new, coarse
        active = active[finite & ~done]
    rerun = ~converged
    recorded = steps
    if rerun.any():
        alone = np.empty((steps + 1, int(rerun.sum()), p))
        alone[0] = vs[0, rerun]
        zs[:, :, rerun], recorded = _rk4_loop(x[rerun], steps, h, rhs, alone)
        vs[:, rerun] = alone
    return zs, recorded


def rkmk_integrate(gm, x, v, steps, h, rhs, needs_x=False, parareal=False):
    """``steps`` RK-MK steps of size ``h`` through the one time loop of the
    package (``_rk4_loop``).

    ``rhs`` is as in ``rkmk_coupled_step``.  With ``needs_x`` each step of
    the loop is a coupled step.  Otherwise rhs must ignore x (it is passed
    the initial x), and the step splits: the loop takes classical RK4 steps
    of v.  Either way the loop keeps the four stage velocities z1..z4 of
    every step, and x is reconstructed from them after the loop
    (``_reconstruct``), with the bits of the coupled step.  Returns the flow
    (xs, vs) on the grid: steps + 1 states, the initial one first, of the
    batch of x and v broadcast together.

    Every flow keeps two rules.  The loop looks at its record of v every
    FINITE_CHECK_STEPS steps and stops at a look that finds a state that is
    not finite (so rhs must return on one, not raise); ``_finite_steps``
    places the first such step over v and the x rebuilt up to the first bad
    v, for NonFinite.  And a one-row batch steps as a vector (``_rk4_loop``).

    ``parareal`` marks a split field that also ignores (k, c) and acts on
    each row alone: a flow of at least PARAREAL_MIN_STEPS steps then takes
    the v-record of ``_parareal``, which matches the loop to rounding
    rather than bit for bit in the rows that take part in the iteration.
    """
    lead = np.broadcast_shapes(np.shape(x)[:-2], np.shape(v)[:-1])
    xs = np.empty((steps + 1,) + lead + np.shape(x)[-2:])
    vs = np.empty((steps + 1,) + lead + np.shape(v)[-1:])
    xs[0], vs[0] = x, v
    with np.errstate(over="ignore", invalid="ignore"):
        if parareal and not needs_x and steps >= PARAREAL_MIN_STEPS:
            zs, recorded = _parareal(xs[0].reshape((-1,) + xs.shape[-2:]), steps, h, rhs,
                                     vs.reshape(steps + 1, -1, vs.shape[-1]))
            zs = zs.reshape((4, steps) + lead + zs.shape[-1:])
        else:
            zs, recorded = _rk4_loop(xs[0], steps, h, rhs, vs, coupled=gm if needs_x else None)
        done = _finite_steps(vs[:recorded + 1])
        per_pass = max(1, _PASS_ROWS // max(1, prod(lead)))
        for j in range(0, done, per_pass):
            stop = min(j + per_pass, done)
            _reconstruct(gm, zs[:, j:stop], h, xs[j:stop + 1])
        done = _finite_steps(vs[:done + 1], xs[:done + 1])
    if done < steps:
        raise NonFinite(done + 1)
    return xs, vs


def reconstruct_step(gm, x, y_of_t, t, h) -> np.ndarray:
    """Advance x by one step of the group integrator for a known y(t); h must
    be finite and positive (``_uniform_grid``)."""
    _, h = _uniform_grid(h, 1)
    empty = np.zeros(0)

    def rhs(_k, c, _x, _v):
        return np.asarray(y_of_t(t + c * h), dtype=float), empty

    return rkmk_integrate(gm, np.asarray(x, dtype=float), empty, 1, h, rhs)[0][-1]


def orthogonality_defect(g) -> float:
    """Frobenius norm of g^T g - I (group-manifold drift measure for so3)."""
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    return float(np.linalg.norm(np.matmul(np.swapaxes(g, -1, -2), g) - np.eye(d)))


def adjoint_matrix(gm, g) -> np.ndarray:
    """Matrix of Ad_g in the model basis: columns are unhat(g E_j g^{-1})."""
    ginv = inverse(gm, g)
    conj = np.einsum("ab,nbc,cd->nad", np.asarray(g, dtype=float), gm.basis, ginv)
    return unhat(gm, conj).T


def validate_group(gm):
    """Check commutator consistency of the representation (reports, no throw)."""
    n = gm.algebra.n
    comm = np.einsum("iab,jbc->ijac", gm.basis, gm.basis)
    comm = comm - np.transpose(comm, (1, 0, 2, 3))
    expected = np.einsum("kij,kab->ijab", gm.algebra.C, gm.basis)
    res = float(np.abs(comm - expected).max())
    checks = [CheckResult("commutator_consistency", res < VALIDATE_TOL, res)]
    if gm.kind == "so3":
        res = float(np.abs(gm.basis + np.transpose(gm.basis, (0, 2, 1))).max())
        checks.append(CheckResult("so3_skew_generators", res < VALIDATE_TOL, res))
    return ValidationReport(tuple(checks))
