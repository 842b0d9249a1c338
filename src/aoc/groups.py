"""Matrix Lie group layer: exp, log and group-aware integration steps.

Group elements are plain ``(d, d)`` numpy arrays, composed by ``@``
(leading batch dimensions broadcast through it, ``exp_map`` and the
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
structure constants as the model holds them (``ad_form``) and applies it
twice; a stacked matmul runs the same product per row, which keeps those
bits.

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
(``rkmk_coupled_step``), which carries x along, and the loop records that
x.  One that does not, which is every cost the CLI accepts, is split as
Munthe-Kaas splits a Lie-group integrator: the loop takes RK4 steps of v
alone and keeps the stage velocities, and batched passes after the loop
(``_reconstruct``) rebuild x from them.  A callable field takes classical
RK4 steps over its rhs: four right-hand sides and 13 more numpy calls a
step.  A field that carries a lifted matrix ``Kf``, with vdot =
[v, y (x) v] @ Kf (the fused extremal field), takes lifted RK4 steps
(``_lifted_loop``): per stage one outer product into a lift buffer and one
matrix product with the stage's coefficients times h Kf give the next
stage input and the stage's share of the step, 15 calls a step in all,
which matches classical RK4 over the field's rhs to rounding.  The loop
lays its state (..., p, m), and the m columns of each (p, m) matrix share
those products; with m = 1 the buffers hold the memory of rows, and each
row of a flow is its own stacked product, lift @ M.  A state of one such
matrix (a lone row, or the segments of one Parareal row) takes its
products by ``ndarray.dot``, the BLAS call of matmul at less cost per
call, with the same bits.  Those stage
matrices are formed once per field and step size, and the field keeps them
read-only (``_stages``), so a short flow does not pay for them.  Below
PARAREAL_MIN_STEPS steps x is the product of the step exponentials in
order, with the coupled step's bits for a callable field.  A longer flow
multiplies them by the segments that Parareal cuts (``_segments``), in
about steps / segments + segments stacked matmuls rather than one per
step, and matches the coupled step to rounding.  A field that carries ``Kf`` also ignores the step and node and
acts on each row alone, so it takes the v-record of a flow of at least
PARAREAL_MIN_STEPS steps from Parareal in time (``_parareal``), which
matches the loop to rounding.  Its fine sweep lays the segments of each
flow row as the m = segments columns of one matrix, so that per stage one
product M^T @ lift of as many columns as there are segments serves them,
and the outer product and the adds run on contiguous (p, segments)
blocks.  It never multiplies the segments of several flow rows together:
the bits of a product's columns depend on its column count, so a row's
bits would then depend on the batch.  Its coarse steps are lifted steps
with the field's stage matrices of each segment length, and with buffers
(``_lifted_stepper``) it builds once per pass over the segments.
Either way a batch keeps each row's bits.
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
    near pi where the skew part alone cancels.  When every trace is positive,
    as near the identity, every pivot is w and Q is not formed: q = (s / 4,
    skew / s) with s = 2 sqrt(1 + trace), the same operations on the same
    entries, and w > 0 needs no sign flip."""
    t = R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2]
    flat = R.reshape(-1, 9)
    skew = flat[:, [7, 2, 3]] - flat[:, [5, 6, 1]]  # R21 - R12, R02 - R20, R10 - R01
    if (t > 0.0).all():
        s = 2.0 * np.sqrt(t + 1.0)
        qw, qv = 0.25 * s, skew / s[:, None]
    else:
        d = np.diagonal(R, axis1=1, axis2=2)
        Q = np.empty((len(R), 4, 4))
        Q[:, 0, 0] = t + 1.0
        Q[:, 1:, 1:] = R + np.swapaxes(R, 1, 2)
        Q[:, [1, 2, 3], [1, 2, 3]] = 1.0 + d - d[:, [1, 0, 0]] - d[:, [2, 2, 1]]
        Q[:, 0, 1:] = Q[:, 1:, 0] = skew
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
    formed once, by a stacked matmul of omega against the model's
    ``ad_form`` (the structure constants as an (n, n n) matrix, built with
    the model), and applied twice by stacked matmuls, so each row of a batch
    gets the bits it gets alone."""
    n = model.n
    ad = (omega[..., None, :] @ model.ad_form).reshape(omega.shape[:-1] + (n, n))
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
_RK4_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
# the lifted step's coefficients: each stage's next node (0 after the last), weight
_STAGE_COEFS = np.array([_RK4_NODES[1:] + (0.0,), _RK4_WEIGHTS]).T


def rkmk_coupled_step(gm, x, v, k, h, rhs):
    """Step k (0-based) of the fourth order Munthe-Kaas scheme for
    (x in G, v in R^p) whose vector field reads x.

    ``rhs(k, c, x, v) -> (z, vdot)`` returns, at the RK4 node c in
    {0, 0.5, 1} of step k, the body velocity ``z`` of the group part and the
    plain derivative of the vector part; all arrays broadcast over leading
    batch dimensions.  Each stage is evaluated at its own group element
    x exp(theta), and v takes the classical RK4 step.  Returns the new x and
    v.
    """
    z1, f1 = rhs(k, 0.0, x, v)
    fs = [f1]

    def stage(i, theta):
        c = _RK4_NODES[i]
        z, f = rhs(k, c, x @ exp_map(gm, theta), v + c * h * fs[-1])
        fs.append(f)
        return z

    omega = munthe_kaas_increment(gm.algebra, h, z1, stage)
    f1, f2, f3, f4 = fs
    return x @ exp_map(gm, omega), v + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)


# rows times steps per batched reconstruction pass: its temporaries take about
# 0.5 kB per row and step on so(3), so a pass stays under a few MB however
# long or wide the flow
_PASS_ROWS = 4096

# Parareal (``_parareal``) steps a flow of at least PARAREAL_MIN_STEPS steps in
# PARAREAL_SEGMENTS segments, and ``_reconstruct`` multiplies the x of any split
# flow that long by the same segments (``_segments``).  A row takes part only
# if one RK4 step over each pair of segments lands within
# PARAREAL_MAX_COARSE_ERROR of the row's scale of the pair's two coarse steps:
# that gap foretells the sweeps the row needs.  A row stops once its largest
# correction is at most PARAREAL_ULPS ulps of its scale, and reruns the
# sequential loop if it has not after PARAREAL_MAX_SWEEPS sweeps.  Paired so(3),
# se(2) and abelian flows set the values (BENCH_pr18_parareal.json has the
# figures).  Stopped rows' corrections settle at up to 7.3 ulps, so a stop at
# 8 ulps would cost 11 of them a fourth sweep.
PARAREAL_MIN_STEPS = 500
PARAREAL_SEGMENTS = 20
PARAREAL_MAX_COARSE_ERROR = 1e-6
PARAREAL_MAX_SWEEPS = 4
PARAREAL_ULPS = 16

# the most steps of a time grid: a one-row so(3) extremal flow takes about
# 0.4 kB per step, so a flow at the ceiling takes about 0.4 GB
MAX_STEPS = 10 ** 6

# every flow looks at its record every FINITE_CHECK_STEPS steps, not after each:
# a look costs about 1.7 us, against about 7 us for a lifted step of a 1-row so(3)
# extremal flow (BENCH_pr38_lone_row_dot.json), and a flow runs at most
# FINITE_CHECK_STEPS - 1 steps past its first bad step
FINITE_CHECK_STEPS = 32


def _uniform_grid(T, steps):
    """``(steps, h)`` of the uniform grid of ``steps`` steps over [0, T], the
    one check of a time grid in the package: ``steps`` must be an integer
    from 1 to MAX_STEPS (``algebra._count``), T a finite positive real
    (``algebra._positive``), and the grid times, k h before the last and T at
    the last as ``np.linspace`` places them, must strictly increase; else
    ValueError, which names ``steps`` or T."""
    steps = _count(steps, "steps", 1, MAX_STEPS)
    h = _positive(T, "T") / steps
    if not (h > 0.0 and (steps - 1) * h < T):
        raise ValueError(f"T must leave the {steps + 1} grid times strictly increasing, "
                         f"got {T!r}")
    return steps, h


def _segments(steps):
    """The partition of a grid of ``steps`` steps into PARAREAL_SEGMENTS
    segments, the longer ones first: their lengths, the first step of each
    followed by ``steps``, and the runs (i, j) of segments i to j - 1 of one
    length."""
    q, r = divmod(steps, PARAREAL_SEGMENTS)
    lengths = np.array([q + 1] * r + [q] * (PARAREAL_SEGMENTS - r))
    runs = [(i, j) for i, j in ((0, r), (r, PARAREAL_SEGMENTS)) if j > i]
    return lengths, np.concatenate([[0], np.cumsum(lengths)]), runs


def _reconstruct(gm, zs, h, xs):
    """Fill ``xs[1:len(zs[0]) + 1]`` with x after the steps whose stage
    velocities are ``zs`` (4, done, ..., n), from x = ``xs[0]``, in batched
    passes of at most _PASS_ROWS rows times steps that form the increments and
    their exponentials.  A record ``xs`` of fewer than PARAREAL_MIN_STEPS steps
    takes the product over the steps in order, by ``ndarray.dot`` for one
    row, matmul's BLAS call at less cost per call.  A longer one takes it by
    the segments of ``_segments``, cut from the record's grid alone: the
    exponentials go into the record, every segment's prefix products are
    formed there at once, and then each segment is carried from its first x
    in order.  Steps from ``done`` on take the identity."""
    done, steps = zs.shape[1], len(xs) - 1
    rows, square = prod(xs.shape[1:-2]), xs.shape[-2:]
    per_pass = max(1, _PASS_ROWS // max(1, rows))
    chain, multiply = xs, np.matmul
    if rows == 1:
        chain, multiply = xs.reshape((steps + 1,) + square), np.ndarray.dot
    for j in range(0, done, per_pass):
        stop = min(j + per_pass, done)
        omega = munthe_kaas_increment(gm.algebra, h, zs[0, j:stop], lambda i, theta: zs[i, j:stop])
        es = exp_map(gm, omega)
        if steps >= PARAREAL_MIN_STEPS:
            xs[j + 1:stop + 1] = es
        else:
            if rows == 1:
                es = es.reshape((-1,) + square)
            for x, e, following in zip(chain[j:stop], es, chain[j + 1:stop + 1]):
                multiply(x, e, following)
    if steps < PARAREAL_MIN_STEPS:
        return
    xs[done + 1:] = np.eye(xs.shape[-1])
    lengths, first, runs = _segments(steps)
    # the segments of each length as one (segments, length, ...) view of the record
    for i, j in runs:
        run = xs[1 + first[i]:1 + first[j]].reshape((j - i, lengths[i]) + xs.shape[1:])
        for t in range(1, run.shape[1]):
            np.matmul(run[:, t - 1], run[:, t], out=run[:, t])
    for i in range(len(lengths)):
        span = xs[1 + first[i]:1 + first[i + 1]]
        np.matmul(xs[first[i]], span, out=span)


def _stage_matrices(Kf, h):
    """The four matrices [c h Kf | b h Kf] of a lifted RK4 step of size h, each
    stage's weight b next to the node c of the stage after it (0 after the last),
    stacked (4, ..., (n + 1) p, 2 p) and read-only.  h is a scalar or one per
    product, of a shape (..., 1) that broadcasts against the (..., m) of a
    state laid (..., p, m) with m = 1 as in ``_lifted_stepper``; either way
    each product c h and b h has the bits it has alone."""
    h = np.asarray(h)
    coefs = _STAGE_COEFS.reshape((4,) + (1,) * max(h.ndim - 1, 0) + (1, 2, 1))
    M = (coefs * h[..., None, None]) * Kf[:, None, :]
    M = M.reshape(M.shape[:-2] + (-1,))
    M.flags.writeable = False  # a field's cache (``_stages``) hands it to every flow
    return M


def _stages(rhs, h):
    """The ``_stage_matrices`` of steps of size h for a field that carries Kf:
    for a scalar h, the field's own (``rhs.stages(h)``), which it forms once per
    step size, and for one h per product, new ones."""
    return rhs.stages(h) if isinstance(h, float) else _stage_matrices(rhs.Kf, h)


def _lifted_stepper(Ms, shape):
    """Lifted RK4 steps of a field vdot = [v, y (x) v] @ Kf for a state laid
    as ``shape``, (..., p, m) or a vector (p,), with buffers and views built
    once for every step size whose ``_stage_matrices`` are listed in ``Ms``.
    The four stage inputs u sit in one buffer as columns (1, u), so that per
    stage one outer product (1, y) (x) u into the lift buffer and one product
    with the stage's matrices give the next stage input v + G[:p] and the
    stage's share g = b h vdot of the step.  The m columns of each (p, m)
    matrix of the state share that product, M^T @ lift, whose bits under
    OpenBLAS depend on m and on each column's place in it, so a caller that
    needs each column's bits alone lays m = 1.  The buffers then hold the
    memory of rows, and each row is its own product lift @ M, stacked over the
    leading dimensions.  A state of one matrix, a vector or (..., p, m) with
    every leading dimension 1, stepped with one h per step size, takes each
    product by ``ndarray.dot`` into the same buffers, and with m = 1 each
    outer product too: the BLAS call that matmul makes, with the same bits,
    at about 0.4 us a call against 0.8-1.2 us for matmul and np.multiply at
    the so(3) m = 3 stage shape.  Returns the stage input v, the stage
    y's (4, ..., n, m) and ``step(i, out)``, which steps from v by the i-th
    step size and writes v + (((g1 + g2) + g3) + g4) into ``out``, leaving v
    and the stage y's as the step found them: 4 outer products, 4 products and
    5 adds."""
    cols = shape[-1:] if len(shape) > 1 else ()
    lead, p = shape[:-1 - len(cols)], shape[-1 - len(cols)]
    c = (slice(None),) * len(cols)  # all columns, after an index into the (1 + p) axis
    width, m = Ms[0].shape[-2], prod(cols)
    n = width // p - 1
    S = np.ones((4,) + lead + (1 + p,) + cols)  # the 1 of (1, u) is never written
    lift = np.empty(lead + (width,) + cols)
    G = np.empty((4,) + lead + (2 * p,) + cols)
    y1s, us = S[np.s_[..., :n + 1, None] + c], S[np.s_[..., None, 1:] + c]
    outer, multiply, product = lift.reshape(lead + (n + 1, p) + cols), np.multiply, np.matmul
    if prod(lead) == 1 and Ms[0].ndim == 3:
        # with m = 1, the outer product of k = 1 by ndarray.dot gives np.multiply's
        # bits but for the signs of zeros, which no sum of the product keeps
        product = np.ndarray.dot
        if m == 1:
            flat, s = lift.reshape(width), S.reshape(4, 1 + p)
            products = [[(flat, M, g) for M, g in zip(Mi, G.reshape(4, 2 * p))] for Mi in Ms]
            y1s, us, outer = s[:, :n + 1, None], s[:, None, 1:], flat.reshape(n + 1, p)
            multiply = np.ndarray.dot
        else:
            flat = lift.reshape(width, m)
            products = [[(M.T, flat, g) for M, g in zip(Mi, G.reshape(4, 2 * p, m))]
                        for Mi in Ms]
    elif m == 1:
        rows = lead + cols
        products = [[(lift.reshape(rows + (width,)), M, g.reshape(rows + (2 * p,)))
                     for M, g in zip(Mi, G)] for Mi in Ms]
    else:
        products = [[(np.swapaxes(M, -1, -2), lift, g) for M, g in zip(Mi, G)] for Mi in Ms]
    u, shares = S[np.s_[..., 1:] + c], G[np.s_[..., p:] + c]
    views = list(zip(y1s, us, G[np.s_[..., :p] + c], list(u[1:]) + [None]))
    stages = [[view + product for view, product in zip(views, Pi)] for Pi in products]
    v = u[0]

    def step(i, out):
        for y1, ui, move, following, a, b, g in stages[i]:
            multiply(y1, ui, outer)
            product(a, b, g)
            if following is not None:
                np.add(v, move, out=following)
        np.add(v, np.add.reduce(shares, axis=0), out=out)

    return v, S[np.s_[..., 1:n + 1] + c], step


def _lifted_loop(rhs, steps, h, vs, look):
    """``steps`` lifted RK4 steps (``_lifted_stepper``) of a field ``rhs`` that
    carries Kf, vdot = [v, y (x) v] @ Kf, from ``vs[0]``, filling ``vs[1:]``,
    with the stage matrices of ``_stages``, and with the return and
    the look of ``_rk4_loop``.  Each record ``vs[k]`` is laid as the stepper's
    state, so the m columns of each (p, m) matrix share a product: m = 1 gives
    each row the bits it gets alone, and Parareal's fine sweep lays the
    segments of each of its rows as the columns of one matrix.  The stage
    velocities come back laid as the record, (4, steps, ..., n, m).  A step
    is 15 numpy calls, against four right-hand sides and 13 more calls for
    classical RK4: on so(3) m = 3 about 7 us at one row and 24-26 us at 13
    rows, against 28-30 and 39-42 us (BENCH_pr38_lone_row_dot.json)."""
    v, ys, step = _lifted_stepper([_stages(rhs, h)], vs.shape[1:])
    zs = np.empty((4, steps) + ys.shape[1:])
    v[...], recorded = vs[0], steps
    for k in range(steps):
        out = vs[k + 1]
        step(0, out)
        zs[:, k] = ys
        v[...] = out
        if look and _looks_bad(k, vs):
            recorded = k + 1
            break
    return zs, recorded


def _rk4_step(x, v, k, h, rhs):
    """Step k of classical RK4 on v, of size h, for a field that ignores x:
    the four stage velocities and the new v."""
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


def _finite_steps(record):
    """The number of steps before the first whose state in ``record`` is not
    finite: one scan of the record when every state is, and the steps placed
    only when one is not."""
    finite = np.isfinite(record[1:])
    if finite.all():
        return len(finite)
    return int(np.argmin(finite.all(axis=tuple(range(1, record.ndim)))))


def _rk4_loop(x, steps, h, rhs, vs, look=True, coupled=None):
    """``steps`` RK4 steps of v from ``vs[0]``, filling ``vs[1:]``.  Returns the
    stage velocities, shape (4, steps, ..., n), and the number of steps
    recorded: with ``look`` the loop stops at a look (``_looks_bad``) that
    finds a v that is not finite.  A field that carries ``Kf`` takes lifted
    steps (``_lifted_loop``), each row its own product, and never reads
    ``x``; any other field that ignores x takes classical RK4 steps over its
    rhs and is passed ``x`` at every stage.  With ``coupled``, the group
    model of a field that reads x, ``x`` is the record of x, filled like
    ``vs``, and each step is a coupled step (``rkmk_coupled_step``), which
    carries x along; the loop then keeps no stage velocities and returns None
    for them.  A one-row batch steps as a vector, v and x both, with the bits
    of a stack of one.  A lifted step of either is a state of one matrix
    (``_lifted_stepper``): on so(3) m = 3 the vector's took 6.8-7.2 us and the
    stack's 7.0-7.4, and a classical step took 28-30 us either way
    (BENCH_pr38_lone_row_dot.json)."""
    batch = vs.shape[1:-1]
    lone = prod(batch) == 1
    row = (slice(None),) + (0,) * len(batch)
    if coupled is None and hasattr(rhs, "Kf"):
        zs, recorded = _lifted_loop(rhs, steps, h, vs[row] if lone else vs[..., None], look)
        return zs.reshape((4, steps) + batch + (len(rhs.Kf) // vs.shape[-1] - 1,)), recorded
    if lone:
        vs, x = vs[row], x[row] if coupled is not None else np.reshape(x, np.shape(x)[-2:])
    v, zs, recorded = vs[0], None, steps
    for k in range(steps):
        if coupled is not None:
            x[k + 1], v = rkmk_coupled_step(coupled, x[k], v, k, h, rhs)
        else:
            z, v = _rk4_step(x, v, k, h, rhs)
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


def _parareal(steps, h, rhs, vs):
    """The v-record of ``steps`` RK4 steps by Parareal (Lions, Maday and
    Turinici 2001) of a field that carries ``Kf``, for rows ``vs[0]`` of shape
    (R, p); fills ``vs[1:]`` and returns the stage velocities (4, steps, R, n)
    and the number of steps recorded, as ``_rk4_loop`` does.

    The grid is cut into K segments.  The fine propagator F is the lifted
    loop, run without a look, so that a row that blows up does not cut the
    sweep of the others, over a record laid (A, p, K) for the A rows that
    take part: the K segment states of each row are the columns of one
    matrix, each stage multiplies them by one product of K columns, and the
    stage arithmetic runs on contiguous (p, K) blocks.  A product of all A K
    columns would run faster, but its bits would depend on A, so a row would
    not get the bits it gets alone.  A row that leaves the iteration has its
    segments copied into the record by one assignment per segment length.
    The coarse propagator G is one lifted RK4 step over each segment, with
    the field's stage matrices of each segment length (``_stages``) and the
    stepper's buffers (``_lifted_stepper``) built once per pass over the
    segments; each row is its own product there.  A sweep sets
    U[i + 1] = F(U_old[i]) + (G(U_new[i]) - G(U_old[i])) in order.
    Every choice is per row, so a row of a batch gets the bits it gets
    alone.  A row takes part if its coarse pass is finite and one RK4 step
    over each pair of segments ends within PARAREAL_MAX_COARSE_ERROR of its
    scale of the pair's two coarse steps; a row whose largest correction is
    at most PARAREAL_ULPS ulps of its scale keeps the record of its last fine
    sweep and leaves the iteration; a row that does not take part, goes
    non-finite in a sweep or reaches PARAREAL_MAX_SWEEPS reruns the
    sequential loop.
    """
    K = PARAREAL_SEGMENTS
    R, p = vs.shape[1:]
    n = len(rhs.Kf) // p - 1
    lengths, first, runs = _segments(steps)
    # the stage matrices of each segment length; segment i steps by Ms[size[i]]
    sizes, size = np.unique(lengths, return_inverse=True)
    Ms = [_stages(rhs, length * h) for length in sizes]
    # the shorter segments run one step past their end in a sweep of the longest
    past_end = np.arange(lengths[0] + 1)[:, None] > lengths
    U = np.empty((K + 1, R, p))
    v, _, coarse_step = _lifted_stepper(Ms, (R, p, 1))
    U[0] = vs[0]
    for i in range(K):
        v[..., 0] = U[i]
        coarse_step(size[i], U[i + 1, ..., None])
    G = U[1:].copy()
    # one RK4 step over each pair of segments, all pairs as one batch, against
    # the pair's two coarse steps; a NaN gap compares false
    pairs = (lengths[0:K - 1:2] + lengths[1:K:2])[:, None, None] * h
    v, _, pair_step = _lifted_stepper([_stage_matrices(rhs.Kf, pairs)], (len(pairs), R, p, 1))
    v[..., 0] = U[0:K - 1:2]
    ends = np.empty_like(v)
    pair_step(0, ends)
    gap = np.abs(ends[..., 0] - U[2:K + 1:2]).max(axis=(0, 2))
    zs = np.empty((4, steps, R, n))
    active = np.flatnonzero(np.isfinite(U).all(axis=(0, 2))
                            & (gap <= PARAREAL_MAX_COARSE_ERROR * np.abs(U).max(axis=(0, 2))))
    converged = np.zeros(R, dtype=bool)
    for _ in range(PARAREAL_MAX_SWEEPS):
        if not len(active):
            break
        A = len(active)
        fine = np.empty((len(past_end), A, p, K))
        fine[0] = U[:K, active].transpose(1, 2, 0)
        zf, _ = _lifted_loop(rhs, len(past_end) - 1, h, fine, False)
        ends = fine[lengths, ..., np.arange(K)]
        # coarse[i] holds G(U_old[i]) of the active rows, then G(U_new[i])
        old, coarse = U[:, active], G[:, active]
        new = np.empty_like(old)
        new[0] = old[0]
        v, _, coarse_step = _lifted_stepper(Ms, (A, p, 1))
        g = np.empty((A, p, 1))
        for i in range(K):
            v[..., 0] = new[i]
            coarse_step(size[i], g)
            new[i + 1] = ends[i] + (g[..., 0] - coarse[i])
            coarse[i] = g[..., 0]
        finite = (np.isfinite(new).all(axis=(0, 2))
                  & (np.isfinite(fine).all(axis=2) | past_end[:, None, :]).all(axis=(0, 2)))
        scale = np.abs(new).max(axis=(0, 2))
        done = finite & (np.abs(new - old).max(axis=(0, 2))
                         <= PARAREAL_ULPS * np.finfo(float).eps * scale)
        rows = active[done]
        if len(rows):
            converged[rows] = True
            # the segments of each length in one assignment, as (segments, length) views
            for i, j in runs:
                span, length = slice(first[i], first[j]), lengths[i]
                vs[span].reshape(j - i, length, R, p)[:, :, rows] = np.moveaxis(
                    fine[:length, done, :, i:j], -1, 0)
                zs[:, span].reshape(4, j - i, length, R, n)[:, :, :, rows] = np.moveaxis(
                    zf[:, :length, done, :, i:j], -1, 1)
            vs[steps, rows] = ends[K - 1, done]
        U[:, active], G[:, active] = new, coarse
        active = active[finite & ~done]
    rerun = ~converged
    recorded = steps
    if rerun.any():
        alone = np.empty((steps + 1, int(rerun.sum()), p))
        alone[0] = vs[0, rerun]
        zs[:, :, rerun], recorded = _rk4_loop(None, steps, h, rhs, alone)
        vs[:, rerun] = alone
    return zs, recorded


def rkmk_integrate(gm, x, v, steps, h, rhs, needs_x=False):
    """``steps`` RK-MK steps of size ``h`` through the one time loop of the
    package (``_rk4_loop``).

    ``rhs`` is as in ``rkmk_coupled_step``.  With ``needs_x`` each step of
    the loop is a coupled step, and the loop records the x it carries.
    Otherwise rhs must ignore x (it is passed the initial x), and the step
    splits: the loop takes RK4 steps of v and keeps the four stage
    velocities z1..z4 of every step, and x is reconstructed from them after
    the loop (``_reconstruct``).  A field that carries a lifted matrix
    ``Kf`` and its stage matrices ``stages(h)`` (``pmp.extremal_field`` of a
    quadratic cost) takes lifted RK4 steps (``_lifted_loop``), any other
    classical RK4 steps over its rhs.
    Below PARAREAL_MIN_STEPS steps x is the product of the step exponentials
    in order, which for a callable field has the bits of the coupled step; a
    longer flow takes that product by segments, which matches the coupled
    step to rounding.  Returns the flow (xs, vs) on the grid: steps + 1
    states, the initial one first, of the batch of x and v broadcast
    together.

    Every flow keeps two rules.  The loop looks at its record of v every
    FINITE_CHECK_STEPS steps and stops at a look that finds a state that is
    not finite (so rhs must return on one, not raise); ``_finite_steps``
    places the first such step over v and the x carried or rebuilt up to the
    first bad v, for NonFinite.  And a one-row batch steps as a vector (``_rk4_loop``).

    A field that carries ``Kf`` ignores x, the step and the node and acts on
    each row alone, which is what Parareal needs: a flow of at least
    PARAREAL_MIN_STEPS steps takes the v-record of ``_parareal``, which
    matches the loop to rounding rather than bit for bit in the rows that
    take part in the iteration.
    """
    lead = np.broadcast_shapes(np.shape(x)[:-2], np.shape(v)[:-1])
    xs = np.empty((steps + 1,) + lead + np.shape(x)[-2:])
    vs = np.empty((steps + 1,) + lead + np.shape(v)[-1:])
    xs[0], vs[0] = x, v
    with np.errstate(over="ignore", invalid="ignore"):
        if needs_x:
            zs, recorded = _rk4_loop(xs, steps, h, rhs, vs, coupled=gm)
        elif hasattr(rhs, "Kf") and steps >= PARAREAL_MIN_STEPS:
            zs, recorded = _parareal(steps, h, rhs, vs.reshape(steps + 1, -1, vs.shape[-1]))
            zs = zs.reshape((4, steps) + lead + zs.shape[-1:])
        else:
            zs, recorded = _rk4_loop(xs[0], steps, h, rhs, vs)
        done = _finite_steps(vs[:recorded + 1])
        if not needs_x:
            _reconstruct(gm, zs[:, :done], h, xs)
        done = _finite_steps(xs[:done + 1])  # v is finite up to step done
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
