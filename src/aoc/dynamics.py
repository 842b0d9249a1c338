"""Forward simulation of the controlled velocity equations.

The state is a pair (x, y): group element and body velocity.  The
velocity equation ``ydot = bias(y) + embed(u)`` does not involve x, so
``groups.rkmk_integrate`` steps y alone by classical RK4 and reconstructs
x from the stage velocities after its loop, by the Munthe-Kaas scheme.
``simulate`` samples the control callable at the RK stage times (no zero
order hold inside a step).  ``zoh_rollout`` is one stepper call over all
N * steps_per_segment steps; its right-hand side adds the drift of step
k's segment, read from one table of all N segments.  Both return the
stepper's record of the grid as their samples.  The drift ``bias`` is one
stacked matmul against the model's ``drift`` matrix, the tensor that the
extremal field of ``pmp`` reads its y-block from, so the rollouts and
the extremal flows share one drift kernel.

Trajectories store their samples as arrays (struct of arrays); the CSV
layout is ``t, x (row-major d^2), y (n), u (m)`` plus optional
``mu (n), xi (n), H`` columns.  x entries are named ``x_{r}{c}``, or
``x_{r}_{c}`` when d > 10 so that names stay unique.  Every cell is the
exact byte string of C's ``'%.17g'``.  ``write_trajectory_csv`` forms
the digits of a block of rows at once by integer arithmetic: the
17-digit significand of a cell is its binary significand times a power
of five, shifted and rounded half to even.  Cells at 1e-11 <= |v| < 1e15
and zeros take that path; every other cell (tiny, subnormal, huge, inf
or nan) is formatted alone with ``'%.17g'``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .algebra import _count, bias, embed_control, kinetic_energy
from .errors import DimensionMismatch


@dataclass(frozen=True)
class State:
    """Group element and body velocity."""

    x: np.ndarray
    y: np.ndarray


@dataclass
class Trajectory:
    times: np.ndarray            # (K,)
    xs: np.ndarray               # (K, d, d)
    ys: np.ndarray               # (K, n)
    us: np.ndarray               # (K, m)
    mus: np.ndarray | None = None
    xis: np.ndarray | None = None
    hams: np.ndarray | None = None

    def __post_init__(self):
        k = len(self.times)
        for name in ("xs", "ys", "us", "mus", "xis", "hams"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != k:
                raise DimensionMismatch(f"{name} has {len(arr)} samples, expected {k}")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    def state(self, k) -> State:
        return State(x=self.xs[k], y=self.ys[k])


def simulate(model, gm, s0, u, T, steps) -> Trajectory:
    """Integrate the controlled system on a uniform grid.

    ``u`` is a callable t -> m-vector; T and ``steps`` must make a uniform
    grid (``groups._uniform_grid``).  Raises NonFinite with the step index
    if the state blows up.
    """
    steps, h = groups._uniform_grid(T, steps)
    times = np.linspace(0.0, T, steps + 1)

    def rhs(k, c, _x, y):
        uu = np.asarray(u(times[k] + c * h), dtype=float)
        return y, bias(model, y) + embed_control(model, uu)

    xs, ys = groups.rkmk_integrate(gm, s0.x, s0.y, steps, h, rhs)
    us = np.empty((steps + 1, model.m))
    for k, t in enumerate(times):
        us[k] = np.asarray(u(t), dtype=float)
    return Trajectory(times=times, xs=xs, ys=ys, us=us)


def zero_control(model):
    """The zero control signal for a model."""
    z = np.zeros(model.m)
    return lambda t: z


def zoh_rollout(gm, x0, y0, U, T, steps_per_segment=2):
    """Batched rollout under piecewise-constant controls.

    ``U`` has shape (N, m) or (B, N, m); integrates with
    ``steps_per_segment`` steps per control segment so that every step
    (stage times included) lies inside one segment and sees that
    segment's control.  ``steps_per_segment`` must be an integer of at
    least 1, and the N * steps_per_segment steps over [0, T] a uniform grid
    (``groups._uniform_grid``).  Returns ``(times, xs, ys)`` sampled on
    the full sub-grid, with shapes (K, B?, d, d) and (K, B?, n).  Raises
    NonFinite with the 1-based sub-grid step index if the state blows up.
    """
    U = np.asarray(U, dtype=float)
    spb = _count(steps_per_segment, "steps_per_segment", 1)
    steps, h = groups._uniform_grid(T, U.shape[-2] * spb)
    times = np.linspace(0.0, T, steps + 1)
    drifts = np.moveaxis(embed_control(gm.algebra, U), -2, 0)  # (N, B?, n)

    def rhs(k, c, _x, y):
        return y, bias(gm.algebra, y) + drifts[k // spb]

    xs, ys = groups.rkmk_integrate(gm, x0, np.broadcast_to(y0, drifts.shape[1:]), steps, h,
                                   rhs)
    return times, xs, ys


def energy_drift(model, traj) -> float:
    """Peak deviation of the kinetic energy along a trajectory."""
    e = kinetic_energy(model, traj.ys)
    return float(np.abs(e - e[0]).max())


# -- serialization -------------------------------------------------------------

# The CSV cells are the bytes of C's '%.17g'.  Most cells take an integer
# path over whole blocks: a cell v = m * 2**e (m < 2**53) in decade k has
# the 17-digit significand D = round_half_even(m * 5**p * 2**(e + p)),
# p = 16 - k, formed as a two-limb uint64 product and a right shift.
# Decades -11..14 keep 5**p below 2**63.  Each cell is laid out in _CELL
# fixed columns padded with 0 bytes, which are dropped once per block:
#   0 sign | 1-5 lead "0.000" | 6 first digit | 7 point | 8-23 digits
#   | 24-27 exponent "e-NN" | 28 separator | 29-31 pad
# Trailing zeros of the significand are 0 bytes from the start: a 4-digit
# group after the last nonzero one comes from the table with its trailing
# zeros stripped.
# Blocks of 2048 cells keep each 32-byte-per-cell array under malloc's mmap
# threshold (128 KiB), so that writing adds little to the peak RSS.
_CSV_BLOCK_CELLS = 2048
_CELL = 32
_KMIN, _KMAX = -11, 14
_INT_LO, _INT_HI = 1e-11, 1e15      # a nonzero |v| outside takes '%.17g' alone
_M32 = np.uint64(0xFFFFFFFF)
_MANTISSA, _HIDDEN, _HALF = np.uint64(2**52 - 1), np.uint64(2**52), np.uint64(2**63)
_TEN4, _TEN16, _TEN17 = np.uint64(10**4), np.uint64(10**16), np.uint64(10**17)
_POW5 = np.array([5 ** (16 - k) for k in range(_KMIN, _KMAX + 1)], np.uint64)  # by decade
_POW10 = np.array([float(f"1e{k}") for k in range(_KMIN, 16)])


def _quad_table():
    """ASCII of 0000..9999 as uint32, then the same with trailing zeros as 0 bytes."""
    quads = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(48, 58, dtype=np.uint8)
    for i in range(4):
        quads[..., i] = digit.reshape((10,) + (1,) * (3 - i))
    stripped = quads[1]
    stripped[..., 0, 3] = 0
    stripped[..., 0, 0, 2] = 0
    stripped[:, 0, 0, 0, 1] = 0
    stripped[0, 0, 0, 0, 0] = 0
    return quads.view(np.uint32).ravel()


def _decade_tables():
    """The cell template (lead, point, exponent, separator) of each printed
    decade X in _KMIN..15, and for X in 1..15 the digit order that puts
    the point after digit X (index 17 is the point)."""
    cells = b""
    for x in range(_KMIN, 16):
        lead = b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""
        point = b"." if x == 0 or x < -4 else b"\0"
        expo = b"e-%02d" % -x if x < -4 else b""
        cells += (b"\0" + lead.ljust(5, b"\0") + b"\0" + point + bytes(16)
                  + expo.ljust(4, b"\0") + b",\0\0\0")
    order = np.array([[*range(x + 1), 17, *range(x + 1, 17)] for x in range(1, 16)])
    return np.frombuffer(cells, np.uint32).reshape(-1, _CELL // 4), order


_QUADS = _quad_table()
_TEMPLATES, _POINT_ORDER = _decade_tables()


def _scaled(m, s, k):
    """floor(m * 5**(16 - k) / 2**s) for m < 2**53, k in _KMIN.._KMAX and
    1 <= s <= 63, and whether it rounds up, half to even."""
    c = _POW5[k - _KMIN]
    ml, mh, cl, ch = m & _M32, m >> 32, c & _M32, c >> 32
    ll, lh, hl = ml * cl, ml * ch, mh * cl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    lo = (ll & _M32) | (mid << 32)
    hi = mh * ch + (lh >> 32) + (hl >> 32) + (mid >> 32)
    q = (hi << (64 - s)) | (lo >> s)
    rest = lo << (64 - s)                              # the dropped bits, left-aligned
    return q, (rest > _HALF) | ((rest == _HALF) & (q & 1 == 1))


def _csv_block(block):
    """The exact '%.17g' CSV lines of a 2-D float64 block, as bytes."""
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= _INT_LO) & (a < _INT_HI)
    a[~fast] = 1.0
    # a = m * 2**(b - 1075) with b the biased exponent; floor((b - 1022) * log10(2))
    # is the decade of a or the one above, and a below that power of ten
    # (as a double) is in the decade under it: k is a's decade, or the one
    # above when a is float(10**k) < 10**k.
    bits = a.view(np.uint64)
    b = (bits >> 52).astype(np.int64)
    k = ((b - 1022) * 78913) >> 18
    k -= a < _POW10[k - _KMIN]
    m = (bits & _MANTISSA) | _HIDDEN
    s = (1059 + k - b).astype(np.uint64)
    q, up = _scaled(m, s, k)
    low = np.flatnonzero(q < _TEN16)                   # judged before rounding
    if low.size:
        k[low] -= 1
        fast[low[k[low] < _KMIN]] = False
        k[low] = np.maximum(k[low], _KMIN)
        s[low] -= 1
        q[low], up[low] = _scaled(m[low], s[low], k[low])
    d = q + up
    carry = np.flatnonzero(d == _TEN17)                # 9.99...95 rounds to the next decade
    d[carry] = _TEN16
    k[carry] += 1
    zero = v == 0
    d[zero] = 0
    k[zero] = 0
    fast |= zero

    hi8, lo8 = np.divmod(d, 10 ** 8)
    d0, hi8 = np.divmod(hi8, 10 ** 8)
    quads = np.empty((4, v.size), np.uint64)            # digits 1-16 in groups of four
    quads[0], quads[1] = np.divmod(hi8, 10 ** 4)
    quads[2], quads[3] = np.divmod(lo8, 10 ** 4)
    # a group after the last nonzero one takes the stripped half of _QUADS
    tail = quads == 0
    tail[2] &= tail[3]
    tail[1] &= tail[2]
    tail[0] &= tail[1]                                 # digits 1-16 all zero: no point
    quads[:3] += _TEN4 * tail[1:]
    quads[3] += _TEN4

    out = np.take(_TEMPLATES, k - _KMIN, axis=0)
    out[:, 2:6] = np.take(_QUADS, quads.view(np.int64)).T
    out = out.view(np.uint8)
    out[:, 6] = d0 + 48
    out[:, 0] = (v.view(np.uint64) >> 63) * 45
    out[np.flatnonzero(tail[0]), 7] = 0
    big = np.flatnonzero(k > 0)
    if big.size:
        digits = np.empty((big.size, 18), np.uint8)
        digits[:, 0] = out[big, 6]
        digits[:, 1:17] = out[big, 8:24]
        x = k[big]
        digits[:, :17] = np.maximum(digits[:, :17], np.where(np.arange(17) <= x[:, None], 48, 0))
        digits[:, 17] = np.where(digits[np.arange(big.size), x + 1] != 0, 46, 0)
        out[big, 6:24] = np.take_along_axis(digits, _POINT_ORDER[x - 1], axis=1)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((b"%.17g" % c).ljust(28, b"\0") for c in v[slow].tolist())
        out[slow, :28] = np.frombuffer(text, np.uint8).reshape(slow.size, 28)
    out.reshape(rows, cols, _CELL)[:, -1, 28] = 10
    return out.tobytes().translate(None, b"\0")


def trajectory_header(model, gm, with_costates):
    d = gm.rep_dim
    sep = "_" if d > 10 else ""
    cols = ["t"]
    cols += [f"x_{r}{sep}{c}" for r in range(d) for c in range(d)]
    cols += [f"y_{i}" for i in range(model.n)]
    cols += [f"u_{a}" for a in range(model.m)]
    if with_costates:
        cols += [f"mu_{i}" for i in range(model.n)]
        cols += [f"xi_{i}" for i in range(model.n)]
        cols += ["H"]
    return cols


def write_trajectory_csv(traj, path, model, gm):
    """Write a trajectory as CSV, each value as the exact bytes of '%.17g'.

    Blocks of rows are formatted by integer arithmetic on whole arrays;
    a cell below 1e-11 in magnitude (subnormals included) but nonzero, at
    or above 1e15, or not finite is formatted alone with '%.17g'.
    """
    with_costates = traj.mus is not None and traj.xis is not None and traj.hams is not None
    cols = [traj.times, traj.xs.reshape(len(traj), gm.rep_dim ** 2), traj.ys, traj.us]
    if with_costates:
        cols += [traj.mus, traj.xis, traj.hams]
    table = np.column_stack(cols)
    with open(path, "wb") as f:
        f.write((",".join(trajectory_header(model, gm, with_costates)) + "\n").encode())
        rows = max(1, _CSV_BLOCK_CELLS // table.shape[1])
        for i in range(0, len(table), rows):
            f.write(_csv_block(table[i:i + rows]))
