"""Long split flows: Parareal in time (``groups._parareal``) and x by segments.

Flows of a field that carries a lifted matrix ``Kf`` (the fused extremal
field) of at least PARAREAL_MIN_STEPS steps through ``rkmk_integrate``
match the sequential RK4 loop to rounding, not bit for bit, in the rows
whose coarse error admits them; other rows, and rows that reach the sweep
cap, keep the loop's bits.  The x record of such a flow is the product of
its step exponentials by Parareal's segments (``groups._reconstruct``),
which matches the product in order to rounding.  Each row still gets the
bits it gets alone, a blow-up is reported at the loop's step, and shorter
flows keep the loop's bits.
"""

import dataclasses

import numpy as np
import pytest

import aoc
from aoc import groups
from aoc.groups import (FINITE_CHECK_STEPS, PARAREAL_MIN_STEPS, PARAREAL_SEGMENTS,
                        munthe_kaas_increment, rkmk_coupled_step, rkmk_integrate)
from aoc.pmp import extremal_field, min_acc_cost, propagate_endpoints

# the bound on a deviation from the sequential loop, in ulps of the flow's
# largest entry: the stopping rule leaves corrections of at most 16 ulps
ULPS = 32


def spy_loops(monkeypatch):
    """(steps, rows, recorded) of every lifted RK4 loop (``groups._lifted_loop``),
    the rows read from the layout of its record: a fine sweep lays (active rows,
    p, K), the K segments of each row as the columns of one product, and has
    rows (K, active rows); a sequential loop lays (rows, p, 1), one product per
    row, and has rows (rows,), or () for one row, which steps as a vector (p,);
    ``recorded`` is the number of steps it ran."""
    loops = []
    lifted = groups._lifted_loop

    def counted(rhs, steps, h, vs, look):
        zs, recorded = lifted(rhs, steps, h, vs, look)
        laid = vs.shape[1:-2] + vs.shape[-1:] if vs.ndim > 2 else ()
        rows = laid[:-1] if laid[-1:] == (1,) else laid[-1:] + laid[:-1]
        loops.append((steps, rows, recorded))
        return zs, recorded

    monkeypatch.setattr(groups, "_lifted_loop", counted)
    return loops


def reruns(loops, steps):
    return [rows for n, rows, _ in loops if n == steps]


def within_ulps(got, ref):
    return np.abs(got - ref).max() <= ULPS * np.finfo(float).eps * np.abs(ref).max()


def se2_group():
    """se(2) as 3 x 3 matrices: a rotation and two translations of the plane."""
    E = np.zeros((3, 3, 3))
    E[0, 0, 1], E[0, 1, 0] = -1.0, 1.0
    E[1, 0, 2] = 1.0
    E[2, 1, 2] = 1.0
    comm = np.einsum("iab,jbc->ijac", E, E)
    comm = comm - np.transpose(comm, (1, 0, 2, 3))
    C = np.einsum("kp,ijp->kij", np.linalg.pinv(E.reshape(3, 9).T), comm.reshape(3, 3, 9))
    model = aoc.make_model(3, 2, C, np.diag([1.0, 2.0, 3.0]), name="se2")
    return aoc.generic_group(model, E)


def affine_line_group():
    """The non-unimodular algebra [e1, e2] = e2 of the affine maps of the line,
    fully actuated: its extremal flows blow up in finite time."""
    E = np.zeros((2, 2, 2))
    E[0, 0, 0] = E[1, 0, 1] = 1.0
    C = np.zeros((2, 2, 2))
    C[1, 0, 1], C[1, 1, 0] = 1.0, -1.0
    return aoc.generic_group(aoc.make_model(2, 2, C, np.eye(2), name="aff"), E)


GROUPS = {
    "so3-m2": lambda: aoc.so3_group(aoc.so3_model((1.0, 2.0, 3.0), m=2)),
    "so3-m3": lambda: aoc.so3_group(aoc.so3_model((1.0, 2.0, 3.0), m=3)),
    "abelian": lambda: aoc.abelian_group(aoc.abelian_model(3, m=2,
                                                           inertia=np.diag([2.0, 3.0, 5.0]))),
    "se2": se2_group,
}


def flow(gm, v0, steps, T=1.0, rhs=None):
    rhs = rhs or extremal_field(gm.algebra, min_acc_cost(gm.algebra))
    return rkmk_integrate(gm, np.eye(gm.rep_dim), v0, steps, T / steps, rhs)


def loop_flow(gm, v0, steps, T=1.0):
    """The reference for a split fused flow from the identity: the v-record of
    the sequential time loop (``groups._rk4_loop``), NonFinite at its first
    step that is not finite, and x rebuilt from its stage velocities."""
    h = T / steps
    xs = np.empty((steps + 1,) + v0.shape[:-1] + (gm.rep_dim,) * 2)
    vs = np.empty((steps + 1,) + v0.shape)
    xs[0], vs[0] = np.eye(gm.rep_dim), v0
    with np.errstate(over="ignore", invalid="ignore"):
        zs, recorded = groups._rk4_loop(xs[0], steps, h, extremal_field(
            gm.algebra, min_acc_cost(gm.algebra)), vs)
        done = groups._finite_steps(vs[:recorded + 1])
        if done < steps:
            raise aoc.NonFinite(done + 1)
        groups._reconstruct(gm, zs, h, xs)
    return xs, vs


@pytest.mark.parametrize("kind", sorted(GROUPS))
@pytest.mark.parametrize("steps", [PARAREAL_MIN_STEPS, PARAREAL_MIN_STEPS + 7],
                         ids=["threshold", "not-divisible"])
def test_parareal_matches_the_sequential_loop_to_rounding(kind, steps, monkeypatch):
    gm = GROUPS[kind]()
    assert steps == PARAREAL_MIN_STEPS or steps % PARAREAL_SEGMENTS
    v0 = np.random.default_rng(3).uniform(-0.5, 0.5, (4, 3 * gm.algebra.n))
    xs0, vs0 = loop_flow(gm, v0, steps)
    loops = spy_loops(monkeypatch)
    xs1, vs1 = flow(gm, v0, steps)
    assert loops and not reruns(loops, steps)  # every row took part and converged
    assert xs1.shape == xs0.shape and vs1.shape == vs0.shape
    assert np.array_equal(vs1[0], v0) and np.array_equal(xs1[0], xs0[0])
    assert within_ulps(vs1, vs0) and within_ulps(xs1, xs0)
    assert not np.array_equal(vs1, vs0)  # the Parareal record, not the loop's


_BATCH_CASES = [("so3-m2", PARAREAL_MIN_STEPS, "threshold"),
                ("so3-m2", PARAREAL_MIN_STEPS + 7, "not-divisible"), ("so3-m2", 2000, "2000")]
_BATCH_CASES += [(kind, steps, f"{kind}-{name}") for kind in ("so3-m3", "se2", "abelian")
                 for steps, name in ((PARAREAL_MIN_STEPS + 7, "not-divisible"), (2000, "2000"))]


@pytest.mark.parametrize("cap", [None, 2], ids=["cap", "cap-2"])
@pytest.mark.parametrize("kind,steps", [case[:2] for case in _BATCH_CASES],
                         ids=[case[2] for case in _BATCH_CASES])
def test_batch_rows_are_bitwise_single_rows(kind, steps, cap, monkeypatch):
    # rows from 0.05 to 8 in scale leave the iteration at different sweeps, the
    # largest do not take part, and with a cap of 2 sweeps most reach it; both
    # kinds rerun the sequential loop.  A fine sweep multiplies the segments of
    # each row as the columns of one product, whose bits are checked on every
    # kind of algebra
    if cap is not None:
        monkeypatch.setattr(groups, "PARAREAL_MAX_SWEEPS", cap)
    gm = GROUPS[kind]()
    model = gm.algebra
    cost = min_acc_cost(model)
    rng = np.random.default_rng(5)
    th = rng.uniform(-1.0, 1.0, (13, 6)) * np.geomspace(0.05, 8.0, 13)[:, None]
    loops = spy_loops(monkeypatch)
    x0 = np.eye(gm.rep_dim)
    xT, yT, (xs, vs) = propagate_endpoints(model, gm, cost, x0, np.zeros(3),
                                           th[:, :3], th[:, 3:], 1.0, steps)
    sweeps = [rows for n, rows, _ in loops if n < steps]
    # each product of a fine sweep holds the PARAREAL_SEGMENTS segments of one
    # flow row: a product of several rows' columns would give a row bits that
    # depend on the others, which a block of it often keeps all the same
    assert sweeps and all(len(rows) == 2 and rows[0] == PARAREAL_SEGMENTS for rows in sweeps)
    widths = [rows[1] for rows in sweeps]
    if kind == "abelian":
        # its flows are cubic in t, which a coarse RK4 step takes exactly: every
        # row takes part and leaves at the second sweep, and none reruns
        assert widths == [13, 13] and not reruns(loops, steps)
    elif cap is None:
        # only the rows that did not take part rerun
        assert len(set(widths)) > 1 and reruns(loops, steps)[0][0] == 13 - widths[0] > 0
    else:
        assert 13 - widths[0] < reruns(loops, steps)[0][0] < 13
    for r in range(13):
        x1, y1, (xs1, vs1) = propagate_endpoints(model, gm, cost, x0, np.zeros(3),
                                                 th[r, :3], th[r, 3:], 1.0, steps)
        assert np.array_equal(xs1, xs[:, r]) and np.array_equal(vs1, vs[:, r])
        assert np.array_equal(x1, xT[r]) and np.array_equal(y1, yT[r])


def test_a_row_of_large_coarse_error_takes_the_loop_at_once(monkeypatch):
    # a coarse RK4 step of 0.05 is too long for costates of this size: the row
    # goes from the coarse pass straight to the sequential loop, with its bits
    gm = GROUPS["so3-m2"]()
    v0 = np.concatenate([np.zeros(3), np.random.default_rng(6).uniform(-8.0, 8.0, 6)])
    steps = PARAREAL_MIN_STEPS
    xs0, vs0 = loop_flow(gm, v0, steps)
    loops = spy_loops(monkeypatch)
    xs1, vs1 = flow(gm, v0, steps)
    assert loops == [(steps, (), steps)]
    assert np.array_equal(xs1, xs0) and np.array_equal(vs1, vs0)


def test_no_sweeps_is_the_sequential_loop(monkeypatch):
    monkeypatch.setattr(groups, "PARAREAL_MAX_SWEEPS", 0)
    gm = GROUPS["so3-m2"]()
    v0 = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 9))
    xs0, vs0 = loop_flow(gm, v0, PARAREAL_MIN_STEPS)
    xs1, vs1 = flow(gm, v0, PARAREAL_MIN_STEPS)
    assert np.array_equal(xs1, xs0) and np.array_equal(vs1, vs0)


def test_below_the_threshold_the_loop_keeps_its_bits(monkeypatch):
    gm = GROUPS["so3-m2"]()
    v0 = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 9))
    steps = PARAREAL_MIN_STEPS - 1
    xs0, vs0 = loop_flow(gm, v0, steps)
    loops = spy_loops(monkeypatch)
    xs1, vs1 = flow(gm, v0, steps)
    assert loops == [(steps, (3,), steps)]
    assert np.array_equal(xs1, xs0) and np.array_equal(vs1, vs0)


def sequential_product(gm, zs, h, x0):
    """The reference for the x record: the exponentials of the steps whose
    stage velocities are ``zs``, multiplied in order from x0."""
    omega = munthe_kaas_increment(gm.algebra, h, zs[0], lambda i, theta: zs[i])
    xs = [x0]
    for e in aoc.exp_map(gm, omega):
        xs.append(xs[-1] @ e)
    return np.array(xs)


@pytest.mark.parametrize("kind", ["so3-m2", "se2", "abelian"])
@pytest.mark.parametrize("steps", [PARAREAL_MIN_STEPS, PARAREAL_MIN_STEPS + 7, 5000],
                         ids=["threshold", "not-divisible", "5000"])
def test_long_flow_x_matches_the_sequential_product_to_rounding(kind, steps, monkeypatch):
    # within one ulp per step of the largest entry of the product in order
    gm = GROUPS[kind]()
    v0 = np.random.default_rng(3).uniform(-0.5, 0.5, (4, 3 * gm.algebra.n))
    seen = []
    reconstruct = groups._reconstruct

    def kept(gm, zs, h, xs):
        seen.append((zs.copy(), h, xs[0].copy()))
        return reconstruct(gm, zs, h, xs)

    monkeypatch.setattr(groups, "_reconstruct", kept)
    xs, _ = flow(gm, v0, steps)
    [(zs, h, x0)] = seen
    ref = sequential_product(gm, zs, h, x0)
    assert zs.shape[1] == steps and np.array_equal(xs[0], ref[0])
    assert np.abs(xs - ref).max() <= steps * np.finfo(float).eps * np.abs(ref).max()
    assert not np.array_equal(xs, ref)  # the product by segments, not in order


@pytest.mark.parametrize("pass_rows", [None, 20], ids=["passes", "passes-20"])
@pytest.mark.parametrize("steps", [PARAREAL_MIN_STEPS, 2000])
def test_long_flow_rows_of_a_batch_are_bitwise_single_rows(steps, pass_rows, monkeypatch):
    # passes of 20 rows times steps cut the segments of the product, in other
    # places for the batch than for a row alone
    if pass_rows is not None:
        monkeypatch.setattr(groups, "_PASS_ROWS", pass_rows)
    gm = GROUPS["so3-m2"]()
    rhs = extremal_field(gm.algebra, min_acc_cost(gm.algebra))
    rng = np.random.default_rng(8)
    v0 = rng.uniform(-1.0, 1.0, (5, 9)) * np.geomspace(0.05, 2.0, 5)[:, None]
    x0 = aoc.exp_map(gm, rng.uniform(-1.0, 1.0, (5, 3)))
    xs, vs = rkmk_integrate(gm, x0, v0, steps, 1.0 / steps, rhs)
    for r in range(5):
        xs1, vs1 = rkmk_integrate(gm, x0[r], v0[r], steps, 1.0 / steps, rhs)
        assert np.array_equal(xs1, xs[:, r]) and np.array_equal(vs1, vs[:, r])


@pytest.mark.parametrize("steps", [PARAREAL_MIN_STEPS - 1, PARAREAL_MIN_STEPS],
                         ids=["loop", "parareal"])
def test_blow_up_is_reported_at_the_loop_step(steps, monkeypatch):
    # the first row blows up at a step of the sequential loop; the second, small,
    # row stays finite; the finite check after the loop and Parareal's rerun
    # report the loop's step, alone and in the batch, and x is rebuilt only
    # up to it
    gm = affine_line_group()
    rng = np.random.default_rng(0)
    v0 = np.stack([rng.uniform(-1.0, 1.0, 6), rng.uniform(-0.01, 0.01, 6)])
    T = 0.01 * steps
    with pytest.raises(aoc.NonFinite) as ref:
        loop_flow(gm, v0[0], steps, T)
    bad = ref.value.step_index
    assert 1 < bad < steps
    rebuilt = []
    reconstruct = groups._reconstruct

    def counted(gm, zs, h, xs):
        rebuilt.append(zs.shape[1])
        return reconstruct(gm, zs, h, xs)

    monkeypatch.setattr(groups, "_reconstruct", counted)
    for v in (v0[0], v0):
        rebuilt.clear()
        with pytest.raises(aoc.NonFinite) as err:
            flow(gm, v, steps, T)
        assert err.value.step_index == bad and sum(rebuilt) == bad - 1
    flow(gm, v0[1], steps, T)


def test_an_so3_lone_row_blows_up_at_the_step_it_has_in_a_batch():
    # a lone row takes its outer products and products by ndarray.dot (BLAS),
    # a batch by np.multiply and stacked matmul.  Large costates make RK4 steps
    # of 0.05 overflow: the first bad step is the same alone and in a batch, and
    # past it the records match NaN for NaN, laid as a vector, as one row and
    # in the batch; so do they after a step from a state whose y has a 0 next to
    # an infinite costate, where the lift holds 0 * inf
    gm = GROUPS["so3-m2"]()
    rhs = extremal_field(gm.algebra, min_acc_cost(gm.algebra))
    rng = np.random.default_rng(0)
    v0 = np.stack([np.concatenate([np.zeros(3), rng.uniform(-20.0, 20.0, 6)]),
                   rng.uniform(-0.01, 0.01, 9)])
    steps = 200
    with pytest.raises(aoc.NonFinite) as alone:
        flow(gm, v0[0], steps, 10.0)
    with pytest.raises(aoc.NonFinite) as batch:
        flow(gm, v0, steps, 10.0)
    assert 1 < alone.value.step_index == batch.value.step_index < steps
    start = v0[0].copy()
    start[[0, 3]] = 0.0, np.inf
    for v, h, count in ((v0, 0.05, steps), (np.stack([start, v0[1]]), 0.01, 1)):
        records = []
        for laid in (v[0], v[:1, :, None], v[..., None]):
            vs = np.empty((count + 1,) + laid.shape)
            vs[0] = laid
            with np.errstate(over="ignore", invalid="ignore"):
                groups._lifted_loop(rhs, count, h, vs, False)
            records.append(vs.reshape((count + 1, -1, 9))[:, 0])
        assert not np.isfinite(records[0][-1]).any()
        assert all(np.array_equal(r, records[2], equal_nan=True) for r in records[:2])


@pytest.mark.parametrize("steps", [PARAREAL_MIN_STEPS - 1, PARAREAL_MIN_STEPS],
                         ids=["loop", "parareal"])
def test_blow_up_stops_the_loop_within_a_check(steps, monkeypatch):
    # the record is looked at every FINITE_CHECK_STEPS steps, so a flow that
    # blows up stops within that many steps of its first bad one
    gm = affine_line_group()
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, 6)
    T = 0.01 * steps
    loops = spy_loops(monkeypatch)
    with pytest.raises(aoc.NonFinite) as err:
        flow(gm, v0, steps, T)
    bad = err.value.step_index
    # the row's coarse pass blows up, so Parareal runs no sweep
    assert [(n, rows) for n, rows, _ in loops] == [(steps, ())]
    assert bad < steps - FINITE_CHECK_STEPS
    assert loops[0][2] <= bad - 1 + FINITE_CHECK_STEPS


def test_a_newton_flow_that_blows_up_is_reported_at_the_loop_step():
    # a quartic cost runs through Newton.  With xi = mu = 0 the control stays 0
    # while RK4 steps of 1.0 make y overflow; the loop runs on past that step to
    # its look, and the field must give NaN rates for the rows that are not
    # finite rather than a stalled Newton (NoConvergence)
    gm = affine_line_group()
    eye = np.eye(2)
    cost = dataclasses.replace(min_acc_cost(gm.algebra), quad_weight=None,
                               eval=lambda s, u: (0.5 * np.sum(u * u, axis=-1)
                                                  + 0.1 * np.sum(u ** 4, axis=-1)),
                               dL_du=lambda s, u: u + 0.4 * u ** 3,
                               d2L_du2=lambda s, u: eye + 1.2 * (u ** 2)[..., None] * eye)
    field = extremal_field(gm.algebra, cost)
    calls = []

    def rhs(k, c, x, v):
        calls.append(k)
        return field(k, c, x, v)

    v0 = np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    steps, h = 100, 1.0
    x, v, bad = np.eye(2), v0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x, v = rkmk_coupled_step(gm, x, v, k, h, field)
            if not (np.isfinite(x).all() and np.isfinite(v).all()):
                bad = k + 1
                break
    assert bad is not None and 1 < bad < steps - FINITE_CHECK_STEPS
    for needs_x in (False, True):
        calls.clear()
        with pytest.raises(aoc.NonFinite) as err:
            rkmk_integrate(gm, np.eye(2), v0, steps, h, rhs, needs_x=needs_x)
        assert err.value.step_index == bad
        assert len(calls) <= 4 * (bad - 1 + FINITE_CHECK_STEPS)
