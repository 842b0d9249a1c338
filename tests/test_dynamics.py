import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import aoc
from aoc.dynamics import (State, Trajectory, _csv_block, energy_drift, simulate,
                          trajectory_header, write_trajectory_csv, zero_control, zoh_rollout)
from aoc.algebra import bias
from aoc.groups import FINITE_CHECK_STEPS, orthogonality_defect
from aoc.pmp import Costate, flow_extremal, min_acc_cost


def test_ep_rhs_abelian(abelian3):
    # ydot = bias(y) + embed(u); an abelian algebra has no drift
    ydot = aoc.bias(abelian3, [0.1, 0.2, 0.3]) + aoc.embed_control(abelian3, [1.0, -1.0])
    assert_allclose(ydot, [1.0, -1.0, 0.0])


def test_ep_rhs_principal_axis_equilibrium(so3_j123):
    assert_allclose(aoc.bias(so3_j123, [1.0, 0.0, 0.0]), 0.0, atol=1e-15)


def test_ep_rhs_bias_value(so3_j123):
    assert_allclose(aoc.bias(so3_j123, [1.0, 1.0, 0.0]), [0.0, 0.0, -1.0 / 3.0])


def test_simulate_abelian_straight_line(abelian3):
    gm = aoc.abelian_group(abelian3)
    y0 = np.array([0.5, -0.25, 1.0])
    traj = simulate(abelian3, gm, State(np.eye(4), y0), zero_control(abelian3), 2.0, 50)
    assert_allclose(traj.ys, np.tile(y0, (51, 1)), atol=1e-15)
    assert_allclose(traj.xs[-1][:3, 3], 2.0 * y0, atol=1e-13)


def test_simulate_steady_rotation(so3_j123, so3_j123_group):
    traj = simulate(so3_j123, so3_j123_group, State(np.eye(3), np.array([1.0, 0, 0])),
                    zero_control(so3_j123), 3.0, 300)
    assert_allclose(traj.ys[-1], [1.0, 0, 0], atol=1e-13)
    assert_allclose(traj.xs[-1], aoc.exp_map(so3_j123_group, [1.0, 0, 0], 3.0), atol=1e-12)


def test_free_rigid_body_energy_conserved(so3_j123, so3_j123_group):
    s0 = State(np.eye(3), np.array([0.3, -0.4, 0.5]))
    traj = simulate(so3_j123, so3_j123_group, s0, zero_control(so3_j123), 5.0, 5000)
    assert energy_drift(so3_j123, traj) < 1e-8
    assert orthogonality_defect(traj.xs[-1]) < 1e-9


def test_covariant_acceleration_along_simulated_grid(so3_j123, so3_j123_group):
    u_fn = lambda t: np.array([0.2 * np.sin(t), -0.1 * t, 0.3 * np.cos(2 * t)])
    T, steps = 2.0, 400
    traj = simulate(so3_j123, so3_j123_group, State(np.eye(3), np.array([0.1, 0.2, -0.3])),
                    u_fn, T, steps)
    h = T / steps
    # fourth order stencil for ydot on interior points
    ydot = (traj.ys[:-4] - 8 * traj.ys[1:-3] + 8 * traj.ys[3:-1] - traj.ys[4:]) / (12 * h)
    acc = ydot - aoc.bias(so3_j123, traj.ys[2:-2])
    embedded = np.stack([aoc.embed_control(so3_j123, u_fn(t)) for t in traj.times[2:-2]])
    assert np.abs(acc - embedded).max() < 1e-8


def test_trajectory_invariants():
    times = np.array([0.0, 1.0, 2.0])
    xs = np.zeros((3, 2, 2))
    ys = np.zeros((3, 1))
    us = np.zeros((3, 1))
    with pytest.raises(aoc.DimensionMismatch):
        Trajectory(times=times, xs=xs[:2], ys=ys, us=us)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0, 1.0]), xs=xs, ys=ys, us=us)


def test_nonfinite_reports_step_index(abelian3):
    gm = aoc.abelian_group(abelian3)
    calls = []

    def u(t):
        calls.append(t)
        return np.array([np.nan, 0.0]) if t > 0.5 else np.zeros(2)

    with pytest.raises(aoc.NonFinite) as err:
        simulate(abelian3, gm, State(np.eye(4), np.zeros(3)), u, 1.0, 100)
    # step 51 runs from t = 0.5; its midpoint stage samples the NaN.  The loop
    # stops at its first look at the record after it
    assert err.value.step_index == 51
    assert len(calls) <= 4 * (50 + FINITE_CHECK_STEPS) < 4 * 100


def test_rollout_nonfinite_reports_global_step_index(so3_j123_group, monkeypatch):
    calls = []

    def counted(model, y):
        calls.append(y.shape)
        return bias(model, y)

    monkeypatch.setattr(aoc.dynamics, "bias", counted)
    U = np.zeros((50, 3))
    U[3, 0] = np.nan  # segment 3 holds steps 7 and 8 of the sub-grid
    with pytest.raises(aoc.NonFinite) as err:
        zoh_rollout(so3_j123_group, np.eye(3), np.zeros(3), U, 1.0,
                    steps_per_segment=2)
    assert err.value.step_index == 7
    assert len(calls) <= 4 * (6 + FINITE_CHECK_STEPS) < 4 * 100


def test_csv_roundtrip(tmp_path, so3_j123, so3_j123_group):
    traj = simulate(so3_j123, so3_j123_group, State(np.eye(3), np.array([0.1, 0.2, 0.3])),
                    zero_control(so3_j123), 1.0, 10)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, so3_j123, so3_j123_group)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(header) == 1 + 9 + 3 + 3
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (11, 16)
    assert_allclose(data[:, 0], traj.times, atol=1e-16)
    assert_allclose(data[-1, 1:10], traj.xs[-1].reshape(-1), atol=1e-16)


def rowwise_csv(traj, model, gm):
    """The trajectory CSV formatted one value at a time, as the reference layout."""
    with_costates = traj.mus is not None
    rows = []
    for k in range(len(traj)):
        vals = [traj.times[k], *traj.xs[k].reshape(-1), *traj.ys[k], *traj.us[k]]
        if with_costates:
            vals += [*traj.mus[k], *traj.xis[k], traj.hams[k]]
        rows.append(",".join("%.17g" % v for v in vals))
    header = ",".join(aoc.dynamics.trajectory_header(model, gm, with_costates))
    return header + "\n" + "\n".join(rows) + "\n"


def extremal_trajectory(model, gm, steps):
    p0 = (State(np.eye(3), np.array([0.1, -0.2, 0.3])),
          Costate(np.array([0.5, -1.0, 0.25]), np.array([1.5, 0.0, -0.75])))
    traj = flow_extremal(model, gm, min_acc_cost(model), p0, 1.0, steps)
    # values whose formatting has corner cases: signed zero, subnormal, huge, integral
    traj.hams[:4] = [-0.0, 5e-324, -1.7976931348623157e308, 3.0]
    return traj


def test_csv_bytes_match_rowwise_formatting(tmp_path, so3_m2, so3_m2_group):
    traj = extremal_trajectory(so3_m2, so3_m2_group, 40)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, so3_m2, so3_m2_group)
    assert path.read_bytes() == rowwise_csv(traj, so3_m2, so3_m2_group).encode()


def test_csv_bytes_match_rowwise_formatting_across_blocks(tmp_path, so3_m2, so3_m2_group):
    traj = extremal_trajectory(so3_m2, so3_m2_group, 600)
    assert len(traj) * 22 > 2 * aoc.dynamics._CSV_BLOCK_CELLS   # spans several blocks
    traj.hams[-4:] = [float("nan"), float("-inf"), 1e15, 99999999999999.98]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, so3_m2, so3_m2_group)
    assert path.read_bytes() == rowwise_csv(traj, so3_m2, so3_m2_group).encode()


def test_simulate_csv_bytes_match_rowwise_formatting(tmp_path, abelian3):
    gm = aoc.abelian_group(abelian3)
    traj = simulate(abelian3, gm, State(np.eye(4), np.array([0.1, 20.0, -300.0])),
                    lambda t: np.array([np.sin(7 * t), 1000.0 * t]), 2.0, 300)
    path = tmp_path / "sim.csv"
    write_trajectory_csv(traj, path, abelian3, gm)
    assert path.read_bytes() == rowwise_csv(traj, abelian3, gm).encode()


def percent_g_line(vals):
    return (",".join("%.17g" % v for v in vals) + "\n").encode()


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_csv_cells_match_percent_g_on_any_float(vals):
    assert _csv_block(np.array([vals])) == percent_g_line(vals)


def near(x, ulps=1):
    """x and its neighbours within ``ulps`` units in the last place."""
    out = [x]
    with np.errstate(over="ignore"):
        for _ in range(ulps):
            out = [np.nextafter(out[0], -np.inf), *out, np.nextafter(out[-1], np.inf)]
    return out


def test_csv_cells_match_percent_g_on_hard_cases():
    powers = [float(f"1e{k}") for k in range(-320, 309)]
    # doubles just under a power of ten whose 17 digits round up to it: 1e-14, 1e98, ...
    under = [x for k, x in zip(range(-320, 309), powers)
             if Fraction(x) < Fraction(10) ** k and ("%.17g" % x).startswith("1e")]
    assert -14 in [round(math.log10(x)) for x in under]
    # exact 18-digit halfway cases N * 2**-j (N odd), which round half to even
    ties = [1 + 2.0 ** -17]
    for j in range(2, 26):
        lo = -(-10 ** 17 // 5 ** j) | 1
        hi = min((10 ** 18 - 1) // 5 ** j, 2 ** 53 - 1)
        ties += [math.ldexp(n, -j) for n in (lo, (lo + hi) // 2 | 1, hi - 1 + hi % 2)]
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in ties)
    integers = [float(c + d) for c in (10 ** 15, 10 ** 16, 2 ** 53, 10 ** 17)
                for d in range(-3, 4)]
    extremes = [0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, 1e-11, 1e15]
    vals = [v for x in powers + ties + integers + extremes for v in near(x)]
    vals += [-v for v in vals]
    assert _csv_block(np.array([vals])) == percent_g_line(vals)
    assert _csv_block(np.array([[-0.0, 0.0]])) == b"-0,0\n"


def test_trajectory_header_names_are_unique_above_rep_dim_10(so3_j123, so3_j123_group):
    ab = aoc.abelian_model(11)
    header = trajectory_header(ab, aoc.abelian_group(ab), True)
    assert len(set(header)) == len(header)
    assert {"x_1_10", "x_11_0", "x_11_11"} <= set(header)
    # rep_dim up to 10 keeps the short names
    assert trajectory_header(so3_j123, so3_j123_group, False)[:4] == ["t", "x_00", "x_01", "x_02"]


def test_zoh_rollout_exact_abelian():
    ab = aoc.abelian_model(1)
    gm = aoc.abelian_group(ab)
    U = np.array([[3.0], [1.0], [-1.0], [-3.0]])
    _, xs, ys = zoh_rollout(gm, np.eye(2), np.zeros(1), U, 1.0, steps_per_segment=2)
    # exact ZOH integration: y piecewise linear, x its exact integral
    assert_allclose(ys[-1], 0.0, atol=1e-15)
    assert_allclose(xs[-1][0, 1], 0.625, atol=1e-15)


def test_zoh_rollout_batch_matches_loop(so3_j123_group, rng):
    U = rng.standard_normal((5, 8, 3))
    _, xs, ys = zoh_rollout(so3_j123_group, np.eye(3), np.array([0.1, 0, 0]),
                            U, 1.0)
    for b in range(5):
        _, xs1, ys1 = zoh_rollout(so3_j123_group, np.eye(3),
                                  np.array([0.1, 0, 0]), U[b], 1.0)
        assert np.array_equal(xs[:, b], xs1) and np.array_equal(ys[:, b], ys1)


def segment_chain(gm, x0, y0, U, T, spb):
    """The reference rollout: one rkmk_integrate call per control segment,
    each starting from the state the one before it left."""
    lead = U.shape[:-2]
    x = np.broadcast_to(x0, lead + x0.shape).copy()
    y = np.broadcast_to(y0, lead + y0.shape).copy()
    xs, ys = [x], [y]
    h = T / (U.shape[-2] * spb)
    for j in range(U.shape[-2]):
        drift = aoc.embed_control(gm.algebra, U[..., j, :])

        def rhs(k, c, _x, yy, drift=drift):
            return yy, aoc.bias(gm.algebra, yy) + drift

        seg_xs, seg_ys = aoc.groups.rkmk_integrate(gm, x, y, spb, h, rhs)
        x, y = seg_xs[-1], seg_ys[-1]
        xs += list(seg_xs[1:])
        ys += list(seg_ys[1:])
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("spb", [2, 4])
@pytest.mark.parametrize("lead", [(), (5,)])
def test_zoh_rollout_is_bitwise_a_chain_of_segments(so3_j123_group, lead, spb):
    U = np.random.default_rng(11).standard_normal(lead + (6, 3))
    x0 = aoc.exp_map(so3_j123_group, np.array([0.2, -0.1, 0.3]))
    y0 = np.array([0.1, -0.4, 0.2])
    times, xs, ys = zoh_rollout(so3_j123_group, x0, y0, U, 1.3, steps_per_segment=spb)
    ref_xs, ref_ys = segment_chain(so3_j123_group, x0, y0, U, 1.3, spb)
    assert np.array_equal(times, np.linspace(0.0, 1.3, 6 * spb + 1))
    assert np.array_equal(xs, ref_xs) and np.array_equal(ys, ref_ys)


def test_simulate_single_segment_matches_rollout(so3_j123, so3_j123_group):
    # with one control segment there are no interior jumps, paths agree exactly
    U = np.array([[0.3, -0.2, 0.1]])
    traj = simulate(so3_j123, so3_j123_group, State(np.eye(3), np.zeros(3)),
                    lambda t: U[0], 1.0, 2)
    _, xs, ys = zoh_rollout(so3_j123_group, np.eye(3), np.zeros(3), U, 1.0,
                            steps_per_segment=2)
    assert_allclose(traj.xs[-1], xs[-1], atol=0.0)
    assert_allclose(traj.ys[-1], ys[-1], atol=0.0)
