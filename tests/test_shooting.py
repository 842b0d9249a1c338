import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import aoc
from aoc.direct import TranscriptionConfig
from aoc.dynamics import State, zoh_rollout
from aoc.pmp import (Costate, flow_extremal, min_acc_cost, propagate_endpoints,
                     running_cost)
from aoc.shooting import (BoundaryProblem, _levenberg_marquardt, _linear_root,
                          _residual_and_jacobian, _start_points, boundary_residual,
                          extremal_defect, solve_shooting)
from test_pmp import quartic_cost


def abelian_problem(xT_val=1.0, steps=200):
    ab = aoc.abelian_model(1)
    gm = aoc.abelian_group(ab)
    xT = np.eye(2)
    xT[0, 1] = xT_val
    prob = BoundaryProblem(x0=np.eye(2), xT=xT, y0=np.zeros(1), yT=np.zeros(1),
                           T=1.0, steps=steps)
    return ab, gm, min_acc_cost(ab), prob


def test_residual_zero_for_exact_costates():
    ab, gm, cost, prob = abelian_problem()
    r = boundary_residual(ab, gm, cost, prob, [12.0], [6.0])
    assert np.abs(r).max() < 1e-8


def test_residual_of_stationary_flow():
    ab, gm, cost, prob = abelian_problem(xT_val=0.7)
    r = boundary_residual(ab, gm, cost, prob, [0.0], [0.0])
    # flow stays put, so the residual is exactly the boundary data
    assert_allclose(r, [0.7, 0.0], atol=1e-14)


def test_shooting_recovers_cubic_costates():
    ab, gm, cost, prob = abelian_problem()
    res = solve_shooting(ab, gm, cost, prob)
    assert res.converged
    assert res.residual_norm < 1e-8
    assert_allclose(res.mu0, [12.0], atol=1e-6)
    assert_allclose(res.xi0, [6.0], atol=1e-6)
    t = res.trajectory.times
    assert np.abs(res.trajectory.xs[:, 0, 1] - (3 * t ** 2 - 2 * t ** 3)).max() < 1e-7
    assert running_cost(cost, res.trajectory) == pytest.approx(6.0, abs=1e-6)


def hermite_cubic(t, T, p0, v0, pT, vT):
    s = t / T
    h00 = 2 * s ** 3 - 3 * s ** 2 + 1
    h10 = s ** 3 - 2 * s ** 2 + s
    h01 = -2 * s ** 3 + 3 * s ** 2
    h11 = s ** 3 - s ** 2
    return (h00[:, None] * p0 + h10[:, None] * v0 * T
            + h01[:, None] * pT + h11[:, None] * vT * T)


def test_abelian_solution_is_cubic_hermite_interpolant():
    ab = aoc.abelian_model(2)
    gm = aoc.abelian_group(ab)
    cost = min_acc_cost(ab)
    p0 = np.zeros(2)
    v0 = np.array([0.4, -0.3])
    pT = np.array([1.2, 0.8])
    vT = np.array([-0.5, 0.2])
    T = 1.5
    x0 = np.eye(3)
    x0[:2, 2] = p0
    xT = np.eye(3)
    xT[:2, 2] = pT
    prob = BoundaryProblem(x0=x0, xT=xT, y0=v0, yT=vT, T=T, steps=300)
    res = solve_shooting(ab, gm, cost, prob)
    assert res.converged
    positions = res.trajectory.xs[:, :2, 2]
    expected = hermite_cubic(res.trajectory.times, T, p0, v0, pT, vT)
    assert np.abs(positions - expected).max() < 1e-7


def so3_problem(m=3, axis=(0.0, 0.0, 1.0), angle=0.5, steps=200):
    model = aoc.so3_model((1.0, 2.0, 3.0), m=m)
    gm = aoc.so3_group(model)
    xT = aoc.exp_map(gm, np.asarray(axis, dtype=float), angle)
    prob = BoundaryProblem(x0=np.eye(3), xT=xT, y0=np.zeros(3), yT=np.zeros(3),
                           T=1.0, steps=steps)
    return model, gm, min_acc_cost(model), prob


def test_criterion_7_problem_converges_in_few_steps():
    # a rotation about a principal axis of a diagonal inertia: the bias and the
    # brackets vanish along the root of the linearization at rest, which starts
    # the solve, so it converges there with one flow on each grid
    res = solve_shooting(*so3_problem())
    assert res.converged
    assert res.iterations == 0
    assert res.coarse_flows == 1 and res.flows - res.coarse_flows == 1


def test_fully_actuated_steps_take_no_probe_flow(monkeypatch):
    # m = n: plain LM, one seed flow per grid plus one flow per step: 4n + 1 rows
    # on the coarse grid, 1 row on the requested grid, which carries the coarse
    # Jacobian; the trajectory comes from the last accepted flow, not from a flow
    # of its own.  The target is off-axis, so that the solve takes steps from its
    # linear-root seed
    widths = []
    propagate = aoc.pmp.propagate_endpoints

    def counted(*args, **kwargs):
        widths.append(np.shape(args[5])[0])
        return propagate(*args, **kwargs)

    def not_called(*args, **kwargs):
        raise AssertionError("flow_extremal re-ran the solved extremal")

    monkeypatch.setattr(aoc.pmp, "propagate_endpoints", counted)
    monkeypatch.setattr(aoc.pmp, "flow_extremal", not_called)
    res = solve_shooting(*so3_problem(axis=(0.3, -0.6, 0.5), angle=1.0))
    assert res.converged and res.iterations > 0
    # the coarse phase converged, so each grid ran one seed flow
    assert 0 < res.coarse_flows < res.flows
    assert res.flows == res.iterations + 2 == len(widths)
    assert widths == [4 * 3 + 1] * res.coarse_flows + [1] * (res.flows - res.coarse_flows)
    assert res.trajectory is not None


CRIT8_AXIS = np.array([0.6, 0.7, 0.25]) / np.linalg.norm([0.6, 0.7, 0.25])


def test_criterion_8_problem_steps_and_costates():
    # m < n: the linearization at rest is not controllable, so the solve starts
    # from zero costates
    problem = so3_problem(m=2, axis=CRIT8_AXIS, angle=0.4, steps=50)
    assert not _start_points(*problem)[0].any()
    res = solve_shooting(*problem)
    assert res.converged
    assert res.iterations == 24 and res.flows == 47
    # a seed flow per grid plus a probe and a trial flow per step at most
    assert res.flows <= 2 * res.iterations + 2
    # the extremal found by the previous unscaled-damping solver
    assert_allclose(res.mu0, [13.561039142878464, -77.63564240586926, 265.62913222703054],
                    rtol=1e-6)
    assert_allclose(res.xi0, [7.538837769846545, -10.553330829291816, 89.35205682989016],
                    rtol=1e-6)


def spy_flows(monkeypatch, problem):
    """Record (steps, theta rows, residuals) of every flow of the solve."""
    flows = []
    propagate = aoc.pmp.propagate_endpoints

    def counted(*args):
        xT, yT, flow = propagate(*args)
        flows.append((args[8], np.hstack([args[5], args[6]]),
                      aoc.shooting.endpoint_residual(args[1], problem, xT, yT)))
        return xT, yT, flow

    monkeypatch.setattr(aoc.pmp, "propagate_endpoints", counted)
    return flows


@pytest.mark.parametrize("m, axis, angle, steps", [(3, (0.0, 0.0, 1.0), 0.5, 200),
                                                   (2, CRIT8_AXIS, 0.4, 50)])
def test_trajectory_is_bitwise_the_flow_of_the_returned_costates(monkeypatch, m, axis, angle,
                                                                 steps):
    # the requested grid runs 1-row flows only (no 4n + 1-row flow holds the
    # trajectory), and the trajectory is still the flow of the returned costates
    model, gm, cost, prob = so3_problem(m=m, axis=axis, angle=angle, steps=steps)
    flows = spy_flows(monkeypatch, prob)
    res = solve_shooting(model, gm, cost, prob)
    assert res.converged
    fine = [f for f in flows if f[0] == steps]
    assert len(fine) == res.flows - res.coarse_flows > 0
    assert all(len(f[1]) == 1 for f in fine)
    p0 = State(prob.x0, prob.y0), Costate(res.mu0, res.xi0)
    ref = flow_extremal(model, gm, cost, p0, prob.T, prob.steps)
    for name in ("times", "xs", "ys", "us", "mus", "xis", "hams"):
        assert np.array_equal(getattr(res.trajectory, name), getattr(ref, name)), name


@pytest.mark.parametrize("m, axis, angle, steps", [(3, (0.0, 0.0, 1.0), 0.5, 200),
                                                   (2, CRIT8_AXIS, 0.4, 50)],
                         ids=["criterion-7", "criterion-8"])
def test_coarse_flows_come_first(monkeypatch, m, axis, angle, steps):
    # the coarse grid has max(16, steps // 8) steps; the requested grid runs
    # only 1-row residual flows, and neither a Jacobian refresh nor a probe
    # (these targets take neither)
    flows = []
    propagate = aoc.pmp.propagate_endpoints

    def counted(*args):
        flows.append((args[8], np.shape(args[5])[0]))
        return propagate(*args)

    monkeypatch.setattr(aoc.pmp, "propagate_endpoints", counted)
    res = solve_shooting(*so3_problem(m=m, axis=axis, angle=angle, steps=steps))
    assert res.converged and len(flows) == res.flows
    coarse, fine = flows[:res.coarse_flows], flows[res.coarse_flows:]
    assert coarse and fine
    assert all(f[0] == max(16, steps // 8) for f in coarse)
    assert all(f == (steps, 1) for f in fine)


@pytest.mark.parametrize("steps", [50, 200])
def test_requested_grid_finishes_from_the_coarse_root_in_few_steps(steps):
    # criterion 8: the coarse damping carries over, so the requested grid takes a
    # seed flow and at most 3 probe-and-trial steps (about 10 with fresh damping)
    res = solve_shooting(*so3_problem(m=2, axis=CRIT8_AXIS, angle=0.4, steps=steps))
    assert res.converged
    assert res.flows - res.coarse_flows <= 1 + 2 * 3


@pytest.mark.parametrize("steps, nested", [(20, False), (39, False), (40, True)])
def test_coarse_grid_only_from_40_requested_steps(steps, nested):
    # the 16-step coarse grid needs a requested grid at least 2.5 times longer
    res = solve_shooting(*so3_problem(steps=steps))
    assert res.converged
    assert (res.coarse_flows > 0) == nested
    if not nested:
        assert res.flows == res.iterations + 1


def single_grid(monkeypatch, problem, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(aoc.shooting, "COARSE_MIN_STEPS", 10 ** 9)
        res = solve_shooting(*problem, **kwargs)
    assert res.coarse_flows == 0
    return res


def assert_same_iterate(res, ref):
    assert res.converged == ref.converged and res.residual_norm == ref.residual_norm
    assert np.array_equal(res.mu0, ref.mu0) and np.array_equal(res.xi0, ref.xi0)
    for name in ("xs", "ys", "us", "mus", "xis"):
        assert np.array_equal(getattr(res.trajectory, name), getattr(ref.trajectory, name)), name


@pytest.mark.parametrize("target, guess, max_iter", [
    ((2, (0.0, 0.0, 1.0), 0.5, 50), np.ones(6), 200),  # a start that stalls on both grids
    ((2, CRIT8_AXIS, 0.4, 50), None, 2),  # max_iter caps each run, so every start stops early
], ids=["stalled-start", "max-iter"])
def test_no_nested_convergence_gives_the_single_grid_solve(monkeypatch, target, guess,
                                                          max_iter):
    # no start converges on the coarse grid, so every requested-grid flow is
    # the single-grid multi-start's, bitwise
    problem = so3_problem(*target)
    kwargs = {"max_iter": max_iter}
    if guess is not None:
        kwargs["initial_guess"] = (guess[:3], guess[3:])
    nested = solve_shooting(*problem, **kwargs)
    single = single_grid(monkeypatch, problem, **kwargs)
    assert nested.coarse_flows > 0 and not single.converged
    assert_same_iterate(nested, single)
    assert nested.flows - nested.coarse_flows == single.flows
    # the rest are the coarse runs' steps, at most max_iter per start
    assert 0 < nested.iterations - single.iterations <= max_iter * (1 if guess is not None else 8)


def test_stalled_starts_take_no_requested_grid_flow(monkeypatch):
    # e3 with m = 2: the first three seeds stall on the coarse grid and the
    # fourth converges, so only that start runs on the requested grid
    flows = []
    propagate = aoc.pmp.propagate_endpoints

    def counted(*args):
        flows.append(args[8])
        return propagate(*args)

    monkeypatch.setattr(aoc.pmp, "propagate_endpoints", counted)
    model, gm, c, prob = so3_problem(m=2, axis=(0.0, 0.0, 1.0), angle=0.5, steps=50)
    res = solve_shooting(model, gm, c, prob)
    assert res.converged and res.residual_norm < 1e-8
    assert flows == [16] * res.coarse_flows + [50] * (res.flows - res.coarse_flows)
    assert res.flows - res.coarse_flows <= 1 + 2 * 3 and res.flows == 129
    # the single-grid solve takes 126 flows of 50 steps to the same extremal
    assert running_cost(c, res.trajectory) == pytest.approx(238.25792808865097, rel=1e-7)


def test_failed_continuation_reruns_the_seed_on_the_requested_grid(monkeypatch):
    # criterion 8 with every continuation from a coarse root cut to 0 steps: the
    # start reruns from its seed on the requested grid, bitwise the single-grid solve
    problem = so3_problem(m=2, axis=CRIT8_AXIS, angle=0.4, steps=50)
    single = single_grid(monkeypatch, problem)
    lm = aoc.shooting._levenberg_marquardt

    def cut(evaluate, theta0, tol, max_iter, geodesic=False, damping=None, jacobian=None):
        return lm(evaluate, theta0, tol, 0 if damping is not None else max_iter, geodesic,
                  damping, jacobian)

    monkeypatch.setattr(aoc.shooting, "_levenberg_marquardt", cut)
    nested = solve_shooting(*problem)
    assert single.converged
    assert_same_iterate(nested, single)
    # the continuation's seed flow, then the single-grid run
    assert nested.flows - nested.coarse_flows == 1 + single.flows


def wide_target():
    # a "wide" target of scripts/shooting_traffic.py (k = 8): about 2.30 rad
    rng = np.random.default_rng([7, 8])
    axis = rng.standard_normal(3)
    return axis / np.linalg.norm(axis), rng.uniform(1.0, 3.1)


def test_rejected_step_with_a_stale_jacobian_refreshes_it(monkeypatch):
    axis, angle = wide_target()
    problem = so3_problem(m=2, axis=axis, angle=angle, steps=50)
    prob = problem[3]
    lm = aoc.shooting._levenberg_marquardt
    continuations = []

    def spy(evaluate, theta0, tol, max_iter, geodesic=False, damping=None, jacobian=None):
        if jacobian is not None:
            continuations.append((evaluate, theta0, tol, geodesic, damping, jacobian))
        return lm(evaluate, theta0, tol, max_iter, geodesic, damping, jacobian)

    monkeypatch.setattr(aoc.shooting, "_levenberg_marquardt", spy)
    flows = spy_flows(monkeypatch, prob)
    res = solve_shooting(*problem)
    assert res.converged and len(continuations) == 1
    # with a fresh Jacobian on every step the requested grid took 42 flows
    fine = [f for f in flows if f[0] == 50]
    assert len(fine) == res.flows - res.coarse_flows <= 10
    refreshes = [k for k, f in enumerate(fine) if len(f[1]) == 13]
    assert len(refreshes) == 1
    k = refreshes[0]
    # the iterate is the last 1-row flow that lowered |r|, since a step is
    # accepted exactly when it does; the flow before the refresh was rejected
    current = None
    for _, thetas, r in fine[:k]:
        assert len(thetas) == 1
        if current is None or r[0] @ r[0] < current[1] @ current[1]:
            current = thetas[0], r[0]
    theta, r = current
    assert fine[k - 1][2][0] @ fine[k - 1][2][0] >= r @ r
    h = 1e-6 * (1.0 + np.abs(theta))
    assert np.array_equal(fine[k][1], theta + np.vstack([np.zeros(6), np.diag(h), -np.diag(h)]))
    assert np.array_equal(fine[k][2][0], r)
    # rerun the continuation one step at a time: the step that refreshes leaves
    # (lambda, nu) as the step before left it
    evaluate, theta0, tol, geodesic, damping, J0 = continuations[0]
    reached = [damping]
    for steps in range(1, res.iterations + 1):
        start = len(flows)
        reached.append(lm(evaluate, theta0, tol, steps, geodesic, damping, J0).damping)
        if any(len(f[1]) == 13 for f in flows[start:]):
            break
    assert len(reached) > 2 and reached[-1] == reached[-2] and reached[-2] != damping
    # the same extremal as the single-grid solve
    single = single_grid(monkeypatch, problem)
    assert single.converged
    c = problem[2]
    assert running_cost(c, res.trajectory) == pytest.approx(running_cost(c, single.trajectory),
                                                            rel=1e-7)


@pytest.mark.parametrize("m, axis, angle, steps, cost", [
    (3, (0.0, 0.0, 1.0), 0.5, 200, 4.499999994884515),  # criterion 7
    (2, CRIT8_AXIS, 0.4, 50, 18.753363965936963),  # criterion 8
    (2, CRIT8_AXIS, 0.4, 200, 18.753204777416176),
], ids=["criterion-7", "criterion-8", "criterion-8-200-steps"])
def test_nested_grid_finds_the_single_grid_extremal(m, axis, angle, steps, cost):
    # costs of the extremals that the single-grid solver found on the requested grid
    model, gm, c, prob = so3_problem(m=m, axis=axis, angle=angle, steps=steps)
    res = solve_shooting(model, gm, c, prob)
    assert res.converged and res.residual_norm < 1e-8
    assert running_cost(c, res.trajectory) == pytest.approx(cost, rel=1e-7)


def test_large_angle_underactuated_converges_on_first_start():
    # plain LM stalls here on every start; geodesic acceleration reaches it from the first seed
    model, gm, c, prob = so3_problem(m=2, axis=CRIT8_AXIS, angle=3.0, steps=50)
    res = solve_shooting(model, gm, c, prob, initial_guess=(np.zeros(3), np.zeros(3)),
                         max_iter=120)
    assert res.converged
    assert res.residual_norm < 1e-8
    # the cost of the extremal the single-grid solver found on the requested grid
    assert running_cost(c, res.trajectory) == pytest.approx(765.1393334771421, rel=1e-7)


def test_so3_fully_actuated_rest_to_rest():
    model, gm, cost, prob = so3_problem()
    res = solve_shooting(model, gm, cost, prob)
    assert res.converged
    assert res.residual_norm < 1e-8
    # stored trajectory satisfies the rigid body extremal equations at
    # every grid point (hand-coded rates, same as the paper-form check)
    J = np.diag([1.0, 2.0, 3.0])
    Jinv = np.diag([1.0, 0.5, 1.0 / 3.0])
    traj = res.trajectory
    h = traj.times[1] - traj.times[0]
    mudot_fd = (traj.mus[2:] - traj.mus[:-2]) / (2 * h)
    hand = np.cross(traj.mus[1:-1], traj.ys[1:-1])
    assert np.abs(mudot_fd - hand).max() < 1e-4  # second order stencil
    # exact algebraic check of the recorded controls
    assert np.abs(traj.us - traj.xis @ Jinv).max() < 1e-12


def test_trivial_rest_problem_zero_costates():
    model, gm, cost, prob = so3_problem(angle=0.0)
    res = solve_shooting(model, gm, cost, prob)
    assert res.converged
    assert res.iterations == 0
    assert_allclose(res.mu0, 0.0)
    assert_allclose(res.xi0, 0.0)


def test_shooting_deterministic_rerun():
    ab, gm, cost, prob = abelian_problem()
    res1 = solve_shooting(ab, gm, cost, prob)
    res2 = solve_shooting(ab, gm, cost, prob, initial_guess=(res1.mu0, res1.xi0))
    assert res2.converged
    assert res2.residual_norm <= res1.residual_norm + 1e-12
    assert_allclose(res2.mu0, res1.mu0, atol=1e-9)
    res3 = solve_shooting(ab, gm, cost, prob)
    assert res3.residual_norm == res1.residual_norm
    assert_allclose(res3.mu0, res1.mu0, atol=0.0)


def test_defect_is_fourth_order():
    model, gm, cost, _ = so3_problem()
    axis = np.array([0.5, 0.6, 0.4])
    axis /= np.linalg.norm(axis)
    xT = aoc.exp_map(gm, axis, 0.6)
    coarse = BoundaryProblem(x0=np.eye(3), xT=xT, y0=np.zeros(3), yT=np.zeros(3),
                             T=1.0, steps=100)
    res = solve_shooting(model, gm, cost, coarse)
    assert res.converged
    d1 = extremal_defect(model, cost, res.trajectory)
    p0 = State(coarse.x0, coarse.y0), Costate(res.mu0, res.xi0)
    fine = flow_extremal(model, gm, cost, p0, coarse.T, 2 * coarse.steps)
    d2 = extremal_defect(model, cost, fine)
    for key in ("y", "mu", "xi"):
        ratio = d1[key] / d2[key]
        assert 8.0 <= ratio <= 32.0
    assert d1["stationarity"] < 1e-12


def test_singular_normal_matrix_ends_the_run():
    # J = 0 makes the damping 0 and J^T J + lambda I singular: the run stops, unconverged
    def evaluate(theta, jacobian=True):
        return np.ones(2), np.zeros((2, 2)), "flow"

    run = _levenberg_marquardt(evaluate, np.zeros(2), 1e-8, 10)
    assert not run.converged and run.steps == 0 and run.flows == 1
    assert run.norm == 1.0 and run.flow == "flow"


def test_failed_refresh_of_a_stale_jacobian_ends_the_run():
    # with a carried (stale) J the failed trial asks for a refresh at theta, which fails too
    calls = []

    def evaluate(theta, jacobian=True):
        calls.append(jacobian)
        return (np.ones(2), None, "flow") if len(calls) == 1 else None

    run = _levenberg_marquardt(evaluate, np.zeros(2), 1e-8, 10, jacobian=np.eye(2))
    assert calls == [False, False, True]
    assert not run.converged and run.steps == 1 and run.flows == 3
    assert np.array_equal(run.theta, np.zeros(2)) and run.flow == "flow"


def test_nonconverged_returns_best_iterate():
    # off-axis, so the linearized root that starts a fully actuated solve is no root
    res = solve_shooting(*so3_problem(axis=(0.3, -0.6, 0.5), angle=1.0), max_iter=0)
    assert not res.converged
    assert res.residual_norm > 0.0


@pytest.mark.parametrize("name, value", [
    ("tol", 0.0), ("tol", -1.0), ("tol", np.nan), ("tol", True), ("fd_step", 0),
    ("fd_step", np.inf), ("fd_step", "1e-6"), ("max_iter", 2.5), ("max_iter", -2),
    ("max_iter", True), pytest.param("tol", 10**400, id="tol-beyond-float")])
def test_bad_solver_arguments_are_value_errors(name, value, monkeypatch):
    # refused before any flow: nothing is reported as a run that stopped at once
    # or ran every start to max_iter
    def no_flow(*args, **kw):
        raise AssertionError("a flow ran")

    ab, gm, cost, prob = abelian_problem()
    monkeypatch.setattr("aoc.groups.rkmk_integrate", no_flow)
    with pytest.raises(ValueError, match="must be finite and positive|must be an integer"
                                         "|must be at least 0"):
        solve_shooting(ab, gm, cost, prob, **{name: value})


def test_residual_propagates_angle_out_of_range():
    model = aoc.so3_model((1.0, 2.0, 3.0))
    gm = aoc.so3_group(model)
    cost = min_acc_cost(model)
    xT = aoc.exp_map(gm, [0.0, 0.0, 1.0], np.pi - 1e-9)
    prob = BoundaryProblem(x0=np.eye(3), xT=xT, y0=np.zeros(3), yT=np.zeros(3),
                           T=1.0, steps=20)
    with pytest.raises(aoc.AngleOutOfRange):
        boundary_residual(model, gm, cost, prob, np.zeros(3), np.zeros(3))


def test_shooting_survives_ill_posed_first_batch():
    problem = so3_problem(angle=np.pi - 1e-9, steps=20)
    # the zero-costate seed's batch raises AngleOutOfRange: a failed start, not an error
    assert _residual_and_jacobian(*problem, np.zeros(6), 1e-6) is None
    res = solve_shooting(*problem)
    assert np.isfinite(res.residual_norm) and res.trajectory is not None


def test_linear_root_solves_an_abelian_problem_with_moving_ends():
    # the field of a quadratic cost on an abelian group is linear, so the root of
    # its linearization at rest is the root: the first seed takes no LM step, with
    # a non-diagonal inertia (which the field never reads) and weight
    ab = aoc.abelian_model(2, inertia=np.array([[2.0, 0.5], [0.5, 1.0]]))
    gm = aoc.abelian_group(ab)
    cost = aoc.quadratic_cost(ab, [[1.5, -0.4], [-0.4, 0.8]])
    x0, xT = np.eye(3), np.eye(3)
    x0[:2, 2], xT[:2, 2] = [0.3, -0.2], [1.1, 0.6]
    prob = BoundaryProblem(x0=x0, xT=xT, y0=np.array([0.4, -0.3]), yT=np.array([-0.5, 0.2]),
                           T=1.7, steps=120)
    res = solve_shooting(ab, gm, cost, prob)
    assert res.converged and res.iterations == 0
    assert res.coarse_flows == 1 and res.flows == 2
    assert np.array_equal(np.concatenate([res.mu0, res.xi0]), _linear_root(gm, cost.quad_weight,
                                                                           prob))


def test_linear_root_is_the_cubic():
    ab, gm, cost, prob = abelian_problem()
    assert_allclose(_linear_root(gm, cost.quad_weight, prob), [12.0, 6.0], rtol=1e-15)


def test_linear_root_saves_coarse_flows_off_axis():
    problem = so3_problem(axis=(0.3, -0.6, 0.5), angle=1.0)
    res = solve_shooting(*problem)
    ref = solve_shooting(*problem, initial_guess=(np.zeros(3), np.zeros(3)))
    assert res.converged and ref.converged
    assert res.coarse_flows < ref.coarse_flows
    theta, theta0 = (np.concatenate([r.mu0, r.xi0]) for r in (res, ref))
    assert np.abs(theta - theta0).max() <= 1e-8 * np.abs(theta0).max()


def test_a_quartic_cost_keeps_the_zero_seed(monkeypatch):
    model, gm, _, prob = so3_problem(steps=20)
    cost = quartic_cost(model)
    assert not _start_points(model, gm, cost, prob)[0].any()
    assert _start_points(model, gm, min_acc_cost(model), prob)[0].any()
    seeds = spy_flows(monkeypatch, prob)
    res = solve_shooting(model, gm, cost, prob)
    assert res.converged and not seeds[0][1][0].any()


@pytest.mark.parametrize("angle, T", [(np.pi, 1.0), (np.pi - 1e-9, 1.0), (0.5, 1e-120)],
                         ids=["half-turn", "near-half-turn", "root-beyond-float"])
def test_linear_root_falls_back_to_zero(angle, T):
    # an ill-posed log or a root that is not finite leaves start 0 at 0; never an error
    model, gm, cost, prob = so3_problem(angle=angle)
    prob = dataclasses.replace(prob, T=T)
    with np.errstate(all="raise"):
        assert not _linear_root(gm, cost.quad_weight, prob).any()
        assert not _start_points(model, gm, cost, prob)[0].any()


def test_defect_needs_five_grid_points():
    ab, gm, cost, prob = abelian_problem(steps=3)
    res = solve_shooting(ab, gm, cost, prob)
    assert res.converged and len(res.trajectory) == 4
    with pytest.raises(ValueError, match="at least 5 grid points, got 4"):
        extremal_defect(ab, cost, res.trajectory)
    assert extremal_defect(ab, cost, solve_shooting(
        ab, gm, cost, dataclasses.replace(prob, steps=4)).trajectory)["y"] < 1e-9


def test_batched_defect_matches_per_point_path():
    model, gm, cost, prob = so3_problem(m=2, axis=CRIT8_AXIS, angle=0.4, steps=50)
    res = solve_shooting(model, gm, cost, prob)
    # the same cost without its quadratic marker takes the Newton path of the field
    generic = dataclasses.replace(cost, quad_weight=None)
    batched = extremal_defect(model, cost, res.trajectory)
    per_point = extremal_defect(model, generic, res.trajectory)
    for key in ("y", "mu", "xi"):
        assert batched[key] == pytest.approx(per_point[key], rel=1e-6)
    assert batched["stationarity"] < 1e-12 and per_point["stationarity"] < 1e-12


@pytest.mark.parametrize("count", [20.9, 20.0, True], ids=["fraction", "integral-float", "bool"])
@pytest.mark.parametrize("call", ["BoundaryProblem", "flow_extremal", "simulate", "zoh_rollout",
                                  "segments", "steps_per_segment"])
def test_step_counts_must_be_integers(call, count, so3_j123, so3_j123_group):
    # a count is never truncated: 20.9 steps is an error, not a 20-step grid
    model, gm = so3_j123, so3_j123_group
    zero = np.zeros(3)
    run = {
        "BoundaryProblem": lambda: BoundaryProblem(x0=np.eye(3), xT=np.eye(3), y0=zero,
                                                   yT=zero, T=1.0, steps=count),
        "flow_extremal": lambda: flow_extremal(
            model, gm, min_acc_cost(model),
            (State(np.eye(3), zero), Costate(zero, zero)), 1.0, count),
        "simulate": lambda: aoc.simulate(model, gm, State(np.eye(3), zero),
                                         aoc.zero_control(model), 1.0, count),
        "zoh_rollout": lambda: zoh_rollout(gm, np.eye(3), zero, np.zeros((4, 3)), 1.0,
                                           steps_per_segment=count),
        "segments": lambda: TranscriptionConfig(segments=count),
        "steps_per_segment": lambda: TranscriptionConfig(steps_per_segment=count),
    }[call]
    with pytest.raises(ValueError, match="must be an integer"):
        run()


@pytest.mark.parametrize("call, T, count", [
    ("propagate_endpoints", 1.0, 0), ("propagate_endpoints", -1.0, 20),
    ("propagate_endpoints", np.nan, 20), ("simulate", np.nan, 20), ("simulate", 0.0, 20),
    ("zoh_rollout", 1.0, 0), ("zoh_rollout-no-segments", 1.0, 2),
    ("BoundaryProblem", np.inf, 20), ("BoundaryProblem", np.nan, 20),
    ("BoundaryProblem", 1.0, 0), ("reconstruct_step", np.inf, 1),
    ("reconstruct_step", 0.0, 1), ("BoundaryProblem", True, 20), ("BoundaryProblem", "1", 20)])
def test_bad_grids_are_value_errors(call, T, count, so3_j123, so3_j123_group):
    # one rule for every uniform grid: an integer count of at least 1 over a
    # finite positive real T; nothing runs backward, divides by zero, is reported
    # as a blow-up or reads a bool as T = 1 (zoh_rollout names a steps_per_segment of 0)
    model, gm = so3_j123, so3_j123_group
    zero = np.zeros(3)
    run = {
        "propagate_endpoints": lambda: propagate_endpoints(
            model, gm, min_acc_cost(model), np.eye(3), zero, zero, zero, T, count),
        "simulate": lambda: aoc.simulate(model, gm, State(np.eye(3), zero),
                                         aoc.zero_control(model), T, count),
        "zoh_rollout": lambda: zoh_rollout(gm, np.eye(3), zero, np.zeros((4, 3)), T,
                                           steps_per_segment=count),
        "zoh_rollout-no-segments": lambda: zoh_rollout(gm, np.eye(3), zero, np.zeros((0, 3)),
                                                       T, steps_per_segment=count),
        "BoundaryProblem": lambda: BoundaryProblem(x0=np.eye(3), xT=np.eye(3), y0=zero,
                                                   yT=zero, T=T, steps=count),
        "reconstruct_step": lambda: aoc.reconstruct_step(gm, np.eye(3), lambda t: zero, 0.0, T),
    }[call]
    with pytest.raises(ValueError, match="T must be finite and positive"
                                         "|steps(_per_segment)? must be at least 1"):
        run()
