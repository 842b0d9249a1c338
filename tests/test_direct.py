import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import aoc
from aoc.direct import (FD_STEP, TranscriptionConfig, _linearize, optimize_direct,
                        transcription_objective)
from aoc.dynamics import zoh_rollout
from aoc.groups import MAX_STEPS
from aoc.pmp import CostModel, min_acc_cost, quadratic_cost, running_cost
from aoc.shooting import BoundaryProblem, endpoint_residual, solve_shooting
from test_parareal import GROUPS


def abelian_problem(xT_val=1.0):
    ab = aoc.abelian_model(1)
    gm = aoc.abelian_group(ab)
    xT = np.eye(2)
    xT[0, 1] = xT_val
    prob = BoundaryProblem(x0=np.eye(2), xT=xT, y0=np.zeros(1), yT=np.zeros(1),
                           T=1.0, steps=200)
    return ab, gm, min_acc_cost(ab), prob


def test_objective_zero_motion_is_zero():
    ab, gm, cost, prob = abelian_problem(xT_val=0.0)
    cfg = TranscriptionConfig(segments=10)
    assert transcription_objective(ab, cost, prob, np.zeros((10, 1)), cfg) == 0.0


def test_objective_at_analytic_samples():
    # integral of u^2/2 for u = 6 - 12t is 6
    ab, gm, cost, prob = abelian_problem()
    N = 200
    mids = (np.arange(N) + 0.5) / N
    U = (6.0 - 12.0 * mids)[:, None]
    cfg = TranscriptionConfig(segments=N)
    val = transcription_objective(ab, cost, prob, U, cfg)
    assert val == pytest.approx(6.0, abs=1e-2)


def test_objective_near_indirect_cost_at_sampled_solution():
    ab, gm, cost, prob = abelian_problem()
    res = solve_shooting(ab, gm, cost, prob)
    indirect = running_cost(cost, res.trajectory)
    N = 100
    mids = (np.arange(N) + 0.5) * prob.T / N
    idx = np.clip(np.round(mids / prob.T * (len(res.trajectory) - 1)).astype(int),
                  0, len(res.trajectory) - 1)
    U = res.trajectory.us[idx]
    cfg = TranscriptionConfig(segments=N)
    val = transcription_objective(ab, cost, prob, U, cfg)
    assert val == pytest.approx(indirect, rel=1e-3)


def test_objective_rejects_bad_shape():
    ab, gm, cost, prob = abelian_problem()
    cfg = TranscriptionConfig(segments=10)
    with pytest.raises(ValueError):
        transcription_objective(ab, cost, prob, np.zeros((5, 1)), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        TranscriptionConfig(segments=1)
    with pytest.raises(ValueError, match="at least 1"):
        TranscriptionConfig(steps_per_segment=0)
    # each count is within the grid ceiling, their product, the oracle's grid, is not
    TranscriptionConfig(segments=2, steps_per_segment=MAX_STEPS // 2)
    with pytest.raises(ValueError, match=r"segments \* steps_per_segment must be at most "
                                         r"1000000, got 2000000"):
        TranscriptionConfig(segments=2, steps_per_segment=MAX_STEPS)


def test_batched_boundary_residual_matches_single(rng):
    model = aoc.so3_model((1.0, 2.0, 3.0))
    gm = aoc.so3_group(model)
    xT = aoc.exp_map(gm, [0.1, 0.2, 0.3])
    prob = BoundaryProblem(x0=np.eye(3), xT=xT, y0=np.zeros(3), yT=np.zeros(3),
                           T=1.0, steps=10)
    U = rng.standard_normal((7, 6, 3))
    _, xs, ys = zoh_rollout(gm, prob.x0, prob.y0, U, prob.T)
    batch = endpoint_residual(gm, prob, xs[-1], ys[-1])
    for b in range(7):
        _, xs, ys = zoh_rollout(gm, prob.x0, prob.y0, U[b], prob.T)
        assert np.array_equal(batch[b], endpoint_residual(gm, prob, xs[-1], ys[-1]))


def so3_problem(target, m=3, steps=200):
    model = aoc.so3_model((1.0, 2.0, 3.0), m=m)
    gm = aoc.so3_group(model)
    prob = BoundaryProblem(x0=np.eye(3), xT=aoc.exp_map(gm, target), y0=np.zeros(3),
                           yT=np.zeros(3), T=1.0, steps=steps)
    return model, gm, min_acc_cost(model), prob


def test_non_quadratic_cost_rejected():
    ab, gm, quad, prob = abelian_problem()
    cost = CostModel(eval=lambda s, u: np.sum(u ** 4, axis=-1), dL_dx_triv=quad.dL_dx_triv,
                     dL_dy=quad.dL_dy, dL_du=lambda s, u: 4.0 * u ** 3,
                     d2L_du2=lambda s, u: 12.0 * (u ** 2)[..., None] * np.eye(u.shape[-1]),
                     x_independent=True)
    cfg = TranscriptionConfig(segments=10)
    with pytest.raises(ValueError, match="quadratic"):
        optimize_direct(ab, gm, cost, prob, cfg)
    with pytest.raises(ValueError, match="quadratic"):
        transcription_objective(ab, cost, prob, np.zeros((10, 1)), cfg)


def test_generic_axis_matches_shooting():
    model, gm, cost, prob = so3_problem([0.3, -0.6, 0.5])
    indirect = running_cost(cost, solve_shooting(model, gm, cost, prob).trajectory)
    gaps = []
    for N in (20, 50):
        out = optimize_direct(model, gm, cost, prob, TranscriptionConfig(segments=N))
        assert out.converged and out.boundary_error < 1e-10
        assert out.running_cost >= indirect * (1 - 1e-3)
        gaps.append(abs(out.running_cost - indirect) / indirect)
    assert gaps[0] < 0.02
    assert gaps[1] < gaps[0]


@pytest.mark.parametrize("spb", [1, 3])
def test_odd_steps_per_segment_converge(spb):
    # the cost z^T W z / 2 is exact for any count, so no count needs to be even
    model, gm, cost, prob = so3_problem([0.3, -0.6, 0.5])
    indirect = running_cost(cost, solve_shooting(model, gm, cost, prob).trajectory)
    out = optimize_direct(model, gm, cost, prob,
                          TranscriptionConfig(segments=20, steps_per_segment=spb))
    assert out.converged and out.boundary_error < 1e-10
    assert len(out.trajectory) == 20 * spb + 1
    assert 0.0 <= (out.running_cost - indirect) / indirect < 0.005


def whole_horizon_jacobian(gm, problem, U, spb):
    """Reference: the forward-difference Jacobian of the boundary residual,
    one rollout of all N m perturbed controls over the whole horizon."""
    N, m = U.shape
    Z = U + FD_STEP * np.eye(N * m).reshape(-1, N, m)
    _, xs, ys = zoh_rollout(gm, problem.x0, problem.y0, np.concatenate([U[None], Z]),
                            problem.T, steps_per_segment=spb)
    r = endpoint_residual(gm, problem, xs[-1], ys[-1])
    return (r[1:] - r[0]).T / FD_STEP


def segment_jacobian(gm, problem, U, spb):
    """A from the linearization about the nodes of U's own rollout."""
    _, xs, ys = zoh_rollout(gm, problem.x0, problem.y0, U, problem.T, steps_per_segment=spb)
    return _linearize(gm, problem, U, xs[::spb], ys[::spb], spb)[0]


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("spb", [2, 4])
def test_segment_jacobian_matches_the_whole_horizon_one(rng, group, spb):
    gm = GROUPS[group]()
    n, m = gm.algebra.n, gm.algebra.m
    prob = BoundaryProblem(x0=aoc.exp_map(gm, 0.5 * rng.standard_normal(n)),
                           xT=aoc.exp_map(gm, 0.5 * rng.standard_normal(n)),
                           y0=0.3 * rng.standard_normal(n), yT=0.3 * rng.standard_normal(n),
                           T=1.5, steps=10)
    U = rng.standard_normal((12, m))
    A, ref = segment_jacobian(gm, prob, U, spb), whole_horizon_jacobian(gm, prob, U, spb)
    assert A.shape == ref.shape == (2 * n, 12 * m)
    assert np.abs(A - ref).max() < 1e-5 * np.abs(ref).max()


COUPLED_R = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 0.7]])


def kkt_miss(gm, prob, cost, U):
    """|A^T lambda - W z| / |W z| at the best lambda: 0 at a constrained
    minimum of z^T W z / 2, where the gradient W z is A^T lambda."""
    A = segment_jacobian(gm, prob, U, 2)
    grad = (prob.T / len(U)) * (U @ cost.quad_weight).reshape(-1)
    lam = np.linalg.lstsq(A.T, grad, rcond=None)[0]
    return np.linalg.norm(A.T @ lam - grad) / np.linalg.norm(grad)


def test_solution_satisfies_kkt_conditions():
    # also for a weight that couples the controls
    model, gm, min_acc, prob = so3_problem([0.3, -0.6, 0.5])
    N = 12
    for cost in (min_acc, quadratic_cost(model, COUPLED_R)):
        out = optimize_direct(model, gm, cost, prob, TranscriptionConfig(segments=N))
        assert out.converged
        assert kkt_miss(gm, prob, cost, out.U) < 1e-6


@pytest.mark.parametrize("yT", [np.zeros(3), np.array([-0.2, 0.5, 0.1])],
                         ids=["rest-end", "moving-end"])
def test_a_start_off_rest_converges_to_the_shooting_cost(yT):
    # from y0 != 0 the first iterate's nodes (all at s_0) miss the flow: every
    # defect is nonzero, and the linearization must close them with c
    model, gm, min_acc, prob = so3_problem([0.3, -0.6, 0.5])
    prob = dataclasses.replace(prob, y0=np.array([0.4, -0.3, 0.2]), yT=yT)
    for cost in (min_acc, quadratic_cost(model, COUPLED_R)):
        indirect = solve_shooting(model, gm, cost, prob)
        assert indirect.converged
        ref = running_cost(cost, indirect.trajectory)
        out = optimize_direct(model, gm, cost, prob, TranscriptionConfig(segments=20))
        assert out.converged and out.boundary_error < 1e-10
        assert kkt_miss(gm, prob, cost, out.U) < 1e-6
        assert abs(out.running_cost - ref) / ref < 0.02


@pytest.mark.parametrize("group", GROUPS)
def test_linearization_predicts_the_residual_across_defects(rng, group):
    # nodes eps away from U's own rollout: c~ = c + sum_j G_{j+1} d_j is the
    # residual once the nodes close their defects, which is U's rollout's, to O(eps^2)
    gm = GROUPS[group]()
    n, m, N, spb = gm.algebra.n, gm.algebra.m, 12, 2
    prob = BoundaryProblem(x0=aoc.exp_map(gm, 0.5 * rng.standard_normal(n)),
                           xT=aoc.exp_map(gm, 0.5 * rng.standard_normal(n)),
                           y0=0.3 * rng.standard_normal(n), yT=0.3 * rng.standard_normal(n),
                           T=1.5, steps=10)
    U = rng.standard_normal((N, m))
    _, xs, ys = zoh_rollout(gm, prob.x0, prob.y0, U, prob.T, steps_per_segment=spb)
    c = endpoint_residual(gm, prob, xs[-1], ys[-1])
    ds = rng.standard_normal((N, 2 * n))  # node 0 is the fixed start
    misses = []
    for eps in (1e-2, 5e-3):
        xn = np.concatenate([xs[:1], xs[spb::spb] @ aoc.exp_map(gm, eps * ds[:, :n])])
        yn = np.concatenate([ys[:1], ys[spb::spb] + eps * ds[:, n:]])
        _, c_pred, _, D, _ = _linearize(gm, prob, U, xn, yn, spb)
        assert np.abs(D[:, -1]).max() > eps / 10.0  # the defects d_j are there
        misses.append(np.linalg.norm(c_pred - c))
    if group == "abelian":  # a linear flow: the prediction is exact but for rounding
        assert max(misses) < 1e-8
    else:
        assert misses[0] < 1e-2 * np.abs(c).max()
        assert misses[0] >= 3.0 * misses[1]


def test_the_criterion_7_oracle_makes_one_segment_rollout_per_iteration(monkeypatch):
    # lifted Gauss-Newton: each iteration's only rollout is the batched flow of
    # every segment's N (2n + m + 1) rows over its own steps, one more for the
    # final check, and no one-row rollout of the whole horizon
    model, gm, cost, prob = so3_problem([0.0, 0.0, 0.5])
    calls = []

    def counted(gm, x0, y0, U, T, steps_per_segment=2):
        calls.append((len(x0), U.shape[-2] * steps_per_segment))
        return zoh_rollout(gm, x0, y0, U, T, steps_per_segment=steps_per_segment)

    monkeypatch.setattr(aoc.direct, "zoh_rollout", counted)
    out = optimize_direct(model, gm, cost, prob, TranscriptionConfig(segments=20))
    assert out.converged and out.iterations == 2
    assert calls == [(20 * (2 * 3 + 3 + 1), 2)] * 3


def test_underactuated_zero_start_reports_unconverged():
    # criterion-8 problem: at U = 0 the m = 2 linearization has rank 4 of 6
    axis = np.array([0.6, 0.7, 0.25])
    model, gm, cost, prob = so3_problem(0.4 * axis / np.linalg.norm(axis), m=2)
    out = optimize_direct(model, gm, cost, prob, TranscriptionConfig(segments=10))
    assert not out.converged and out.iterations == 0
    assert np.isfinite(out.U).all() and np.isfinite(out.running_cost)
    assert out.boundary_error > 0.1


def test_optimize_abelian_cubic_benchmark():
    ab, gm, cost, prob = abelian_problem()
    res = optimize_direct(ab, gm, cost, prob, TranscriptionConfig(segments=50))
    assert res.running_cost == pytest.approx(6.0, rel=0.01)
    mids = (np.arange(50) + 0.5) / 50
    assert np.abs(res.U[:, 0] - (6.0 - 12.0 * mids)).max() < 0.2


def test_optimize_at_rest_returns_zero_control():
    ab, gm, cost, prob = abelian_problem(xT_val=0.0)
    res = optimize_direct(ab, gm, cost, prob, TranscriptionConfig(segments=16))
    assert_allclose(res.U, 0.0)
    assert res.running_cost == 0.0
    assert res.converged


def test_oracle_agreement_bounds():
    ab, gm, cost, prob = abelian_problem()
    res = solve_shooting(ab, gm, cost, prob)
    indirect = running_cost(cost, res.trajectory)
    out = optimize_direct(ab, gm, cost, prob, TranscriptionConfig(segments=100))
    assert out.running_cost >= indirect * (1 - 1e-3) - 1e-6
    assert out.running_cost <= indirect * 1.02


def test_refinement_shrinks_gap():
    ab, gm, cost, prob = abelian_problem()
    gaps = []
    for N in (10, 25, 50):
        out = optimize_direct(ab, gm, cost, prob, TranscriptionConfig(segments=N))
        gaps.append(abs(out.running_cost - 6.0))
    assert gaps[1] <= gaps[0] * 1.05 + 1e-9
    assert gaps[2] <= gaps[1] * 1.05 + 1e-9
