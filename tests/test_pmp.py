import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import aoc
from aoc.dynamics import State, Trajectory
from aoc.pmp import (Costate, CostModel, ExtremalPoint, TangentTuple,
                     coordinate_observable, eliminate_control, extremal_field,
                     extremal_rhs, fd_dL_dx_triv, fd_observable, flow_extremal, hamiltonian,
                     hamiltonian_field_check, hamiltonian_observable,
                     min_acc_cost, poisson_bracket,
                     propagate_endpoints, quadratic_cost, running_cost,
                     spatial_momentum, symplectic_form)
from aoc.shooting import (BoundaryProblem, _residual_and_jacobian, boundary_residual,
                          solve_shooting)

E1, E2, E3 = np.eye(3)


def point(x, y, mu, xi, u):
    return ExtremalPoint(State(np.asarray(x, dtype=float), np.asarray(y, dtype=float)),
                         Costate(np.asarray(mu, dtype=float), np.asarray(xi, dtype=float)),
                         np.asarray(u, dtype=float))


def zeros(*shape):
    """A cost callable with a zero result of ``shape`` for every point of its batch."""
    return lambda s, u: np.zeros(np.shape(u)[:-1] + shape)


def field_rates(model, gm, cost, x, y, mu, xi):
    """(xdot_body, ydot, mudot, xidot) of ``extremal_field`` at one point."""
    z, vdot = extremal_field(model, gm, cost)(0, 0.0, x, np.concatenate([y, mu, xi]))
    return (z, *np.split(vdot, 3))


def zero_cost(n):
    return CostModel(eval=zeros(), dL_dx_triv=zeros(n), dL_dy=zeros(n),
                     dL_du=lambda s, u: np.zeros(np.shape(u)),
                     d2L_du2=lambda s, u: np.zeros(np.shape(u) + np.shape(u)[-1:]),
                     x_independent=True)


# -- Hamiltonian ----------------------------------------------------------------

def test_hamiltonian_minacc_abelian():
    ab = aoc.abelian_model(2)
    cost = min_acc_cost(ab)
    a = point(np.eye(3), [0.7, -0.3], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    assert hamiltonian(ab, cost, a) == pytest.approx(0.5)


def test_hamiltonian_only_mu_term(so3_j123):
    cost = zero_cost(3)
    a = point(np.eye(3), [0.2, 0.3, -0.1], [1.0, 2.0, 3.0], np.zeros(3), np.zeros(3))
    assert hamiltonian(so3_j123, cost, a) == pytest.approx(np.dot([1, 2, 3], [0.2, 0.3, -0.1]))


def test_hamiltonian_zero_costates_is_minus_cost(so3_j123):
    cost = min_acc_cost(so3_j123)
    u = np.array([0.5, -1.0, 2.0])
    a = point(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), u)
    assert hamiltonian(so3_j123, cost, a) == pytest.approx(-cost.eval(a.state, u))


# -- control elimination ----------------------------------------------------------

def test_eliminate_minacc_diagonal(so3_m2):
    cost = min_acc_cost(so3_m2)
    s = State(np.eye(3), np.zeros(3))
    u = eliminate_control(so3_m2, cost, s, [3.0, 5.0, 7.0])
    assert_allclose(u, [3.0 / 1.0, 5.0 / 2.0])


def test_eliminate_zero_costate(so3_m2):
    cost = min_acc_cost(so3_m2)
    assert_allclose(eliminate_control(so3_m2, cost, State(np.eye(3), np.zeros(3)),
                                      np.zeros(3)), 0.0)


def test_eliminate_identity_inertia_full(so3_unit, rng):
    cost = min_acc_cost(so3_unit)
    xi = rng.standard_normal(3)
    assert_allclose(eliminate_control(so3_unit, cost, State(np.eye(3), np.zeros(3)), xi), xi)


def test_eliminate_batched_matches_loop(so3_m2, rng):
    cost = min_acc_cost(so3_m2)
    s = State(np.eye(3), np.zeros(3))
    xis = rng.standard_normal((10, 3))
    batch = eliminate_control(so3_m2, cost, s, xis)
    for b in range(10):
        assert_allclose(batch[b], eliminate_control(so3_m2, cost, s, xis[b]))


def quartic_cost(model):
    eye = np.eye(model.m)
    return CostModel(
        eval=lambda s, u: 0.5 * np.sum(u * u, axis=-1) + 0.1 * np.sum(u ** 4, axis=-1),
        dL_dx_triv=zeros(model.n), dL_dy=zeros(model.n),
        dL_du=lambda s, u: u + 0.4 * u ** 3,
        d2L_du2=lambda s, u: eye + 1.2 * (u ** 2)[..., None] * eye,
        x_independent=True)


def test_eliminate_newton_on_quartic(so3_m2):
    cost = quartic_cost(so3_m2)
    s = State(np.eye(3), np.zeros(3))
    xi = np.array([2.0, -1.5, 0.3])
    u = eliminate_control(so3_m2, cost, s, xi)
    assert_allclose(cost.dL_du(s, u), xi[:2], atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_eliminate_singular_quadratic(so3_m2):
    # rank one at the 1e-12 scale is singular whatever the units of the weight;
    # it is refused where the cost is built, as are indefinite, semidefinite,
    # negative definite, numerically singular and non-finite weights
    for R in (np.full((2, 2), 1e-12), np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), -np.eye(2),
              np.diag([1.0, 1e-14]), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])):
        with pytest.raises(ValueError, match="positive definite"):
            quadratic_cost(so3_m2, R)
    # a hand-built cost is checked where its control is eliminated
    cost = dataclasses.replace(min_acc_cost(so3_m2), quad_weight=np.full((2, 2), 1e-12))
    with pytest.raises(aoc.SingularRegularity):
        eliminate_control(so3_m2, cost, State(np.eye(3), np.zeros(3)), np.ones(3))


@pytest.mark.parametrize("scale", [1e-4, 1e-12, 1e8])
def test_eliminate_small_weight_is_regular(so3_j123, scale):
    # the regularity test is scale invariant: c*I is perfectly conditioned
    cost = quadratic_cost(so3_j123, scale * np.eye(3))
    xi = np.array([1.0, -2.0, 0.5])
    u = eliminate_control(so3_j123, cost, State(np.eye(3), np.zeros(3)), xi)
    assert_allclose(u, xi / scale, rtol=1e-14)


def test_singular_weight_rejected_by_flow(so3_m2):
    R = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError, match="positive definite"):
        quadratic_cost(so3_m2, R)
    # a hand-built cost is checked where the flow uses it
    cost = dataclasses.replace(min_acc_cost(so3_m2), quad_weight=R)
    with pytest.raises(aoc.SingularRegularity):
        propagate_endpoints(so3_m2, aoc.so3_group(so3_m2), cost, np.eye(3), np.zeros(3),
                            np.ones(3), np.ones(3), 1.0, 4)


def test_eliminate_singular_hessian_newton(so3_m2):
    linear = CostModel(eval=lambda s, u: np.sum(u, axis=-1), dL_dx_triv=zeros(3),
                       dL_dy=zeros(3), dL_du=lambda s, u: np.ones(np.shape(u)),
                       d2L_du2=zeros(2, 2), x_independent=True)
    with pytest.raises(aoc.SingularRegularity):
        eliminate_control(so3_m2, linear, State(np.eye(3), np.zeros(3)),
                          np.array([2.0, 3.0, 0.0]))


# -- extremal right-hand sides -----------------------------------------------------

def test_extremal_rhs_abelian_identity():
    ab = aoc.abelian_model(2)
    cost = min_acc_cost(ab)
    mu = np.array([0.3, -0.7])
    xi = np.array([1.5, 0.25])
    u = eliminate_control(ab, cost, State(np.eye(3), np.zeros(2)), xi)
    _, vdot = extremal_rhs(ab, aoc.abelian_group(ab), cost,
                           point(np.eye(3), [0.1, 0.2], mu, xi, u))
    ydot, mudot, xidot = np.split(vdot, 3)
    assert_allclose(ydot, xi)
    assert_allclose(mudot, 0.0)
    assert_allclose(xidot, -mu)


def hand_eq6_rates(J, y, mu, xi, m):
    """Hand-coded rigid body extremal rates for diagonal inertia."""
    Jm = np.diag(J)
    Jinv = np.diag(1.0 / np.asarray(J))
    xi_res = np.concatenate([xi[:m], np.zeros(3 - m)])
    ydot = Jinv @ xi_res + Jinv @ np.cross(Jm @ y, y)
    mudot = np.cross(mu, y)
    xidot = -mu + Jm @ np.cross(Jinv @ xi, y) + np.cross(Jm @ y, Jinv @ xi)
    return ydot, mudot, xidot


@pytest.mark.parametrize("m", [2, 3])
def test_min_acc_rhs_matches_hand_coded_rigid_body(m, rng):
    J = (1.0, 2.0, 3.0)
    model = aoc.so3_model(J, m=m)
    gm = aoc.so3_group(model)
    cost = min_acc_cost(model)
    for _ in range(100):
        y, mu, xi = rng.standard_normal((3, 3))
        _, *rates = field_rates(model, gm, cost, np.eye(3), y, mu, xi)
        for got, want in zip(rates, hand_eq6_rates(J, y, mu, xi, m)):
            assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_min_acc_rhs_equals_eliminated_extremal_rhs(m, rng):
    model = aoc.so3_model((1.0, 2.0, 3.0), m=m)
    gm = aoc.so3_group(model)
    cost = min_acc_cost(model)
    for _ in range(50):
        y, mu, xi = rng.standard_normal((3, 3))
        s = State(np.eye(3), y)
        u = eliminate_control(model, cost, s, xi)
        y1, vdot1 = extremal_rhs(model, gm, cost, ExtremalPoint(s, Costate(mu, xi), u))
        y2, *rates = field_rates(model, gm, cost, np.eye(3), y, mu, xi)
        assert np.array_equal(y1, y2)
        assert_allclose(np.concatenate(rates), vdot1, atol=1e-13)


def test_extremal_rhs_zero_point(so3_j123, so3_j123_group):
    # spinning about a principal axis with zero costates: only xdot is nonzero
    cost = min_acc_cost(so3_j123)
    a = point(np.eye(3), E1, np.zeros(3), np.zeros(3), np.zeros(3))
    xdot_body, vdot = extremal_rhs(so3_j123, so3_j123_group, cost, a)
    assert_allclose(vdot, 0.0, atol=1e-15)
    assert_allclose(xdot_body, E1)


def test_min_acc_rhs_abelian(abelian3, rng):
    gm = aoc.abelian_group(abelian3)
    y, mu, xi = rng.standard_normal((3, 3))
    _, ydot, mudot, xidot = field_rates(abelian3, gm, min_acc_cost(abelian3), np.eye(4),
                                        y, mu, xi)
    actuated = xi.copy()
    actuated[abelian3.m:] = 0.0
    assert_allclose(ydot, aoc.sharp(abelian3, actuated))
    assert_allclose(mudot, 0.0)
    assert_allclose(xidot, -mu)


# -- extremal flow ------------------------------------------------------------------

def test_flow_abelian_cubic(abelian1, abelian1_group):
    cost = min_acc_cost(abelian1)
    a0 = point(np.eye(2), [0.0], [12.0], [6.0], [0.0])
    traj = flow_extremal(abelian1, abelian1_group, cost, a0, 1.0, 200)
    t = traj.times
    assert_allclose(traj.xs[:, 0, 1], 3 * t ** 2 - 2 * t ** 3, atol=1e-12)
    assert_allclose(traj.xis[:, 0], 6 - 12 * t, atol=1e-12)
    assert_allclose(traj.us[:, 0], 6 - 12 * t, atol=1e-12)
    assert running_cost(cost, traj) == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_running_cost_of_a_constant_on_every_grid(K):
    # Simpson, Simpson plus a trapezoid cell, or (K = 1) the trapezoid alone
    one = dataclasses.replace(zero_cost(1), eval=lambda s, u: np.ones(np.shape(u)[:-1]))
    traj = Trajectory(times=np.linspace(0.0, 1.0, K + 1), xs=np.zeros((K + 1, 2, 2)),
                      ys=np.zeros((K + 1, 1)), us=np.zeros((K + 1, 0)))
    assert running_cost(one, traj) == pytest.approx(1.0, abs=1e-15)


def pointwise(cost):
    """``cost`` with an eval that runs ``cost.eval`` point by point over its batch."""
    return dataclasses.replace(cost, eval=lambda s, u: np.array(
        [cost.eval(State(x, y), v) for x, y, v in zip(s.x, s.y, u)]))


@pytest.mark.parametrize("K", [1, 2, 3, 200, 201])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_batched_quadratic_running_cost_is_the_per_point_sum(K, m, rng):
    model = aoc.so3_model((1.0, 2.0, 3.0), m=m)
    A = rng.standard_normal((m, m))
    cost = quadratic_cost(model, A @ A.T + np.eye(m))
    per_point = pointwise(cost)
    traj = Trajectory(times=np.linspace(0.0, 1.0, K + 1),
                      xs=np.broadcast_to(np.eye(3), (K + 1, 3, 3)),
                      ys=rng.standard_normal((K + 1, 3)),
                      us=rng.standard_normal((K + 1, m)) * 10.0)
    assert running_cost(cost, traj) == running_cost(per_point, traj)


def test_flow_hamiltonian_drift_small(so3_j123, so3_j123_group):
    cost = min_acc_cost(so3_j123)
    a0 = point(np.eye(3), [0.3, -0.2, 0.4], [0.5, 0.1, -0.3], [0.2, 0.4, -0.1], np.zeros(3))
    traj = flow_extremal(so3_j123, so3_j123_group, cost, a0, 1.0, 1000)
    assert np.abs(traj.hams - traj.hams[0]).max() < 1e-8


def test_flow_stationary_zero_point(so3_j123, so3_j123_group):
    cost = min_acc_cost(so3_j123)
    a0 = point(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
    traj = flow_extremal(so3_j123, so3_j123_group, cost, a0, 1.0, 50)
    assert_allclose(traj.ys, 0.0, atol=1e-15)
    assert_allclose(traj.xs[-1], np.eye(3), atol=1e-15)


def test_flow_coadjoint_and_spatial_momentum_invariants(so3_j123, so3_j123_group):
    cost = min_acc_cost(so3_j123)
    a0 = point(np.eye(3), [0.3, -0.2, 0.4], [0.5, 0.1, -0.3], [0.2, 0.4, -0.1], np.zeros(3))
    traj = flow_extremal(so3_j123, so3_j123_group, cost, a0, 1.0, 1000)
    norms = np.linalg.norm(traj.mus, axis=1)
    assert np.abs(norms - norms[0]).max() < 1e-8
    pi0 = spatial_momentum(so3_j123_group, traj.xs[0], traj.mus[0])
    drift = max(np.abs(spatial_momentum(so3_j123_group, traj.xs[k], traj.mus[k]) - pi0).max()
                for k in range(0, len(traj), 100))
    assert drift < 1e-7


# -- symplectic form ------------------------------------------------------------------

def tangent(z=None, w=None, v_mu=None, v_xi=None):
    f = lambda v: np.zeros(3) if v is None else np.asarray(v, dtype=float)
    return TangentTuple(f(z), f(w), f(v_mu), f(v_xi))


def test_symplectic_form_vanishes_on_equal_arguments(so3_j123, rng):
    p = (State(np.eye(3), rng.standard_normal(3)),
         Costate(rng.standard_normal(3), rng.standard_normal(3)))
    A = tangent(*rng.standard_normal((4, 3)))
    assert symplectic_form(so3_j123, p, A, A) == pytest.approx(0.0, abs=1e-14)


def test_symplectic_form_velocity_costate_pairing(so3_j123):
    # the second argument's v_xi pairs with the first argument's w with a
    # plus sign, so this evaluates to +1 (and -1 with the order swapped)
    p = (State(np.eye(3), np.zeros(3)), Costate(np.zeros(3), np.zeros(3)))
    A = tangent(w=E1)
    B = tangent(v_xi=E1)
    assert symplectic_form(so3_j123, p, A, B) == pytest.approx(1.0)
    assert symplectic_form(so3_j123, p, B, A) == pytest.approx(-1.0)


def test_symplectic_form_bracket_term(so3_j123):
    p = (State(np.eye(3), np.zeros(3)), Costate(E3, np.zeros(3)))
    A = tangent(z=E1)
    B = tangent(z=E2)
    assert symplectic_form(so3_j123, p, A, B) == pytest.approx(1.0)


def test_symplectic_form_antisymmetric(so3_j123, rng):
    p = (State(np.eye(3), rng.standard_normal(3)),
         Costate(rng.standard_normal(3), rng.standard_normal(3)))
    for _ in range(20):
        A = tangent(*rng.standard_normal((4, 3)))
        B = tangent(*rng.standard_normal((4, 3)))
        assert (symplectic_form(so3_j123, p, A, B)
                + symplectic_form(so3_j123, p, B, A)) == pytest.approx(0.0, abs=1e-13)


# -- Hamiltonian field verification ----------------------------------------------------

def random_point(rng, gm):
    n = gm.algebra.n
    x = aoc.exp_map(gm, rng.uniform(-1, 1, n))
    return ExtremalPoint(State(x, rng.uniform(-1, 1, n)),
                         Costate(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)),
                         np.zeros(gm.algebra.m))


def test_field_check_so3_minacc(so3_j123, so3_j123_group, rng):
    cost = min_acc_cost(so3_j123)
    for k in range(20):
        a = random_point(rng, so3_j123_group)
        res = hamiltonian_field_check(so3_j123, so3_j123_group, cost, a,
                                      n_directions=8, seed=k)
        assert res < 1e-6


def test_field_check_abelian_quadratic(rng):
    ab = aoc.abelian_model(3, m=2, inertia=np.diag([2.0, 3.0, 5.0]))
    gm = aoc.abelian_group(ab)
    cost = quadratic_cost(ab, np.array([[2.0, 0.5], [0.5, 1.0]]))
    for k in range(20):
        a = random_point(rng, gm)
        res = hamiltonian_field_check(ab, gm, cost, a, n_directions=8, seed=k)
        assert res < 1e-8


def test_field_check_cost_that_reads_y(so3_m2, so3_m2_group, rng):
    # u^T R u / 2 + k |y|^2 / 2 through Newton: its dL/dy term enters xidot
    # (the check reads about 0.57 with that term's sign flipped)
    quad, k = min_acc_cost(so3_m2), 0.7
    cost = dataclasses.replace(
        quad, quad_weight=None, dL_dy=lambda s, u: k * np.asarray(s.y, dtype=float),
        eval=lambda s, u: quad.eval(s, u) + 0.5 * k * np.sum(s.y * s.y, axis=-1))
    for seed in range(5):
        a = random_point(rng, so3_m2_group)
        assert hamiltonian_field_check(so3_m2, so3_m2_group, cost, a, n_directions=8,
                                       seed=seed) < 1e-8


def test_checks_evaluate_the_integrated_field(so3_m2, so3_m2_group, monkeypatch):
    # X_H of hamiltonian_field_check and of hamiltonian_observable's derivatives
    # is bitwise the extremal field the flows step, fused (quadratic) or Newton
    model, gm = so3_m2, so3_m2_group
    pairing, seen = aoc.pmp.symplectic_form, []
    monkeypatch.setattr(aoc.pmp, "symplectic_form",
                        lambda model, p, A, B: seen.append(A) or pairing(model, p, A, B))
    rng = np.random.default_rng(5)
    for cost in (min_acc_cost(model), quartic_cost(model)):
        H = hamiltonian_observable(model, gm, cost)
        for _ in range(5):
            a = random_point(rng, gm)
            s, c = a.state, a.costate
            z, ydot, mudot, xidot = field_rates(model, gm, cost, s.x, s.y, c.mu, c.xi)
            seen.clear()
            hamiltonian_field_check(model, gm, cost, a, n_directions=1)
            for got, want in zip(seen[0], (z, ydot, mudot, xidot)):
                assert np.array_equal(got, want)
            dx, dy, dmu, dxi = H.derivatives(s, c)
            assert np.array_equal(dmu, z) and np.array_equal(dxi, ydot)
            assert np.array_equal(dy, -xidot)
            assert np.array_equal(dx, aoc.ad_star(model, s.y, c.mu) - mudot)


def test_field_check_zero_point(so3_j123, so3_j123_group):
    cost = min_acc_cost(so3_j123)
    a = point(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
    assert hamiltonian_field_check(so3_j123, so3_j123_group, cost, a) < 1e-10


def x_dependent_cost(model, gm, A):
    """Quadratic control cost plus tr(A x), with analytic trivialized x-derivative."""
    quad = quadratic_cost(model, model.inertia[: model.m, : model.m])
    # tr(A x E_i) = <x, (E_i A)^T> (Frobenius): x flattened times column i of G
    G = np.stack([(E @ A).T.ravel() for E in gm.basis], axis=1)
    cells = gm.rep_dim ** 2

    def dL_dx(s, u):
        x = s.x.reshape(s.x.shape[:-2] + (1, cells))
        return (x @ G)[..., 0, :]

    return dataclasses.replace(
        quad, eval=lambda s, u: quad.eval(s, u) + np.sum(s.x * A.T, axis=(-2, -1)),
        dL_dx_triv=dL_dx, x_independent=False)


def test_fd_cost_derivative_helper_matches_analytic(so3_j123, so3_j123_group, rng):
    # a batch of points, each with its own step and the bits it gets alone
    A = rng.standard_normal((3, 3))
    cost = x_dependent_cost(so3_j123, so3_j123_group, A)
    s = State(aoc.exp_map(so3_j123_group, rng.uniform(-1, 1, (6, 3))), rng.standard_normal((6, 3)))
    u = rng.standard_normal((6, 3))
    fd = fd_dL_dx_triv(so3_j123_group, cost.eval, s, u)
    assert_allclose(fd, cost.dL_dx_triv(s, u), atol=1e-8)
    for b in range(6):
        alone = fd_dL_dx_triv(so3_j123_group, cost.eval, State(s.x[b], s.y[b]), u[b])
        assert np.array_equal(alone, fd[b])
    # a cost that does not read x has a zero x-derivative at every point
    assert np.array_equal(fd_dL_dx_triv(so3_j123_group, min_acc_cost(so3_j123).eval, s, u),
                          np.zeros((6, 3)))


def test_field_check_x_dependent_cost(so3_j123, so3_j123_group, rng):
    A = 0.5 * rng.standard_normal((3, 3))
    cost = x_dependent_cost(so3_j123, so3_j123_group, A)
    for k in range(10):
        a = random_point(rng, so3_j123_group)
        res = hamiltonian_field_check(so3_j123, so3_j123_group, cost, a,
                                      n_directions=8, seed=k)
        assert res < 1e-5


# -- Poisson bracket ---------------------------------------------------------------------

def random_phase_point(rng, gm):
    n = gm.algebra.n
    return (State(aoc.exp_map(gm, rng.uniform(-1, 1, n)), rng.uniform(-1, 1, n)),
            Costate(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)))


def test_poisson_xi_y_pairing(so3_j123, so3_j123_group, rng):
    p = random_phase_point(rng, so3_j123_group)
    for i in range(3):
        for j in range(3):
            f = coordinate_observable(so3_j123, "xi", i)
            g = coordinate_observable(so3_j123, "y", j)
            assert poisson_bracket(so3_j123, f, g, p) == pytest.approx(float(i == j))


def test_poisson_mu_mu_is_structure_paired(so3_j123, so3_j123_group, rng):
    p = random_phase_point(rng, so3_j123_group)
    mu = p[1].mu
    for i in range(3):
        for j in range(3):
            f = coordinate_observable(so3_j123, "mu", i)
            g = coordinate_observable(so3_j123, "mu", j)
            expected = float(np.einsum("k,k->", so3_j123.C[:, i, j], mu))
            assert poisson_bracket(so3_j123, f, g, p) == pytest.approx(expected, abs=1e-12)


def test_poisson_antisymmetry_and_self(so3_j123, so3_j123_group, rng):
    p = random_phase_point(rng, so3_j123_group)
    f = coordinate_observable(so3_j123, "mu", 0)
    g = coordinate_observable(so3_j123, "y", 2)
    assert poisson_bracket(so3_j123, f, f, p) == 0.0
    assert (poisson_bracket(so3_j123, f, g, p)
            + poisson_bracket(so3_j123, g, f, p)) == 0.0


def test_poisson_jacobi_with_fd_derivatives(so3_j123, so3_j123_group, rng):
    model, gm = so3_j123, so3_j123_group
    trips = [("mu", 0, "mu", 1, "mu", 2), ("xi", 0, "y", 1, "mu", 2),
             ("mu", 0, "xi", 1, "y", 0)]
    worst = 0.0
    for sf, i, sg, j, sh, k in trips:
        f = coordinate_observable(model, sf, i)
        g = coordinate_observable(model, sg, j)
        h = coordinate_observable(model, sh, k)
        fg = fd_observable(model, gm, lambda s, c: poisson_bracket(model, f, g, (s, c)))
        gh = fd_observable(model, gm, lambda s, c: poisson_bracket(model, g, h, (s, c)))
        hf = fd_observable(model, gm, lambda s, c: poisson_bracket(model, h, f, (s, c)))
        for _ in range(30):
            p = random_phase_point(rng, gm)
            res = (poisson_bracket(model, f, gh, p)
                   + poisson_bracket(model, g, hf, p)
                   + poisson_bracket(model, h, fg, p))
            worst = max(worst, abs(res))
    assert worst < 1e-6


def test_flow_derivative_matches_bracket_with_hamiltonian(so3_j123, so3_j123_group):
    # along the extremal flow, df/dt = {H, f} for this bracket orientation
    model, gm = so3_j123, so3_j123_group
    cost = min_acc_cost(model)
    a0 = point(np.eye(3), [0.3, -0.2, 0.4], [0.5, 0.1, -0.3], [0.2, 0.4, -0.1], np.zeros(3))
    traj = flow_extremal(model, gm, cost, a0, 1.0, 1000)
    H = hamiltonian_observable(model, gm, cost)
    assert H.value(traj.state(500), Costate(traj.mus[500], traj.xis[500])) == \
        pytest.approx(traj.hams[500], rel=1e-13)
    h = traj.times[1] - traj.times[0]
    for slot in ("y", "mu", "xi"):
        for idx in range(3):
            f = coordinate_observable(model, slot, idx)
            k = 500
            p = (traj.state(k), Costate(traj.mus[k], traj.xis[k]))
            series = {"y": traj.ys, "mu": traj.mus, "xi": traj.xis}[slot][:, idx]
            fdot = (series[k + 1] - series[k - 1]) / (2 * h)
            assert abs(poisson_bracket(model, H, f, p) - fdot) < 1e-4


def test_fully_actuated_costate_recovery_from_velocity(so3_j123, so3_j123_group):
    # fully actuated extremals are governed by a fourth order equation in y:
    # both costates must be recoverable from time derivatives of y alone
    model, gm = so3_j123, so3_j123_group
    cost = min_acc_cost(model)
    a0 = point(np.eye(3), [0.3, -0.2, 0.4], [0.5, 0.1, -0.3], [0.2, 0.4, -0.1], np.zeros(3))
    traj = flow_extremal(model, gm, cost, a0, 1.0, 1000)
    h = traj.times[1] - traj.times[0]

    def ddt(arr):
        return (arr[:-4] - 8 * arr[1:-3] + 8 * arr[3:-1] - arr[4:]) / (12 * h)

    ydot = ddt(traj.ys)
    ys = traj.ys[2:-2]
    xi_rec = aoc.flat(model, ydot - aoc.bias(model, ys))
    assert np.abs(xi_rec - traj.xis[2:-2]).max() < 1e-8

    xidot = ddt(xi_rec)
    ys2 = ys[2:-2]
    xi2 = xi_rec[2:-2]
    mu_rec = (-xidot - aoc.flat(model, aoc.bracket(model, ys2, aoc.sharp(model, xi2)))
              + aoc.ad_star(model, aoc.sharp(model, xi2), aoc.flat(model, ys2)))
    assert np.abs(mu_rec - traj.mus[4:-4]).max() < 1e-7

    mudot = ddt(mu_rec)
    expected = aoc.ad_star(model, ys2[2:-2], mu_rec[2:-2])
    assert np.abs(mudot - expected).max() < 1e-6


def test_flow_with_x_dependent_cost_conserves_h(so3_j123, so3_j123_group, rng):
    # exercises the general (non-quadratic-fast-path) flow: stage group
    # elements, analytic trivialized x-derivative, mudot correction term
    A = 0.5 * rng.standard_normal((3, 3))
    cost = x_dependent_cost(so3_j123, so3_j123_group, A)
    a0 = point(np.eye(3), [0.3, -0.2, 0.4], [0.5, 0.1, -0.3], [0.2, 0.4, -0.1], np.zeros(3))
    traj = flow_extremal(so3_j123, so3_j123_group, cost, a0, 1.0, 1000)
    assert np.abs(traj.hams - traj.hams[0]).max() < 1e-8


def test_eliminate_newton_no_convergence(so3_m2, monkeypatch):
    cost = quartic_cost(so3_m2)
    monkeypatch.setattr(aoc.pmp, "NEWTON_MAX_ITER", 1)
    with pytest.raises(aoc.NoConvergence):
        eliminate_control(so3_m2, cost, State(np.eye(3), np.zeros(3)),
                          np.array([50.0, -80.0, 0.0]))


def test_stalled_control_elimination_is_a_failed_flow(so3_m2, so3_m2_group, monkeypatch):
    # one Newton step cannot solve u + 0.4 u^3 = xi at these large costates, so
    # the elimination stalls: the batch is a failed flow, as a blow-up is, not
    # an error out of the solve
    cost = quartic_cost(so3_m2)
    monkeypatch.setattr(aoc.pmp, "NEWTON_MAX_ITER", 1)
    prob = BoundaryProblem(x0=np.eye(3), xT=np.eye(3), y0=np.zeros(3), yT=np.zeros(3),
                           T=1.0, steps=5)
    theta = 1e4 * np.array([1.0, -2.0, 3.0, 2.0, 1.0, -1.0])
    with pytest.raises(aoc.NoConvergence):
        boundary_residual(so3_m2, so3_m2_group, cost, prob, theta[:3], theta[3:])
    assert _residual_and_jacobian(so3_m2, so3_m2_group, cost, prob, theta, 1e-6) is None


def test_eliminate_checks_regularity_at_the_returned_control(so3_m2):
    # L = |u|^4 / 4: at xi = 0 Newton stops at once at u = 0, where the Hessian vanishes
    def hessian(s, u):
        uu = np.sum(u * u, axis=-1)[..., None, None]
        return uu * np.eye(2) + 2.0 * u[..., :, None] * u[..., None, :]

    pure_quartic = CostModel(eval=lambda s, u: 0.25 * np.sum(u * u, axis=-1) ** 2,
                             dL_dx_triv=zeros(3), dL_dy=zeros(3),
                             dL_du=lambda s, u: np.sum(u * u, axis=-1)[..., None] * u,
                             d2L_du2=hessian, x_independent=True)
    with pytest.raises(aoc.SingularRegularity):
        eliminate_control(so3_m2, pure_quartic, State(np.eye(3), np.zeros(3)), np.zeros(3))


def test_trajectory_eliminates_control_once_per_point(so3_j123, so3_j123_group):
    # counts the points the control Hessian is evaluated at
    calls = [0]
    base = quartic_cost(so3_j123)

    def counted(s, u):
        calls[0] += int(np.prod(np.shape(u)[:-1]))
        return base.d2L_du2(s, u)

    cost = dataclasses.replace(base, d2L_du2=counted)
    steps = 20
    _, _, (xs, vs) = propagate_endpoints(so3_j123, so3_j123_group, cost, np.eye(3),
                                         np.array([0.2, -0.1, 0.3]), np.array([0.5, 0.2, -0.4]),
                                         np.array([1.0, -0.6, 0.8]), 1.0, steps)
    calls[0] = 0
    eliminate_control(so3_j123, cost, State(xs, vs[:, :3]), vs[:, 6:])
    once = calls[0]
    calls[0] = 0
    traj = aoc.pmp.extremal_trajectory(so3_j123, so3_j123_group, cost, 1.0, xs, vs)
    assert once >= steps + 1 and calls[0] == once
    ydot = np.array([extremal_rhs(so3_j123, so3_j123_group, cost,
                                  point(x, y, mu, xi, u))[1][:3]
                     for x, y, mu, xi, u in zip(traj.xs, traj.ys, traj.mus, traj.xis, traj.us)])
    hams = (np.einsum("ki,ki->k", traj.mus, traj.ys) + np.einsum("ki,ki->k", traj.xis, ydot)
            - [cost.eval(traj.state(k), traj.us[k]) for k in range(steps + 1)])
    assert np.array_equal(traj.hams, hams)


def test_field_check_underactuated(so3_m2, so3_m2_group, rng):
    # restricted elimination path: the flow must still solve the
    # symplectic equation on the stationarity locus
    cost = min_acc_cost(so3_m2)
    for k in range(10):
        a = random_point(rng, so3_m2_group)
        res = hamiltonian_field_check(so3_m2, so3_m2_group, cost, a,
                                      n_directions=8, seed=k)
        assert res < 1e-6


# -- generic costs through the batched flow and shooting ------------------------------

def generic_costs(model, gm):
    """A quartic-plus-quadratic control cost (damped Newton) and a cost that reads x
    (coupled steps), the two forms the fused field does not take."""
    A = 0.5 * np.random.default_rng(3).standard_normal((3, 3))
    return {"quartic": quartic_cost(model), "x-dependent": x_dependent_cost(model, gm, A)}


@pytest.mark.parametrize("which", ["quartic", "x-dependent"])
def test_generic_cost_batch_is_bitwise_single(so3_j123, so3_j123_group, which):
    # the quartic cost takes split steps and Newton, the x-dependent one coupled
    # steps; a 13-row flow of 50 steps keeps every row's bits
    model, gm = so3_j123, so3_j123_group
    cost = generic_costs(model, gm)[which]
    x0 = aoc.exp_map(gm, np.array([0.1, 0.2, -0.3]))
    y0 = np.array([0.2, -0.1, 0.3])
    thetas = np.random.default_rng(11).uniform(-1.0, 1.0, (13, 6))
    _, _, (xb, vb) = propagate_endpoints(model, gm, cost, x0, y0,
                                         thetas[:, :3], thetas[:, 3:], 1.0, 50)
    for b in range(13):
        _, _, (x1, v1) = propagate_endpoints(model, gm, cost, x0, y0,
                                             thetas[b, :3], thetas[b, 3:], 1.0, 50)
        assert np.array_equal(x1, xb[:, b]) and np.array_equal(v1, vb[:, b])
    traj = aoc.pmp.extremal_trajectory(model, gm, cost, 1.0, xb[:, 0], vb[:, 0])
    assert np.array_equal(cost.eval(State(traj.xs, traj.ys), traj.us),
                          [cost.eval(traj.state(k), traj.us[k]) for k in range(51)])
    assert running_cost(cost, traj) == running_cost(pointwise(cost), traj)


def test_eliminate_newton_stops_relative_to_the_costate(so3_m2):
    # u + 0.4 u^3 = xi at |xi| ~ 1e4: the residual rounds to about 1e-12 |xi|,
    # so an absolute stop at NEWTON_TOL would stall
    cost = quartic_cost(so3_m2)
    s = State(np.eye(3), np.zeros(3))
    xi = np.array([-1.66e3, -8.52e3, 0.0])
    u = eliminate_control(so3_m2, cost, s, xi)
    assert_allclose(u, [-16.018, -27.690], atol=1e-3)
    assert np.abs(cost.dL_du(s, u) - xi[:2]).max() < aoc.pmp.NEWTON_TOL * 8.52e3


@pytest.mark.parametrize("which", ["quartic", "x-dependent"])
def test_a_row_that_is_not_finite_gets_nan_rates(so3_j123, so3_j123_group, which):
    model, gm = so3_j123, so3_j123_group
    cost = generic_costs(model, gm)[which]
    field = aoc.pmp.extremal_field(model, gm, cost)
    x = aoc.exp_map(gm, np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3)))
    v = np.random.default_rng(5).uniform(-1.0, 1.0, (5, 9))
    v[2] = np.nan
    y, vdot = field(0, 0.0, x, v)
    assert np.isnan(vdot[2]).all()
    for b in (0, 1, 3, 4):
        assert np.array_equal(field(0, 0.0, x[b], v[b])[1], vdot[b])
    u = eliminate_control(model, cost, State(np.eye(3), np.zeros(3)), np.full(3, np.nan))
    assert u.shape == (3,) and np.isnan(u).all()


@pytest.mark.parametrize("which", ["quartic", "x-dependent"])
def test_shooting_converges_for_generic_cost(so3_j123, so3_j123_group, which):
    cost = generic_costs(so3_j123, so3_j123_group)[which]
    xT = aoc.exp_map(so3_j123_group, np.array([0.3, -0.2, 0.4]))
    prob = BoundaryProblem(x0=np.eye(3), xT=xT, y0=np.zeros(3), yT=np.zeros(3),
                           T=1.0, steps=4)
    res = solve_shooting(so3_j123, so3_j123_group, cost, prob)
    assert res.converged and res.residual_norm < 1e-8
    traj = res.trajectory
    assert len(traj) == 5 and np.abs(traj.xs[-1] - xT).max() < 1e-8
    assert np.array_equal(traj.mus[0], res.mu0) and np.array_equal(traj.xis[0], res.xi0)
