"""Property tests pinning the fused flow kernels to their reference forms.

The fused extremal field and the ad-matrix ``dexpinv`` are checked on
random valid algebras: so(3) with a diagonal inertia, abelian R^n with a
block-diagonal inertia, and se(2)- and se(3)-style semidirect products with
scaled, permuted generators and an adapted inertia.  Every case is checked
to be a valid model (Jacobi identity included) whose connection is metric
compatible and whose extremal field is Hamiltonian.  The batch tests pin the
bitwise equality of a batched flow with each of its rows run alone, of
the split flow of a callable x-independent field with a loop of coupled
steps (the lifted steps of the fused field match those to rounding), and
of shooting's fused residual-and-Jacobian batch with separate flows and
with its row subsets (the residual row alone, the perturbation rows alone).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import aoc
from aoc.dynamics import State
from aoc.groups import dexpinv, rkmk_coupled_step, rkmk_integrate
from aoc.pmp import (Costate, ExtremalPoint, _quadratic_tensor, eliminate_control,
                     extremal_field, extremal_rhs, min_acc_cost, propagate_endpoints,
                     quadratic_cost)
from aoc.shooting import (BoundaryProblem, _residual_and_jacobian, _residual_batch,
                          boundary_residual)
from test_parareal import ULPS

SETTINGS = settings(max_examples=60, deadline=None)


def spd(rng, k):
    """A random symmetric positive definite k x k matrix, eigenvalues in [0.2, ~5]."""
    A = rng.uniform(-1.0, 1.0, (k, k))
    return A @ A.T / k + rng.uniform(0.2, 1.0) * np.eye(k)


def block_inertia(rng, n, m):
    J = np.zeros((n, n))
    J[:m, :m] = spd(rng, m)
    if m < n:
        J[m:, m:] = spd(rng, n - m)
    return J


def so3_case(rng):
    m = int(rng.integers(1, 4))
    model = aoc.so3_model(tuple(rng.uniform(0.2, 5.0, 3)), m=m)
    return model, aoc.so3_group(model)


def abelian_case(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, n + 1))
    model = aoc.abelian_model(n, m=m, inertia=block_inertia(rng, n, m))
    return model, aoc.abelian_group(model)


def matrix_case(rng, E, name):
    """A generic group from the generators E, scaled and permuted, with a
    random m and an adapted inertia."""
    n, d = E.shape[:2]
    basis = (E * rng.uniform(0.5, 2.0, n)[:, None, None])[rng.permutation(n)]
    # structure constants from the commutators: [E_i, E_j] = C[k, i, j] E_k
    comm = np.einsum("iab,jbc->ijac", basis, basis)
    comm = comm - np.transpose(comm, (1, 0, 2, 3))
    C = np.einsum("kp,ijp->kij", np.linalg.pinv(basis.reshape(n, d * d).T),
                  comm.reshape(n, n, d * d))
    m = int(rng.integers(1, n + 1))
    model = aoc.make_model(n, m, C, block_inertia(rng, n, m), name=name)
    return model, aoc.generic_group(model, basis)


def se2_case(rng):
    """se(2): a rotation and two translations of the plane."""
    E = np.zeros((3, 3, 3))
    E[0, 0, 1], E[0, 1, 0] = -1.0, 1.0
    E[1, 0, 2] = 1.0
    E[2, 1, 2] = 1.0
    return matrix_case(rng, E, "se2")


def se3_case(rng):
    """se(3): three rotations and three translations of space, as 4 x 4 matrices."""
    E = np.zeros((6, 4, 4))
    E[:3, :3, :3] = aoc.so3_group(aoc.so3_model()).basis
    E[[3, 4, 5], [0, 1, 2], 3] = 1.0
    return matrix_case(rng, E, "se3")


CASES = {"so3": so3_case, "abelian": abelian_case, "se2": se2_case, "se3": se3_case}

algebras = st.tuples(st.sampled_from(sorted(CASES)), st.integers(0, 2 ** 32 - 1))


def draw(kind, seed):
    rng = np.random.default_rng(seed)
    model, gm = CASES[kind](rng)
    return model, gm, rng


@given(algebras)
@SETTINGS
def test_fused_field_matches_extremal_rhs(case):
    model, _, rng = draw(*case)
    n, m = model.n, model.m
    cost = quadratic_cost(model, spd(rng, m))
    rhs = extremal_field(model, cost)
    V = rng.uniform(-1.0, 1.0, (5, 3 * n))
    z, vdot = rhs(0, 0.0, None, V)
    assert_allclose(z, V[:, :n], rtol=0, atol=0)
    for v, row in zip(V, vdot):
        y, mu, xi = v[:n], v[n:2 * n], v[2 * n:]
        s = State(np.eye(n + 1), y)
        u = eliminate_control(model, cost, s, xi)
        _, ref = extremal_rhs(model, cost, ExtremalPoint(s, Costate(mu, xi), u))
        assert_allclose(row, ref, rtol=0, atol=1e-13)
        assert_allclose(rhs(0, 0.0, None, v)[1], row, rtol=0, atol=0)


@given(algebras)
@SETTINGS
def test_fused_y_block_is_the_drift_matrix(case):
    # the block bias contracts, bitwise the einsum of sharp(ad_star(y, flat y))
    model, _, rng = draw(*case)
    n = model.n
    K = _quadratic_tensor(model, spd(rng, model.m)).reshape(3, n, n + 1, 3, n)
    assert np.array_equal(K[0, :, 1:, 0], model.drift.reshape(n, n, n).transpose(1, 2, 0))
    ref = np.einsum("lj,kij,kp->lip", model.inertia_inv, model.C, model.inertia)
    assert np.array_equal(K[0, :, 1:, 0], ref)


@given(algebras)
@SETTINGS
def test_model_is_valid_with_a_metric_connection(case):
    # Jacobi and the other model invariants, and <D_y z, w> + <z, D_y w> = 0
    model, gm, rng = draw(*case)
    assert aoc.validate_model(model).passed
    assert aoc.validate_group(gm).passed
    y, z, w = rng.uniform(-1.0, 1.0, (3, 8, model.n))
    pair = lambda a, b: np.einsum("...i,...i->...", aoc.flat(model, a), b)
    res = (pair(aoc.connection_bilinear(model, y, z), w)
           + pair(z, aoc.connection_bilinear(model, y, w)))
    assert_allclose(res, 0.0, rtol=0, atol=1e-12)


@given(algebras)
@settings(max_examples=30, deadline=None)
def test_extremal_field_is_hamiltonian(case):
    # Omega(X_H, V) = dH(V) for the field of a random quadratic cost
    model, gm, rng = draw(*case)
    cost = quadratic_cost(model, spd(rng, model.m))
    y, mu, xi = rng.uniform(-1.0, 1.0, (3, model.n))
    p = State(np.eye(gm.rep_dim), y), Costate(mu, xi)
    assert aoc.hamiltonian_field_check(model, gm, cost, p, n_directions=4) < 1e-6


@given(algebras)
@SETTINGS
def test_dexpinv_matches_bracket_series(case):
    model, _, rng = draw(*case)
    w, v = rng.uniform(-1.0, 1.0, (2, 4, model.n))
    c1 = aoc.bracket(model, w, v)
    ref = v + c1 / 2.0 + aoc.bracket(model, w, c1) / 12.0
    assert_allclose(dexpinv(model, w, v), ref, rtol=0, atol=1e-14)
    for b in range(4):
        assert_allclose(dexpinv(model, w[b], v[b]), dexpinv(model, w, v)[b], rtol=0, atol=0)


def split_and_coupled(gm, rhs, x0, v0, h, steps=25):
    """The split flow of ``rhs`` and the same flow by coupled steps, each as
    (xs, vs) after the first grid point; None if the split flow blows up, after
    checking that the coupled steps blow up at the same step."""
    try:
        xs, vs = rkmk_integrate(gm, x0, v0, steps, h, rhs)
        bad = None
    except aoc.NonFinite as e:
        bad = e.step_index
    xc, vc = [x0], [v0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps if bad is None else bad):
            x, v = rkmk_coupled_step(gm, xc[-1], vc[-1], k, h, rhs)
            xc.append(x)
            vc.append(v)
            if bad is not None:
                assert (np.isfinite(x).all() and np.isfinite(v).all()) == (k + 1 < bad)
    if bad is not None:
        return None
    return (xs[1:], vs[1:]), (np.array(xc[1:]), np.array(vc[1:]))


def ulps_apart(a, b):
    """The largest distance of two flows (x, v), in ulps of b's largest entry of each."""
    return max(np.abs(p - q).max() / (np.finfo(float).eps * np.abs(q).max()) for p, q in zip(a, b))


@given(algebras, st.sampled_from([1, 2, 13, 60]))
@settings(max_examples=20, deadline=None)
def test_split_flow_is_bitwise_coupled_steps_and_single_rows(case, width):
    # x-independent fields take the split path: RK4 on v in the loop, the group
    # product after it.  A callable field (the fused field's rhs as a plain
    # function, and the Newton form of the cost) takes classical RK4 steps and
    # must give the bits of coupled steps, row by row.  The fused field takes
    # lifted RK4 steps and must match the same coupled steps to rounding:
    # within ULPS ulps, or, on a draw whose flow amplifies rounding beyond
    # that, no farther than 8 times the Newton form, another rounding of the
    # same field, is from them.  Either way each row gets its bits alone
    model, gm, rng = draw(*case)
    n = model.n
    cost = quadratic_cost(model, spd(rng, model.m))
    v0 = rng.uniform(-1.0, 1.0, (width, 3 * n))
    x0 = np.eye(gm.rep_dim)
    h = 0.04
    fused = extremal_field(model, cost)
    plain = lambda k, c, x, v: fused(k, c, x, v)
    flows = split_and_coupled(gm, plain, x0, v0, h)
    if flows is None:
        # some drawn flows blow up, at the step of the coupled steps; near the
        # largest float the lifted step, which scales each stage's rates by
        # b h before adding them, may overflow a step later or not at all
        return
    split, reference = flows
    assert all(np.array_equal(a, b) for a, b in zip(split, reference))
    split, coupled = split_and_coupled(
        gm, extremal_field(model, dataclasses.replace(cost, quad_weight=None)), x0, v0, h)
    assert all(np.array_equal(a, b) for a, b in zip(split, coupled))
    lifted, coupled = split_and_coupled(gm, fused, x0, v0, h)
    assert all(np.array_equal(a, b) for a, b in zip(coupled, reference))
    assert ulps_apart(lifted, reference) <= max(ULPS, 8.0 * ulps_apart(split, reference))
    for rhs in (plain, fused):
        xs, vs = rkmk_integrate(gm, x0, v0, 25, h, rhs)
        for b in {0, width - 1}:
            xb, vb = rkmk_integrate(gm, x0, v0[b], 25, h, rhs)
            assert np.array_equal(xb, xs[:, b]) and np.array_equal(vb, vs[:, b])


def test_a_newton_flow_near_the_largest_float_ends_in_non_finite():
    # rows 4, 8 and 12 of this draw's Newton form reach control targets near
    # 1e264, where |g|^2 overflows; the line search must still lower a finite
    # measure of g there, so each flow ends in NonFinite, not NoConvergence
    model, gm, rng = draw("se3", 1390)
    cost = quadratic_cost(model, spd(rng, model.m))
    v0 = rng.uniform(-1.0, 1.0, (13, 3 * model.n))
    newton = extremal_field(model, dataclasses.replace(cost, quad_weight=None))
    for rows, step in ((slice(None), 21), (4, 21), (8, 22), (12, 23)):
        with pytest.raises(aoc.NonFinite) as e:
            rkmk_integrate(gm, np.eye(gm.rep_dim), v0[rows], 25, 0.04, newton)
        assert e.value.step_index == step


@pytest.fixture(scope="module")
def so3_m2_problem():
    model = aoc.so3_model((1.0, 2.0, 3.0), m=2)
    gm = aoc.so3_group(model)
    xT = aoc.exp_map(gm, np.array([0.3, 0.2, 0.1]))
    prob = BoundaryProblem(x0=np.eye(3), xT=xT, y0=np.zeros(3), yT=np.zeros(3),
                           T=1.0, steps=20)
    return model, gm, min_acc_cost(model), prob


def test_so3_underactuated_batch_is_bitwise_single(so3_m2_problem):
    model, gm, cost, prob = so3_m2_problem
    thetas = np.random.default_rng(3).uniform(-2.0, 2.0, (13, 6))
    xb, yb, _ = propagate_endpoints(model, gm, cost, prob.x0, prob.y0,
                                    thetas[:, :3], thetas[:, 3:], prob.T, prob.steps)
    for b in range(13):
        x1, y1, _ = propagate_endpoints(model, gm, cost, prob.x0, prob.y0,
                                     thetas[b, :3], thetas[b, 3:], prob.T, prob.steps)
        assert np.array_equal(x1, xb[b]) and np.array_equal(y1, yb[b])


def test_so3_underactuated_fused_step_is_bitwise_separate_flows(so3_m2_problem):
    model, gm, cost, prob = so3_m2_problem
    theta = np.random.default_rng(5).uniform(-2.0, 2.0, 6)
    fd_step = 1e-6
    r, J, _ = _residual_and_jacobian(model, gm, cost, prob, theta, fd_step)
    assert np.array_equal(r, boundary_residual(model, gm, cost, prob, theta[:3], theta[3:]))
    h = fd_step * (1.0 + np.abs(theta))
    for i in range(6):
        e = np.zeros(6)
        e[i] = h[i]
        plus = _residual_batch(model, gm, cost, prob, theta + e)[0][0]
        minus = _residual_batch(model, gm, cost, prob, theta - e)[0][0]
        assert np.array_equal(J[:, i], (plus - minus) / (2.0 * h[i]))


@pytest.mark.parametrize("m", [2, 3])
def test_shooting_row_subsets_keep_their_bits(m):
    # a continuation step or a geodesic probe runs only row 0, and gives the
    # bits of row 0 of the full 4n + 1-row batch
    model = aoc.so3_model((1.0, 2.0, 3.0), m=m)
    gm = aoc.so3_group(model)
    cost = min_acc_cost(model)
    prob = BoundaryProblem(x0=np.eye(3), xT=aoc.exp_map(gm, np.array([0.3, 0.2, 0.1])),
                           y0=np.zeros(3), yT=np.zeros(3), T=1.0, steps=20)
    theta = np.random.default_rng(7).uniform(-2.0, 2.0, 6)
    r, J, flow = _residual_and_jacobian(model, gm, cost, prob, theta, 1e-6)
    r_only, no_J, row_flow = _residual_and_jacobian(model, gm, cost, prob, theta, 1e-6,
                                                    jacobian=False)
    assert J is not None and no_J is None
    assert np.array_equal(r_only, r)
    assert all(np.array_equal(a, b) for a, b in zip(row_flow, flow))
