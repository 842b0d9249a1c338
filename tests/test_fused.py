"""Property tests pinning the fused flow kernels to their reference forms.

The fused extremal field and the ad-matrix ``dexpinv`` are checked on
random valid algebras: so(3) with a diagonal inertia, abelian R^n with a
block-diagonal inertia, and se(2)- and se(3)-style semidirect products with
scaled, permuted generators and an adapted inertia.  Every case is checked
to be a valid model (Jacobi identity included) whose connection is metric
compatible and whose extremal field is Hamiltonian.  The batch tests pin the
bitwise equality of a batched flow with each of its rows run alone, of
the split x-independent flow with a loop of coupled steps, and of
shooting's fused residual-and-Jacobian batch with separate flows and with
its row subsets (the residual row alone, the perturbation rows alone).
"""

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
    rhs = extremal_field(model, None, cost)
    V = rng.uniform(-1.0, 1.0, (5, 3 * n))
    z, vdot = rhs(0, 0.0, None, V)
    assert_allclose(z, V[:, :n], rtol=0, atol=0)
    for v, row in zip(V, vdot):
        y, mu, xi = v[:n], v[n:2 * n], v[2 * n:]
        s = State(np.eye(n + 1), y)
        u = eliminate_control(model, cost, s, xi)
        _, ref = extremal_rhs(model, None, cost, ExtremalPoint(s, Costate(mu, xi), u))
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
    a = ExtremalPoint(State(np.eye(gm.rep_dim), y), Costate(mu, xi), np.zeros(model.m))
    assert aoc.hamiltonian_field_check(model, gm, cost, a, n_directions=4) < 1e-6


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


@given(algebras, st.sampled_from([1, 2, 13, 60]))
@settings(max_examples=20, deadline=None)
def test_split_flow_is_bitwise_coupled_steps_and_single_rows(case, width):
    # x-independent fields take the split path: RK4 on v in the loop, the group
    # product after it; it must give the bits of coupled steps, row by row
    model, gm, rng = draw(*case)
    n = model.n
    rhs = extremal_field(model, gm, quadratic_cost(model, spd(rng, model.m)))
    v0 = rng.uniform(-1.0, 1.0, (width, 3 * n))
    x0 = np.eye(gm.rep_dim)
    h = 0.04
    try:
        xs, vs = rkmk_integrate(gm, x0, v0, 25, h, rhs)
        bad = None
    except aoc.NonFinite as e:
        # some drawn flows blow up: the coupled steps must blow up at the same step
        bad = e.step_index
    xc, vc = x0, v0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(25 if bad is None else bad):
            xc, vc, _ = rkmk_coupled_step(gm, xc, vc, k, h, rhs)
            if bad is not None:
                assert (np.isfinite(xc).all() and np.isfinite(vc).all()) == (k + 1 < bad)
            else:
                assert np.array_equal(xs[k + 1], xc) and np.array_equal(vs[k + 1], vc)
    if bad is not None:
        return
    for b in {0, width - 1}:
        xb, vb = rkmk_integrate(gm, x0, v0[b], 25, h, rhs)
        assert np.array_equal(xb, xs[:, b]) and np.array_equal(vb, vs[:, b])


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
