import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import aoc
from aoc.dynamics import zoh_rollout
from aoc.groups import (dexpinv, orthogonality_defect, reconstruct_step,
                        rkmk_coupled_step, rkmk_integrate, validate_group)
from aoc.pmp import extremal_field, min_acc_cost
from test_parareal import within_ulps


def series_exp(A, terms=30):
    """Truncated-series oracle for the matrix exponential."""
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    return out


def test_exp_at_zero_time_is_identity(so3_j123_group, abelian1_group, rng):
    for gm in (so3_j123_group, abelian1_group):
        y = rng.standard_normal(gm.algebra.n)
        assert_allclose(aoc.exp_map(gm, y, 0.0), np.eye(gm.rep_dim), atol=1e-15)


def test_exp_half_turn_matches_series_oracle(so3_j123_group):
    got = aoc.exp_map(so3_j123_group, [0.0, 0.0, 1.0], np.pi)
    oracle = series_exp(aoc.hat(so3_j123_group, [0.0, 0.0, np.pi]))
    assert_allclose(got, oracle, atol=1e-13)
    assert_allclose(got, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_exp_random_matches_series_oracle(so3_j123_group, rng):
    for _ in range(50):
        y = rng.standard_normal(3)
        assert_allclose(aoc.exp_map(so3_j123_group, y),
                        series_exp(aoc.hat(so3_j123_group, y), terms=40), atol=1e-12)


def test_abelian_exp_is_translation(abelian3):
    gm = aoc.abelian_group(abelian3)
    g = aoc.exp_map(gm, [1.0, 2.0, 3.0], 0.5)
    assert_allclose(g[:3, 3], [0.5, 1.0, 1.5])
    assert_allclose(g[:3, :3], np.eye(3))


def test_generic_exp_matches_closed_form(so3_j123, so3_j123_group, rng):
    generic = aoc.generic_group(so3_j123, so3_j123_group.basis)
    for scale in (0.01, 1.0, 4.0):
        y = scale * rng.standard_normal(3)
        assert_allclose(aoc.exp_map(generic, y), aoc.exp_map(so3_j123_group, y),
                        atol=1e-12)


def test_generic_batch_is_bitwise_single(so3_j123, so3_j123_group):
    # each row takes its own scaling exponent and its own last series term
    generic = aoc.generic_group(so3_j123, so3_j123_group.basis)
    rng = np.random.default_rng(0)
    y = rng.standard_normal((4, 3)) * np.array([0.05, 0.7, 2.5, 6.0])[:, None]
    batch = aoc.exp_map(generic, y)
    for b in range(4):
        assert np.array_equal(batch[b], aoc.exp_map(generic, y[b]))
    U = rng.standard_normal((4, 6, 3))
    y0 = np.array([0.1, 0.0, 0.0])
    _, xs, ys = zoh_rollout(generic, np.eye(3), y0, U, 1.0)
    for b in range(4):
        _, xs1, ys1 = zoh_rollout(generic, np.eye(3), y0, U[b], 1.0)
        assert np.array_equal(xs[:, b], xs1) and np.array_equal(ys[:, b], ys1)


def test_log_of_identity_is_zero(so3_j123_group):
    assert_allclose(aoc.log_map(so3_j123_group, np.eye(3)), 0.0, atol=1e-15)


def test_log_exp_roundtrip_1000(so3_j123_group, rng):
    worst = 0.0
    for _ in range(1000):
        y = rng.standard_normal(3)
        y *= rng.uniform(0, 2.0) / max(np.linalg.norm(y), 1e-12)
        back = aoc.log_map(so3_j123_group, aoc.exp_map(so3_j123_group, y))
        worst = max(worst, np.abs(back - y).max())
    assert worst < 1e-9


def test_log_half_turn_with_relaxed_clamp(so3_j123_group):
    g = np.diag([-1.0, -1.0, 1.0])
    w = aoc.log_map(so3_j123_group, g, max_angle=np.pi + 1e-9)
    assert_allclose(np.abs(w), [0.0, 0.0, np.pi], atol=1e-12)
    assert_allclose(aoc.exp_map(so3_j123_group, w), g, atol=1e-12)


def test_log_raises_near_pi(so3_j123_group):
    g = aoc.exp_map(so3_j123_group, [0.0, 0.0, 1.0], np.pi - 1e-9)
    with pytest.raises(aoc.AngleOutOfRange):
        aoc.log_map(so3_j123_group, g)


def scalar_log(R):
    """One rotation matrix to (rotation vector, branch) by quaternion extraction."""
    t = R[0, 0] + R[1, 1] + R[2, 2]
    skew = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if t > 0.0:
        branch = 0
        s = 2.0 * np.sqrt(t + 1.0)
        q = np.concatenate([[0.25 * s], skew / s])
    else:
        branch = 1 + int(np.argmax(np.diag(R)))
        i = branch - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        s = 2.0 * np.sqrt(max(1.0 + R[i, i] - R[j, j] - R[k, k], 0.0))
        q = np.empty(4)
        q[0] = skew[i] / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[i, j] + R[j, i]) / s
        q[1 + k] = (R[i, k] + R[k, i]) / s
    if q[0] < 0.0:
        q = -q
    vn = np.linalg.norm(q[1:])
    if vn < 1e-12:
        return (2.0 / q[0]) * q[1:], branch
    return (2.0 * np.arctan2(vn, q[0]) / vn) * q[1:], branch


def test_batched_log_matches_scalar_on_every_branch(so3_j123_group, rng):
    near_axis = np.eye(3)[rng.integers(0, 3, 300)] + 0.1 * rng.standard_normal((300, 3))
    axes = np.concatenate([rng.standard_normal((300, 3)), near_axis])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate([rng.uniform(0.0, np.pi - 1e-3, 300),
                             rng.uniform(2.0, np.pi - 1e-3, 300)])
    R = aoc.exp_map(so3_j123_group, axes * angles[:, None])
    got = aoc.log_map(so3_j123_group, R)
    ref = [scalar_log(r) for r in R]
    assert {branch for _, branch in ref} == {0, 1, 2, 3}
    assert_allclose(got, np.stack([w for w, _ in ref]), rtol=0, atol=1e-14)
    assert_allclose(aoc.log_map(so3_j123_group, R.reshape(20, 30, 3, 3)),
                    got.reshape(20, 30, 3), rtol=0, atol=0)


def test_a_mixed_log_batch_gives_each_row_its_bits_alone(so3_j123_group, rng):
    # a batch with traces on both sides of 0 pivots per row, while a row alone,
    # or a batch, whose traces are all positive skips the pivots: same bits
    gm = so3_j123_group
    near_axis = np.eye(3)[rng.integers(0, 3, 40)] + 0.1 * rng.standard_normal((40, 3))
    axes = np.concatenate([rng.standard_normal((40, 3)), near_axis])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate([rng.uniform(0.0, np.pi - 1e-3, 40), rng.uniform(2.0, 3.1, 40),
                             [0.0, 1e-14, 1e-9]])
    axes = np.concatenate([axes, rng.standard_normal((3, 3))])
    R = aoc.exp_map(gm, axes * angles[:, None])
    assert {scalar_log(r)[1] for r in R} == {0, 1, 2, 3}
    got = aoc.log_map(gm, R)
    for r in range(len(R)):
        assert np.array_equal(aoc.log_map(gm, R[r]), got[r])
    positive = np.trace(R, axis1=1, axis2=2) > 0.0
    assert np.array_equal(aoc.log_map(gm, R[positive]), got[positive])


def test_batched_log_near_zero(so3_j123_group, rng):
    axes = rng.standard_normal((4, 3))
    w = axes * np.array([0.0, 1e-14, 1e-9, 1e-6])[:, None]
    got = aoc.log_map(so3_j123_group, aoc.exp_map(so3_j123_group, w))
    assert_allclose(got, w, rtol=1e-9, atol=1e-300)
    assert_allclose(got, np.stack([scalar_log(r)[0] for r in aoc.exp_map(so3_j123_group, w)]),
                    rtol=1e-15, atol=0)


def test_batched_log_raises_if_any_row_near_pi(so3_j123_group):
    angles = np.array([0.1, np.pi - 2e-6, np.pi - 1e-9, 1.0])
    R = aoc.exp_map(so3_j123_group, np.outer(angles, [0.0, 0.6, 0.8]))
    assert_allclose(np.linalg.norm(aoc.log_map(so3_j123_group, R[:2]), axis=1), angles[:2],
                    atol=1e-9)
    with pytest.raises(aoc.AngleOutOfRange):
        aoc.log_map(so3_j123_group, R)
    with pytest.raises(aoc.AngleOutOfRange):
        aoc.log_map(so3_j123_group, R[2])


def test_abelian_log(abelian3):
    gm = aoc.abelian_group(abelian3)
    y = np.array([0.3, -0.7, 2.0])
    assert_allclose(aoc.log_map(gm, aoc.exp_map(gm, y)), y)


def test_generic_log_matches_closed_form(so3_j123, so3_j123_group, rng):
    generic = aoc.generic_group(so3_j123, so3_j123_group.basis)
    y = np.array([0.4, -0.2, 0.9])
    g = aoc.exp_map(so3_j123_group, y)
    assert_allclose(aoc.log_map(generic, g), y, atol=1e-10)


@pytest.mark.parametrize("g, message", [
    (np.diag([-1.0, 1.0, 1.0]), "left the real algebra"),
    (np.diag([2.0, 1.0, 1.0]), "round trip failed"),
], ids=["reflection", "scaling"])
def test_generic_log_rejects_an_element_outside_the_chart(so3_j123, so3_j123_group, g, message):
    # a reflection has no real logarithm; a scaling has one, outside the algebra
    generic = aoc.generic_group(so3_j123, so3_j123_group.basis)
    with pytest.raises(aoc.AngleOutOfRange, match=message):
        aoc.log_map(generic, g)


@given(st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3).map(np.array))
@settings(max_examples=40, deadline=None)
def test_log_exp_roundtrip_hypothesis(y):
    gm = aoc.so3_group(aoc.so3_model((1.0, 2.0, 3.0)))
    assert_allclose(aoc.log_map(gm, aoc.exp_map(gm, y)), y, atol=1e-10)


@pytest.mark.parametrize("call, message", [
    (lambda model, gm: aoc.generic_group(model, np.zeros((2, 3, 3))),
     "basis matrices must have shape (3, 3, 3), got (2, 3, 3)"),
    (lambda model, gm: aoc.so3_group(aoc.abelian_model(2)), "so3 group needs a 3-dimensional algebra"),
    (lambda model, gm: aoc.hat(gm, np.zeros(2)), "expected 3 components, got shape (2,)"),
    (lambda model, gm: aoc.exp_map(gm, np.zeros((4, 2))), "expected 3 components, got shape (4, 2)"),
    (lambda model, gm: aoc.log_map(gm, np.eye(2)), "expected (3, 3) matrices, got shape (2, 2)"),
], ids=["generic-basis-shape", "so3-of-another-dimension", "hat-shape", "exp-shape", "log-shape"])
def test_group_inputs_are_checked(call, message, so3_j123, so3_j123_group):
    with pytest.raises(aoc.DimensionMismatch, match="^" + re.escape(message) + "$"):
        call(so3_j123, so3_j123_group)


def test_hat_unhat_roundtrip(so3_j123_group, rng):
    y = rng.standard_normal(3)
    assert_allclose(aoc.unhat(so3_j123_group, aoc.hat(so3_j123_group, y)), y, atol=1e-13)


def test_group_validation(so3_j123, so3_j123_group, abelian3):
    assert validate_group(so3_j123_group).passed
    assert validate_group(aoc.abelian_group(abelian3)).passed
    broken = aoc.generic_group(so3_j123, np.transpose(so3_j123_group.basis, (0, 2, 1)) * 2.0)
    assert not validate_group(broken).passed


def test_inverse(so3_j123_group, abelian3, rng):
    g = aoc.exp_map(so3_j123_group, rng.standard_normal(3))
    assert_allclose(g @ aoc.inverse(so3_j123_group, g), np.eye(3), atol=1e-14)
    gm = aoc.abelian_group(abelian3)
    t = aoc.exp_map(gm, rng.standard_normal(3))
    assert_allclose(t @ aoc.inverse(gm, t), np.eye(4), atol=1e-14)


def test_adjoint_matrix_so3_is_rotation(so3_j123_group, rng):
    # on SO(3) the adjoint in the cross-product basis is the rotation itself
    y = rng.standard_normal(3)
    g = aoc.exp_map(so3_j123_group, y)
    assert_allclose(aoc.adjoint_matrix(so3_j123_group, g), g, atol=1e-12)


def test_dexpinv_small_omega_is_identityish(so3_j123, rng):
    v = rng.standard_normal(3)
    assert_allclose(dexpinv(so3_j123, np.zeros(3), v), v)


def test_reconstruct_zero_velocity_fixes_x(so3_j123_group, rng):
    x = aoc.exp_map(so3_j123_group, rng.standard_normal(3))
    x2 = reconstruct_step(so3_j123_group, x, lambda t: np.zeros(3), 0.0, 0.1)
    assert_allclose(x2, x, atol=1e-16)


def test_reconstruct_constant_velocity_exact(so3_j123_group):
    y = np.array([0.3, -0.2, 0.5])
    x = np.eye(3)
    h = 0.37
    x2 = reconstruct_step(so3_j123_group, x, lambda t: y, 0.0, h)
    assert_allclose(x2, aoc.exp_map(so3_j123_group, y, h), atol=1e-15)


def test_reconstruct_manifold_defect_long_run(so3_j123_group):
    x = np.eye(3)
    h = 1e-3
    for k in range(10_000):
        x = reconstruct_step(so3_j123_group, x, lambda t: np.array([np.sin(t), 0.0, 0.0]),
                             k * h, h)
    assert orthogonality_defect(x) < 1e-12


def test_reconstruct_batch_of_elements_is_bitwise_single(so3_j123_group, rng):
    xs = aoc.exp_map(so3_j123_group, rng.standard_normal((4, 3)))
    y_of_t = lambda t: np.array([np.sin(t), 0.3, -0.2])
    batch = reconstruct_step(so3_j123_group, xs, y_of_t, 0.2, 0.1)
    for b in range(4):
        assert np.array_equal(batch[b], reconstruct_step(so3_j123_group, xs[b], y_of_t, 0.2, 0.1))


def reconstruction_error(gm, y_of_t, T, steps, x_ref):
    x = np.eye(3)
    h = T / steps
    for k in range(steps):
        x = reconstruct_step(gm, x, y_of_t, k * h, h)
    return np.linalg.norm(x - x_ref)


def test_rkmk4_order_ratio(so3_j123_group):
    def y_of_t(t):
        return np.array([0.9 * np.sin(t), 0.7 * np.cos(t), 0.4 * np.sin(2 * t)])

    T = 2.0
    base_steps = 100
    x_ref = np.eye(3)
    h_ref = T / (base_steps * 64)
    for k in range(base_steps * 64):
        x_ref = reconstruct_step(so3_j123_group, x_ref, y_of_t, k * h_ref, h_ref)
    e1 = reconstruction_error(so3_j123_group, y_of_t, T, base_steps, x_ref)
    e2 = reconstruction_error(so3_j123_group, y_of_t, T, base_steps * 2, x_ref)
    ratio = e1 / e2
    assert 12.0 <= ratio <= 20.0


def test_coupled_step_vector_part_is_rk4(so3_j123_group):
    # with zero group velocity the vector part must reduce to classical RK4
    h = 0.1

    def rhs(k, c, x, v):
        return np.zeros(3), -v + np.sin((k + c) * h)

    v = np.array([1.0, 0.5, -0.2])
    x, v1 = rkmk_coupled_step(so3_j123_group, np.eye(3), v, 0, h, rhs)
    # classical RK4 by hand
    f = lambda t, w: -w + np.sin(t)
    k1 = f(0.0, v)
    k2 = f(0.05, v + 0.05 * k1)
    k3 = f(0.05, v + 0.05 * k2)
    k4 = f(0.1, v + 0.1 * k3)
    assert_allclose(v1, v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), atol=1e-16)
    assert_allclose(x, np.eye(3), atol=1e-16)


def test_rkmk_stays_on_manifold_where_rk4_drifts(so3_j123_group):
    # classical RK4 on the matrix entries tracks the group integrator to
    # integration order but leaves the manifold; Munthe-Kaas stays on it
    def y_of_t(t):
        return np.array([0.9 * np.sin(t), 0.7 * np.cos(t), 0.4 * np.sin(2 * t)])

    h = 0.05
    x_mk = np.eye(3)
    x_raw = np.eye(3)
    for k in range(1000):
        x_mk = reconstruct_step(so3_j123_group, x_mk, y_of_t, k * h, h)
        f = lambda s, X: X @ aoc.hat(so3_j123_group, y_of_t(s))
        k1 = f(k * h, x_raw)
        k2 = f(k * h + h / 2, x_raw + h / 2 * k1)
        k3 = f(k * h + h / 2, x_raw + h / 2 * k2)
        k4 = f(k * h + h, x_raw + h * k3)
        x_raw = x_raw + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert orthogonality_defect(x_mk) < 1e-13
    assert orthogonality_defect(x_raw) > 1e-8
    assert np.linalg.norm(x_mk - x_raw) < 1e-4


def coupled_loop(gm, x, v, steps, h, rhs):
    """The reference for the split flow: one coupled step at a time, with the
    finite check of the time loop.  Returns the states of the grid."""
    xs, vs = [np.broadcast_to(x, np.shape(v)[:-1] + np.shape(x))], [v]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x, v = rkmk_coupled_step(gm, x, v, k, h, rhs)
            if not (np.isfinite(v).all() and np.isfinite(x).all()):
                raise aoc.NonFinite(k + 1)
            xs.append(x)
            vs.append(v)
    return np.array(xs), np.array(vs)


@pytest.mark.parametrize("kind", ["so3", "abelian", "generic"])
@pytest.mark.parametrize("width", [1, 13])
@pytest.mark.parametrize("pass_rows", [None, 20])
def test_split_flow_is_bitwise_the_coupled_loop(kind, width, pass_rows, so3_m2, abelian3,
                                                monkeypatch):
    # pass_rows 20 splits the reconstruction into several passes of whole steps.
    # A callable x-independent field (the Newton form of the cost) takes
    # classical RK4 steps and gives the bits of coupled steps; the fused field
    # takes lifted steps and matches coupled steps to rounding
    if pass_rows is not None:
        monkeypatch.setattr(aoc.groups, "_PASS_ROWS", pass_rows)
    model = abelian3 if kind == "abelian" else so3_m2
    gm = {"so3": aoc.so3_group, "abelian": aoc.abelian_group,
          "generic": lambda m: aoc.generic_group(m, aoc.so3_group(m).basis)}[kind](model)
    cost = min_acc_cost(model)
    v0 = np.random.default_rng(7).uniform(-1.5, 1.5, (width, 9))
    x0 = aoc.exp_map(gm, np.array([0.3, -0.2, 0.4]))
    h = 0.05
    rhs = extremal_field(model, dataclasses.replace(cost, quad_weight=None))
    assert not hasattr(rhs, "Kf")
    xs1, vs1 = coupled_loop(gm, x0, v0, 30, h, rhs)
    xs2, vs2 = rkmk_integrate(gm, x0, v0, 30, h, rhs)
    assert xs2.shape == (31, width) + x0.shape and vs2.shape == (31, width, 9)
    assert np.array_equal(xs1, xs2) and np.array_equal(vs1, vs2)
    fused = extremal_field(model, cost)
    xs1, vs1 = coupled_loop(gm, x0, v0, 30, h, fused)
    xs2, vs2 = rkmk_integrate(gm, x0, v0, 30, h, fused)
    assert within_ulps(xs2, xs1) and within_ulps(vs2, vs1)


@pytest.mark.parametrize("kind", ["fused", "newton", "coupled"])
def test_a_one_row_batch_steps_as_a_vector(kind, so3_m2, so3_m2_group, monkeypatch):
    # the right-hand side of a (1, p) flow sees v of shape (p,) and x of shape
    # (d, d), the lifted loop of the fused field fills a record of v of shape
    # (steps + 1, p), and the record keeps the batch axis with the bits of the
    # vector flow
    model, gm = so3_m2, so3_m2_group
    cost = min_acc_cost(model)
    if kind == "newton":
        cost = dataclasses.replace(cost, quad_weight=None)
    if kind == "coupled":
        # L + tr(A x), whose trivialized x-derivative is tr(A x E_i)
        A, quad = np.random.default_rng(3).standard_normal((3, 3)), cost
        cost = dataclasses.replace(
            quad, eval=lambda s, u: quad.eval(s, u) + np.trace(A @ s.x, axis1=-2, axis2=-1),
            dL_dx_triv=lambda s, u: np.einsum("...ab,iba->...i", s.x, gm.basis @ A),
            x_independent=False)
    needs_x = not cost.x_independent
    field = extremal_field(model, cost)
    seen = set()

    def rhs(k, c, x, v):
        seen.add((np.shape(x), np.shape(v)))
        return field(k, c, x, v)

    v0 = np.random.default_rng(2).uniform(-1.0, 1.0, 9)
    x0 = aoc.exp_map(gm, np.array([0.3, -0.2, 0.4]))
    xs, vs = rkmk_integrate(gm, x0, v0, 40, 0.05, field, needs_x=needs_x)
    if kind == "fused":
        lifted = aoc.groups._lifted_loop

        def spy(Kf, steps, h, vs, look):
            seen.add(vs.shape)
            return lifted(Kf, steps, h, vs, look)

        monkeypatch.setattr(aoc.groups, "_lifted_loop", spy)
        rhs = field
    xs1, vs1 = rkmk_integrate(gm, x0[None], v0[None], 40, 0.05, rhs, needs_x=needs_x)
    assert seen == ({(41, 9)} if kind == "fused" else {((3, 3), (9,))})
    assert xs1.shape == (41, 1, 3, 3) and vs1.shape == (41, 1, 9)
    assert np.array_equal(xs1[:, 0], xs) and np.array_equal(vs1[:, 0], vs)


@pytest.mark.parametrize("pass_rows", [None, 3])
def test_abelian_translation_overflow_reports_first_bad_step(abelian3, pass_rows, monkeypatch):
    # v stays finite, but x translates by 2.5e307 per step and overflows at step 8,
    # whether the loop takes split or coupled steps and however many rows it has
    if pass_rows is not None:
        monkeypatch.setattr(aoc.groups, "_PASS_ROWS", pass_rows)
    gm = aoc.abelian_group(abelian3)

    def coasting(k, c, x, v):
        return v, np.zeros_like(v)

    def coasting_then_nan(k, c, x, v):
        return v, np.full_like(v, np.nan if k + c >= 12.0 else 0.0)

    cases = ((np.array([2.5e307, 0.0, 0.0]), coasting, 8),
             (np.array([2.5e307, 0.0, 0.0]), coasting_then_nan, 8),
             # with a small velocity the NaN that step 12 samples
             # at its last stage comes first
             (np.array([1.0, 0.0, 0.0]), coasting_then_nan, 12))
    # split or coupled steps, a vector, a lone row or a batch
    for (v0, rhs, bad), needs_x, shape in itertools.product(cases, (False, True),
                                                            ((3,), (1, 3), (4, 3))):
        v0 = np.broadcast_to(v0, shape)
        with pytest.raises(aoc.NonFinite) as refd:
            coupled_loop(gm, np.eye(4), v0, 20, 1.0, rhs)
        with pytest.raises(aoc.NonFinite) as err:
            rkmk_integrate(gm, np.eye(4), v0, 20, 1.0, rhs, needs_x=needs_x)
        assert err.value.step_index == refd.value.step_index == bad


@pytest.mark.parametrize("shape", [(3,), (1, 3), (4, 3)])
def test_a_coupled_flow_records_the_x_it_carries(shape, so3_j123_group, monkeypatch):
    # nothing rebuilds x after the loop
    gm = so3_j123_group

    def attracted(k, c, x, v):
        return v, x[..., :, 0] - v

    def rebuilt(*args):
        raise AssertionError("x was rebuilt")

    v0 = np.random.default_rng(9).uniform(-1.0, 1.0, shape)
    x0 = aoc.exp_map(gm, np.array([0.3, -0.2, 0.4]))
    xs1, vs1 = coupled_loop(gm, x0, v0, 20, 0.1, attracted)
    monkeypatch.setattr(aoc.groups, "_reconstruct", rebuilt)
    xs2, vs2 = rkmk_integrate(gm, x0, v0, 20, 0.1, attracted, needs_x=True)
    assert np.array_equal(xs1, xs2) and np.array_equal(vs1, vs2)


@pytest.mark.parametrize("shape", [(3,), (4, 3)])
def test_coupled_flow_is_bitwise_the_coupled_loop(shape, so3_j123_group):
    gm = so3_j123_group

    def attracted(k, c, x, v):
        # the velocity relaxes toward the first column of x, so the field reads x
        return v, x[..., :, 0] - v

    def attracted_then_nan(k, c, x, v):
        # the last stage of step 7 leaves x finite and v[0] alone NaN
        z, f = attracted(k, c, x, v)
        if k == 6 and c == 1.0:
            f[..., 0] = np.nan
        return z, f

    v0 = np.random.default_rng(9).uniform(-1.0, 1.0, shape)
    x0 = aoc.exp_map(gm, np.array([0.3, -0.2, 0.4]))
    xs1, vs1 = coupled_loop(gm, x0, v0, 20, 0.1, attracted)
    xs2, vs2 = rkmk_integrate(gm, x0, v0, 20, 0.1, attracted, needs_x=True)
    assert xs2.shape == (21,) + shape[:-1] + x0.shape and vs2.shape == (21,) + shape
    assert np.array_equal(xs1, xs2) and np.array_equal(vs1, vs2)

    with pytest.raises(aoc.NonFinite) as refd:
        coupled_loop(gm, x0, v0, 20, 0.1, attracted_then_nan)
    with pytest.raises(aoc.NonFinite) as err:
        rkmk_integrate(gm, x0, v0, 20, 0.1, attracted_then_nan, needs_x=True)
    assert err.value.step_index == refd.value.step_index == 7


@pytest.mark.parametrize("steps", range(1, 13))
def test_the_grid_rule_refuses_times_that_do_not_strictly_increase(steps):
    # T of 1 to 40 of the smallest subnormals: the rule accepts exactly the
    # grids whose times, as np.linspace places them, strictly increase
    for units in range(1, 41):
        T = units * 5e-324
        times = np.linspace(0.0, T, steps + 1)
        if (np.diff(times) > 0).all():
            assert aoc.groups._uniform_grid(T, steps) == (steps, T / steps)
        else:
            with pytest.raises(ValueError, match=rf"^T must leave the {steps + 1} grid times "
                                                 "strictly increasing, got"):
                aoc.groups._uniform_grid(T, steps)
    assert aoc.groups._uniform_grid(1.0, aoc.groups.MAX_STEPS)[0] == aoc.groups.MAX_STEPS
    with pytest.raises(ValueError, match=r"^steps must be at most 1000000, got 1000001$"):
        aoc.groups._uniform_grid(1.0, aoc.groups.MAX_STEPS + 1)
