"""The lifted RK4 step of the fused extremal field (``groups._lifted_loop``).

The fused field carries its lifted matrix Kf, vdot = [v, y (x) v] @ Kf, and
the stepper folds the RK4 coefficients and h into Kf: one outer product and
one stacked matmul per stage, or ``ndarray.dot`` for a state of one matrix.
That step matches classical RK4 over the field's rhs to rounding, one step
and whole flows alike, and every row of a batch gets the bits it gets alone,
laid as a vector, as one row or as one row's columns, with one h for all
rows or one per row (Parareal's pair step).  Parareal's coarse steps come from a stepper built
once (``groups._lifted_stepper``), which gives the bits of a one-step loop.
The field forms the stage matrices of each scalar step size once and keeps
them read-only (``rhs.stages``); a per-row h forms its own, and the cache
lives and dies with the field.
"""

import gc
import weakref
from functools import partial

import numpy as np
import pytest

import aoc
from aoc import groups
from aoc.groups import PARAREAL_SEGMENTS
from aoc.pmp import extremal_field, min_acc_cost, quadratic_cost
from test_parareal import GROUPS, flow, within_ulps


def field(gm):
    return extremal_field(gm.algebra, min_acc_cost(gm.algebra))


def lifted_step(rhs, v, h):
    """One lifted RK4 step of rows ``v`` (..., p), laid (..., p, 1) so that each
    row is its own product (``groups._lifted_loop`` of one step): the four
    stage velocities and the new v."""
    vs = np.empty((2,) + v.shape + (1,))
    vs[0] = v[..., None]
    zs, _ = groups._lifted_loop(rhs, 1, h, vs, False)
    return tuple(zs[:, 0, ..., 0]), vs[1, ..., 0]


def classical(rhs):
    """The same field as a plain callable, which takes classical RK4 steps."""
    return lambda k, c, x, v: rhs(k, c, x, v)


def test_the_fused_field_carries_its_lifted_matrix():
    gm = GROUPS["so3-m3"]()
    rhs = field(gm)
    v = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 9))
    y1 = np.concatenate([np.ones((5, 1)), v[:, :3]], axis=1)
    lift = (y1[:, :, None] * v[:, None, :]).reshape(5, 36)
    assert rhs.Kf.shape == (36, 9)
    assert np.array_equal(rhs(0, 0.0, None, v)[1], (lift[:, None, :] @ rhs.Kf)[:, 0])


@pytest.mark.parametrize("kind", sorted(GROUPS))
def test_one_lifted_step_matches_classical_rk4_to_rounding(kind):
    gm = GROUPS[kind]()
    rhs = field(gm)
    v = np.random.default_rng(2).uniform(-1.0, 1.0, (13, 3 * gm.algebra.n))
    for h in (0.005, 0.05):
        z, w = lifted_step(rhs, v, h)
        zc, wc = groups._rk4_step(None, v, 0, h, classical(rhs))
        assert within_ulps(w, wc)
        assert all(within_ulps(a, b) for a, b in zip(z, zc))


@pytest.mark.parametrize("kind", sorted(GROUPS))
@pytest.mark.parametrize("steps", [200, 2000])
def test_lifted_flows_match_classical_rk4_to_rounding(kind, steps):
    # at 2000 steps the lifted flow takes Parareal and the callable the loop
    gm = GROUPS[kind]()
    v0 = np.random.default_rng(3).uniform(-0.5, 0.5, (4, 3 * gm.algebra.n))
    xs, vs = flow(gm, v0, steps)
    xc, vc = flow(gm, v0, steps, rhs=classical(field(gm)))
    assert within_ulps(vs, vc) and within_ulps(xs, xc)


@pytest.mark.parametrize("kind", sorted(GROUPS))
@pytest.mark.parametrize("steps", [16, 200, 507])
def test_batch_rows_of_a_lifted_flow_are_bitwise_single_rows(kind, steps):
    gm = GROUPS[kind]()
    rng = np.random.default_rng(4)
    v0 = rng.uniform(-1.0, 1.0, (6, 3 * gm.algebra.n)) * np.geomspace(0.05, 2.0, 6)[:, None]
    v0[1] = 0.0  # a row at rest, whose zero increments keep their signs
    xs, vs = flow(gm, v0, steps)
    for r in range(len(v0)):
        for v in (v0[r], v0[r:r + 1]):
            x1, v1 = flow(gm, v, steps)
            assert np.array_equal(x1.reshape(xs[:, r].shape), xs[:, r])
            assert np.array_equal(v1.reshape(vs[:, r].shape), vs[:, r])


def test_each_matrix_of_a_column_state_keeps_the_bits_it_gets_alone():
    # Parareal's fine sweep lays a batch (rows, p, K): the K columns of each row
    # share one product, and no product spans rows.  With OpenBLAS 0.3.31 on a
    # Haswell core, one product of all 13 x 20 columns at this width (n = 6)
    # gave some rows other bits, where narrower fields kept them
    rng = np.random.default_rng(0)
    C, A = rng.standard_normal((6, 6, 6)), rng.standard_normal((6, 6))
    model = aoc.make_model(6, 6, C - C.transpose(0, 2, 1), A @ A.T / 6 + np.eye(6), strict=False)
    rhs = extremal_field(model, min_acc_cost(model))
    vs = np.empty((6, 13, 18, 20))
    vs[0] = rng.uniform(-0.3, 0.3, (13, 18, 20))
    zs, _ = groups._lifted_loop(rhs, 5, 0.01, vs, False)
    for r in range(13):
        alone = np.empty((6, 18, 20))
        alone[0] = vs[0, r]
        z1, _ = groups._lifted_loop(rhs, 5, 0.01, alone, False)
        assert np.array_equal(alone, vs[:, r]) and np.array_equal(z1, zs[:, :, r])


def loop_record(rhs, v, steps, h):
    """The record and stage velocities of ``steps`` lifted steps from ``v``,
    laid as ``v`` is (``groups._lifted_loop`` without a look)."""
    vs = np.empty((steps + 1,) + v.shape)
    vs[0] = v
    zs, _ = groups._lifted_loop(rhs, steps, h, vs, False)
    return vs, zs


@pytest.mark.parametrize("kind", sorted(GROUPS))
@pytest.mark.parametrize("K", [1, PARAREAL_SEGMENTS], ids=["rows", "columns"])
def test_a_state_of_one_matrix_keeps_the_bits_of_a_row_of_a_batch(kind, K):
    # a state of one (p, K) matrix, laid (p, K) or (1, p, K), or as a vector
    # (p,) when K = 1, takes its products by ndarray.dot, and a batch (3, p, K)
    # by stacked matmul: the lone-row flows with K = 1, a Parareal fine sweep of
    # one row with K = 20.  A column at rest keeps the signs of its zeros
    gm = GROUPS[kind]()
    rhs = field(gm)
    p = 3 * gm.algebra.n
    rng = np.random.default_rng(10)
    v = rng.uniform(-1.0, 1.0, (3, p, K)) * np.geomspace(0.05, 2.0, 3)[:, None, None]
    v[1, :, 0] = 0.0
    vs, zs = loop_record(rhs, v, 16, 0.05)
    for r in range(3):
        for alone in [v[r:r + 1], v[r]] + ([v[r, :, 0]] if K == 1 else []):
            vs1, zs1 = loop_record(rhs, alone, 16, 0.05)
            assert np.array_equal(vs1.reshape(vs[:, r].shape), vs[:, r])
            assert np.array_equal(zs1.reshape(zs[:, :, r].shape), zs[:, :, r])


@pytest.mark.parametrize("kind", sorted(GROUPS))
def test_a_per_row_h_gives_each_row_its_bits_alone(kind):
    # Parareal's pair step: 10 pairs of segments of different lengths, R rows each
    gm = GROUPS[kind]()
    rng = np.random.default_rng(5)
    v = rng.uniform(-1.0, 1.0, (10, 3, 3 * gm.algebra.n))
    h = rng.uniform(0.01, 0.1, (10, 1, 1))
    z, w = lifted_step(field(gm), v, h)
    for i in range(10):
        for r in range(3):
            z1, w1 = lifted_step(field(gm), v[i, r], float(h[i, 0, 0]))
            assert np.array_equal(w1, w[i, r])
            assert all(np.array_equal(a[i, r], b) for a, b in zip(z, z1))


@pytest.mark.parametrize("kind", sorted(GROUPS))
def test_the_built_once_step_gives_the_bits_of_a_one_step_loop(kind):
    # Parareal's coarse steps of two segment lengths, and its pair step, with
    # one h per pair of segments; each size steps twice, from the last
    # step's end, through the same buffers
    gm = GROUPS[kind]()
    rhs = field(gm)
    rng = np.random.default_rng(6)
    v = rng.uniform(-1.0, 1.0, (10, 3, 3 * gm.algebra.n))
    hs = [0.05, 0.045, rng.uniform(0.01, 0.1, (10, 1, 1))]
    start, ys, step = groups._lifted_stepper([groups._stage_matrices(rhs.Kf, h) for h in hs],
                                             v.shape + (1,))
    out = np.empty_like(start)
    for i, h in enumerate(hs):
        start[...], w = v[..., None], v
        for _ in range(2):
            z, w = lifted_step(rhs, w, h)
            step(i, out)
            assert np.array_equal(out[..., 0], w)
            assert all(np.array_equal(a, b) for a, b in zip(ys[..., 0], z))
            start[...] = out


def uncached(rhs):
    """The field ``rhs`` with stage matrices formed anew for every flow."""
    fresh = lambda k, c, x, v: rhs(k, c, x, v)
    fresh.Kf, fresh.stages = rhs.Kf, partial(groups._stage_matrices, rhs.Kf)
    return fresh


def test_fields_flown_alternately_keep_their_bits():
    # three fields at the same h and widths, each with its own cached stage
    # matrices, formed once per field and h
    so3 = GROUPS["so3-m2"]()
    gms = [so3, so3, aoc.so3_group(aoc.so3_model((1.0, 2.5, 4.0), m=2))]
    weighted = quadratic_cost(so3.algebra, np.diag([2.0, 0.5]))
    rhss = [field(so3), extremal_field(so3.algebra, weighted), field(gms[2])]
    v0 = np.random.default_rng(7).uniform(-1.0, 1.0, (13, 9))
    refs = [[flow(gm, v, 16, rhs=uncached(rhs)) for v in (v0, v0[0])]
            for gm, rhs in zip(gms, rhss)]
    assert not np.array_equal(refs[0][0][1], refs[1][0][1])
    assert not np.array_equal(refs[0][0][1], refs[2][0][1])
    for _ in range(2):
        for gm, rhs, ref in zip(gms, rhss, refs):
            for v, (x1, v1) in zip((v0, v0[0]), ref):
                xs, vs = flow(gm, v, 16, rhs=rhs)
                assert np.array_equal(xs, x1) and np.array_equal(vs, v1)
    assert [rhs.stages.cache_info().misses for rhs in rhss] == [1, 1, 1]


def test_cached_stage_matrices_are_read_only_and_a_per_row_h_bypasses_them():
    rhs = field(GROUPS["so3-m2"]())
    M = rhs.stages(0.05)
    assert rhs.stages(0.05) is M and not M.flags.writeable
    with pytest.raises(ValueError):
        M[0] = 0.0
    v = np.random.default_rng(8).uniform(-1.0, 1.0, (10, 3, 9))
    before = rhs.stages.cache_info()
    lifted_step(rhs, v, np.full((10, 1, 1), 0.05))
    assert rhs.stages.cache_info() == before
    lifted_step(rhs, v[0, 0], 0.05)
    assert rhs.stages.cache_info().hits == before.hits + 1


def test_fields_and_their_stage_matrices_live_no_longer_than_the_field_cache():
    # each op of the CLI builds its own model, so a cache of stage matrices
    # that outlived the field cache would keep every op's
    models, stages = [], []
    v0 = np.random.default_rng(9).uniform(-1.0, 1.0, (13, 9))
    for i in range(40):
        gm = aoc.so3_group(aoc.so3_model((1.0, 2.0, 3.0 + i), m=2))
        rhs = field(gm)
        flow(gm, v0, 16, rhs=rhs)
        models.append(weakref.ref(gm.algebra))
        stages.append(weakref.ref(rhs.stages(1.0 / 16)))
    del gm, rhs
    gc.collect()
    bound = extremal_field.cache_info().maxsize
    assert sum(ref() is not None for ref in models) <= bound
    assert sum(ref() is not None for ref in stages) <= bound
