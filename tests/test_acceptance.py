"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings inline.
"""

import time

import numpy as np

import aoc
from aoc.direct import TranscriptionConfig, optimize_direct
from aoc.dynamics import State
from aoc.groups import orthogonality_defect, reconstruct_step
from aoc.pmp import (Costate, coordinate_observable, extremal_field,
                     fd_observable, flow_extremal, hamiltonian_field_check,
                     min_acc_cost, poisson_bracket, running_cost,
                     spatial_momentum)
from aoc.shooting import BoundaryProblem, extremal_defect, solve_shooting


def report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: {status} in {elapsed:.2f}s "
          f"(budget {budget:g}s){extra}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def builtin_models():
    return [aoc.so3_model((1.0, 2.0, 3.0)),
            aoc.abelian_model(3, m=2, inertia=np.diag([2.0, 3.0, 5.0]))]


def test_criterion_01_algebra_validity():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for model in builtin_models():
        rep = aoc.validate_model(model)
        ok = ok and rep.passed and rep.max_residual < 1e-12
        worst = max(worst, rep.max_residual)
    report(1, "algebra validity", ok, time.perf_counter() - t0, 1.0,
           f"max residual {worst:.2e}")


def test_criterion_02_connection_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for model in builtin_models():
        y, z, w = rng.standard_normal((3, 1000, model.n))
        torsion = (aoc.connection_bilinear(model, y, z)
                   - aoc.connection_bilinear(model, z, y) - aoc.bracket(model, y, z))
        worst = max(worst, float(np.abs(torsion).max()))
        comp = (np.einsum("ki,ki->k", aoc.flat(model, aoc.connection_bilinear(model, w, y)), z)
                + np.einsum("ki,ki->k", aoc.flat(model, y), aoc.connection_bilinear(model, w, z)))
        worst = max(worst, float(np.abs(comp).max()))
    report(2, "connection torsion-free and metric compatible", worst < 1e-10,
           time.perf_counter() - t0, 1.0, f"max residual {worst:.2e}")


def test_criterion_03_rigid_body_equation_cross_check():
    t0 = time.perf_counter()
    J = np.array([1.0, 2.0, 3.0])
    model = aoc.so3_model(tuple(J), m=2)
    gm = aoc.so3_group(model)
    Jm, Jinv = np.diag(J), np.diag(1.0 / J)
    rhs = extremal_field(model, min_acc_cost(model))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        y, mu, xi = rng.standard_normal((3, 3))
        _, vdot = rhs(0, 0.0, np.eye(3), np.concatenate([y, mu, xi]))
        ydot, mudot, xidot = np.split(vdot, 3)
        xi_res = np.array([xi[0], xi[1], 0.0])
        worst = max(worst, float(np.abs(ydot - (Jinv @ xi_res + Jinv @ np.cross(Jm @ y, y))).max()))
        worst = max(worst, float(np.abs(mudot - np.cross(mu, y)).max()))
        hand_xidot = -mu + Jm @ np.cross(Jinv @ xi, y) + np.cross(Jm @ y, Jinv @ xi)
        worst = max(worst, float(np.abs(xidot - hand_xidot).max()))
    report(3, "rigid body extremal equations cross-check", worst < 1e-12,
           time.perf_counter() - t0, 1.0, f"max deviation {worst:.2e}")


def test_criterion_04_symplectic_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    cases = [(aoc.so3_model((1.0, 2.0, 3.0)), aoc.so3_group)]
    ab = aoc.abelian_model(3, m=2, inertia=np.diag([2.0, 3.0, 5.0]))
    cases.append((ab, aoc.abelian_group))
    for model, group_fn in cases:
        gm = group_fn(model)
        cost = min_acc_cost(model)
        for k in range(100):
            p = (State(aoc.exp_map(gm, rng.uniform(-1, 1, model.n)), rng.uniform(-1, 1, model.n)),
                 Costate(rng.uniform(-1, 1, model.n), rng.uniform(-1, 1, model.n)))
            res = hamiltonian_field_check(model, gm, cost, p, n_directions=6,
                                          fd_step=1e-5, seed=k)
            worst = max(worst, res)
    report(4, "Hamiltonian field solves the symplectic equation", worst < 1e-6,
           time.perf_counter() - t0, 5.0, f"max residual {worst:.2e}")


def test_criterion_05_conservation():
    t0 = time.perf_counter()
    model = aoc.so3_model((1.0, 2.0, 3.0))
    gm = aoc.so3_group(model)
    cost = min_acc_cost(model)
    p0 = (State(np.eye(3), np.array([0.3, -0.2, 0.4])),
          Costate(np.array([0.5, 0.1, -0.3]), np.array([0.2, 0.4, -0.1])))
    traj = flow_extremal(model, gm, cost, p0, 1.0, 1000)
    dh = float(np.abs(traj.hams - traj.hams[0]).max())
    norms = np.linalg.norm(traj.mus, axis=1)
    dmu = float(np.abs(norms - norms[0]).max())
    pi0 = spatial_momentum(gm, traj.xs[0], traj.mus[0])
    dpi = max(float(np.abs(spatial_momentum(gm, traj.xs[k], traj.mus[k]) - pi0).max())
              for k in range(len(traj)))
    defect = orthogonality_defect(traj.xs[-1])
    ok = dh < 1e-7 and dmu < 1e-8 and dpi < 1e-7 and defect < 1e-9
    report(5, "conservation along the extremal flow", ok, time.perf_counter() - t0, 5.0,
           f"dH {dh:.1e}, d|mu| {dmu:.1e}, spatial {dpi:.1e}, defect {defect:.1e}")


def test_criterion_06_cubic_limit():
    t0 = time.perf_counter()
    ab = aoc.abelian_model(1)
    gm = aoc.abelian_group(ab)
    cost = min_acc_cost(ab)
    xT = np.eye(2)
    xT[0, 1] = 1.0
    prob = BoundaryProblem(x0=np.eye(2), xT=xT, y0=np.zeros(1), yT=np.zeros(1),
                           T=1.0, steps=200)
    res = solve_shooting(ab, gm, cost, prob)
    t = res.trajectory.times
    sup = float(np.abs(res.trajectory.xs[:, 0, 1] - (3 * t ** 2 - 2 * t ** 3)).max())
    cost_val = running_cost(cost, res.trajectory)
    ok = (res.converged and abs(res.mu0[0] - 12.0) < 1e-6 and abs(res.xi0[0] - 6.0) < 1e-6
          and sup < 1e-7 and abs(cost_val - 6.0) < 1e-6)
    report(6, "cubic polynomial limit on the line", ok, time.perf_counter() - t0, 5.0,
           f"mu0 {res.mu0[0]:.8f}, xi0 {res.xi0[0]:.8f}, sup {sup:.1e}, cost {cost_val:.8f}")


def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    model = aoc.so3_model((1.0, 2.0, 3.0))
    gm = aoc.so3_group(model)
    cost = min_acc_cost(model)
    xT = aoc.exp_map(gm, [0.0, 0.0, 1.0], 0.5)
    prob = BoundaryProblem(x0=np.eye(3), xT=xT, y0=np.zeros(3), yT=np.zeros(3),
                           T=1.0, steps=200)
    indirect = solve_shooting(model, gm, cost, prob)
    indirect_cost = running_cost(cost, indirect.trajectory)
    out = optimize_direct(model, gm, cost, prob, TranscriptionConfig(segments=100))
    gap = abs(out.running_cost - indirect_cost) / indirect_cost
    ok = (indirect.converged and indirect.residual_norm < 1e-8 and gap < 0.02
          and out.boundary_error < 1e-10)
    report(7, "direct transcription agrees with shooting", ok,
           time.perf_counter() - t0, 120.0,
           f"indirect {indirect_cost:.6f}, direct {out.running_cost:.6f}, gap {gap:.4%}, "
           f"boundary {out.boundary_error:.1e}")


def test_criterion_08_underactuated_run():
    t0 = time.perf_counter()
    model = aoc.so3_model((1.0, 2.0, 3.0), m=2)  # J1 != J2
    gm = aoc.so3_group(model)
    cost = min_acc_cost(model)
    axis = np.array([0.6, 0.7, 0.25])
    axis /= np.linalg.norm(axis)
    xT = aoc.exp_map(gm, axis, 0.4)
    prob = BoundaryProblem(x0=np.eye(3), xT=xT, y0=np.zeros(3), yT=np.zeros(3),
                           T=1.0, steps=200)
    res = solve_shooting(model, gm, cost, prob)
    d1 = extremal_defect(model, cost, res.trajectory)
    p0 = State(prob.x0, prob.y0), Costate(res.mu0, res.xi0)
    fine = flow_extremal(model, gm, cost, p0, prob.T, 2 * prob.steps)
    d2 = extremal_defect(model, cost, fine)
    ratios = {k: d1[k] / d2[k] for k in ("y", "mu", "xi")}
    ok = (res.converged and res.residual_norm < 1e-8
          and all(8.0 <= r <= 32.0 for r in ratios.values())
          and d1["stationarity"] < 1e-12)
    report(8, "underactuated shooting with fourth order defect", ok,
           time.perf_counter() - t0, 120.0,
           "defect ratios " + ", ".join(f"{k} {v:.1f}" for k, v in ratios.items()))


def test_criterion_09_integrator_order():
    t0 = time.perf_counter()
    model = aoc.so3_model((1.0, 2.0, 3.0))
    gm = aoc.so3_group(model)

    def y_of_t(t):
        return np.array([0.9 * np.sin(t), 0.7 * np.cos(t), 0.4 * np.sin(2 * t)])

    def run(steps):
        x = np.eye(3)
        h = 2.0 / steps
        for k in range(steps):
            x = reconstruct_step(gm, x, y_of_t, k * h, h)
        return x

    x_ref = run(100 * 64)
    e1 = np.linalg.norm(run(100) - x_ref)
    e2 = np.linalg.norm(run(200) - x_ref)
    ratio = e1 / e2
    report(9, "fourth order convergence of the group integrator",
           12.0 <= ratio <= 20.0, time.perf_counter() - t0, 10.0,
           f"error ratio {ratio:.2f}")


def test_criterion_10_poisson_structure():
    t0 = time.perf_counter()
    model = aoc.so3_model((1.0, 2.0, 3.0))
    gm = aoc.so3_group(model)
    rng = np.random.default_rng(17)
    worst_pair = 0.0
    worst_anti = 0.0

    def fd_coord(slot, idx):
        exact = coordinate_observable(model, slot, idx)
        return fd_observable(model, gm, exact.value)

    p = (State(aoc.exp_map(gm, rng.uniform(-1, 1, 3)), rng.uniform(-1, 1, 3)),
         Costate(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)))
    for i in range(3):
        for j in range(3):
            f, g = fd_coord("xi", i), fd_coord("y", j)
            val = poisson_bracket(model, f, g, p)
            worst_pair = max(worst_pair, abs(val - float(i == j)))
            worst_anti = max(worst_anti, abs(val + poisson_bracket(model, g, f, p)))
            fm, gmu = fd_coord("mu", i), fd_coord("mu", j)
            expected = float(np.dot(model.C[:, i, j], p[1].mu))
            worst_pair = max(worst_pair, abs(poisson_bracket(model, fm, gmu, p) - expected))

    worst_jacobi = 0.0
    f = coordinate_observable(model, "mu", 0)
    g = coordinate_observable(model, "mu", 1)
    h = coordinate_observable(model, "mu", 2)
    fg = fd_observable(model, gm, lambda s, c: poisson_bracket(model, f, g, (s, c)))
    gh = fd_observable(model, gm, lambda s, c: poisson_bracket(model, g, h, (s, c)))
    hf = fd_observable(model, gm, lambda s, c: poisson_bracket(model, h, f, (s, c)))
    for _ in range(100):
        q = (State(aoc.exp_map(gm, rng.uniform(-1, 1, 3)), rng.uniform(-1, 1, 3)),
             Costate(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)))
        res = (poisson_bracket(model, f, gh, q) + poisson_bracket(model, g, hf, q)
               + poisson_bracket(model, h, fg, q))
        worst_jacobi = max(worst_jacobi, abs(res))

    ok = worst_anti == 0.0 and worst_pair < 1e-10 and worst_jacobi < 1e-6
    report(10, "linear Poisson structure", ok, time.perf_counter() - t0, 5.0,
           f"pairings {worst_pair:.1e}, antisymmetry {worst_anti:.1e}, "
           f"jacobi {worst_jacobi:.1e}")
