#!/usr/bin/env python3
"""Rigid body reorientation: indirect shooting vs the transcription oracle.

Rest-to-rest rotation on SO(3) with a left-invariant metric diag(J1, J2, J3)
and the minimum covariant acceleration cost.  Use --m 2 for the
underactuated variant (torques about the first two axes only).
"""

import argparse
import time

import numpy as np

import aoc
from aoc.direct import TranscriptionConfig, optimize_direct
from aoc.pmp import min_acc_cost, running_cost
from aoc.shooting import BoundaryProblem, extremal_defect, solve_shooting


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inertia", type=float, nargs=3, default=[1.0, 2.0, 3.0])
    ap.add_argument("--m", type=int, default=3, choices=[2, 3])
    ap.add_argument("--axis", type=float, nargs=3, default=[0.0, 0.0, 1.0])
    ap.add_argument("--angle", type=float, default=0.5)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--segments", type=int, default=100)
    ap.add_argument("--skip-direct", action="store_true")
    args = ap.parse_args()

    model = aoc.so3_model(tuple(args.inertia), m=args.m)
    gm = aoc.so3_group(model)
    cost = min_acc_cost(model)
    axis = np.asarray(args.axis, dtype=float)
    axis /= np.linalg.norm(axis)
    prob = BoundaryProblem(x0=np.eye(3), xT=aoc.exp_map(gm, axis, args.angle),
                           y0=np.zeros(3), yT=np.zeros(3), T=args.T, steps=args.steps)

    t0 = time.perf_counter()
    ind = solve_shooting(model, gm, cost, prob)
    t_ind = time.perf_counter() - t0
    print(f"shooting: converged={ind.converged}  residual={ind.residual_norm:.2e}  "
          f"iterations={ind.iterations}  flows={ind.flows} (coarse {ind.coarse_flows})  "
          f"({t_ind:.1f}s)")
    print(f"  mu0 = {np.array2string(ind.mu0, precision=6)}")
    print(f"  xi0 = {np.array2string(ind.xi0, precision=6)}")
    if ind.trajectory is None:
        return
    ind_cost = running_cost(cost, ind.trajectory)
    defects = extremal_defect(model, cost, ind.trajectory)
    print(f"  cost = {ind_cost:.6f}")
    print("  extremal defects: " + ", ".join(f"{k}={v:.2e}" for k, v in defects.items()))

    if args.skip_direct:
        return
    t0 = time.perf_counter()
    out = optimize_direct(model, gm, cost, prob,
                          TranscriptionConfig(segments=args.segments))
    t_dir = time.perf_counter() - t0
    print(f"direct ({args.segments} segments): cost = {out.running_cost:.6f}  "
          f"boundary = {out.boundary_error:.2e}  converged = {out.converged}  ({t_dir:.1f}s)")
    if not out.converged:
        print("gap: none, the direct oracle did not converge")
        return
    gap = (out.running_cost - ind_cost) / ind_cost if abs(ind_cost) > 1e-12 \
        else out.running_cost - ind_cost
    print(f"gap = {gap:+.4%}")


if __name__ == "__main__":
    main()
