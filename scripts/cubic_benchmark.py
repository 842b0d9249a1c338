#!/usr/bin/env python3
"""Line benchmark: rest-to-rest transfer on R^1 against the analytic cubic.

The minimum-acceleration transfer x(0)=0 -> x(1)=1 with zero endpoint
velocities is x(t) = 3t^2 - 2t^3 with cost 6; the shooting solver must
find the seed costates (12, 6) and the transcription oracle must match
the cost from the other side.
"""

import argparse
import time

import numpy as np

import aoc
from aoc.direct import TranscriptionConfig, optimize_direct
from aoc.pmp import min_acc_cost, running_cost
from aoc.shooting import BoundaryProblem, solve_shooting


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--segments", type=int, default=50)
    ap.add_argument("--steps", type=int, default=200)
    args = ap.parse_args()

    model = aoc.abelian_model(1)
    gm = aoc.abelian_group(model)
    cost = min_acc_cost(model)
    xT = np.eye(2)
    xT[0, 1] = 1.0
    prob = BoundaryProblem(x0=np.eye(2), xT=xT, y0=np.zeros(1), yT=np.zeros(1),
                           T=1.0, steps=args.steps)

    t0 = time.perf_counter()
    ind = solve_shooting(model, gm, cost, prob)
    t_ind = time.perf_counter() - t0
    t = ind.trajectory.times
    sup = np.abs(ind.trajectory.xs[:, 0, 1] - (3 * t ** 2 - 2 * t ** 3)).max()

    t0 = time.perf_counter()
    dir_res = optimize_direct(model, gm, cost, prob,
                              TranscriptionConfig(segments=args.segments))
    t_dir = time.perf_counter() - t0

    print(f"shooting:   mu0={ind.mu0[0]:+.8f}  xi0={ind.xi0[0]:+.8f}  "
          f"residual={ind.residual_norm:.2e}  ({t_ind:.2f}s)")
    print(f"  analytic seeds are (+12, +6); sup|x - cubic| = {sup:.2e}")
    print(f"  cost = {running_cost(cost, ind.trajectory):.8f}  (analytic 6)")
    print(f"direct:     cost = {dir_res.running_cost:.8f}  "
          f"boundary error = {dir_res.boundary_error:.2e}  converged = {dir_res.converged}  "
          f"iterations = {dir_res.iterations}  ({t_dir:.2f}s)")
    mids = (np.arange(args.segments) + 0.5) / args.segments
    print(f"  sup|U - u*(midpoints)| = "
          f"{np.abs(dir_res.U[:, 0] - (6 - 12 * mids)).max():.2e}")


if __name__ == "__main__":
    main()
