#!/usr/bin/env python3
"""The fixed cost of a short extremal flow: one shooting evaluation against its steps.

Times ``shooting._residual_and_jacobian`` on the criterion-8 problem (so(3),
m = 2, inertia (1, 2, 3), the minimum covariant acceleration cost, rest to
rest from the identity, T = 1): at 1 row (the residual alone, as a probe or
a continuation step evaluates it) and at 13 rows (the residual and its
central-difference Jacobian), on grids of 16 steps (the coarse grid of a
50-step solve), 200 steps and 2000 steps.  The steps alone are the time spent
inside the lifted RK4 loop (``groups._lifted_loop``, wrapped by a timer for
the run), the loop's set-up included; the evaluation's time less theirs is
the flow's fixed cost: the stage matrices, x rebuilt from the stage
velocities, the boundary residual and the glue around them.  A 2000-step
flow takes Parareal (``groups._parareal``): its steps are its fine sweeps and
any rerun of the sequential loop, and its fixed cost also holds Parareal's
coarse passes and bookkeeping.  Each figure is the median over ``--calls``
evaluations, after ``--warmup`` untimed ones, and is followed by itself over
the grid's steps, in microseconds per step.

    PYTHONPATH=src python scripts/flow_cost.py
    PYTHONPATH=src python scripts/flow_cost.py --calls 3000 --json cost.json

Pin BLAS to one thread (OPENBLAS_NUM_THREADS=1) for figures comparable with
the benchmark's.  ``--json`` also writes the figures to a file.
"""

import argparse
import json
import time

import numpy as np

import aoc
from aoc import groups, shooting
from aoc.pmp import min_acc_cost
from aoc.shooting import BoundaryProblem

ROWS = (1, 13)
STEPS = (16, 200, 2000)


def problem(steps):
    """The criterion-8 target: rest to rest, 0.4 rad about (0.6, 0.7, 0.25)."""
    gm = aoc.so3_group(aoc.so3_model((1.0, 2.0, 3.0), m=2))
    axis = np.array([0.6, 0.7, 0.25])
    xT = aoc.exp_map(gm, 0.4 * axis / np.linalg.norm(axis))
    return gm, BoundaryProblem(np.eye(3), xT, np.zeros(3), np.zeros(3), 1.0, steps)


def time_evaluations(rows, steps, calls, warmup):
    """Median seconds of one evaluation and of the loop steps inside it."""
    gm, prob = problem(steps)
    model, cost = gm.algebra, min_acc_cost(gm.algebra)
    theta = np.linspace(-0.3, 0.3, 2 * model.n)
    inside = []
    loop = groups._lifted_loop

    def timed(*args):
        start = time.perf_counter()
        out = loop(*args)
        inside.append(time.perf_counter() - start)
        return out

    totals, steps_alone = [], []
    groups._lifted_loop = timed
    try:
        for i in range(warmup + calls):
            inside.clear()
            start = time.perf_counter()
            point = shooting._residual_and_jacobian(model, gm, cost, prob, theta, 1e-6,
                                                    jacobian=rows > 1)
            total = time.perf_counter() - start
            if point is None:
                raise RuntimeError("the evaluation failed")
            if i >= warmup:
                totals.append(total)
                steps_alone.append(sum(inside))
    finally:
        groups._lifted_loop = loop
    fixed = np.array(totals) - np.array(steps_alone)
    return float(np.median(totals)), float(np.median(steps_alone)), float(np.median(fixed))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--calls", type=int, default=1000)
    ap.add_argument("--warmup", type=int, default=50)
    ap.add_argument("--json", help="also write the figures to this file")
    args = ap.parse_args()

    names = ("evaluation", "steps", "fixed")
    print(f"{'rows':>5} {'steps':>6} " + " ".join(f"{name + ' us':>14} {'per step':>8}"
                                                  for name in names))
    figures = []
    for steps in STEPS:
        for rows in ROWS:
            seconds = time_evaluations(rows, steps, args.calls, args.warmup)
            figure = {"rows": rows, "steps": steps}
            for name, s in zip(names, seconds):
                figure[f"{name}_us"] = round(s * 1e6, 1)
                figure[f"{name}_us_per_step"] = round(s * 1e6 / steps, 2)
            figures.append(figure)
            print(f"{rows:>5} {steps:>6} " + " ".join(
                f"{s * 1e6:>14.1f} {s * 1e6 / steps:>8.2f}" for s in seconds))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"calls": args.calls, "warmup": args.warmup, "figures": figures}, f,
                      indent=1)


if __name__ == "__main__":
    main()
