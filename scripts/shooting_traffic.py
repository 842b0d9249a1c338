#!/usr/bin/env python3
"""Seeded shooting traffic: ``solve_shooting`` on so(3) targets, per source tree.

Target k of a kind draws rng = default_rng([7, k]), then an axis
rng.standard_normal(3) (normalised; e3 draws it too, and rotates about the
third axis instead) and an angle rng.uniform(lo, hi).  Every target is rest
to rest from the identity, with T = 1, inertia (1, 2, 3), the minimum
covariant acceleration cost and the default solver arguments.

    act    m = 3, 0.2-1.0 rad
    under  m = 2, 0.2-0.8 rad
    wide   m = 2, 1.0-3.1 rad
    e3     m = 2, 0.2-0.8 rad about the unactuated axis e3
    big    m = 2, 2.5-3.1 rad
    far    m = 3, 1.0-3.1 rad

e3 and big reach the solver's other paths: on e3 targets several seeds
stall on the coarse grid, so the solve tries several starts, and big
targets take the longest coarse runs and continuations.  far targets are
fully actuated ones far from the rest linearization that starts their
solves.

Each ``--src`` is a source tree holding the ``aoc`` package (say ``src`` of a
checkout of another commit, and ``src`` of this one); by default it is this
tree's.  ``--json`` records each tree as a path from this checkout's root,
``src`` for this tree's.  Each tree gets its own copy of the package, and
the trees take turns to run first, target by target.  For each steps and
kind, and each side, the summary prints the converged targets, the flows on
the requested grid and on the coarse grid, the LM steps, the wall time of
the solves and the summed running cost of the converged targets.  With two sides it adds how many
targets reach the same extremal (running cost within 1e-6 relative), the
largest relative cost difference, and how many targets do the same work
(``same_work``: the converged flag, the requested and coarse flows, the LM
steps, the row-steps and the running cost all equal, the cost bit for bit).
The row-steps of a solve are the rows times the steps of each of its flows,
summed: each tree's ``pmp.propagate_endpoints``, which runs every extremal
flow, is wrapped to count them before the flow runs, so a flow that blows
up counts its full grid.  ``--json`` writes these rows and, per target, each
side's converged flag, running cost and work (``COUNTS``: the requested and
coarse flows, the LM steps and the row-steps).

``--check FILE`` runs one side and compares each target with its record in
FILE, a ``--json`` file: the converged flag must match and the cost must be
within CHECK_RTOL relative.  It prints every target that does not and exits
1 if there is one.  It also counts the targets whose work matches their
record; when one does not, it prints this run's and FILE's work totals for
each steps and kind that moved, and still exits 0.  ``shooting_corpus.json``
next to this script is the pinned corpus of all 144 targets (12 of each kind
at 50 and 200 steps, the default arguments); a change that moves an answer
or the work rewrites it with ``--json`` and says why.

    python scripts/shooting_traffic.py --src ../parent/src --src src --json rows.json
    python scripts/shooting_traffic.py --check scripts/shooting_corpus.json
"""

import argparse
import importlib
import json
import os
import sys
import time
from math import prod
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# m, the angle range and a fixed axis (None: the drawn one)
KINDS = {"act": (3, 0.2, 1.0, None), "under": (2, 0.2, 0.8, None),
         "wide": (2, 1.0, 3.1, None), "e3": (2, 0.2, 0.8, (0.0, 0.0, 1.0)),
         "big": (2, 2.5, 3.1, None), "far": (3, 1.0, 3.1, None)}
CHECK_RTOL = 1e-6
# the work of a solve: requested-grid flows, coarse-grid flows, LM steps and
# row-steps (``count_row_steps``)
COUNTS = ("requested", "coarse", "lm_steps", "row_steps")
# what a solve did, compared bit for bit between two sides for same_work
WORK = ("converged", *COUNTS, "cost")


def load(src):
    """The ``aoc`` package of the tree ``src``, imported apart from any other copy."""
    def drop():
        for name in [k for k in sys.modules if k == "aoc" or k.startswith("aoc.")]:
            del sys.modules[name]

    drop()
    sys.path.insert(0, str(src))
    try:
        aoc = importlib.import_module("aoc")
    finally:
        sys.path.remove(str(src))
        drop()
    return aoc


def count_row_steps(pmp):
    """Wrap ``pmp.propagate_endpoints`` to add each flow's rows times steps to
    the returned tally, a one-item list, before the flow runs, so that a flow
    that blows up counts its full grid."""
    flow, tally = pmp.propagate_endpoints, [0]

    def counted(model, gm, cost, x0, y0, mu0, xi0, T, steps):
        rows = np.broadcast_shapes(np.shape(x0)[:-2], np.shape(y0)[:-1],
                                   np.shape(mu0)[:-1], np.shape(xi0)[:-1])
        tally[0] += prod(rows) * steps
        return flow(model, gm, cost, x0, y0, mu0, xi0, T, steps)

    pmp.propagate_endpoints = counted
    return tally


def target(k, lo, hi, axis):
    rng = np.random.default_rng([7, k])
    drawn = rng.standard_normal(3)
    axis = drawn / np.linalg.norm(drawn) if axis is None else np.array(axis)
    return axis, rng.uniform(lo, hi)


def solve(aoc, tally, m, axis, angle, steps):
    model = aoc.so3_model((1.0, 2.0, 3.0), m=m)
    gm = aoc.so3_group(model)
    cost = aoc.min_acc_cost(model)
    prob = aoc.BoundaryProblem(x0=np.eye(3), xT=aoc.exp_map(gm, axis, angle),
                               y0=np.zeros(3), yT=np.zeros(3), T=1.0, steps=steps)
    row_steps, t0 = tally[0], time.perf_counter()
    res = aoc.solve_shooting(model, gm, cost, prob)
    wall = time.perf_counter() - t0
    return {"converged": bool(res.converged), "requested": res.flows - res.coarse_flows,
            "coarse": res.coarse_flows, "lm_steps": res.iterations,
            "row_steps": tally[0] - row_steps, "wall_s": wall,
            "cost": None if res.trajectory is None else aoc.running_cost(cost, res.trajectory)}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", action="append", type=Path,
                    help="a source tree holding the aoc package; give it once per side")
    ap.add_argument("--kinds", nargs="+", choices=sorted(KINDS), default=list(KINDS))
    ap.add_argument("--steps", type=int, nargs="+", default=[50, 200])
    ap.add_argument("--targets", type=int, default=12)
    ap.add_argument("--json", type=Path, help="also write the rows and targets here")
    ap.add_argument("--check", type=Path, metavar="FILE",
                    help="compare each target with its record in this --json file")
    args = ap.parse_args()
    srcs = args.src or [ROOT / "src"]
    if args.check and len(srcs) != 1:
        ap.error("--check runs one side")
    sides = [load(src) for src in srcs]
    tallies = [count_row_steps(aoc.pmp) for aoc in sides]

    rows, targets = [], []
    for steps in args.steps:
        for kind in args.kinds:
            m, lo, hi, fixed = KINDS[kind]
            runs = [[] for _ in sides]
            for k in range(args.targets):
                axis, angle = target(k, lo, hi, fixed)
                order = range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))
                for s in order:
                    runs[s].append(solve(sides[s], tallies[s], m, axis, angle, steps))
                targets.append({"steps": steps, "kind": kind, "k": k,
                                **{key: [side[k][key] for side in runs] for key in WORK}})
            row = {"steps": steps, "kind": kind, "targets": args.targets}
            for key in ("converged", *COUNTS):
                row[key] = [sum(r[key] for r in side) for side in runs]
            row["wall_s"] = [round(sum(r["wall_s"] for r in side), 3) for side in runs]
            row["cost"] = [sum(r["cost"] for r in side if r["converged"]) for side in runs]
            if len(sides) == 2:
                rel = [abs(a["cost"] - b["cost"]) / abs(a["cost"])
                       for a, b in zip(*runs) if a["converged"] and b["converged"]]
                row["same_extremal"] = sum(x <= 1e-6 for x in rel)
                row["max_cost_rel"] = max(rel, default=0.0)
                row["same_work"] = sum(all(a[key] == b[key] for key in WORK)
                                       for a, b in zip(*runs))
            rows.append(row)
            print(" ".join(f"{key}={value}" for key, value in row.items()), flush=True)
    if args.json:
        # each tree as a path from this checkout's root, so a file names no machine path
        sources = [os.path.relpath(src.resolve(), ROOT) for src in srcs]
        args.json.write_text(json.dumps({"sources": sources, "rows": rows,
                                         "targets": targets}, indent=1) + "\n")
    if args.check:
        sys.exit(check(targets, json.loads(args.check.read_text())["targets"]))


def check(targets, pinned):
    """Compare each run target with its pinned record; print the ones whose
    answer differs and return the exit code.  Count the ones whose work
    matches, and print the work totals of each steps and kind that moved."""
    pinned = {(t["steps"], t["kind"], t["k"]): t for t in pinned}
    bad, same_work, totals, moved = 0, 0, {}, set()
    for t in targets:
        key = (t["steps"], t["kind"], t["k"])
        if key not in pinned:
            print(f"check: steps={key[0]} kind={key[1]} k={key[2]} is not in the corpus")
            bad += 1
            continue
        work = [t[count][0] for count in COUNTS]
        work0 = [pinned[key][count][0] for count in COUNTS]
        same_work += work == work0
        if work != work0:
            moved.add(key[:2])
        total = totals.setdefault(key[:2], np.zeros((2, len(COUNTS)), dtype=int))
        total += [work, work0]
        ok, cost = t["converged"][0], t["cost"][0]
        ok0, cost0 = pinned[key]["converged"][0], pinned[key]["cost"][0]
        same = ok == ok0 and (cost == cost0 if cost is None or cost0 is None
                              else abs(cost - cost0) <= CHECK_RTOL * abs(cost0))
        if not same:
            print(f"check: steps={key[0]} kind={key[1]} k={key[2]} converged={ok} cost={cost}"
                  f", pinned converged={ok0} cost={cost0}")
            bad += 1
    print(f"check: {len(targets) - bad} of {len(targets)} targets match the corpus")
    print(f"check: {same_work} of {len(targets)} targets do the corpus's work")
    for steps, kind in sorted(moved):
        run, corpus = totals[steps, kind]
        print(f"check: work steps={steps} kind={kind} " + " ".join(
            f"{count}={a} (corpus {b})" for count, a, b in zip(COUNTS, run, corpus)))
    return 1 if bad else 0


if __name__ == "__main__":
    main()
