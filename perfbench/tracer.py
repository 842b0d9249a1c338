"""Per-layer tracing of aoc from outside the library.

``Tracer`` replaces a fixed set of aoc's public functions by timing
wrappers, in every loaded ``aoc`` module that binds them (``pmp`` and
``dynamics`` import ``bias``/``bracket`` by name and ``direct`` imports
``zoh_rollout`` by name, so patching only the defining module would miss
those calls), and puts the originals back on exit.

A wrapped call is a span with a name, start, end and parent.  Its self
time is its duration minus the time covered by its child spans.  Leaf
kernels run around a million times per op, so every function keeps only
per-name accumulators (calls, rows, self time, raised); the coarse
functions in ``SPAN_NAMES`` also keep each span in memory, which the
benchmark writes out after the run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

ALGEBRA = ("bracket", "ad_star", "flat", "sharp", "bias", "embed_control")


def _rows(arr):
    return arr.size // arr.shape[-1] if arr.ndim else 1


# (module, function) -> how to read the batch rows from the return value
TRACED = {
    **{("aoc.algebra", name): _rows for name in ALGEBRA},
    ("aoc.groups", "rkmk_coupled_step"): lambda out: _rows(out[1]),
    ("aoc.groups", "exp_map"): None,
    ("aoc.groups", "log_map"): _rows,
    ("aoc.pmp", "propagate_endpoints"): lambda out: _rows(out[1]),
    ("aoc.pmp", "flow_extremal"): None,
    ("aoc.shooting", "solve_shooting"): None,
    ("aoc.direct", "optimize_direct"): None,
    ("aoc.dynamics", "zoh_rollout"): lambda out: _rows(out[2][0]),
    ("aoc.dynamics", "write_trajectory_csv"): None,
    ("aoc.cli", "main"): None,
}

SPAN_NAMES = {"cli.main", "shooting.solve_shooting", "direct.optimize_direct",
              "pmp.propagate_endpoints", "pmp.flow_extremal",
              "dynamics.zoh_rollout", "dynamics.write_trajectory_csv"}


class Tracer:
    """Context manager that traces the functions in ``TRACED``.

    ``stats[name]`` is ``[calls, rows, self_s, raised]``; ``extra`` holds
    the counters read from arguments, results and the span stack (see
    ``_on_exit``); ``spans`` holds ``(op, id, parent, name, start, end)``.
    """

    def __init__(self):
        self.op = 0
        self.stats = {}
        self.extra = dict.fromkeys(
            ("lm_iters", "jacobians", "trial_residuals", "shooting_rows",
             "direct_iters", "rollouts", "rollout_rows", "rollout_self_s",
             "csv_bytes"), 0)
        self.spans = []
        self._stack = []
        self._active = {}
        self._next_id = 0
        self._patched = []

    def __enter__(self):
        originals = {}
        for (mod_name, fn_name), rows_of in TRACED.items():
            fn = getattr(sys.modules[mod_name], fn_name)
            name = mod_name.removeprefix("aoc.") + "." + fn_name
            originals[id(fn)] = (fn, self._wrap(fn, name, rows_of))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "aoc" and not mod_name.startswith("aoc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def _wrap(self, fn, name, rows_of):
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0])
        stack = self._stack
        keep_span = name in SPAN_NAMES
        on_exit = self._on_exit if keep_span else None
        active = self._active
        active.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0, self._next_id]
            self._next_id += 1
            parent = stack[-1][2] if stack else None
            stack.append(frame)
            active[name] += 1
            out = raised = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException:
                stat[3] += 1
                raised = True
                raise
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[2] += dur - frame[1]
                if not raised and rows_of is not None:
                    stat[1] += rows_of(out)
                if keep_span:
                    self.spans.append((self.op, frame[2], parent, name, frame[0], end))
                    if not raised:
                        on_exit(name, args, out, dur - frame[1])

        return wrapper

    def _on_exit(self, name, args, out, self_s):
        """Counters that need the arguments, the result or the callers."""
        extra = self.extra
        if name == "shooting.solve_shooting":
            extra["lm_iters"] += out.iterations
        elif name == "direct.optimize_direct":
            extra["direct_iters"] += out.iterations
        elif name == "pmp.propagate_endpoints" and self._active["shooting.solve_shooting"]:
            width = _rows(out[1])
            extra["shooting_rows"] += width
            if width == 4 * args[0].n:
                extra["jacobians"] += 1
            elif width == 1:
                extra["trial_residuals"] += 1
        elif name == "dynamics.zoh_rollout" and self._active["direct.optimize_direct"]:
            extra["rollouts"] += 1
            extra["rollout_rows"] += _rows(out[2][0])
            extra["rollout_self_s"] += self_s
        elif name == "dynamics.write_trajectory_csv":
            extra["csv_bytes"] += Path(args[1]).stat().st_size

    def metrics(self, overhead_s):
        """The per-layer metrics, as ``{name: (value, unit)}``."""
        s, x = self.stats, self.extra
        alg = [s[f"algebra.{name}"] for name in ALGEBRA]
        step = s["groups.rkmk_coupled_step"]
        prop = s["pmp.propagate_endpoints"]
        return {
            "algebra.calls": (sum(a[0] for a in alg), "count"),
            "algebra.rows": (sum(a[1] for a in alg), "count"),
            "algebra.self_s": (sum(a[2] for a in alg), "s"),
            "groups.step_calls": (step[0], "count"),
            "groups.step_rows": (step[1], "count"),
            "groups.step_self_s": (step[2], "s"),
            "groups.exp_self_s": (s["groups.exp_map"][2], "s"),
            "groups.log_rows": (s["groups.log_map"][1], "count"),
            "groups.log_self_s": (s["groups.log_map"][2], "s"),
            "pmp.propagate_calls": (prop[0], "count"),
            "pmp.propagate_rows": (prop[1], "count"),
            "pmp.propagate_self_s": (prop[2], "s"),
            # a raised flow or boundary log sends shooting to its row-by-row retry
            "pmp.propagate_failed": (prop[3] + s["groups.log_map"][3], "count"),
            "pmp.flow_extremal_calls": (s["pmp.flow_extremal"][0], "count"),
            "pmp.flow_extremal_self_s": (s["pmp.flow_extremal"][2], "s"),
            "shooting.lm_iters": (x["lm_iters"], "count"),
            "shooting.jacobians": (x["jacobians"], "count"),
            "shooting.trial_residuals": (x["trial_residuals"], "count"),
            "shooting.rows_per_iter": (x["shooting_rows"] / max(x["lm_iters"], 1), "rows/iter"),
            "shooting.self_s": (s["shooting.solve_shooting"][2], "s"),
            "direct.iters": (x["direct_iters"], "count"),
            "direct.rollouts": (x["rollouts"], "count"),
            "direct.rollout_rows": (x["rollout_rows"], "count"),
            "direct.rollout_self_s": (x["rollout_self_s"], "s"),
            "direct.self_s": (s["direct.optimize_direct"][2], "s"),
            "dynamics.csv_bytes": (x["csv_bytes"], "B"),
            "dynamics.csv_self_s": (s["dynamics.write_trajectory_csv"][2], "s"),
            "cli.self_s": (s["cli.main"][2], "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
