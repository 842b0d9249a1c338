"""Benchmark of the aoc CLI: one client, closed loop, in process.

    python3 perfbench/run.py --workload shoot-actuated --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each op is one ``aoc`` command
(``aoc.cli.main``) on one config generated from ``--seed``; the next op
starts when the previous one returns, until ``--seconds`` have passed.
Op times are scaled to a nominal machine speed by ``speed.SpeedProbe``.
Every op's outputs are checked.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (seed, config digests, per-op summaries, environment).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs op 0
untraced, under ``tracer.Tracer``, and untraced again, and reports the
per-layer metrics of the traced pass; the overhead is the traced time
minus the mean untraced time.  One fixed op keeps the counts exactly
repeatable, so that run does not use ``--seconds``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60

# a fresh interpreter that times importing aoc and building the workload
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def _setup_seconds(workload, seed):
    """Median of SETUP_SAMPLES set-ups, each in its own interpreter."""
    samples = []
    for i in range(SETUP_SAMPLES):
        workdir = WORK / workload / f"setup{i}"
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload,
             str(seed), str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(workdir)
    return statistics.median(samples), samples


def _execute(op, base):
    """Run one op through the CLI; returns (exit code, seconds)."""
    from aoc import cli

    argv = [op.command, "--config", str(op.path), "--out", str(base)]
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, time.perf_counter() - t0


def _closed_loop(ops, seconds, outdir):
    """Ops in pool order until ``seconds`` have passed, under a speed
    probe.  Returns ([(op, base, rc, seconds)], wall seconds, [(seconds
    at nominal speed, speed factor)])."""
    done, scaled = [], []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while not done or time.perf_counter() - start < seconds:
            op = ops[len(done) % len(ops)]
            base = outdir / f"run{len(done)}"
            mark = probe.mark()
            rc, dt = _execute(op, base)
            scaled.append(probe.normalized(mark, dt))
            done.append((op, base, rc, dt))
    return done, time.perf_counter() - start, scaled


def _traced_op(op, outdir):
    """Op untraced, traced, untraced again.  Returns (tracer, runs, overhead
    seconds, whether all three wrote the same bytes)."""
    bases = [outdir / name for name in ("untraced", "traced", "untraced2")]
    tracer = Tracer()
    runs = []
    for base in bases:
        with tracer if base.name == "traced" else contextlib.nullcontext():
            runs.append((op, base, *_execute(op, base)))
    same = all(
        len({base.with_suffix(ext).read_bytes() for base in bases}) == 1
        for ext in (".json", ".csv") if bases[0].with_suffix(ext).exists()
    ) and len({run[2] for run in runs}) == 1
    overhead = runs[1][3] - (runs[0][3] + runs[2][3]) / 2.0
    return tracer, runs, overhead, same


def _environment():
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "aoc").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=CHILD_TIMEOUT_S).stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "aoc_source_sha256": digest.hexdigest()[:16],
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "aoc_threads": os.environ.get("AOC_THREADS"),
    }


def main(argv=None):
    # one process, one thread: pinned before numpy loads (workloads imports
    # it), and inherited by the set-up children
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("AOC_THREADS", None)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aoc" / "__init__.py").is_file():
        print(f"error: no aoc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.setup(args.workload, args.seed, workdir / "configs")
    outdir = workdir / "out"
    outdir.mkdir()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "configs": {op.index: op.digest for op in ops}}

    if args.trace:
        tracer, runs, overhead, same = _traced_op(ops[0], outdir)
        record["traced_outputs_equal"] = same
    else:
        setup_s, record["setup_samples_s"] = _setup_seconds(args.workload, args.seed)
        runs, wall, scaled = _closed_loop(ops, args.seconds, outdir)
        record["wall_s"] = wall
        same = True
    failed = 0
    record["ops"] = []
    for op, base, rc, dt in runs:
        ok, summary = workloads.check(op, rc, base)
        failed += not ok
        record["ops"].append({"op": op.index, "ok": ok, "seconds": dt, **summary})
    if not args.trace:
        for entry, (seconds, factor) in zip(record["ops"], scaled):
            entry.update(nominal_seconds=seconds, speed_factor=factor)
    record["op_samples"] = len(runs)
    record["environment"] = _environment()

    if args.trace:
        metrics = tracer.metrics(overhead)
        with open(workdir / "spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(dict(zip(("op", "id", "parent", "name", "start", "end"),
                                            span))) + "\n")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": ((len(runs) - failed) / sum(seconds for seconds, _ in scaled), "1/s"),
            "op_s.p50": (statistics.median(seconds for seconds, _ in scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
