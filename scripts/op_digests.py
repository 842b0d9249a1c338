#!/usr/bin/env python3
"""The output digests of the benchmark's ops: one sha256 per workload and seed.

For each ``--seed`` and each perfbench workload, builds the workload's
``workloads.POOL`` ops (``perfbench/workloads.setup``, which this script only
imports), runs each through ``aoc.cli.main`` into a temporary directory and
checks its outputs (``workloads.check``).  It prints one line per workload
and seed: the sha256 of the ops' output files, op by op in pool order, the
``.json`` before the ``.csv`` of each op.  Two source trees that print the
same lines wrote the same bytes for every op, so a change that must keep
every output compares its lines with the parent's:

    python scripts/op_digests.py --seed 121 --seed 777
    python scripts/op_digests.py --src ../parent/src --seed 121 --seed 777

``--src`` is the source tree that holds the ``aoc`` package, by default this
checkout's ``src``.  Exits 1 if an op fails its check or exits nonzero.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest(workloads, cli, workload, seed, workdir):
    """(sha256 of the outputs of the workload's ops at ``seed``, the indices
    of the ops that failed their check)."""
    ops = workloads.setup(workload, seed, workdir / "configs")
    sha, failed = hashlib.sha256(), []
    for op in ops:
        base = workdir / f"op{op.index}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([op.command, "--config", str(op.path), "--out", str(base)])
        if not workloads.check(op, rc, base)[0]:
            failed.append(op.index)
        for path in (base.with_suffix(".json"), base.with_suffix(".csv")):
            if path.exists():
                sha.update(path.read_bytes())
    return sha.hexdigest(), failed


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, action="append", required=True,
                    help="a workload seed; repeat for several")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the source tree that holds the aoc package")
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import workloads
    from aoc import cli

    bad = False
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seed:
            for workload in workloads.WORKLOADS:
                sha, failed = digest(workloads, cli, workload, seed,
                                     Path(tmp) / f"{workload}-{seed}")
                note = f"  FAILED ops {failed}" if failed else ""
                print(f"{workload:<20} seed {seed:<6} {sha}{note}", flush=True)
                bad = bad or bool(failed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
