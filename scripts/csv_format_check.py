"""Check the trajectory CSV writer's cells against C's '%.17g'.

    python scripts/csv_format_check.py --count 10000000 --seed 0

Draws ``--count`` seeded doubles, a quarter from each of four families,
formats them with the block kernel of ``aoc.dynamics.write_trajectory_csv``
and one value at a time with ``'%.17g'``, and compares the bytes:

- uniform on [-1, 1];
- log-uniform in magnitude over the whole double range, subnormals
  included, with random signs;
- raw 64-bit patterns (NaNs and infinities included);
- dyadic ties: N * 2**-j with N odd, whose exact decimal expansion has
  18 significant digits ending in 5, so that 17-digit rounding is
  exactly half way and goes to even.

Values are checked in lines of ``COLS`` cells, in chunks of ``CHUNK``
values.  On the first difference the script prints the value, the
expected and the written cell, and exits 1.
"""

import argparse
import sys

import numpy as np

from aoc.dynamics import _csv_block

CHUNK = 1 << 16
COLS = 16


def uniform(rng, n):
    return rng.uniform(-1.0, 1.0, n)


def log_uniform(rng, n):
    mant = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return np.ldexp(mant, rng.integers(-1074, 1024, n))


def raw_bits(rng, n):
    return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)


def dyadic_ties(rng, n):
    # N * 5**j in [1e17, 1e18) needs j in 2..25 for an odd N < 2**53
    j = rng.integers(2, 26, n)
    lo = np.ceil(1e17 / 5.0 ** j)
    hi = np.minimum(np.floor((1e18 - 1) / 5.0 ** j), 2.0 ** 53 - 1)
    big = (lo + np.floor(rng.random(n) * (hi - lo))).astype(np.int64) | 1
    big = np.where(big > hi, big - 2, big)
    return np.ldexp(big.astype(float), -j) * rng.choice([-1.0, 1.0], n)


FAMILIES = (uniform, log_uniform, raw_bits, dyadic_ties)


def reference(block):
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in block.tolist()).encode()


def first_difference(block, got):
    """(value, expected, written) of the first cell that differs."""
    want_cells = [c for line in reference(block).splitlines() for c in line.split(b",")]
    got_cells = [c for line in got.splitlines() for c in line.split(b",")]
    for x, w, g in zip(block.ravel().tolist(), want_cells, got_cells):
        if w != g:
            return x, w, g
    return None, b"", b"(cell count differs)"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=1_000_000, help="values to check")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    checked = 0
    for family in FAMILIES:
        todo = args.count // len(FAMILIES)
        while todo > 0:
            n = min(CHUNK, todo)
            vals = family(rng, n)
            pad = -n % COLS
            block = np.concatenate([vals, vals[:pad]]).reshape(-1, COLS)
            got = _csv_block(block)
            if got != reference(block):
                x, want, wrote = first_difference(block, got)
                print(f"MISMATCH in {family.__name__}: value {x!r} ({float(x).hex()}): "
                      f"'%.17g' gives {want.decode()!r}, the writer {wrote.decode()!r}")
                return 1
            checked += n
            todo -= n
    print(f"csv format check: {checked} values match '%.17g' (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
