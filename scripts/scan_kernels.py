#!/usr/bin/env python3
"""Time one scan chunk of each law shape and report its traced memory peak.

For every shape in `multigroup.axioms` and n = 24, 81, 360 and 625, the
script builds random tables on cyclic(n) (the group table of cyclic(n) where
the shape needs a group) and runs what a scan worker runs on one chunk: both
sides for the chunk's first coordinates, their comparison and the search for
the first hit. The chunk holds the rows a scan puts in one chunk,
CHUNK_CELLS // (cells per row), and at least one. Each line gives the best
wall time of `--repeat` runs and the `tracemalloc` peak of one more run;
neither counts the shape's construction, which a scan makes once per law.

    PYTHONPATH=src python3 scripts/scan_kernels.py --repeat 30
"""

import argparse
import time
import tracemalloc

import numpy as np

from multigroup import axioms, optables
from multigroup.carriers import cyclic_group

SIZES = (24, 81, 360, 625)


def laws(n, rng):
    """(name, shape, its tables, cells per row) for every law shape on cyclic(n)."""
    carrier = cyclic_group(n)
    a, b = (optables.table_from_array(carrier, rng.integers(0, n, (n, n))).table
            for _ in range(2))
    return [
        ("bracket", axioms._bracket, (a, b, b, a), n * n),
        ("mixed_distrib", axioms._mixed_distrib, (a, b), n * n),
        ("left_distrib", axioms._left_distrib, (a,), n * n),
        ("brace_compatibility", axioms._brace_compatibility, (carrier.cayley, a), n * n),
        ("nvalued", axioms._nvalued, (np.stack([a, b]),), 4 * n * n),
    ]


def chunk(sides, rows):
    left, right = sides(rows)
    return optables.first_true(left != right)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30, help="timed runs per line (best is kept)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    print(f"{'shape':20} {'n':>5} {'rows':>5} {'best ms':>9} {'peak KB':>9}")
    for n in SIZES:
        for name, shape, tables, width in laws(n, rng):
            rows = np.arange(min(n, max(1, optables.CHUNK_CELLS // width)))
            sides = shape(*tables)
            best = float("inf")
            for _ in range(max(1, args.repeat)):
                start = time.perf_counter()
                chunk(sides, rows)
                best = min(best, time.perf_counter() - start)
            tracemalloc.start()
            chunk(sides, rows)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"{name:20} {n:5} {len(rows):5} {best * 1e3:9.3f} {peak / 1024:9.1f}")


if __name__ == "__main__":
    main()
