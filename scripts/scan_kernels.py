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
The first line names the budgets the figures were taken with: the cells of a
chunk and the intp indices of one gather block.

With `--threads N`, each line also gives the best wall time of a scan of
4 N such chunks (or of all n rows, when fewer) through
`optables.scan_chunks`, once at one job and once at N jobs. Its worker finds
no hit, so every chunk runs; scan_chunks caps the jobs at the CPUs this
process may use.

    PYTHONPATH=src python3 scripts/scan_kernels.py --repeat 30 --threads 2
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
        ("nvalued", axioms._nvalued, (a, b), 4 * n * n),
    ]


def chunk(sides, rows):
    left, right = sides(rows)
    return optables.first_true(left != right)


def best_ms(run, repeat):
    """The least wall time of `repeat` calls of run(), in milliseconds."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def scan_ms(sides, n_rows, width, jobs, repeat):
    """best_ms of a scan over n_rows in which every chunk runs."""
    def worker(a0, a1):
        chunk(sides, np.arange(a0, a1))

    return best_ms(lambda: optables.scan_chunks(worker, n_rows, width, jobs), repeat)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30, help="timed runs per line (best is kept)")
    parser.add_argument("--threads", type=int, default=0,
                        help="also time a scan of 4 x THREADS chunks at 1 and at THREADS jobs")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    threads = f" {'1-job ms':>9} {f'{args.threads}-job ms':>9}" if args.threads else ""
    print(f"CHUNK_CELLS {optables.CHUNK_CELLS} GATHER_CELLS {optables.GATHER_CELLS}")
    print(f"{'shape':20} {'n':>5} {'rows':>5} {'best ms':>9} {'peak KB':>9}{threads}")
    for n in SIZES:
        for name, shape, tables, width in laws(n, rng):
            rows = np.arange(*optables._row_blocks(n, width, optables.CHUNK_CELLS)[0])
            sides = shape(*tables)
            best = best_ms(lambda: chunk(sides, rows), args.repeat)
            tracemalloc.start()
            chunk(sides, rows)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            line = f"{name:20} {n:5} {len(rows):5} {best:9.3f} {peak / 1024:9.1f}"
            if args.threads:
                n_rows = min(n, 4 * args.threads * len(rows))
                line += "".join(f" {scan_ms(sides, n_rows, width, jobs, args.repeat):9.3f}"
                                for jobs in (1, args.threads))
            print(line)


if __name__ == "__main__":
    main()
