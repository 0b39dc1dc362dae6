"""Host speed probe: a fixed reference kernel, timed on every usable CPU.

    python3 perfbench/hostspeed.py PERIOD

Runs as a child process of a benchmark run.  Every ``PERIOD`` seconds it
pins itself to each usable CPU in turn, runs the kernel there and prints
one line: the ``time.perf_counter()`` stamp (system-wide monotonic on
Linux) and the kernel's CPU seconds on each CPU.  It stops when its
standard input closes.

On a shared virtual machine the speed of a CPU second is not fixed.  On
a 2-vCPU VM the same solve took 0.77 s of CPU in one run and 1.23 s in
another, and one virtual CPU ran the kernel 1.5x faster than the other
from second to second.  The run divides its CPU timings by the
kernel's time over the same stretch, so those figures hold still while
the host's speed moves.  The kernel uses numpy and scipy only -- never
the program under test -- and mixes what the program does: interpreted
sparse slicing (LIL), a sparse LU factorisation and its solves, and
streaming array arithmetic.
"""

from __future__ import annotations

import os
import select
import sys
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

N = 1000
ROWS = 100


def make_inputs():
    rng = np.random.default_rng(0)
    offsets = (-37, -11, 13, 41)
    M = sp.diags([rng.uniform(-1, 1, N - abs(k)) for k in offsets], offsets) + sp.eye(N) * 10.0
    return M.tocsr(), rng.standard_normal(N), np.ones(200_000)


def kernel(M, v, a) -> None:
    L = M.tolil()
    for k in range(0, N, ROWS):
        L[k:k + ROWS, :].tocsr()
    lu = spla.splu(M.tocsc())
    for _ in range(10):
        lu.solve(v)
    for _ in range(5):
        a = a * 1.0001 + 1.0


def main() -> int:
    period = float(sys.argv[1])
    cpus = sorted(os.sched_getaffinity(0))
    inputs = make_inputs()
    while True:
        seconds = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            c0 = time.process_time()
            kernel(*inputs)
            seconds.append(time.process_time() - c0)
        os.sched_setaffinity(0, cpus)
        print(time.perf_counter(), *seconds, flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], period)
        if ready and not sys.stdin.read(1):
            return 0


if __name__ == "__main__":
    sys.exit(main())
