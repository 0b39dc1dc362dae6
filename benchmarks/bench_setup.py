"""Setup ladder: what one band costs to slice, prune and factor.

Algorithm 1 slices each processor's band once and factors ``ASub`` once
(Remark 4), so setup should cost about one factorization per block.  The
round-loop benches never see it; this one times nothing else.  For each
rung of a fixed ladder -- ``poisson_2d`` with n in {10k, 40k, 90k}, L in
{8, 32}, inline (one block after another) -- every block is built in
three timed steps, the same calls :func:`repro.core.local.build_local_system`
makes:

* **slice** -- ``A[J_l, :]`` and ``ASub = A[J_l, J_l]``;
* **prune** -- :func:`repro.core.local.prune_band`, the coupling block
  compacted onto its halo columns;
* **factor** -- the ``scipy`` kernel's factorization of ``ASub``.

Reported per rung: the median seconds per block of each step (a median,
so one preempted block cannot skew it) and the total
``nnz(dep)``.  Only structural facts are asserted (prune below factor on
every rung; every band entry lands in exactly one of ``ASub`` and
``dep``); no wall-clock ratio is gated, since a low-core host cannot hold
one steady.
"""

from __future__ import annotations

import time

import numpy as np

from bench_output import emit
from conftest import run_once

from repro.core import uniform_bands
from repro.core.local import prune_band
from repro.direct import get_solver
from repro.linalg.sparse import as_csr
from repro.matrices import poisson_2d

GRIDS = (100, 200, 300)  # n = 10k, 40k, 90k unknowns
BLOCK_COUNTS = (8, 32)


def _rung(csr, L: int) -> dict:
    n = csr.shape[0]
    kernel = get_solver("scipy")
    part = uniform_bands(n, L).to_general()
    slice_s, prune_s, factor_s = [], [], []
    dep_nnz = split_nnz = band_nnz = 0
    for rows in part.sets:
        t0 = time.perf_counter()
        band = csr[rows, :].tocsr()
        a_sub = band[:, rows].tocsc()
        t1 = time.perf_counter()
        dep, _ = prune_band(band, rows)
        t2 = time.perf_counter()
        kernel.factor(a_sub)
        t3 = time.perf_counter()
        slice_s.append(t1 - t0)
        prune_s.append(t2 - t1)
        factor_s.append(t3 - t2)
        dep_nnz += dep.nnz
        split_nnz += dep.nnz + a_sub.nnz
        band_nnz += band.nnz
    return {
        "n": n,
        "L": L,
        "slice_s": float(np.median(slice_s)),
        "prune_s": float(np.median(prune_s)),
        "factor_s": float(np.median(factor_s)),
        "dep_nnz": dep_nnz,
        "split_nnz": split_nnz,
        "band_nnz": band_nnz,
    }


def setup_ladder() -> list[dict]:
    rungs = []
    for grid in GRIDS:
        csr = as_csr(poisson_2d(grid))
        rungs.extend(_rung(csr, L) for L in BLOCK_COUNTS)
    return rungs


def test_setup_ladder(benchmark):
    rungs = run_once(benchmark, setup_ladder)
    print()
    print(f"{'n':>7} {'L':>3} {'slice/blk':>11} {'prune/blk':>11} "
          f"{'factor/blk':>11} {'nnz(dep)':>9}")
    for r in rungs:
        print(f"{r['n']:>7} {r['L']:>3} {r['slice_s']:>10.5f}s "
              f"{r['prune_s']:>10.5f}s {r['factor_s']:>10.5f}s "
              f"{r['dep_nnz']:>9}")

    for r in rungs:
        # Pruning is one pass over the band; factoring is the real work.
        assert r["prune_s"] < r["factor_s"], r
        # Every stored band entry lands in exactly one of ASub and dep.
        assert r["split_nnz"] == r["band_nnz"], r
        # Each of the L - 1 band interfaces couples at least one grid
        # line (sqrt n unknowns) to its neighbour, in both directions.
        assert r["dep_nnz"] >= 2 * (r["L"] - 1) * int(np.sqrt(r["n"])), r

    metrics = []
    for r in rungs:
        tag = f"n{r['n']}_L{r['L']}"
        metrics += [
            (f"{tag}_slice_s_per_block", r["slice_s"], "s"),
            (f"{tag}_prune_s_per_block", r["prune_s"], "s"),
            (f"{tag}_factor_s_per_block", r["factor_s"], "s"),
            (f"{tag}_dep_nnz", r["dep_nnz"], "count"),
        ]
    emit("setup", metrics)
