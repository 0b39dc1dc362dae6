"""Synchronous multisplitting-direct solver on the grid simulator.

This is Algorithm 1 in its MPI form: per outer iteration every processor

1. updates its local right-hand side and solves its factored band system
   (compute, charged at ``rhs_flops + solve_flops``);
2. sends ``XSub`` to every processor that depends on it;
3. receives the pieces it depends on (blocking -- this is the
   synchronisation the paper sets out to make coarse-grained);
4. folds them into its local copy with the weighting family and
   participates in an exact convergence vote
   (:func:`repro.detection.synchronous.sync_converged`).

Communication happens **once per outer iteration** -- the paper's central
claim is that this coarse grain is what makes direct methods viable on
grids, in contrast to the per-panel traffic of distributed SuperLU
(:mod:`repro.distbaseline`).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro.core.distributed import (
    STATUS_MAXITER,
    STATUS_NEM,
    STATUS_OK,
    DistributedRunResult,
    ProcOutcome,
    assemble_solution,
    band_memory_bytes,
    charge_initialisation,
    communication_pattern,
    placement_for,
)
from repro.core.local import build_local_systems
from repro.core.partition import GeneralPartition
from repro.core.stopping import StoppingCriterion
from repro.core.weighting import WeightingScheme
from repro.detection.synchronous import sync_converged
from repro.direct.base import DirectSolver
from repro.direct.cache import FactorizationCache
from repro.grid.comm import vector_bytes
from repro.grid.topology import Cluster
from repro.grid.trace import TraceRecorder
from repro.linalg.norms import residual_norm

__all__ = ["run_synchronous"]


def _memory_precheck(systems, hosts) -> int | None:
    """Return the first rank whose band does not fit its host, else None."""
    for l, (system, host) in enumerate(zip(systems, hosts)):
        if band_memory_bytes(system) > host.memory_free:
            return l
    return None


def run_synchronous(
    A,
    b: np.ndarray,
    partition: GeneralPartition,
    weighting: WeightingScheme,
    solver: DirectSolver,
    cluster: Cluster,
    *,
    stopping: StoppingCriterion | None = None,
    detection: str = "centralized",
    x0: np.ndarray | None = None,
    cache: FactorizationCache | None = None,
    executor=None,
    placement=None,
) -> DistributedRunResult:
    """Run the synchronous algorithm; returns a :class:`DistributedRunResult`.

    The ``detection`` string selects the vote schedule (``"centralized"``
    or ``"decentralized"``); both are exact in synchronous mode and differ
    only in communication cost.  ``cache`` enables factorization reuse
    across runs (the per-run reuse counters land in ``stats``).

    ``b`` may be one right-hand side ``(n,)`` or a batch ``(n, k)``: each
    simulated exchange then carries an ``(m, k)`` block whose charged
    bytes scale with ``k`` while the per-message latency is paid once,
    and the returned ``x`` has shape ``(n, k)``.

    ``executor`` (:mod:`repro.runtime`) parallelises the *real* setup
    factorization across blocks (thread backends); simulated times are
    unaffected.  Its name and the per-block solve wall-clock land on
    ``stats.backend``/``stats.block_seconds``.

    ``placement`` (:class:`repro.schedule.Placement`) maps each rank
    onto the plan's worker's host -- the same plan object that sized the
    partition and that pins the real executors; its summary lands on
    ``stats.placement``.
    """
    stopping = stopping or StoppingCriterion()
    b = np.asarray(b, dtype=float)
    batched = b.ndim == 2
    k_width = b.shape[1] if batched else 1
    L = partition.nprocs
    hosts = placement_for(cluster, L, plan=placement)
    cache_before = cache.stats.snapshot() if cache is not None else None
    systems = build_local_systems(
        A, b, partition.sets, solver, cache=cache, executor=executor
    )
    pattern = communication_pattern(partition, weighting, systems)
    z_init = np.zeros(b.shape) if x0 is None else np.asarray(x0, dtype=float).copy()
    if z_init.shape != b.shape:
        raise ValueError(f"x0 must have shape {b.shape}")

    # Memory feasibility precheck: a rank dying of OOM mid-protocol would
    # leave its neighbours blocked, so the infeasible outcome is decided up
    # front (this also matches how "nem" manifests for MPI codes: the job
    # aborts as a whole).
    nem = _memory_precheck(systems, hosts)
    if nem is not None:
        return DistributedRunResult(
            x=None,
            status=STATUS_NEM,
            converged=False,
            iterations=0,
            per_proc_iterations=[0] * L,
            simulated_time=0.0,
            factorization_time=0.0,
            residual=float("nan"),
            stats=None,
            mode="synchronous",
            nprocs=L,
            extra={"nem_rank": nem},
        )

    recorder = TraceRecorder(keep_events=0)
    engine = cluster.make_engine(trace=recorder)
    block_wall: dict[int, float] = defaultdict(float)

    def make_proc(l: int):
        system = systems[l]
        rows = partition.sets[l]
        core_mask = np.isin(rows, partition.core[l])
        needed = pattern.needed_cols[l]
        terms = pattern.recv_terms[l]

        def proc(ctx):
            yield from charge_initialisation(ctx, system)
            factor_ready = ctx.now
            z = z_init.copy()
            state = stopping.new_state()
            piece = z[rows].copy()
            it = 0
            globally_done = False
            use_residual = stopping.metric == "residual"
            while it < stopping.max_iterations and not globally_done:
                it += 1
                yield ctx.compute(system.iteration_flops * k_width)
                t0 = time.perf_counter()
                new_piece = system.solve_with(z[system.halo])
                block_wall[l] += time.perf_counter() - t0
                diff_flag = state.observe_diff(
                    new_piece[core_mask], piece[core_mask]
                ) if not use_residual else False
                piece = new_piece
                for k in pattern.dependents[l]:
                    yield ctx.send(
                        k,
                        nbytes=vector_bytes(piece.shape[0], k_width),
                        payload=piece,
                        tag=("xsub", l, it),
                    )
                if needed.size:
                    z[needed] = 0.0
                for k in pattern.deps[l]:
                    msg = yield ctx.recv(source=k, tag=("xsub", k, it))
                    piece_idx, col_idx, w = terms[k]
                    wk = w[:, None] if batched else w
                    z[col_idx] += wk * msg.payload[piece_idx]
                if use_residual:
                    # true residual of the fresh global iterate on J_l rows
                    # (the coupling block never reads z on J_l, so piece and
                    # z together describe the current global iterate here)
                    yield ctx.compute(system.residual_flops * k_width)
                    r = system.local_residual(piece, z[system.halo])
                    local_flag = state.observe(float(np.max(np.abs(r))) if r.size else 0.0)
                else:
                    local_flag = diff_flag
                globally_done = yield from sync_converged(
                    ctx, local_flag, method=detection
                )
            return ProcOutcome(
                rank=l,
                iterations=it,
                core_piece=piece[core_mask],
                factor_ready_at=factor_ready,
                finished_at=ctx.now,
                locally_converged=globally_done,
            )

        return proc

    for l in range(L):
        engine.spawn(make_proc(l), hosts[l], name=f"ms-sync-{l}")
    engine.run()
    outcomes: list[ProcOutcome] = engine.results()
    if cache is not None:
        recorder.record_cache(cache.stats.since(cache_before))
    recorder.record_runtime(
        executor.name if executor is not None else "inline", block_wall
    )
    if executor is not None:
        recorder.record_faults(executor.fault_stats())
        recorder.record_wire(executor.wire_stats())
    if placement is not None:
        # Provenance includes the *actual* host mapping (by-name when the
        # plan was built from this cluster, positional for generic plans).
        summary = placement.summary()
        summary["hosts"] = [h.name for h in hosts]
        recorder.record_placement(summary)

    x = assemble_solution(partition, outcomes)
    converged = all(o.locally_converged for o in outcomes)
    return DistributedRunResult(
        x=x,
        status=STATUS_OK if converged else STATUS_MAXITER,
        converged=converged,
        iterations=max(o.iterations for o in outcomes),
        per_proc_iterations=[o.iterations for o in outcomes],
        simulated_time=max(o.finished_at for o in outcomes),
        factorization_time=max(o.factor_ready_at for o in outcomes),
        residual=residual_norm(A, x, b),
        stats=recorder.stats(),
        mode="synchronous",
        nprocs=L,
    )
