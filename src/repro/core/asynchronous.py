"""Asynchronous multisplitting-direct solver on the grid simulator.

The paper's second implementation (Corba-based in the original): iterations
and communications are **not** synchronised.  Per local iteration a
processor

1. solves its band system against whatever dependency values it currently
   holds (possibly stale -- the asynchronous iterations model of
   Bertsekas & Tsitsiklis);
2. sends its fresh ``XSub`` to its dependents (fire-and-forget);
3. drains its mailbox, keeping only the *newest* piece per source
   (messages can overtake each other on the shared links);
4. advances the asynchronous convergence-detection protocol
   (:mod:`repro.detection`), which eventually floods a STOP decision.

Because nobody ever blocks, slow links and perturbed bandwidth delay the
*quality* of the data (more iterations) instead of stalling processors --
precisely the robustness Table 4 demonstrates: under heavy background
traffic the asynchronous version degrades far more gracefully than the
synchronous one.

Convergence is guaranteed under Theorem 1's stronger condition
``rho(|M_l^{-1} N_l|) < 1``; the solver itself guards with a local
``consecutive`` streak requirement plus the verification round of the
detectors.

Batched right-hand sides ``(n, k)`` are accounted **per column**: each
column keeps its own diff-streak tracker and the local flag requires
all of them, so a column that settled early can never vouch for one
still moving -- the asynchronous analog of ``run_synchronous``'s
worst-column monitor.

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
from repro.detection import make_async_detector
from repro.direct.base import DirectSolver
from repro.direct.cache import FactorizationCache
from repro.grid.comm import vector_bytes
from repro.grid.engine import ANY
from repro.grid.topology import Cluster
from repro.grid.trace import TraceRecorder
from repro.linalg.norms import residual_norm

__all__ = ["run_asynchronous"]


def run_asynchronous(
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
    """Run the asynchronous algorithm; returns a :class:`DistributedRunResult`.

    ``stopping.consecutive`` defaults to 3 here (a single small local diff
    against stale data is not evidence of convergence).  ``cache`` enables
    factorization reuse across runs (counters land in ``stats``).
    ``executor`` (:mod:`repro.runtime`) parallelises the real setup
    factorization across blocks; the backend name and per-block solve
    wall-clock land on ``stats``.  ``placement``
    (:class:`repro.schedule.Placement`) maps each rank onto the plan's
    worker's host; its summary lands on ``stats.placement``.

    ``b`` may be one right-hand side ``(n,)`` or a batch ``(n, k)``,
    matching :func:`repro.core.sync.run_synchronous`: every exchange
    then carries an ``(m, k)`` block (bytes scale with ``k``, one
    header per message) and convergence is accounted **per column** --
    the local flag requires every column's diff streak to hold, so one
    settled column can never mask another still moving.
    """
    if stopping is None:
        stopping = StoppingCriterion(consecutive=3)
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

    for l, (system, host) in enumerate(zip(systems, hosts)):
        if band_memory_bytes(system) > host.memory_free:
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
                mode="asynchronous",
                nprocs=L,
                extra={"nem_rank": l},
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
            detector = make_async_detector(detection, ctx)
            # newest known piece per dependency (seeded from x0)
            latest: dict[int, tuple[int, np.ndarray]] = {
                k: (0, z_init[partition.sets[k]]) for k in pattern.deps[l]
            }
            z = z_init.copy()
            # One convergence tracker per right-hand-side column: the
            # local flag requires EVERY column's streak, so a settled
            # column can never vouch for one still moving.
            states = [stopping.new_state() for _ in range(k_width)]
            piece = z[rows].copy()
            it = 0
            stopped = False
            local_flag = False
            deps_set = set(pattern.deps[l])
            # Soundness of the local flag: a diff streak driven only by a
            # *fast* neighbour says nothing about a rarely-refreshing WAN
            # dependency.  The flag therefore additionally requires that a
            # fresh piece from EVERY dependency has been absorbed without
            # moving the iterate since the last above-tolerance diff.
            absorbed_quietly: set[int] = set()
            pending_fresh: set[int] = set()
            # Re-solving against unchanged dependency data reproduces the
            # same piece bit-for-bit (a direct solve is deterministic), so
            # the free-running loop skips those no-op solves and polls the
            # mailbox instead.  Identical iterates, bounded event count.
            z_dirty = True
            iter_time = hosts[l].compute_time(system.iteration_flops * k_width)
            poll_floor = max(iter_time, 1e-5)
            poll = poll_floor
            idle_polls = 0
            # Liveness guard: if peers died at max_iterations the STOP wave
            # never comes; bound the total solve+poll passes.
            passes = 0
            max_passes = max(10_000, 50 * stopping.max_iterations)
            while it < stopping.max_iterations and not stopped and passes < max_passes:
                passes += 1
                if z_dirty:
                    it += 1
                    poll = poll_floor
                    idle_polls = 0
                    yield ctx.compute(system.iteration_flops * k_width)
                    t0 = time.perf_counter()
                    new_piece = system.solve_with(z[system.halo])
                    block_wall[l] += time.perf_counter() - t0
                    if core_mask.any():
                        diff = np.abs(new_piece[core_mask] - piece[core_mask])
                        col_max = diff.max(axis=0) if batched else [diff.max()]
                    else:
                        col_max = [0.0] * k_width
                    quiet = all(
                        [states[j].observe(float(col_max[j])) for j in range(k_width)]
                    )
                    if any(s.streak == 0 for s in states):
                        absorbed_quietly.clear()
                    else:
                        absorbed_quietly |= pending_fresh
                    pending_fresh = set()
                    local_flag = quiet and absorbed_quietly >= deps_set
                    piece = new_piece
                    z_dirty = False
                    for k in pattern.dependents[l]:
                        yield ctx.send(
                            k,
                            nbytes=vector_bytes(piece.shape[0], k_width),
                            payload=(it, piece),
                            tag="axsub",
                            coalesce=True,
                        )
                else:
                    yield ctx.sleep(poll)
                    poll = min(poll * 2.0, 5e-3)  # capped exponential backoff
                    idle_polls += 1
                    if idle_polls % 25 == 0:
                        # Heartbeat: an exactly-converged processor stops
                        # producing new pieces; re-advertising the current
                        # one keeps neighbours' dependency coverage alive.
                        for k in pattern.dependents[l]:
                            yield ctx.send(
                                k,
                                nbytes=vector_bytes(piece.shape[0], k_width),
                                payload=(it, piece),
                                tag="axsub",
                                coalesce=True,
                            )
                # drain everything pending; keep only the freshest per source
                fresh = False
                while True:
                    msg = yield ctx.try_recv(source=ANY, tag="axsub")
                    if msg is None:
                        break
                    their_it, their_piece = msg.payload
                    if their_it >= latest[msg.source][0]:
                        latest[msg.source] = (their_it, their_piece)
                        pending_fresh.add(msg.source)
                        fresh = True
                if fresh:
                    if needed.size:
                        z[needed] = 0.0
                    for k, (_, p) in latest.items():
                        piece_idx, col_idx, w = terms[k]
                        wk = w[:, None] if batched else w
                        z[col_idx] += wk * p[piece_idx]
                    z_dirty = True
                stopped = yield from detector.update(local_flag)
            return ProcOutcome(
                rank=l,
                iterations=it,
                core_piece=piece[core_mask],
                factor_ready_at=factor_ready,
                finished_at=ctx.now,
                locally_converged=stopped,
                detection_messages=detector.messages_sent,
            )

        return proc

    for l in range(L):
        engine.spawn(make_proc(l), hosts[l], name=f"ms-async-{l}")
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
        detection_messages=sum(o.detection_messages for o in outcomes),
        mode="asynchronous",
        nprocs=L,
    )
