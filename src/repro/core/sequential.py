"""In-process reference implementation of the multisplitting iteration.

This module runs the *mathematics* of the method without the grid
simulator: a driver loop over the extended fixed-point mapping (2)-(3).
It serves three purposes:

* ground truth for the distributed solvers (same iterates, no timing);
* a fast path for users who want the numerical method on one machine;
* the *chaotic* variant (:func:`chaotic_iterate`) emulates asynchronous
  executions with bounded delays and partial updates, letting property
  tests exercise Theorem 1's asynchronous branch deterministically.

Both drivers accept a :class:`repro.direct.cache.FactorizationCache` so
each sub-block is factored exactly once per (matrix, splitting) and the
factors are reused across every outer iteration -- and, when the cache is
shared, across repeated runs and Newton steps.  ``b`` may also be a batch
``(n, k)`` of right-hand sides: every processor then solves all its local
RHS columns in one vectorized multi-RHS call instead of the driver being
re-run column by column.

Both drivers also accept an ``executor`` (:mod:`repro.runtime`): the
per-iteration block solves run wherever the backend puts them -- the
calling thread (inline, the default), a thread pool, or worker processes
exchanging vectors through shared memory.  The iterates are the same
either way: a block solve is a pure function of ``(block, z)`` and the
executor contract returns results in request order, so the synchronous
driver is bit-identical across backends and the chaotic driver keeps its
seeded schedule.

The local copy a block is sent is its **halo vector** ``z^l[H_l]``: only
the columns outside ``J_l`` its coupling block reads (see
:mod:`repro.core.local`).  The drivers assemble it each round from gather
maps derived once per solve from the communication pattern
(:class:`HaloGather`), never materialising a full-length copy.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.distributed import HaloGather
from repro.core.partition import GeneralPartition
from repro.core.stopping import StoppingCriterion
from repro.core.weighting import WeightingScheme
from repro.direct.base import DirectSolver
from repro.direct.cache import CacheStats, FactorizationCache
from repro.linalg.norms import max_norm, residual_norm
from repro.observe import resolve_trace

__all__ = ["SequentialResult", "multisplitting_iterate", "chaotic_iterate"]


@dataclass
class SequentialResult:
    """Outcome of an in-process multisplitting run.

    Attributes
    ----------
    x:
        Final combined iterate (core-owned components of each processor);
        shape ``(n,)`` or ``(n, k)`` for batched right-hand sides.
    iterations:
        Outer iterations executed.
    converged:
        Whether the stopping rule was met before ``max_iterations``.
    history:
        Per-iteration monitor values (diff max-norms).
    residual:
        Final true residual ``||b - A x||_inf`` (max over columns when
        batched).
    cache_stats:
        Factorization-cache counters attributable to this run (``None``
        when no cache was supplied).
    fault_stats:
        Fault-tolerance counters of the run
        (:class:`repro.runtime.resilience.FaultStats`: workers lost,
        blocks requeued, refactor seconds, injected chaos); ``None``
        when the backend tracks no faults (inline, threads).
    backend:
        Name of the :mod:`repro.runtime` backend the block solves ran on.
    block_seconds:
        Cumulative wall-clock seconds spent solving each block (measured
        where the solve executed -- worker-side for the process backend).
    placement:
        Summary of the :class:`repro.schedule.Placement` the run was
        pinned with (``None`` without one).
    wire:
        Byte counters of the run's data movement (the executor's
        :meth:`~repro.runtime.Executor.wire_stats`):
        ``attach_payload_bytes`` per worker plus per-round vector
        traffic on the distributed backends; ``{}`` in-process.
    trace:
        The :class:`repro.observe.Tracer` holding the run's merged span
        timeline when the driver ran with ``trace=``; ``None`` otherwise.
    dispatch:
        How the synchronous rounds were driven: ``"barrier"`` (every
        block waits on the global round) or ``"pipelined"``
        (dependency-gated dispatch -- bit-identical iterates, no global
        barrier).
    gate_wait_seconds:
        Pipelined runs only: cumulative seconds blocks spent idle
        between finishing one round and having their dependencies ready
        for the next (0.0 under the barrier).
    """

    x: np.ndarray
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)
    residual: float = np.nan
    cache_stats: CacheStats | None = None
    fault_stats: "object | None" = None
    backend: str = "inline"
    block_seconds: dict[int, float] = field(default_factory=dict)
    placement: dict | None = None
    wire: dict = field(default_factory=dict)
    trace: "object | None" = None
    dispatch: str = "barrier"
    gate_wait_seconds: float = 0.0


def _resolve_executor(executor):
    """Default to the serial backend; report whether we own its lifecycle."""
    if executor is None:
        # Imported lazily: repro.runtime builds on repro.core, so a
        # module-level import here would be circular.
        from repro.runtime.inline import InlineExecutor

        return InlineExecutor(), True
    return executor, False


def _resolve_elastic(elastic, ex, nblocks: int, tracer):
    """Build the per-run elastic controller (or pass one through).

    ``elastic`` may be ``True`` (default policy), an
    :class:`repro.schedule.ElasticPolicy`, or a pre-built
    :class:`repro.schedule.ElasticController`.  Constructed *after*
    attach on purpose: the controller snapshots the executor's
    membership version and block-seconds baseline at creation.
    """
    if elastic is None or elastic is False:
        return None
    # Lazy: repro.schedule builds on repro.core (same idiom as above).
    from repro.schedule.elastic import ElasticController, ElasticPolicy

    if isinstance(elastic, ElasticController):
        return elastic
    policy = elastic if isinstance(elastic, ElasticPolicy) else None
    return ElasticController(ex, nblocks, policy=policy, tracer=tracer)


def _core_masks(partition: GeneralPartition) -> list[np.ndarray]:
    """Per block, which entries of ``J_l`` are owned (in ``C_l``).

    Fixed for a solve, so the drivers build it once, before the round
    loop, and hand it to every :func:`_combine_core`.
    """
    return [np.isin(J, C) for J, C in zip(partition.sets, partition.core)]


def _combine_core(
    partition: GeneralPartition,
    pieces: list[np.ndarray],
    core_masks: list[np.ndarray],
) -> np.ndarray:
    """Assemble the global estimate from the owned (core) components."""
    shape = (partition.n,) if pieces[0].ndim == 1 else (partition.n, pieces[0].shape[1])
    x = np.empty(shape)
    for l, C in enumerate(partition.core):
        x[C] = pieces[l][core_masks[l]]
    return x


#: How many rounds a block may run ahead of the slowest monitored round
#: under pipelined dispatch.  Bounded for memory, and must stay strictly
#: below the runtime's receive-:class:`~repro.runtime.wire.BufferPool`
#: depth (4): a block can hold ``window + 1`` live round pieces at once,
#: and each must still be backed by its own pooled buffer.
_PIPELINE_WINDOW = 3


def _pipelined_rounds(
    A, b, partition, gather, stopping, ex, tracer, z0, callback
):
    """Dependency-gated synchronous rounds (no global barrier).

    Block ``l``'s round-``k+1`` solve dispatches the moment the round-
    ``k`` pieces of its gate set (its dependencies per the communication
    pattern, plus itself) have arrived -- a straggling non-dependency
    cannot stall it.  Iterates are bit-identical to the barrier driver:
    the halo gather reads only the gated pieces, each of them exactly
    the round-``k`` piece the barrier would use.

    Returns ``(x, iterations, converged, history, gate_wait_seconds)``.
    """
    # Construction-time guard on the window/pool-depth invariant: the
    # two constants live in different layers and are only compatible by
    # agreement, so a future depth change must fail loudly here instead
    # of silently reintroducing buffer reuse-while-in-flight (the torn
    # fold repro.check.models.pipeline exhibits at window == depth).
    from repro.check.invariants import window_within_pool
    from repro.runtime.wire import DEFAULT_POOL_DEPTH

    window_msg = window_within_pool(_PIPELINE_WINDOW, DEFAULT_POOL_DEPTH)
    if window_msg is not None:
        raise RuntimeError(f"pipelined dispatch misconfigured: {window_msg}")

    L = partition.nprocs
    # The gates of repro.schedule.pattern.dependency_gates, from the
    # pattern the halo maps were built from.
    gates = [sorted(set(deps) | {l}) for l, deps in enumerate(gather.pattern.deps)]
    core_masks = _core_masks(partition)
    max_r = stopping.max_iterations
    state = stopping.new_state()
    x_prev = z0.copy()
    history: list[float] = []
    converged = False
    iterations = 0
    gate_wait = 0.0
    #: rounds[r][l] = block l's round-r piece (pruned once no open gate
    #: or monitor can still read it).
    rounds: dict[int, dict[int, np.ndarray]] = {}
    submitted = [0] * L
    t_done = [time.perf_counter()] * L
    monitor = 1  # next round to fold into the convergence history
    inflight = 0
    stream = ex.open_stream()
    try:
        if max_r >= 1:
            # Round 1 solves on the caller's start vector directly, like
            # the barrier's initial Z.
            for l, z in enumerate(gather.initial(z0)):
                stream.submit(l, z)
                submitted[l] = 1
                inflight += 1
        while inflight:
            l, piece = stream.next_done()
            inflight -= 1
            rounds.setdefault(submitted[l], {})[l] = piece
            t_done[l] = time.perf_counter()
            # Fold completed rounds into the history strictly in order:
            # the monitor sequence (metric values, callback, stopping
            # state) is exactly the barrier driver's.
            stop = False
            while monitor in rounds and len(rounds[monitor]) == L:
                pieces = [rounds[monitor][k] for k in range(L)]
                iterations = monitor
                x_est = _combine_core(partition, pieces, core_masks)
                if stopping.metric == "residual":
                    value = residual_norm(A, x_est, b)
                else:
                    value = max_norm(x_est - x_prev)
                history.append(value)
                x_prev = x_est
                if callback is not None:
                    callback(monitor, x_est)
                if tracer is not None:
                    tracer.event(
                        "round", cat="round", lane="driver",
                        round=monitor, dispatch="pipelined",
                    )
                if state.observe(value):
                    converged = True
                    stop = True
                    break
                if monitor >= max_r:
                    stop = True
                    break
                monitor += 1
            if stop:
                break
            # Drop rounds nothing can read any more -- the monitor has
            # passed them and every block has dispatched beyond them.
            low = min(min(submitted), monitor)
            for r in [r for r in rounds if r < low]:
                del rounds[r]
            # Open gates: dispatch every block whose next round's
            # dependencies are all in.
            for m in range(L):
                r_next = submitted[m] + 1
                if r_next > max_r or r_next > monitor + _PIPELINE_WINDOW:
                    continue
                prev = rounds.get(r_next - 1, {})
                if any(k not in prev for k in gates[m]):
                    continue
                z = gather.assemble(m, prev)
                now = time.perf_counter()
                wait = now - t_done[m]
                gate_wait += wait
                if tracer is not None:
                    tracer.add(
                        "gate.wait", "wait", t_done[m], wait,
                        lane="driver", block=m, round=r_next,
                    )
                stream.submit(m, z)
                submitted[m] = r_next
                inflight += 1
    finally:
        stream.close()
    return x_prev, iterations, converged, history, gate_wait


def multisplitting_iterate(
    A,
    b: np.ndarray,
    partition: GeneralPartition,
    weighting: WeightingScheme,
    solver: DirectSolver,
    *,
    stopping: StoppingCriterion | None = None,
    x0: np.ndarray | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
    cache: FactorizationCache | None = None,
    executor=None,
    placement=None,
    fault_policy=None,
    trace=None,
    dispatch: str = "barrier",
    elastic=None,
) -> SequentialResult:
    """Run the synchronous multisplitting-direct iteration in-process.

    Implements exactly the mapping (2)-(3): every processor ``l`` keeps a
    local copy ``z^l``, solves its band system, and the copies are
    recombined with the weighting family.  Convergence is monitored on the
    combined core estimate.

    Parameters
    ----------
    b:
        One right-hand side ``(n,)`` or a batch ``(n, k)`` solved
        simultaneously (all columns share the factored sub-blocks and
        the stopping rule monitors the worst column).
    callback:
        Optional observer ``callback(iteration, x_estimate)``.
    cache:
        Optional factorization cache; sub-blocks already present are not
        re-factored, and reuse is counted in the returned ``cache_stats``.
    executor:
        Optional :class:`repro.runtime.Executor` running the per-block
        solves (default: serial inline).  A caller-supplied executor is
        attached/detached but not closed, so its workers are reusable.
    placement:
        Optional :class:`repro.schedule.Placement` pinning blocks to the
        executor's workers (sticky affinity); the plan summary lands on
        the result.  The partition should normally be the plan's own
        (``placement.partition().to_general()``).
    fault_policy:
        Optional :class:`repro.runtime.resilience.FaultPolicy` arming
        mid-solve worker recovery on backends with real workers: a
        worker that dies (or breaches the policy's reply deadline) has
        its blocks requeued onto survivors or a respawned replacement,
        and the run continues bit-identically.  Counters land on
        ``fault_stats``.
    trace:
        ``True`` (record into a fresh :class:`repro.observe.Tracer`) or
        an existing tracer.  Rounds, block solves, factorizations, wire
        transfers, and barrier waits land on one merged timeline
        (worker-side spans included on the distributed backends), and
        the tracer is returned on ``result.trace`` for export.  Tracing
        is observational only: iterates are bit-identical either way.
    dispatch:
        ``"barrier"`` (default): every round waits for all blocks, the
        paper's synchronous mode verbatim.  ``"pipelined"``: block
        ``l``'s next solve dispatches as soon as its *own* dependencies
        (per :func:`repro.core.distributed.communication_pattern`, plus
        itself) have delivered their current-round pieces -- a
        straggler only stalls the blocks that actually read it.
        Iterates, history, and callbacks are bit-identical to the
        barrier; only the wall-clock schedule changes.  Time blocks
        spent gated lands on ``result.gate_wait_seconds``.
    elastic:
        ``True``, an :class:`repro.schedule.ElasticPolicy`, or a
        pre-built :class:`repro.schedule.ElasticController`: arm the
        elastic re-planning loop.  Once per round, at the quiescent
        barrier, the controller reacts to fleet membership changes
        (``Executor.grow`` / ``Executor.shrink``, a recovery) or
        measured calibration drift by re-balancing the block-to-worker
        assignment and migrating only the moved blocks.  Partition
        sizes never change, so iterates stay bit-identical to the
        undisturbed run.  Requires barrier dispatch (pipelined rounds
        are never quiescent): under ``dispatch="pipelined"`` the flag
        warns and is ignored.  Migration counters land on
        ``fault_stats`` (``grow_events`` / ``shrink_events`` /
        ``blocks_migrated`` / ``migration_seconds``).
    """
    stopping = stopping or StoppingCriterion()
    if dispatch not in ("barrier", "pipelined"):
        raise ValueError(
            f"dispatch must be 'barrier' or 'pipelined', got {dispatch!r}"
        )
    if elastic and dispatch == "pipelined":
        warnings.warn(
            "elastic re-planning needs the quiescent round barrier; "
            "ignored under dispatch='pipelined'",
            RuntimeWarning,
            stacklevel=2,
        )
        elastic = None
    L = partition.nprocs
    b = np.asarray(b, dtype=float)
    ex, owns_executor = _resolve_executor(executor)
    tracer = resolve_trace(trace)
    if tracer is not None:
        ex.set_tracer(tracer)
    z0 = np.zeros(b.shape) if x0 is None else np.asarray(x0, dtype=float).copy()
    if z0.shape != b.shape:
        raise ValueError(f"x0 must have shape {b.shape}")
    try:
        ex.attach(
            A, b, partition.sets, solver,
            cache=cache, placement=placement, fault_policy=fault_policy,
        )
        gather = HaloGather(A, partition, weighting, b)
        controller = _resolve_elastic(elastic, ex, L, tracer)
        gate_wait = 0.0
        if dispatch == "pipelined":
            x_prev, iterations, converged, history, gate_wait = _pipelined_rounds(
                A, b, partition, gather, stopping, ex, tracer, z0, callback,
            )
        else:
            Z = gather.initial(z0)
            core_masks = _core_masks(partition)
            state = stopping.new_state()
            x_prev = z0.copy()
            history = []
            converged = False
            iterations = 0
            for it in range(1, stopping.max_iterations + 1):
                iterations = it
                if tracer is None:
                    pieces = ex.solve_round(Z)
                else:
                    t_round = tracer.now()
                    pieces = ex.solve_round(Z)
                    tracer.add(
                        "round", "round", t_round, tracer.now() - t_round,
                        lane="driver", round=it,
                    )
                Z = [gather.assemble(l, pieces) for l in range(L)]
                x_est = _combine_core(partition, pieces, core_masks)
                if stopping.metric == "residual":
                    value = residual_norm(A, x_est, b)
                else:
                    value = max_norm(x_est - x_prev)
                history.append(value)
                x_prev = x_est
                if callback is not None:
                    callback(it, x_est)
                if state.observe(value):
                    converged = True
                    break
                if controller is not None:
                    # Quiescent boundary: every piece of this round is
                    # folded and nothing is in flight, so membership
                    # changes (grow/shrink from the callback, a chaos
                    # injection, a recovery) are safe to act on now.
                    controller.maybe_replan(it)
        result = SequentialResult(
            x=x_prev,
            iterations=iterations,
            converged=converged,
            history=history,
            residual=residual_norm(A, x_prev, b),
            cache_stats=ex.run_cache_stats(),
            fault_stats=ex.fault_stats(),
            backend=ex.name,
            block_seconds=ex.block_seconds(),
            placement=placement.summary() if placement is not None else None,
            wire=ex.wire_stats(),
            trace=tracer,
            dispatch=dispatch,
            gate_wait_seconds=gate_wait,
        )
    finally:
        ex.detach()
        if tracer is not None:
            ex.set_tracer(None)
        if owns_executor:
            ex.close()
    return result


def chaotic_iterate(
    A,
    b: np.ndarray,
    partition: GeneralPartition,
    weighting: WeightingScheme,
    solver: DirectSolver,
    *,
    stopping: StoppingCriterion | None = None,
    max_delay: int = 3,
    update_probability: float = 0.7,
    seed: int = 0,
    x0: np.ndarray | None = None,
    cache: FactorizationCache | None = None,
    executor=None,
    placement=None,
    fault_policy=None,
    trace=None,
    elastic=None,
) -> SequentialResult:
    """Emulate an asynchronous execution with bounded delays.

    Per global step, each processor updates with probability
    ``update_probability`` (skipped processors keep their old piece --
    "each processor freely iterates"), and reads dependency values that are
    up to ``max_delay`` steps stale.  Under Theorem 1's asynchronous
    condition (``rho(|M_l^{-1} N_l|) < 1``) every such schedule converges;
    tests sweep seeds to exercise many interleavings.

    The schedule keeps the totality assumption of asynchronous iteration
    theory: every processor updates infinitely often (at least once every
    ``ceil(1/update_probability) * 4`` steps, enforced explicitly).

    The diff monitor alone is unsound under stale reads: a processor that
    re-solves against *unchanged* stale data reproduces its piece
    bit-for-bit, so a streak of tiny (even exactly zero) diffs can occur
    while the true error is orders of magnitude above the tolerance.
    Because this in-process emulation has ``A`` and ``b`` at hand, every
    candidate stop is therefore *verified* against the true residual,
    ``||b - A x||_inf <= tolerance * max(1, ||A||_inf)``, before
    ``converged`` is reported -- scale-invariant (near the fixed point
    ``||r|| <= ||A|| ||x - x*||``), so the flag means what the tolerance
    says regardless of how ``A`` is scaled.  (The distributed solvers
    achieve the same soundness through their detection protocols'
    verification rounds.)

    ``executor`` parallelises each step's *selected* block solves (the
    seeded schedule itself stays in the driver, so the emulation remains
    deterministic for a given seed on every backend).  For scheduling-
    driven rather than seeded asynchrony, see
    :func:`repro.runtime.async_iterate`.

    ``elastic`` arms the same per-step elastic re-planning loop as
    :func:`multisplitting_iterate`: each global step is a quiescent
    point (the selected solves are a closed barrier batch), so
    membership changes migrate blocks between steps without touching
    the seeded schedule or the iterates.
    """
    if not (0.0 < update_probability <= 1.0):
        raise ValueError("update_probability must lie in (0, 1]")
    if max_delay < 0:
        raise ValueError("max_delay must be non-negative")
    stopping = stopping or StoppingCriterion(consecutive=3)
    rng = np.random.default_rng(seed)
    L = partition.nprocs
    b = np.asarray(b, dtype=float)
    ex, owns_executor = _resolve_executor(executor)
    tracer = resolve_trace(trace)
    if tracer is not None:
        ex.set_tracer(tracer)
    z0 = np.zeros(b.shape) if x0 is None else np.asarray(x0, dtype=float).copy()
    if z0.shape != b.shape:
        raise ValueError(f"x0 must have shape {b.shape}")
    weights = [weighting.update_weights(l) for l in range(L)]
    core_masks = _core_masks(partition)
    try:
        ex.attach(
            A, b, partition.sets, solver,
            cache=cache, placement=placement, fault_policy=fault_policy,
        )
        gather = HaloGather(A, partition, weighting, b)
        # ring buffer of historical pieces for stale reads
        pieces = [z0[partition.sets[l]].copy() for l in range(L)]
        piece_history: list[list[np.ndarray]] = [[p.copy() for p in pieces]]
        starve_guard = max(1, int(np.ceil(1 / update_probability))) * 4
        since_update = [0] * L
        state = stopping.new_state()
        x_prev = z0.copy()
        history: list[float] = []
        converged = False
        iterations = 0
        # Soundness guard: a small global diff on a step where few processors
        # updated says little.  Convergence additionally requires that *every*
        # processor has updated since the last above-tolerance diff.
        updated_since_bad: set[int] = set()
        # Residual threshold for verifying candidate stops (see docstring).
        row_sums = np.abs(A).sum(axis=1)
        norm_A = float(np.max(np.asarray(row_sums))) if partition.n else 0.0
        residual_tolerance = stopping.tolerance * max(1.0, norm_A)
        controller = _resolve_elastic(elastic, ex, L, tracer)
        for it in range(1, stopping.max_iterations + 1):
            iterations = it
            new_pieces = [p.copy() for p in pieces]
            tasks: list[tuple[int, np.ndarray]] = []
            updated_now: list[int] = []
            for l in range(L):
                since_update[l] += 1
                if rng.random() > update_probability and since_update[l] < starve_guard:
                    continue
                since_update[l] = 0
                updated_now.append(l)
                # build z^l from (possibly stale) neighbour pieces: one
                # lag drawn per contributing source, in source order, so
                # a seed always yields the same schedule
                stale: dict[int, np.ndarray] = {}
                for k in weights[l]:
                    lag = int(rng.integers(0, max_delay + 1)) if k != l else 0
                    lag = min(lag, len(piece_history) - 1)
                    stale[k] = piece_history[-1 - lag][k]
                tasks.append((l, gather.assemble(l, stale)))
            if tracer is None:
                solved = ex.solve_blocks(tasks)
            else:
                t_round = tracer.now()
                solved = ex.solve_blocks(tasks)
                tracer.add(
                    "round", "round", t_round, tracer.now() - t_round,
                    lane="driver", round=it, updated=len(tasks),
                )
            for l, piece in zip(updated_now, solved):
                new_pieces[l] = piece
            pieces = new_pieces
            piece_history.append([p.copy() for p in pieces])
            if len(piece_history) > max_delay + 1:
                piece_history.pop(0)
            x_est = _combine_core(partition, pieces, core_masks)
            value = max_norm(x_est - x_prev)
            history.append(value)
            x_prev = x_est
            quiet = state.observe(value)
            if state.streak == 0:
                updated_since_bad.clear()
            else:
                updated_since_bad.update(updated_now)
            if quiet and len(updated_since_bad) == L:
                # Candidate stop: verify against the true residual so stale
                # no-op re-solves can never fake convergence.
                if residual_norm(A, x_est, b) <= residual_tolerance:
                    converged = True
                    break
                state.reset()
                updated_since_bad.clear()
            if controller is not None:
                # Each step's batch is closed before the next begins, so
                # the step boundary is quiescent for migration purposes.
                controller.maybe_replan(it)
        result = SequentialResult(
            x=x_prev,
            iterations=iterations,
            converged=converged,
            history=history,
            residual=residual_norm(A, x_prev, b),
            cache_stats=ex.run_cache_stats(),
            fault_stats=ex.fault_stats(),
            backend=ex.name,
            block_seconds=ex.block_seconds(),
            placement=placement.summary() if placement is not None else None,
            wire=ex.wire_stats(),
            trace=tracer,
        )
    finally:
        ex.detach()
        if tracer is not None:
            ex.set_tracer(None)
        if owns_executor:
            ex.close()
    return result
