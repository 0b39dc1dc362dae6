"""Shared infrastructure for the distributed (simulated) solvers.

Both the synchronous and asynchronous multisplitting solvers follow the
same deployment pattern on the grid simulator:

* the *numerics* (slicing, factorization, triangular solves) execute once
  in the driver process -- they are real NumPy/SciPy computations;
* the *costs* (simulated memory, factorization flops, per-iteration flops,
  message bytes) are charged inside each simulated coroutine against its
  host and the network, which is where the tables' times come from.

This module holds the result record, the placement logic, and the common
initialisation step (memory charge + factorization charge) so the two
algorithms differ only in their iteration loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.local import LocalSystem
from repro.core.partition import GeneralPartition
from repro.direct.costs import BYTES_PER_NNZ
from repro.grid.engine import SimContext
from repro.grid.topology import Cluster
from repro.grid.trace import RunStats

__all__ = [
    "DistributedRunResult",
    "ProcOutcome",
    "CommPattern",
    "HaloGather",
    "communication_pattern",
    "placement_for",
    "charge_initialisation",
    "band_memory_bytes",
]

#: Status values of a distributed run.
STATUS_OK = "ok"
STATUS_NEM = "nem"  # not enough memory -- the paper's Table 3 outcome
STATUS_MAXITER = "max-iterations"


@dataclass
class ProcOutcome:
    """Per-processor summary returned by each simulated coroutine."""

    rank: int
    iterations: int
    core_piece: np.ndarray | None
    factor_ready_at: float
    finished_at: float
    locally_converged: bool
    detection_messages: int = 0


@dataclass
class DistributedRunResult:
    """Outcome of one simulated distributed solve.

    Attributes
    ----------
    x:
        Assembled solution (``None`` when the run failed with "nem").
    status:
        ``"ok"``, ``"nem"`` (simulated out-of-memory) or
        ``"max-iterations"``.
    converged:
        True when global convergence was detected.
    iterations:
        Maximum per-processor outer iteration count (the synchronous count
        is identical on every rank; asynchronous counts "widely differ",
        as the paper notes).
    per_proc_iterations:
        The full per-rank counts.
    simulated_time:
        Simulated seconds until the last processor finished -- the number
        comparable to the paper's table entries.
    factorization_time:
        Simulated seconds until the last factorization completed
        (the paper's separate "factorization time" column).
    residual:
        True ``||b - A x||_inf`` computed by the driver after the run.
    stats:
        Aggregated trace statistics (messages, bytes, compute time).
    detection_messages:
        Total detection-protocol messages (cost of the termination layer).
    """

    x: np.ndarray | None
    status: str
    converged: bool
    iterations: int
    per_proc_iterations: list[int]
    simulated_time: float
    factorization_time: float
    residual: float
    stats: RunStats | None = None
    detection_messages: int = 0
    mode: str = ""
    nprocs: int = 0
    extra: dict = field(default_factory=dict)


def placement_for(cluster: Cluster, nprocs: int, plan=None):
    """Map ranks to hosts (one process per machine, paper-style).

    Without a plan, rank ``l`` runs on ``cluster.hosts[l]``.  A
    :class:`repro.schedule.Placement` overrides that: rank ``l`` runs on
    the host of the plan's worker ``assignment[l]``, resolved by worker
    name -- so the simulator charges each band exactly where the plan
    put it.  Plans with no cluster-host names at all (generic or
    calibrated-from-real-workers plans) fall back to positional
    mapping; a plan that names *some* cluster hosts but not all is a
    plan built from a different topology, and that mismatch raises
    rather than silently mis-mapping bands.

    Raises
    ------
    ValueError
        If the cluster has fewer machines than requested processes, the
        plan schedules a different number of blocks, or the plan's
        worker names only partially match the cluster's hosts.
    """
    if nprocs > len(cluster.hosts):
        raise ValueError(
            f"{nprocs} processes requested but cluster {cluster.name!r} has "
            f"{len(cluster.hosts)} hosts"
        )
    if plan is None:
        return cluster.hosts[:nprocs]
    if plan.nblocks != nprocs:
        raise ValueError(
            f"placement schedules {plan.nblocks} blocks but the run has "
            f"{nprocs} processes"
        )
    by_name = {h.name: h for h in cluster.hosts}
    matched = [l for l in range(nprocs) if plan.worker_of(l).name in by_name]
    if len(matched) == nprocs:
        return [by_name[plan.worker_of(l).name] for l in range(nprocs)]
    if matched:
        missing = sorted(
            {plan.worker_of(l).name for l in range(nprocs)} - set(by_name)
        )
        raise ValueError(
            f"placement names hosts absent from cluster {cluster.name!r} "
            f"(e.g. {missing[:3]}); was the plan built from another topology?"
        )
    return cluster.hosts[:nprocs]


def band_memory_bytes(system: LocalSystem) -> int:
    """Simulated resident bytes of one processor's band data.

    Band rows (couplings) + right-hand side + local copies + the
    factorization itself.  Batched right-hand sides scale the vector
    residents (not the factors) by the batch width ``k``.
    """
    n_local = system.size
    k = system.b_sub.shape[1] if system.b_sub.ndim == 2 else 1
    return int(
        system.dep.nnz * BYTES_PER_NNZ
        + system.factor_memory_bytes
        + 8 * 4 * n_local * k  # BSub, XSub, BLoc, previous piece
    )


def charge_initialisation(ctx: SimContext, system: LocalSystem):
    """Generator: charge memory + factorization for one processor.

    Raises (inside the coroutine) ``OutOfSimMemory`` when the band and its
    factors exceed the host's remaining RAM -- callers translate that into
    the ``"nem"`` status.
    """
    yield ctx.malloc(band_memory_bytes(system))
    yield ctx.compute(system.factor_flops)


def assemble_solution(
    partition: GeneralPartition, outcomes: list[ProcOutcome]
) -> np.ndarray:
    """Reassemble the global vector (or ``(n, k)`` batch) from core pieces."""
    for out in outcomes:
        if out.core_piece is None:
            raise ValueError(f"rank {out.rank} returned no solution piece")
    first = outcomes[0].core_piece
    shape = (partition.n,) if first.ndim == 1 else (partition.n, first.shape[1])
    x = np.empty(shape)
    for out in outcomes:
        x[partition.core[out.rank]] = out.core_piece
    return x


@dataclass
class CommPattern:
    """Weighting-aware communication structure of one decomposition.

    For each rank ``l``, ``needed_cols[l]`` is its halo ``H_l`` (the
    columns of its coupling block) and ``recv_terms[l][k] = (piece_idx,
    col_idx, w)`` describes how a piece arriving from ``k`` contributes to
    the components ``l`` actually *reads*: ``z[col_idx] += w *
    piece[piece_idx]``, with ``col_idx`` a subset of ``H_l``.
    ``deps``/``dependents`` are derived from these terms, so a weighting that spreads a component over
    two overlap owners (O'Leary-White averaging) correctly makes *both*
    owners senders, while ownership-style weightings keep the minimal
    pattern of Algorithm 1.
    """

    needed_cols: list[np.ndarray]
    deps: list[list[int]]
    dependents: list[list[int]]
    recv_terms: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]


def communication_pattern(
    partition, weighting, systems: list[LocalSystem] | None = None, *, A=None
) -> CommPattern:
    """Derive who-sends-to-whom and the per-message update terms.

    The dependency structure may come from the built per-rank systems
    (``systems``, the simulator's path -- each built system carries its
    ``halo``) or directly from the matrix pattern (``A``, the path of the
    scheduler and the runtime drivers -- nothing is sliced or factored;
    see :meth:`~repro.core.partition.GeneralPartition.boundary_columns`).
    Both derivations yield the same graph, which is what makes the
    pattern-aware message cost model in :mod:`repro.schedule.pattern`
    price exactly the exchanges the drivers later perform.
    """
    if (systems is None) == (A is None):
        raise ValueError("pass exactly one of systems= or A=")
    L = partition.nprocs
    all_needed = (
        [systems[l].halo for l in range(L)]
        if systems is not None
        else partition.boundary_columns(A)
    )
    needed_cols: list[np.ndarray] = []
    recv_terms: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    deps: list[list[int]] = []
    dependents: list[list[int]] = [[] for _ in range(L)]
    for l in range(L):
        needed = all_needed[l]
        needed_cols.append(needed)
        terms: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        my_deps: list[int] = []
        if needed.size:
            needed_mask = np.zeros(partition.n, dtype=bool)
            needed_mask[needed] = True
            for k in range(L):
                if k == l:
                    continue
                w = weighting.weight_vector(l, k)
                J_k = partition.sets[k]
                sel = (w != 0.0) & needed_mask[J_k]
                if np.any(sel):
                    piece_idx = np.nonzero(sel)[0]
                    terms[k] = (piece_idx, J_k[piece_idx], w[piece_idx])
                    my_deps.append(k)
                    dependents[k].append(l)
        recv_terms.append(terms)
        deps.append(my_deps)
    return CommPattern(
        needed_cols=needed_cols,
        deps=deps,
        dependents=[sorted(v) for v in dependents],
        recv_terms=recv_terms,
    )


class HaloGather:
    """Per-block halos and the gather maps that fill them from pieces.

    Derived once per solve from :func:`communication_pattern` over the
    matrix pattern (the driver holds ``A``; nothing is asked of the
    executor): ``halos[l]`` is ``H_l``, and for every producer ``k != l``
    (ascending) a term ``(k, piece_idx, pos, w)`` adds ``w *
    piece_k[piece_idx]`` into ``z^l[pos]``.  These are exactly the
    non-zero-weight terms of the full-length combine ``z^l = sum_k
    E_lk x^k`` at the columns ``l`` reads, in the same order, so each
    halo entry is bit-identical to that entry of the full-length copy
    (the dropped terms add only ``+-0.0`` to an accumulator that starts
    at ``+0.0``).
    """

    def __init__(self, A, partition, weighting, b: np.ndarray):
        self.pattern = communication_pattern(partition, weighting, A=A)
        self.halos = self.pattern.needed_cols
        self._tail = tuple(b.shape[1:])
        batched = b.ndim == 2
        self._terms: list[list[tuple]] = []
        for l, halo in enumerate(self.halos):
            terms = []
            for k in sorted(self.pattern.recv_terms[l]):
                piece_idx, col_idx, w = self.pattern.recv_terms[l][k]
                pos = np.searchsorted(halo, col_idx)
                terms.append((k, piece_idx, pos, w[:, None] if batched else w))
            self._terms.append(terms)

    def initial(self, z0: np.ndarray) -> list[np.ndarray]:
        """Every block's halo of the start vector ``z0``."""
        return [z0[halo] for halo in self.halos]

    def assemble(self, l: int, pieces) -> np.ndarray:
        """Block ``l``'s halo vector from ``pieces[k]`` (indexable by rank)."""
        z = np.zeros((self.halos[l].size,) + self._tail)
        for k, piece_idx, pos, w in self._terms[l]:
            z[pos] += w * pieces[k][piece_idx]
        return z
