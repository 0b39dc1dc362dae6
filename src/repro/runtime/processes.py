"""Worker-process backend: no GIL, matrices shipped once, vectors via shm.

Deployment shape (mirrors the paper's one-process-per-machine layout, at
laptop scale):

* ``attach`` spawns (or reuses) ``W = min(L, max_workers)`` daemon worker
  processes and ships each one **only its owned rows** -- the
  ``A[J_l, :]`` / ``b[J_l]`` slices of its blocks (arbitrary index
  sets, not just contiguous bands) cross the task queue exactly once
  per binding, so total attach traffic is ~one matrix across all
  workers instead of one full copy per worker (per-worker pickled
  bytes recorded in :attr:`ProcessExecutor.attach_payload_bytes`);
  each worker factors its own blocks locally (with a per-process
  :class:`~repro.direct.cache.FactorizationCache`, so re-attaching the
  same matrix skips the factorization);
* every outer iteration exchanges only *vectors*, through two
  :class:`~repro.runtime.shm.SharedVectorPlane` segments: the driver
  writes block ``l``'s halo vector into its ``z`` slot (sized at attach
  by :func:`~repro.runtime.api.halo_shapes`), enqueues a tiny
  ``("solve", l)`` ticket, and the worker writes ``XSub_l`` into the
  piece slot before acknowledging.  Queue tickets order the slot
  accesses, so no locks are needed and nothing numeric is ever pickled
  on the hot path;
* completion tickets carry the worker-side wall-clock of each solve, so
  ``block_seconds`` reports where the time actually went.

Blocks are assigned round-robin (``owner(l) = l mod W``) unless the
binding carries a :class:`repro.schedule.Placement`, in which case the
plan's block-to-worker assignment is honoured exactly (sticky affinity:
a block's factors live in the per-process cache of the worker the plan
pinned it to, and re-attaching the same matrix with the same plan finds
them there).  Worker caches mean cache *counters* live in the workers;
``run_cache_stats`` aggregates them over the binding's workers.

**Fault tolerance** (:mod:`repro.runtime.resilience`): attaching with a
:class:`~repro.runtime.resilience.FaultPolicy` arms mid-solve recovery.
The driver's reply loop doubles as a heartbeat -- every
``heartbeat_interval`` it checks worker liveness, and the policy's
``deadline`` additionally bounds how long any one solve round may go
unanswered (a hung worker is killed and treated like a crashed one).  A
lost worker's blocks are *requeued*: surviving workers (least-loaded
first, deterministically) -- or, under ``respawn=True``, a freshly
spawned replacement -- receive an ``adopt`` ticket carrying the orphaned
blocks' slice of the binding, re-factor them through their local cache
(the measured cost lands in ``fault_stats().refactor_seconds``), and the
still-missing solve tickets are re-dispatched.  Iterates are unaffected:
a block solve is a pure function of ``(block, z)`` wherever it runs.

Trade-offs vs :class:`~repro.runtime.ThreadExecutor`: true core-level
parallelism independent of any GIL-releasing discipline in the kernels,
at the price of one queue round-trip (~0.1 ms) plus two vector copies per
block per iteration, and of per-worker (not shared) factor caches.  Pick
processes when block solves are chunky; threads when they are small or
when a shared cache across blocks matters.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import pickle
import threading
import time
import traceback
from collections import deque
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.direct.cache import CacheStats, FactorizationCache
from repro.observe import estimate_clock_offset
from repro.runtime.api import Executor, SolveStream, halo_shapes, owned_rows_spec
from repro.runtime.resilience import FaultPolicy, FaultStats, reassign_orphans
from repro.runtime.shm import SharedVectorPlane

__all__ = ["ProcessExecutor"]

#: Seconds a driver waits on one worker reply before declaring it dead.
_REPLY_TIMEOUT = 300.0


def _worker_main(rank: int, task_q, reply_conn) -> None:
    """Verb loop of one worker process.

    Workers execute a fixed verb set (attach / adopt / solve / stats /
    detach / exit) rather than arbitrary closures -- that keeps every
    message picklable under any start method and makes the hot-path
    messages constant-size.

    Replies travel over a **private pipe per worker** (``reply_conn``),
    not a shared queue: a shared queue's write-lock is a cross-process
    semaphore, and a worker SIGKILLed while holding it would deadlock
    every survivor's replies -- precisely the fault this backend must
    recover from.  Private pipes have no shared state, and the hot-path
    reply frames are far below ``PIPE_BUF`` so their writes are atomic.
    """
    # Imports happen here (not at module import) so a "spawn" child only
    # pays for what it uses.
    from repro.core.local import build_local_system

    cache = FactorizationCache(capacity=256)
    systems: dict[int, object] = {}
    z_plane: SharedVectorPlane | None = None
    piece_plane: SharedVectorPlane | None = None
    cache_before: CacheStats | None = None
    use_cache = False
    # Worker-local tracer (enabled per binding by the spec's "trace"
    # flag).  Spans are recorded on this process's own perf_counter
    # clock and shipped back on the "trace" verb together with a clock
    # sample, so the driver can merge them offset-corrected.
    tracer = None
    lane = f"worker-{rank}"

    def _arm_tracer(spec) -> None:
        nonlocal tracer
        if spec.get("trace"):
            if tracer is None:
                from repro.observe import Tracer

                tracer = Tracer()
            cache.set_tracer(tracer, lane=lane)
        else:
            tracer = None
            cache.set_tracer(None)

    def _release_binding() -> None:
        nonlocal systems, z_plane, piece_plane
        systems = {}
        if z_plane is not None:
            z_plane.close()
            z_plane = None
        if piece_plane is not None:
            piece_plane.close()
            piece_plane = None

    def _open_planes(spec) -> None:
        nonlocal z_plane, piece_plane
        if z_plane is None:
            z_plane = SharedVectorPlane(
                spec["z_shapes"], name=spec["z_name"], create=False
            )
        if piece_plane is None:
            piece_plane = SharedVectorPlane(
                spec["piece_shapes"], name=spec["piece_name"], create=False
            )

    # Every message after the verb carries the binding epoch; replies echo
    # it so the driver can discard stragglers from an aborted binding.
    while True:
        t_wait = time.perf_counter()
        msg = task_q.get()
        if tracer is not None:
            # Time blocked waiting for the next ticket: between rounds
            # this is the worker's barrier wait.
            tracer.add(
                "barrier.wait", "wait", t_wait, time.perf_counter() - t_wait,
                lane=lane,
            )
        kind = msg[0]
        if kind == "exit":
            _release_binding()
            return
        epoch = msg[1]
        try:
            if kind == "attach":
                # Specs travel pre-pickled (the driver serializes once,
                # recording the byte count; the queue then only memcpys
                # the bytes object instead of re-walking the matrices).
                spec = pickle.loads(msg[2])
                _release_binding()
                _arm_tracer(spec)
                use_cache = spec["use_cache"]
                cache_before = cache.stats.snapshot() if use_cache else None
                _open_planes(spec)
                # Only the owned rows A[J_l, :] / b[J_l] ever arrive --
                # never the full matrix (mirrors the socket backend).
                for l in spec["owned"]:
                    t0 = time.perf_counter()
                    systems[l] = build_local_system(
                        None,
                        None,
                        spec["sets"][l],
                        l,
                        spec["solvers"][l],
                        cache=cache if use_cache else None,
                        band=spec["bands"][l],
                        b_sub=spec["b_subs"][l],
                    )
                    if tracer is not None and not use_cache:
                        # Cached bindings get their factor spans from the
                        # cache itself (misses only -- a re-attach hit
                        # costs no factor time and records none).
                        tracer.add(
                            "factor", "compute", t0,
                            time.perf_counter() - t0, lane=lane, block=l,
                        )
                reply_conn.send(("attached", epoch, rank))
            elif kind == "adopt":
                # Recovery: take over a dead worker's blocks *in addition*
                # to anything already owned.  A respawned replacement gets
                # the full plane/cap context in the spec and starts from a
                # clean binding.
                spec = pickle.loads(msg[2])
                _arm_tracer(spec)
                use_cache = spec["use_cache"]
                if use_cache and cache_before is None:
                    cache_before = cache.stats.snapshot()
                _open_planes(spec)
                t0 = time.perf_counter()
                for l in spec["owned"]:
                    systems[l] = build_local_system(
                        None,
                        None,
                        spec["sets"][l],
                        l,
                        spec["solvers"][l],
                        cache=cache if use_cache else None,
                        band=spec["bands"][l],
                        b_sub=spec["b_subs"][l],
                    )
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.add(
                        "adopt", "fault", t0, dt, lane=lane,
                        blocks=list(spec["owned"]),
                    )
                reply_conn.send(("adopted", epoch, rank, dt))
            elif kind == "solve":
                l = msg[2]
                # Solve straight off the shared plane: a view, not a
                # copy.  The ticket ordering guarantees the driver wrote
                # block l's z and will not rewrite the slot until this
                # reply lands, so the old worker-side read copy was pure
                # overhead.
                z = z_plane.slot(l)
                if tracer is not None:
                    tracer.event(
                        "wire.recv", cat="wire", lane=lane,
                        bytes=int(z.nbytes), block=l,
                    )
                t0 = time.perf_counter()
                piece = systems[l].solve_with(z)
                dt = time.perf_counter() - t0
                # Release the view before replying: a live export of the
                # shm mmap would make a later binding release (close on
                # the SharedMemory) raise BufferError.
                del z
                piece = np.asarray(piece, dtype=float)
                if tracer is not None:
                    tracer.add("solve", "compute", t0, dt, lane=lane, block=l)
                piece_plane.write(l, piece)
                if tracer is not None:
                    tracer.event(
                        "wire.send", cat="wire", lane=lane,
                        bytes=int(piece.nbytes), block=l,
                    )
                reply_conn.send(("done", epoch, l, dt))
            elif kind == "trace":
                batch = tracer.export_batch() if tracer is not None else []
                reply_conn.send(("trace", epoch, rank, batch, time.perf_counter()))
            elif kind == "stats":
                delta = (
                    cache.stats.since(cache_before)
                    if use_cache and cache_before is not None
                    else None
                )
                reply_conn.send(("stats", epoch, rank, delta))
            elif kind == "detach":
                _release_binding()
                reply_conn.send(("detached", epoch, rank))
            else:  # pragma: no cover - protocol violation
                reply_conn.send(("error", epoch, rank, f"unknown verb {kind!r}"))
        except Exception:
            # Exception (not BaseException): kernel and programming
            # errors are serialized back to the driver as error frames,
            # but a KeyboardInterrupt/SystemExit must still kill the
            # worker -- swallowing it would leave an unkillable loop
            # (mirrors the socket worker's policy).
            reply_conn.send(("error", epoch, rank, traceback.format_exc()))


class ProcessExecutor(Executor):
    """Run block solves in worker processes with shared-memory vectors.

    Parameters
    ----------
    max_workers:
        Worker-process count cap; defaults to ``os.cpu_count()``.  The
        pool grows lazily up to ``min(nblocks, max_workers)`` and
        persists across ``attach``/``detach`` cycles.  An explicit
        :class:`repro.schedule.Placement` overrides the cap: the plan
        names its worker slots, so attach spawns exactly
        ``placement.nworkers`` processes (size the plan, not the cap,
        when pinning).
    start_method:
        ``multiprocessing`` start method; by default ``"fork"`` when the
        parent is still single-threaded at first spawn (cheapest), else
        ``"forkserver"``/``"spawn"`` (fork-with-threads can deadlock the
        child on an inherited lock).
    """

    name = "processes"

    def __init__(self, *, max_workers: int | None = None, start_method: str | None = None):
        self.max_workers = max_workers
        self.start_method = start_method
        self._ctx = None
        self._workers: list = []
        self._task_qs: list = []
        self._reply_conns: list = []
        self._live: list[int] = []
        self._owner: dict[int, int] = {}
        self._z_plane: SharedVectorPlane | None = None
        self._piece_plane: SharedVectorPlane | None = None
        self._block_seconds: dict[int, float] = {}
        self._attached = False
        self._use_cache = False
        self._epoch = 0
        self._policy: FaultPolicy | None = None
        self._fault = FaultStats()
        self._spec_ctx: dict | None = None
        # Fleet membership generation: bumped by attach, grow, shrink,
        # and mid-solve recovery, so an elastic re-planner can detect
        # change with one integer compare.  Lifetime-monotone (never
        # reset) by design.
        self._membership_version = 0
        # Monotonic cache accounting: counters already folded from
        # retired/dead workers, plus each live worker's last-polled
        # delta (folded at death so a crash cannot make the aggregate
        # go backwards).  Both are per-binding (reset at attach).
        self._cache_retired = CacheStats()
        self._cache_last: dict[int, CacheStats] = {}
        #: Pickled payload bytes of the last attach, per worker rank --
        #: the observable for the owned-rows-only shipping guarantee
        #: (mirrors ``SocketExecutor.attach_payload_bytes``).
        self.attach_payload_bytes: dict[int, int] = {}
        # Per-binding vector traffic through the shm planes (driver side).
        self._vector_bytes_sent = 0
        self._vector_bytes_received = 0
        self._serialize_seconds = 0.0
        self._transmit_seconds = 0.0
        # Bytes the workers consumed as plane views instead of copies
        # (the eliminated worker-side z read copy).
        self._copies_avoided = 0

    # -- worker pool -----------------------------------------------------
    def _context(self):
        """Pick the start method at first spawn, not at construction.

        ``fork`` is the cheapest, but forking a *multi-threaded* parent
        can clone a child while another thread (a ThreadExecutor pool, a
        BLAS pool) holds an internal lock, deadlocking the worker before
        it reaches its queue loop.  So ``fork`` is only chosen when the
        parent is still single-threaded; otherwise ``forkserver`` (or
        ``spawn``) launches workers from a clean process.
        """
        if self._ctx is None:
            method = self.start_method
            if method is None:
                available = mp.get_all_start_methods()
                if "fork" in available and threading.active_count() == 1:
                    method = "fork"
                elif "forkserver" in available:
                    method = "forkserver"
                else:
                    method = "spawn"
            self._ctx = mp.get_context(method)
        return self._ctx

    def _spawn_at(self, rank: int) -> None:
        """Start (or restart) the worker process serving ``rank``."""
        ctx = self._context()
        task_q = ctx.Queue()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(rank, task_q, send_conn),
            daemon=True,
            name=f"repro-runtime-{rank}",
        )
        proc.start()
        # The parent keeps only the read end; closing the write end here
        # makes a dead worker's pipe report EOF instead of blocking.
        send_conn.close()
        if rank < len(self._workers):
            # Replacing a dead worker: abandon its queue (stale tickets
            # die with it) and slot the fresh process in at the same rank.
            self._task_qs[rank].cancel_join_thread()
            self._task_qs[rank].close()
            self._reply_conns[rank].close()
            self._task_qs[rank] = task_q
            self._reply_conns[rank] = recv_conn
            self._workers[rank] = proc
        else:
            self._task_qs.append(task_q)
            self._reply_conns.append(recv_conn)
            self._workers.append(proc)

    def _ensure_workers(self, count: int) -> None:
        """Grow the pool to ``count`` workers, reviving any dead ranks."""
        for rank in range(count):
            if rank >= len(self._workers) or not self._workers[rank].is_alive():
                self._spawn_at(rank)

    def _reply_wait_seconds(self) -> float:
        """Hard bound on one reply wait, governed by the armed policy.

        The module default ``_REPLY_TIMEOUT`` is a backstop for unarmed
        bindings.  When a :class:`FaultPolicy` with its own ``deadline``
        is armed, that deadline governs: a *generous* policy (deadline
        beyond the default) extends the hard bound so the round is never
        cut short by the hardcoded constant, while a *tight* deadline is
        enforced by the solve loop's per-round breach check (which reaps
        the hung worker long before either bound fires).
        """
        policy = self._policy
        if policy is not None and policy.deadline is not None:
            return max(_REPLY_TIMEOUT, policy.deadline)
        return _REPLY_TIMEOUT

    def _poll_replies(self, timeout: float) -> list[tuple]:
        """Drain every reply ready on the live workers' pipes.

        Blocks up to ``timeout`` for the *first* reply; an empty return
        is the heartbeat signal (nobody had anything to say).  A pipe at
        EOF (its worker died) is skipped -- the caller's liveness check
        owns that diagnosis.
        """
        conns = {self._reply_conns[w]: w for w in self._live}
        if not conns:
            time.sleep(timeout)
            return []
        out: list[tuple] = []
        for conn in mp_connection.wait(list(conns), timeout=timeout):
            try:
                while True:
                    out.append(conn.recv())
                    if not conn.poll():
                        break
            except (EOFError, OSError):
                continue
        return out

    def _collect(self, expected_kind: str, count: int) -> list[tuple]:
        """Gather ``count`` current-epoch replies (control-verb path).

        Replies from older epochs (left over when a binding aborted on a
        worker error) are discarded; worker tracebacks and worker deaths
        surface as ``RuntimeError``.  Recovery never happens here -- the
        attach/stats/detach verbs fail fast; only the solve path
        (:meth:`solve_blocks`) recovers.
        """
        replies = []
        deadline = time.monotonic() + self._reply_wait_seconds()
        while len(replies) < count:
            batch = self._poll_replies(timeout=1.0)
            if not batch:
                dead = [
                    self._workers[w].name
                    for w in self._live
                    if not self._workers[w].is_alive()
                ]
                if dead:
                    raise RuntimeError(f"runtime workers died: {dead}")
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"timed out waiting for {expected_kind!r} replies "
                        f"({len(replies)}/{count} received)"
                    )
                continue
            for msg in batch:
                if msg[1] != self._epoch:
                    continue  # straggler from an aborted binding
                if msg[0] == "error":
                    raise RuntimeError(f"runtime worker {msg[2]} failed:\n{msg[3]}")
                if msg[0] != expected_kind:  # pragma: no cover - protocol violation
                    raise RuntimeError(
                        f"expected {expected_kind!r} reply, got {msg[0]!r}"
                    )
                replies.append(msg)
        return replies

    # -- binding ---------------------------------------------------------
    def _worker_spec(self, owned: list[int]) -> dict:
        """The attach/adopt payload for one worker: owned rows only.

        Each worker receives its blocks' ``A[J_l, :]`` / ``b[J_l]``
        slices (arbitrary index sets, not just contiguous bands) plus the
        shared-memory plane coordinates -- never the full matrix, so the
        total attach traffic over the task queues is ~one matrix across
        *all* workers instead of one copy per worker.
        """
        ctx = self._spec_ctx
        spec = owned_rows_spec(
            ctx["A"], ctx["b"], ctx["sets"], ctx["solvers"], owned,
            ctx["use_cache"],
        )
        spec.update(
            z_name=ctx["z_name"],
            z_shapes=ctx["z_shapes"],
            piece_name=ctx["piece_name"],
            piece_shapes=ctx["piece_shapes"],
            trace=ctx["trace"],
        )
        return spec

    def _spec_payload(self, owned: list[int]) -> bytes:
        """One worker's attach/adopt spec, pickled exactly once."""
        t0 = time.perf_counter()
        payload = pickle.dumps(
            self._worker_spec(owned), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._serialize_seconds += time.perf_counter() - t0
        return payload

    def attach(
        self, A, b, sets, solver, *, cache=None, placement=None, fault_policy=None
    ) -> None:
        from repro.linalg.sparse import as_csr

        self.detach()
        csr = as_csr(A)
        b = np.asarray(b, dtype=float)
        L = len(sets)
        if L == 0:
            raise ValueError("at least one block required")
        self._check_placement(placement, L)
        if isinstance(solver, (list, tuple)):
            solvers = list(solver)
            if len(solvers) != L:
                raise ValueError(f"{len(solvers)} kernels for {L} blocks")
        else:
            solvers = [solver] * L
        sets_list = [np.asarray(rows, dtype=np.int64) for rows in sets]
        if placement is not None:
            # Honour the plan exactly: one worker process per plan slot,
            # blocks pinned where the plan put them.
            W = placement.nworkers
            owner = {l: int(placement.assignment[l]) for l in range(L)}
        else:
            W = max(1, min(L, self.max_workers or os.cpu_count() or 1))
            owner = {l: l % W for l in range(L)}
        self._ensure_workers(W)
        z_shapes = halo_shapes(csr, b, sets_list)
        piece_shapes = [(rows.size,) + tuple(b.shape[1:]) for rows in sets_list]
        self._z_plane = SharedVectorPlane(z_shapes)
        self._piece_plane = SharedVectorPlane(piece_shapes)
        self._owner = owner
        self._live = list(range(W))
        self._use_cache = cache is not None
        self._policy = fault_policy
        self._fault = FaultStats()
        self._cache_retired = CacheStats()
        self._cache_last = {}
        self._membership_version += 1
        self._epoch += 1
        # Retained for recovery: an adoption re-ships exactly this context
        # (trimmed to the orphaned blocks) to the new owner.
        self._spec_ctx = {
            "A": csr,
            "b": b,
            "sets": sets_list,
            "solvers": solvers,
            "use_cache": self._use_cache,
            "z_name": self._z_plane.name,
            "z_shapes": z_shapes,
            "piece_name": self._piece_plane.name,
            "piece_shapes": piece_shapes,
            "trace": self._tracer is not None,
        }
        self.attach_payload_bytes = {}
        self._vector_bytes_sent = 0
        self._vector_bytes_received = 0
        self._serialize_seconds = 0.0
        self._transmit_seconds = 0.0
        self._copies_avoided = 0
        try:
            for w in range(W):
                # Serialized exactly once: the byte count is the shipping
                # observable (like the socket backend's send_msg return),
                # and the queue only memcpys the pre-pickled payload.
                payload = self._spec_payload(
                    [l for l in range(L) if owner[l] == w]
                )
                self.attach_payload_bytes[w] = len(payload)
                self._task_qs[w].put(("attach", self._epoch, payload))
            self._collect_attach({w: 1 for w in range(W)})
        except BaseException:
            # Aborted binding: reclaim the planes; workers release their
            # stale state on their next attach, and any straggler replies
            # are filtered out by the epoch check.
            for plane in (self._z_plane, self._piece_plane):
                if plane is not None:
                    plane.close()
                    plane.unlink()
            self._z_plane = None
            self._piece_plane = None
            self._live = []
            raise
        self._block_seconds = {l: 0.0 for l in range(L)}
        self._attached = True

    def _collect_attach(self, expected: dict[int, int]) -> None:
        """Gather attach acks, recovering workers that die mid-attach.

        ``expected`` maps worker rank to outstanding ack count (a
        survivor adopting a dead peer's blocks owes two: its own
        ``attached`` plus an ``adopted``).  Without a policy this fails
        fast exactly as before -- there is no half-bound binding the
        caller could use.  With a :class:`FaultPolicy`, a worker that
        dies before (or after) acking has its owned blocks re-homed --
        onto a respawned replacement or onto survivors via ``adopt`` --
        and the attach transaction completes instead of aborting.
        """
        hb = self._policy.heartbeat_interval if self._policy is not None else 1.0
        deadline = time.monotonic() + self._reply_wait_seconds()
        while any(c > 0 for c in expected.values()):
            batch = self._poll_replies(timeout=hb)
            if batch:
                for msg in batch:
                    if msg[1] != self._epoch:
                        continue  # straggler from an aborted binding
                    if msg[0] == "error":
                        raise RuntimeError(
                            f"runtime worker {msg[2]} failed:\n{msg[3]}"
                        )
                    if msg[0] == "adopted":
                        self._fault.refactor_seconds += msg[3]
                    elif msg[0] != "attached":  # pragma: no cover - protocol
                        raise RuntimeError(
                            f"expected attach ack, got {msg[0]!r}"
                        )
                    rank = msg[2]
                    expected[rank] = expected.get(rank, 0) - 1
                continue
            dead = sorted(
                w for w in self._live if not self._workers[w].is_alive()
            )
            if dead:
                if self._policy is None:
                    names = [self._workers[w].name for w in dead]
                    raise RuntimeError(
                        f"runtime workers died during attach: {names}"
                    )
                for w in dead:
                    expected.pop(w, None)
                for w in self._rehome_dead(dead):
                    expected[w] = expected.get(w, 0) + 1
                deadline = time.monotonic() + self._reply_wait_seconds()
            elif time.monotonic() > deadline:
                outstanding = sorted(w for w, c in expected.items() if c > 0)
                raise RuntimeError(
                    f"timed out waiting for attach acks from {outstanding}"
                )

    def detach(self) -> None:
        if self._attached:
            # A fresh epoch for the detach round: if a solve aborted on a
            # worker error, the surviving workers' same-epoch "done"
            # replies are still queued — bumping the epoch makes the
            # straggler filter drop them instead of tripping the
            # detached-reply check (which would mask the original error).
            self._epoch += 1
            live = [w for w in self._live if self._workers[w].is_alive()]
            try:
                self._live = live
                self._collect_trace(live)
                for w in live:
                    self._task_qs[w].put(("detach", self._epoch))
                self._collect("detached", len(live))
            finally:
                self._attached = False
                self._live = []
                self._spec_ctx = None
                self._release_planes()

    def _collect_trace(self, live: list[int]) -> None:
        """Pull the workers' span batches in and merge them (detach path).

        One request/reply round trip per worker doubles as the clock
        sample: the worker stamps its reply with its own perf_counter,
        and Cristian's midpoint estimate over the driver's send/receive
        instants yields the offset that maps the batch onto the driver
        clock.  Best-effort by design -- a dead or wedged worker loses
        its spans, never the detach.
        """
        tracer = self._tracer
        if tracer is None or not live:
            return
        t_send: dict[int, float] = {}
        for w in live:
            t_send[w] = tracer.now()
            self._task_qs[w].put(("trace", self._epoch))
        needed = set(live)
        deadline = time.monotonic() + self._reply_wait_seconds()
        while needed:
            batch = self._poll_replies(timeout=0.2)
            t_recv = tracer.now()
            if not batch:
                for w in list(needed):
                    if not self._workers[w].is_alive():
                        needed.discard(w)
                if time.monotonic() > deadline:
                    break
                continue
            for msg in batch:
                if msg[1] != self._epoch or msg[0] != "trace":
                    continue  # straggler from the aborted round
                _, _, rank, spans, worker_now = msg
                offset = estimate_clock_offset(t_send[rank], worker_now, t_recv)
                tracer.ingest(spans, clock_offset=offset)
                needed.discard(rank)

    def _release_planes(self) -> None:
        for plane in (self._z_plane, self._piece_plane):
            if plane is not None:
                plane.close()
                plane.unlink()
        self._z_plane = None
        self._piece_plane = None

    @property
    def nblocks(self) -> int:
        return len(self._owner) if self._attached else 0

    # -- fault injection / recovery --------------------------------------
    def alive_workers(self) -> list[int]:
        """Ranks of this binding's workers whose processes are alive."""
        return [w for w in self._live if self._workers[w].is_alive()]

    def kill_worker(self, rank: int) -> bool:
        """Hard-kill worker ``rank`` (SIGKILL).  The chaos hook.

        Returns True when a live worker was killed.  Recovery is *not*
        triggered here -- the next :meth:`solve_blocks` heartbeat finds
        the corpse, exactly as a real mid-run crash would surface.
        """
        if not (0 <= rank < len(self._workers)):
            return False
        proc = self._workers[rank]
        if not proc.is_alive():
            return False
        proc.kill()
        proc.join(timeout=10.0)
        return True

    def fault_stats(self) -> FaultStats:
        return self._fault.snapshot()

    # -- elastic membership ----------------------------------------------
    def membership_version(self) -> int:
        return self._membership_version

    def owner_map(self) -> dict:
        return dict(self._owner)

    def grow(self, workers=1) -> list[int]:
        """Spawn fresh worker processes into the live binding.

        The new workers join idle (no blocks) at brand-new ranks -- a
        rank is never reused, so per-slot accounting (payload bytes,
        cache deltas) can never alias an old worker's counters.  Route
        blocks onto them with :meth:`migrate`.
        """
        if not self._attached:
            raise RuntimeError("ProcessExecutor is not attached")
        if not isinstance(workers, int):
            raise TypeError(
                "ProcessExecutor.grow takes a worker count; "
                "host lists are a SocketExecutor concept"
            )
        if workers <= 0:
            return []
        added: list[int] = []
        for _ in range(workers):
            rank = len(self._workers)
            self._spawn_at(rank)
            self._live.append(rank)
            added.append(rank)
        self._fault.grow_events += 1
        self._membership_version += 1
        if self._tracer is not None:
            self._tracer.event(
                "elastic.grow", cat="elastic", lane="driver",
                workers=list(added),
            )
        return added

    def shrink(self, workers) -> list[int]:
        """Gracefully retire live workers, re-homing their blocks first.

        ``workers`` is either an explicit list of ranks or an int count
        (the highest-ranked live workers are chosen).  Unlike a crash,
        retirement is bookkept as scheduling, not fault: the retirees'
        cache counters are folded into the run aggregate *before* they
        exit (so ``run_cache_stats`` stays monotonic), their blocks
        migrate to the deterministic least-loaded survivors via
        ``adopt``, and only then does each retiree get its exit ticket.
        Must be called at a quiescent round boundary (no solves in
        flight).  Returns the ranks actually retired.
        """
        if not self._attached:
            raise RuntimeError("ProcessExecutor is not attached")
        alive = self.alive_workers()
        if isinstance(workers, int):
            victims = sorted(alive)[-workers:] if workers > 0 else []
        else:
            wanted = {int(w) for w in workers}
            victims = [w for w in alive if w in wanted]
        victims = sorted(set(victims))
        survivors = [w for w in alive if w not in set(victims)]
        if not victims:
            return []
        if not survivors:
            raise ValueError("shrink would retire the whole fleet")
        # Final cache poll before the retirees go away: their per-binding
        # delta moves into the retired accumulator so the run aggregate
        # keeps counting what they did.
        if self._use_cache:
            for w in victims:
                self._task_qs[w].put(("stats", self._epoch))
            for _, _, rank, delta in self._collect("stats", len(victims)):
                self._cache_retired.merge_in(delta)
                self._cache_last.pop(rank, None)
        orphans = sorted(
            l for l, w in self._owner.items() if w in set(victims)
        )
        new_owner = reassign_orphans(orphans, self._owner, survivors)
        self._dispatch_migration(new_owner)
        for w in victims:
            self._task_qs[w].put(("exit",))
            self._live.remove(w)
        for w in victims:
            self._workers[w].join(timeout=10.0)
            if self._workers[w].is_alive():  # pragma: no cover - stuck worker
                self._workers[w].kill()
                self._workers[w].join(timeout=5.0)
        self._fault.shrink_events += 1
        self._membership_version += 1
        if self._tracer is not None:
            self._tracer.event(
                "elastic.shrink", cat="elastic", lane="driver",
                workers=list(victims), blocks=len(orphans),
            )
        return victims

    def migrate(self, assignment: dict) -> int:
        """Re-home blocks per ``assignment`` (block -> live worker rank).

        Only the entries that actually move an existing block to a
        *different* live worker are shipped -- each adopter re-factors
        the moved blocks through its own cache via the ``adopt`` verb.
        Returns the number of blocks moved.
        """
        if not self._attached:
            raise RuntimeError("ProcessExecutor is not attached")
        alive = set(self.alive_workers())
        moved: dict[int, int] = {}
        for l, w in assignment.items():
            l, w = int(l), int(w)
            if l not in self._owner:
                raise KeyError(f"unknown block {l}")
            if w not in alive:
                raise ValueError(f"migration target {w} is not a live worker")
            if self._owner[l] != w:
                moved[l] = w
        return self._dispatch_migration(moved)

    def _dispatch_migration(self, new_owner: dict[int, int]) -> int:
        """Ship ``adopt`` tickets for a planned (non-fault) re-homing.

        The elastic counterpart of :meth:`_rehome_dead`: same verb, same
        owned-rows payload, but billed to the migration counters
        (``blocks_migrated`` / ``migration_seconds``) instead of the
        fault ones, because nothing was lost -- the z slots still hold
        the round's values and the next dispatch simply lands elsewhere.
        """
        moved = {
            l: w for l, w in new_owner.items() if self._owner.get(l) != w
        }
        if not moved:
            return 0
        by_adopter: dict[int, list[int]] = {}
        for l, w in moved.items():
            by_adopter.setdefault(w, []).append(l)
        for w, owned in sorted(by_adopter.items()):
            self._task_qs[w].put(
                ("adopt", self._epoch, self._spec_payload(sorted(owned)))
            )
        for msg in self._collect("adopted", len(by_adopter)):
            self._fault.migration_seconds += msg[3]
        self._owner.update(moved)
        self._fault.blocks_migrated += len(moved)
        if self._tracer is not None:
            self._tracer.event(
                "elastic.migrate", cat="elastic", lane="driver",
                blocks=len(moved), adopters=sorted(by_adopter),
            )
        return len(moved)

    def _kill_silently(self, rank: int) -> None:
        proc = self._workers[rank]
        if proc.is_alive():  # a hung (deadline-breaching) worker
            proc.kill()
            proc.join(timeout=10.0)

    def _rehome_dead(self, dead: list[int]) -> list[int]:
        """Kill/account the dead workers and re-home their blocks.

        The shared core of mid-solve (:meth:`_recover`) and mid-attach
        (:meth:`_collect_attach`) recovery: reap the corpses, enforce
        the policy's loss budget, pick new owners (respawned
        replacements under ``respawn=True``, else the deterministic
        least-loaded survivors), and dispatch one ``adopt`` ticket per
        adopter carrying the orphaned blocks' slice.  Returns the
        adopter ranks whose ``adopted`` acks the caller must collect.
        """
        dead_set = set(dead)
        tracer = self._tracer
        for w in dead:
            self._kill_silently(w)
            self._live.remove(w)
            self._fault.workers_lost += 1
            # A dead worker can no longer answer a stats poll: fold its
            # last-polled cache delta so the aggregate stays monotonic.
            self._cache_retired.merge_in(self._cache_last.pop(w, None))
            if tracer is not None:
                tracer.event("worker.lost", cat="fault", lane="driver", worker=w)
        self._membership_version += 1
        if (
            self._policy.max_worker_losses is not None
            and self._fault.workers_lost > self._policy.max_worker_losses
        ):
            raise RuntimeError(
                f"fault policy exhausted: {self._fault.workers_lost} workers "
                f"lost (max {self._policy.max_worker_losses})"
            )
        orphans = sorted(l for l, w in self._owner.items() if w in dead_set)
        new_owner: dict[int, int] = {}
        if self._policy.respawn:
            replacement: dict[int, int] = {}
            for w in dead:
                rank = len(self._workers)
                self._spawn_at(rank)
                self._live.append(rank)
                replacement[w] = rank
                self._fault.respawns += 1
                if tracer is not None:
                    tracer.event(
                        "respawn", cat="fault", lane="driver",
                        worker=rank, replaces=w,
                    )
            for l in orphans:
                new_owner[l] = replacement[self._owner[l]]
        else:
            # Deterministic requeue: the shared least-loaded/lowest-rank
            # rule (repro.runtime.resilience.reassign_orphans).
            new_owner = reassign_orphans(orphans, self._owner, self._live)
        self._fault.blocks_requeued += len(orphans)
        by_adopter: dict[int, list[int]] = {}
        for l in orphans:
            by_adopter.setdefault(new_owner[l], []).append(l)
        for w, owned in sorted(by_adopter.items()):
            self._task_qs[w].put(("adopt", self._epoch, self._spec_payload(owned)))
        self._owner.update(new_owner)
        return sorted(by_adopter)

    def _recover(
        self, dead: list[int], remaining: set[int], pending: dict[int, int]
    ) -> None:
        """Reassign the dead workers' blocks and re-dispatch lost solves.

        ``remaining``/``pending`` describe the in-flight round: blocks
        whose ticket sat with a dead worker are re-enqueued on their new
        owner (the z slot still holds the round's halo vector, so the
        retried solve is bit-identical).
        """
        dead_set = set(dead)
        adopters = self._rehome_dead(dead)
        # Wait for the refactor acks (surviving workers keep answering
        # solves meanwhile; those replies are folded in as they arrive).
        acks = 0
        hb = self._policy.heartbeat_interval
        deadline = time.monotonic() + self._reply_wait_seconds()
        while acks < len(adopters):
            batch = self._poll_replies(timeout=hb)
            if not batch:
                gone = [w for w in adopters if not self._workers[w].is_alive()]
                if gone:
                    raise RuntimeError(
                        f"workers {gone} died while adopting orphaned blocks"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError("timed out waiting for adoption acks")
                continue
            for msg in batch:
                if msg[1] != self._epoch:
                    continue
                if msg[0] == "error":
                    raise RuntimeError(f"runtime worker {msg[2]} failed:\n{msg[3]}")
                if msg[0] == "adopted":
                    self._fault.refactor_seconds += msg[3]
                    acks += 1
                elif msg[0] == "done":
                    _, _, l, dt = msg
                    if l in remaining:
                        remaining.discard(l)
                        pending.pop(l, None)
                        self._block_seconds[l] += dt
        for l in sorted(remaining):
            if pending.get(l) in dead_set:
                self._task_qs[self._owner[l]].put(("solve", self._epoch, l))
                pending[l] = self._owner[l]

    # -- solving ---------------------------------------------------------
    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        if not self._attached:
            raise RuntimeError("ProcessExecutor is not attached")
        blocks = [l for l, _ in tasks]
        if len(set(blocks)) != len(blocks):
            raise ValueError("duplicate block in one solve_blocks call")
        tracer = self._tracer
        pending: dict[int, int] = {}
        sent_bytes = 0
        t_write = time.perf_counter()
        for l, z in tasks:
            arr = np.asarray(z, dtype=float)
            self._z_plane.write(l, arr)
            sent_bytes += arr.nbytes
        self._transmit_seconds += time.perf_counter() - t_write
        self._vector_bytes_sent += sent_bytes
        # The workers consume these bytes as plane views, not copies.
        self._copies_avoided += sent_bytes
        if tracer is not None:
            tracer.event(
                "wire.send", cat="wire", lane="driver",
                bytes=int(sent_bytes), blocks=len(tasks),
            )
        dispatched: dict[int, float] = {}
        t_dispatch = time.monotonic()
        for l, _ in tasks:
            w = self._owner[l]
            self._task_qs[w].put(("solve", self._epoch, l))
            pending[l] = w
            dispatched[l] = t_dispatch
        remaining = set(blocks)
        policy = self._policy
        hb = policy.heartbeat_interval if policy is not None else 1.0
        hard_deadline = t_dispatch + self._reply_wait_seconds()
        t_wait = tracer.now() if tracer is not None else 0.0
        while remaining:
            batch = self._poll_replies(timeout=hb)
            if batch:
                for msg in batch:
                    if msg[1] != self._epoch:
                        continue  # straggler from an aborted binding
                    if msg[0] == "error":
                        raise RuntimeError(
                            f"runtime worker {msg[2]} failed:\n{msg[3]}"
                        )
                    if msg[0] != "done":  # pragma: no cover - protocol violation
                        raise RuntimeError(f"expected 'done' reply, got {msg[0]!r}")
                    _, _, l, dt = msg
                    if l in remaining:  # a requeued block may answer twice
                        remaining.discard(l)
                        w_from = pending.pop(l, None)
                        self._block_seconds[l] += dt
                        if w_from is not None:
                            # A reply is proof of life for ITS worker
                            # only: refresh the clocks of that worker's
                            # other queued blocks (a deep queue on a
                            # live worker is not a hang), but never a
                            # peer's.
                            t_reply = time.monotonic()
                            for l2 in remaining:
                                if pending.get(l2) == w_from:
                                    dispatched[l2] = t_reply
                if not remaining:
                    break
            # Corpse/deadline sweep runs every iteration, replies or not:
            # each outstanding block keeps the clock of its dispatch (or
            # its worker's last reply), so one chatty worker's steady
            # replies cannot keep resetting a shared round deadline and
            # mask a hung peer (the interleaving explorer's
            # requeue-vs-reply model is the spec for what recovery may
            # do with the late reply).
            now = time.monotonic()
            dead = sorted(
                {w for w in self._live if not self._workers[w].is_alive()}
            )
            if policy is None:
                if dead:
                    names = [self._workers[w].name for w in dead]
                    raise RuntimeError(f"runtime workers died: {names}")
                if now > hard_deadline:
                    raise RuntimeError(
                        f"timed out waiting for 'done' replies "
                        f"({len(blocks) - len(remaining)}/{len(blocks)} received)"
                    )
                continue
            if not dead and policy.deadline is not None:
                dead = sorted(
                    {
                        pending[l]
                        for l in remaining
                        if l in pending and now - dispatched[l] > policy.deadline
                    }
                )
            if not dead:
                if now > hard_deadline:
                    raise RuntimeError(
                        f"timed out waiting for 'done' replies "
                        f"({len(blocks) - len(remaining)}/{len(blocks)} received)"
                    )
                continue
            self._recover(dead, remaining, pending)
            # Fresh clocks for every still-outstanding block: recovery
            # itself (respawn + adopt acks) takes wall time no worker
            # should be billed for.
            now = time.monotonic()
            for l in remaining:
                dispatched[l] = now
            hard_deadline = now + self._reply_wait_seconds()
        if tracer is not None:
            tracer.add(
                "barrier.wait", "wait", t_wait, tracer.now() - t_wait,
                lane="driver", tasks=len(blocks),
            )
        pieces = [self._piece_plane.read(l) for l in blocks]
        recv_bytes = sum(p.nbytes for p in pieces)
        self._vector_bytes_received += recv_bytes
        if tracer is not None:
            tracer.event(
                "wire.recv", cat="wire", lane="driver",
                bytes=int(recv_bytes), blocks=len(blocks),
            )
        return pieces

    def map(self, fn: Callable, items: Iterable) -> list:
        # Workers speak a fixed verb set, not closures; setup-phase maps
        # run inline (the per-binding factorization already happens
        # worker-side, in parallel, during attach).
        return [fn(item) for item in items]

    def open_stream(self) -> "_ProcessStream":
        if not self._attached:
            raise RuntimeError("ProcessExecutor is not attached")
        return _ProcessStream(self)

    # -- observability ---------------------------------------------------
    def block_seconds(self) -> dict[int, float]:
        return dict(self._block_seconds)

    def wire_stats(self) -> dict:
        return {
            "attach_payload_bytes": dict(self.attach_payload_bytes),
            "vector_bytes_sent": int(self._vector_bytes_sent),
            "vector_bytes_received": int(self._vector_bytes_received),
            "serialize_seconds": float(self._serialize_seconds),
            "transmit_seconds": float(self._transmit_seconds),
            "copies_avoided": int(self._copies_avoided),
        }

    def run_cache_stats(self) -> CacheStats | None:
        if not self._attached or not self._use_cache:
            return None
        live = [w for w in self._live if self._workers[w].is_alive()]
        for w in live:
            self._task_qs[w].put(("stats", self._epoch))
        # Start from the counters already banked from retired/dead
        # workers, then add each live worker's cumulative per-binding
        # delta -- so respawn, grow, and shrink can never make the run
        # aggregate go backwards.
        merged = self._cache_retired.snapshot()
        for _, _, rank, delta in self._collect("stats", len(live)):
            merged.merge_in(delta)
            if delta is not None:
                self._cache_last[rank] = delta
        return merged

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Tear down the worker pool: idempotent, and safe after a crash.

        A worker that died mid-binding makes the polite shutdown path
        impossible (its detach reply never comes and a blocking join
        would hang), so everything here is best-effort and time-bounded:
        detach failures are swallowed, exit tickets are sent without
        waiting, and stragglers are terminated then killed.  ``close``
        never raises and may be called any number of times.
        """
        try:
            self.detach()
        except (RuntimeError, OSError):
            # A dead/hung worker cannot acknowledge the detach (worker
            # deaths and timeouts surface as RuntimeError, broken pipes
            # as OSError); the planes were already reclaimed by detach's
            # finally clause.  Anything else is a programming error and
            # propagates instead of being silently classified as a
            # teardown casualty.
            pass
        for task_q, proc in zip(self._task_qs, self._workers):
            if proc.is_alive():
                try:
                    task_q.put_nowait(("exit",))
                except Exception:  # pragma: no cover - feeder already gone
                    pass
        for proc in self._workers:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=5.0)
        for task_q in self._task_qs:
            # cancel_join_thread: a queue whose reader died may hold
            # buffered tickets; joining its feeder thread would block.
            task_q.cancel_join_thread()
            task_q.close()
        for conn in self._reply_conns:
            conn.close()
        self._workers = []
        self._task_qs = []
        self._reply_conns = []
        self._live = []
        self._attached = False


class _ProcessStream(SolveStream):
    """Out-of-order solve stream over the shm planes.

    ``submit`` writes the block's z slot and enqueues its ticket
    immediately; ``next_done`` drains the reply pipes and hands back
    pieces in finish order (copied off the plane -- the slot is live
    shared state).  No mid-stream recovery: a worker death fails the
    stream (the barrier path owns the FaultPolicy machinery).
    """

    def __init__(self, ex: "ProcessExecutor"):
        self._ex = ex
        self._ready: deque[tuple[int, np.ndarray]] = deque()
        self._inflight = 0

    def submit(self, l: int, z: np.ndarray) -> None:
        ex = self._ex
        l = int(l)
        arr = np.asarray(z, dtype=float)
        t0 = time.perf_counter()
        ex._z_plane.write(l, arr)
        ex._transmit_seconds += time.perf_counter() - t0
        ex._vector_bytes_sent += arr.nbytes
        ex._copies_avoided += arr.nbytes
        ex._task_qs[ex._owner[l]].put(("solve", ex._epoch, l))
        self._inflight += 1

    def next_done(self) -> tuple[int, np.ndarray]:
        ex = self._ex
        if not self._ready:
            if self._inflight <= 0:
                raise RuntimeError("no solve in flight")
            deadline = time.monotonic() + ex._reply_wait_seconds()
            while not self._ready:
                batch = ex._poll_replies(timeout=1.0)
                for msg in batch:
                    if msg[1] != ex._epoch:
                        continue  # straggler from an aborted binding
                    if msg[0] == "error":
                        raise RuntimeError(
                            f"runtime worker {msg[2]} failed:\n{msg[3]}"
                        )
                    if msg[0] != "done":  # pragma: no cover - protocol bug
                        raise RuntimeError(
                            f"expected 'done' reply, got {msg[0]!r}"
                        )
                    _, _, l, dt = msg
                    ex._block_seconds[l] += dt
                    piece = ex._piece_plane.read(l)
                    ex._vector_bytes_received += piece.nbytes
                    self._ready.append((l, piece))
                if self._ready:
                    break
                dead = [
                    ex._workers[w].name
                    for w in ex._live
                    if not ex._workers[w].is_alive()
                ]
                if dead:
                    raise RuntimeError(
                        f"runtime workers died mid-stream: {dead} "
                        "(pipelined dispatch does not recover)"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "process stream timed out waiting for a piece"
                    )
        self._inflight -= 1
        return self._ready.popleft()

    def close(self) -> None:
        # Drain outstanding replies so stale tickets cannot bleed into a
        # later barrier round's accounting.
        try:
            while self._inflight > 0:
                self.next_done()
        except RuntimeError:
            self._inflight = 0
        self._ready.clear()
