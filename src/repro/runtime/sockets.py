"""Socket-based distributed executor: workers on other machines over TCP.

This is the distributed-memory deployment of the :class:`Executor`
contract the ROADMAP called for -- the protocol the grid simulator
*prices* (:mod:`repro.grid`) and the process backend runs on one host,
spoken over real sockets so worker processes may live anywhere:

* **one stream per worker**, self-describing frames from
  :mod:`repro.runtime.wire`: pickle protocol-5 heads with the vector
  bytes shipped *out of band* -- raw ``memoryview`` segments via
  vectored ``sendmsg`` writes, received straight into preallocated
  per-block buffers with ``recv_into`` (``wire_protocol="zerocopy"``,
  the default; ``"pickled"`` keeps the seed's copying one-blob frames
  as a measurable baseline).  TCP gives per-worker FIFO, so a strict
  send-one/recv-one pairing per worker needs no epochs on the hot path
  (epochs still tag frames so stragglers from an aborted binding are
  discarded, exactly like the process backend);
* **only the owned band rows cross the wire at attach**: each active
  worker's spec frame carries ``A[J_l, :]`` and ``b[J_l]`` for its
  *owned* blocks only -- never the full matrix -- so total attach
  traffic is ~``1/W`` of the ship-everything scheme per worker (the
  ROADMAP's W-fold cut; asserted in the resilience test suite).
  Afterwards only vectors move: one halo vector ``z^l[H_l]`` per solve
  request (the entries of the block's local copy its coupling block
  reads; shapes fixed at attach by
  :func:`~repro.runtime.api.halo_shapes`), one piece per reply (the
  paper's coarse-grained exchange, verbatim);
* **per-worker factor caches**: each worker keeps a process-local
  :class:`~repro.direct.cache.FactorizationCache`, so re-attaching the
  same matrix skips the factorization; ``run_cache_stats`` aggregates
  the worker counters;
* **placement-aware**: a :class:`repro.schedule.Placement` pins block
  ``l`` to the plan's worker slot, keeping that worker's cache hot;
* **fault-tolerant** (:mod:`repro.runtime.resilience`): attaching with
  a :class:`~repro.runtime.resilience.FaultPolicy` arms mid-solve
  recovery.  A broken connection (peer death is immediate on TCP) or a
  breached per-request deadline (the policy's ``deadline`` becomes the
  socket timeout) marks the worker lost; its blocks are re-derived from
  the placement plan onto survivors -- same co-location group first,
  then least-loaded -- or onto a respawned replacement (owned loopback
  workers only), the adopters re-factor them through their local caches
  (``fault_stats().refactor_seconds``), and the lost round's solves are
  re-dispatched.  The same recovery arms the *attach* phase
  (transactional attach): a worker that dies before acking its binding
  has its slice re-shipped to a replacement or to survivors, instead of
  failing the run during setup.  Iterates are unaffected: a block solve
  is a pure function of ``(block, z)`` wherever it runs.

Deployment shapes:

* loopback (CI, laptops): ``SocketExecutor(workers=3)`` spawns three
  local worker processes on ephemeral 127.0.0.1 ports and connects;
* distributed: start ``python -m repro.runtime.sockets --port 5555`` on
  each machine, then ``SocketExecutor(addresses=[("hostA", 5555),
  ("hostB", 5555)])`` from the driver.  ``--crash-after N`` makes a
  worker kill itself after ``N`` solves -- chaos-testing a real fleet's
  recovery path from the worker side.

``close`` is idempotent and safe after a worker crash: exits are
fire-and-forget, sockets are torn down unconditionally, and spawned
processes are joined with a bound then terminated/killed.
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import pickle
import queue
import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.direct.cache import CacheStats, FactorizationCache
from repro.observe import estimate_clock_offset
from repro.runtime.api import Executor, SolveStream, halo_shapes, owned_rows_spec
from repro.runtime.resilience import FaultPolicy, FaultStats, reassign_orphans
from repro.runtime.wire import BufferPool, recv_frame, send_frame

__all__ = ["SocketExecutor", "serve_worker", "send_msg", "recv_msg"]

#: Seconds the driver waits on one worker reply before declaring it dead.
_REPLY_TIMEOUT = 300.0
#: Seconds allowed for the TCP connect to each worker.
_CONNECT_TIMEOUT = 20.0

#: Accepted ``wire_protocol=`` values: protocol-5 out-of-band frames
#: (the default) or the seed's copying in-band pickles (the measurable
#: baseline, see ``benchmarks/bench_wire.py``).
_WIRE_PROTOCOLS = ("zerocopy", "pickled")


def send_msg(sock: socket.socket, obj) -> int:
    """Write one control frame; returns its payload bytes.

    Control verbs (detach, trace, stats, ping, exit) are tiny and never
    pooled, so they always take the default zero-copy framing.
    """
    return send_frame(sock, obj)["payload"]


def recv_msg_sized(sock: socket.socket) -> tuple:
    """Read one frame; returns ``(obj, bytes)``.

    The byte count is the frame's payload size -- the receive-side twin
    of :func:`send_msg`'s return, used for wire accounting.
    """
    obj, info = recv_frame(sock)
    return obj, info["payload"]


def recv_msg(sock: socket.socket):
    """Read one frame."""
    return recv_msg_sized(sock)[0]


class _WorkerGone(RuntimeError):
    """A worker's stream broke (peer death, reset, or deadline breach)."""

    def __init__(self, rank: int, cause: BaseException):
        super().__init__(f"socket worker {rank} died: {cause}")
        self.rank = rank


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _serve_connection(
    conn: socket.socket, cache: FactorizationCache, *, crash_after: int | None = None
) -> bool:
    """Speak the verb protocol on one driver connection.

    Returns True when the driver asked the worker process to exit, False
    when the connection simply ended (the accept loop then waits for the
    next driver).  The factor cache outlives connections -- that is the
    re-attach economy.  ``crash_after`` hard-exits the whole process
    after that many solve replies (the worker-side chaos knob).
    """
    from repro.core.local import build_local_system

    systems: dict[int, object] = {}
    use_cache = False
    cache_before: CacheStats | None = None
    solves = 0
    tracer = None
    lane = "worker"
    # The solve path processes one frame at a time, and its z vector is
    # dead once the piece is computed, so a single pooled key suffices:
    # receive buffers rotate instead of reallocating every round.  Spec
    # frames are sent non-transient and bypass the pool (their arrays
    # stay referenced by ``systems``).
    pool = BufferPool()
    zero = True
    while True:
        t_wait = time.perf_counter()
        try:
            msg, info = recv_frame(conn, pool=pool, key="recv")
        except (ConnectionError, OSError):
            return False
        nbytes = info["payload"]
        if tracer is not None:
            tracer.add(
                "barrier.wait", "wait", t_wait,
                time.perf_counter() - t_wait, lane=lane,
            )
        kind = msg[0]
        if kind == "exit":
            return True
        epoch = msg[1]
        try:
            # Exception (not BaseException): a Ctrl-C on a CLI worker
            # must still kill it, not be serialized back to the driver.
            if kind in ("attach", "adopt"):
                # The binding frame is (verb, epoch, meta, spec-pickle):
                # worker-specific knobs ride in the small meta dict so
                # the spec bytes stay shareable across workers (the
                # driver pickles each owned-set exactly once).
                meta = msg[2]
                spec = pickle.loads(msg[3])
                zero = meta.get("wire", "zerocopy") == "zerocopy"
                if meta.get("trace"):
                    if tracer is None:
                        from repro.observe import Tracer

                        tracer = Tracer()
                    # A socket worker has no rank of its own (it is just
                    # a stream peer); the driver names its lane in the
                    # meta so merged timelines stay per-worker.
                    lane = meta.get("lane", lane)
                    cache.set_tracer(tracer, lane=lane)
                else:
                    tracer = None
                    cache.set_tracer(None)
                if kind == "attach":
                    systems = {}
                    use_cache = spec["use_cache"]
                    cache_before = cache.stats.snapshot() if use_cache else None
                else:
                    use_cache = spec["use_cache"]
                    if use_cache and cache_before is None:
                        cache_before = cache.stats.snapshot()
                if tracer is not None:
                    tracer.event(
                        "wire.recv", cat="wire", lane=lane,
                        bytes=int(nbytes), verb=kind,
                    )
                    if kind == "adopt":
                        tracer.event(
                            "adopt", cat="fault", lane=lane,
                            blocks=list(spec["owned"]),
                        )
                # Only the owned band rows ever arrive -- never the full
                # matrix (see the module docstring).
                t0 = time.perf_counter()
                for l in spec["owned"]:
                    tb = time.perf_counter()
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
                        # cache itself (miss path); only uncached builds
                        # need explicit accounting.
                        tracer.add(
                            "factor", "compute", tb,
                            time.perf_counter() - tb, lane=lane, block=l,
                        )
                dt = time.perf_counter() - t0
                if kind == "attach":
                    send_msg(conn, ("attached", epoch))
                else:
                    send_msg(conn, ("adopted", epoch, dt))
            elif kind == "solve":
                l, z = msg[2], msg[3]
                if tracer is not None:
                    tracer.event(
                        "wire.recv", cat="wire", lane=lane,
                        bytes=int(nbytes), block=l,
                    )
                t0 = time.perf_counter()
                piece = systems[l].solve_with(z)
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.add("solve", "compute", t0, dt, lane=lane, block=l)
                # The reply is transient on purpose: the driver pools its
                # receive buffers per block, and rounds overwrite rounds.
                winfo = send_frame(
                    conn,
                    ("done", epoch, l, np.asarray(piece, dtype=float), dt),
                    zero_copy=zero,
                    transient=True,
                )
                if tracer is not None:
                    tracer.add(
                        "wire.serialize", "wire", winfo["t_serialize"],
                        winfo["serialize_seconds"], lane=lane, block=l,
                    )
                    tracer.add(
                        "wire.transmit", "wire", winfo["t_transmit"],
                        winfo["transmit_seconds"], lane=lane, block=l,
                    )
                    tracer.event(
                        "wire.send", cat="wire", lane=lane,
                        bytes=int(winfo["payload"]), block=l,
                    )
                solves += 1
                if crash_after is not None and solves >= crash_after:
                    # Simulate a mid-run node failure: no goodbye frame,
                    # no cleanup -- the driver sees a broken stream.
                    os._exit(1)
            elif kind == "trace":
                batch = tracer.export_batch() if tracer is not None else []
                send_msg(conn, ("trace", epoch, batch, time.perf_counter()))
            elif kind == "stats":
                delta = (
                    cache.stats.since(cache_before)
                    if use_cache and cache_before is not None
                    else None
                )
                send_msg(conn, ("stats", epoch, delta))
            elif kind == "detach":
                systems = {}
                send_msg(conn, ("detached", epoch))
            elif kind == "ping":
                send_msg(conn, ("pong", epoch))
            else:  # pragma: no cover - protocol violation
                send_msg(conn, ("error", epoch, f"unknown verb {kind!r}"))
        except Exception:
            try:
                send_msg(conn, ("error", epoch, traceback.format_exc()))
            except OSError:  # pragma: no cover - driver already gone
                return False


def serve_worker(
    port: int = 0,
    host: str = "127.0.0.1",
    *,
    on_bound: Callable[[int], None] | None = None,
    crash_after: int | None = None,
) -> None:
    """Run one socket worker: bind, accept drivers, speak the protocol.

    Serves one driver connection at a time; when a driver disconnects
    the worker waits for the next one (its factor cache intact).  An
    ``exit`` verb shuts the worker down.  ``on_bound`` receives the
    actual port (useful with ``port=0``).  ``crash_after`` makes the
    worker hard-exit after that many solves (chaos testing).
    """
    listener = socket.create_server((host, port))
    if on_bound is not None:
        on_bound(listener.getsockname()[1])
    cache = FactorizationCache(capacity=256)
    try:
        while True:
            conn, _ = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                should_exit = _serve_connection(conn, cache, crash_after=crash_after)
            finally:
                conn.close()
            if should_exit:
                return
    finally:
        listener.close()


def _local_worker_entry(port_queue) -> None:
    """Spawn target for loopback workers (must be import-resolvable).

    Reports ``(port, pid)`` so the driver can map each connection back
    to the process it owns (the fault-injection kill path needs it).
    """
    serve_worker(
        0, "127.0.0.1", on_bound=lambda p: port_queue.put((p, os.getpid()))
    )


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


class SocketExecutor(Executor):
    """Run block solves on TCP worker processes (possibly on other hosts).

    Parameters
    ----------
    addresses:
        ``[(host, port), ...]`` of externally started workers (see
        :func:`serve_worker` / ``python -m repro.runtime.sockets``).
    workers:
        Spawn this many loopback worker processes on 127.0.0.1 instead;
        they are owned by (and die with) the executor.  At most one of
        ``addresses``/``workers`` may be given; with neither, the
        backend targets ``os.cpu_count()`` loopback workers (so
        ``backend="sockets"`` works by name, like the other backends),
        clamped at first attach to the binding's block count.
    reply_timeout:
        Seconds to wait on any single worker reply before declaring the
        worker dead (a binding's :class:`FaultPolicy` ``deadline``
        overrides this for its duration).
    start_method:
        ``multiprocessing`` start method for spawned loopback workers
        (same auto-pick rules as :class:`~repro.runtime.ProcessExecutor`).
    wire_protocol:
        ``"zerocopy"`` (default) ships vectors as out-of-band protocol-5
        buffers with pooled ``recv_into`` receives; ``"pickled"`` keeps
        the seed's copying in-band frames -- the measurable baseline for
        ``benchmarks/bench_wire.py`` and an escape hatch.
    """

    name = "sockets"

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]] | None = None,
        *,
        workers: int | None = None,
        reply_timeout: float = _REPLY_TIMEOUT,
        start_method: str | None = None,
        wire_protocol: str = "zerocopy",
    ):
        if addresses is not None and workers is not None:
            raise ValueError("give at most one of addresses= or workers=")
        if addresses is not None and not addresses:
            raise ValueError("addresses must be non-empty")
        if addresses is None and workers is None:
            workers = os.cpu_count() or 1
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        if wire_protocol not in _WIRE_PROTOCOLS:
            raise ValueError(
                f"wire_protocol must be one of {_WIRE_PROTOCOLS}, "
                f"got {wire_protocol!r}"
            )
        self.addresses = list(addresses) if addresses is not None else None
        self.workers = workers
        self.reply_timeout = reply_timeout
        self.start_method = start_method
        self.wire_protocol = wire_protocol
        self._zero = wire_protocol == "zerocopy"
        self._mp_ctx = None
        self._procs: list = []
        self._socks: list[socket.socket] = []
        self._sock_pids: list[int | None] = []
        self._io_pool: ThreadPoolExecutor | None = None
        self._owner: dict[int, int] = {}
        self._active_workers: list[int] = []
        self._lost: set[int] = set()
        self._block_seconds: dict[int, float] = {}
        self._attached = False
        self._use_cache = False
        self._epoch = 0
        self._policy: FaultPolicy | None = None
        self._fault = FaultStats()
        self._ctx: dict | None = None
        #: Per-block halo-vector shape of the binding (set at attach).
        self._z_shapes: list[tuple[int, ...]] = []
        self._placement = None
        # Fleet membership generation: bumped by attach, grow, shrink,
        # and recovery.  Lifetime-monotone (never reset), so an elastic
        # re-planner detects change with one integer compare.
        self._membership_version = 0
        # Monotonic cache accounting (per binding): counters banked from
        # retired/dead workers, each live worker's last-polled delta
        # (banked at loss so a crash cannot move the aggregate
        # backwards), and the set of workers bound this epoch (only
        # they hold current-epoch counters -- polling an idle worker
        # would read some older binding's delta).
        self._cache_retired = CacheStats()
        self._cache_last: dict[int, CacheStats] = {}
        self._bound_workers: set[int] = set()
        self._slot_of: dict[int, int] = {}
        self._pending_pids: list[int] | None = None
        #: Pickled payload bytes of the last attach, per worker rank --
        #: the observable for the band-rows-only shipping guarantee.
        self.attach_payload_bytes: dict[int, int] = {}
        # Vector wire accounting: _run_worker_tasks/_recv_reply run on
        # io-pool threads, so the counters are guarded by a lock (int +=
        # is not atomic under concurrent writers).
        self._wire_lock = threading.Lock()
        self._vector_bytes_sent = 0
        self._vector_bytes_received = 0
        self._serialize_seconds = 0.0
        self._transmit_seconds = 0.0
        self._oob_bytes = 0
        self._spec_pickles_reused = 0
        #: Spec pickle bytes per owned tuple -- one pickle per distinct
        #: owned set per binding, shared across attach and recovery.
        self._spec_cache: dict[tuple[int, ...], bytes] = {}
        #: Per-worker receive-buffer pools (driver side): pieces land in
        #: rotating preallocated buffers instead of fresh allocations.
        self._pools: dict[int, BufferPool] = {}

    # -- connection management -------------------------------------------
    def _context(self):
        # Picked at first spawn and cached (like ProcessExecutor): a
        # mid-run grow() must spawn its workers the same way the attach
        # spawned the original fleet, not re-decide based on whatever
        # threads (the io pool) exist by then.
        if self._mp_ctx is None:
            method = self.start_method
            if method is None:
                available = mp.get_all_start_methods()
                if "fork" in available and threading.active_count() == 1:
                    method = "fork"
                elif "forkserver" in available:
                    method = "forkserver"
                else:
                    method = "spawn"
            self._mp_ctx = mp.get_context(method)
        return self._mp_ctx

    def _spawn_loopback(self, count: int) -> list[tuple[str, int]]:
        """Start ``count`` owned loopback workers; returns their addresses."""
        ctx = self._context()
        port_q = ctx.Queue()
        for _ in range(count):
            rank = len(self._procs)
            proc = ctx.Process(
                target=_local_worker_entry,
                args=(port_q,),
                daemon=True,
                name=f"repro-socket-{rank}",
            )
            proc.start()
            self._procs.append(proc)
        reports = []
        deadline = time.monotonic() + _CONNECT_TIMEOUT
        while len(reports) < count:
            timeout = max(0.1, deadline - time.monotonic())
            try:
                reports.append(port_q.get(timeout=timeout))
            except queue.Empty:
                # Narrow on purpose: only the expected "no report within
                # the deadline" becomes the spawn-failure diagnosis; a
                # programming error in the queue path must propagate as
                # itself, not masquerade as a worker startup failure.
                self.close()
                raise RuntimeError(
                    "loopback socket workers failed to report their ports"
                ) from None
        reports.sort()
        self._pending_pids = [pid for _, pid in reports]
        return [("127.0.0.1", port) for port, _ in reports]

    def _connect(self, addresses, *, pids: list[int | None] | None = None) -> None:
        if pids is None:
            pids = getattr(self, "_pending_pids", None) or [None] * len(addresses)
        self._pending_pids = None
        try:
            for addr, pid in zip(addresses, pids):
                sock = socket.create_connection(addr, timeout=_CONNECT_TIMEOUT)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(self.reply_timeout)
                self._pools[len(self._socks)] = BufferPool()
                self._socks.append(sock)
                self._sock_pids.append(pid)
        except OSError as exc:
            self.close()
            raise RuntimeError(f"cannot connect to socket worker {addr}: {exc}")
        if self._io_pool is not None:
            self._io_pool.shutdown(wait=True)
        self._io_pool = ThreadPoolExecutor(
            max_workers=len(self._socks), thread_name_prefix="repro-socket-io"
        )

    def _solve_timeout(self) -> float:
        """Per-request deadline -- for *solve* replies only.

        Attach/adopt refactors and stats exchanges may legitimately take
        longer than a tight solve deadline, so they always run under the
        long protocol ``reply_timeout``; only the hot path converts a
        slow reply into a recoverable fault.
        """
        if self._policy is not None and self._policy.deadline is not None:
            return self._policy.deadline
        return self.reply_timeout

    def _live_ranks(self) -> list[int]:
        return [w for w in range(len(self._socks)) if w not in self._lost]

    def _ensure_connected(self, min_workers: int = 1, useful: int | None = None) -> list[int]:
        """Spawn/connect the worker set; returns the live worker ranks.

        ``useful`` caps the *default* owned-loopback spawn (there is no
        point paying for more worker processes than there are blocks to
        pin on them).  Lost workers (from an earlier faulty binding) are
        replaced for owned loopback sets; a fixed ``addresses`` set
        cannot grow, and the caller's plan check raises.
        """
        if not self._socks and self.addresses is not None:
            self._connect(self.addresses)
        if self.addresses is None:
            target = self.workers if useful is None else min(self.workers, useful)
            target = max(target, min_workers, 1)
            missing = target - len(self._live_ranks())
            if missing > 0:
                self._connect(self._spawn_loopback(missing))
        return self._live_ranks()

    def _recv_reply(
        self, w: int, expected_kind: str, *, key=None, deadline: float | None = None
    ) -> tuple:
        """Next current-epoch frame from worker ``w`` (stragglers dropped).

        ``key`` opts into worker ``w``'s receive-buffer pool: a solve
        reply's piece lands in a rotating preallocated buffer keyed by
        its block (only frames the worker flagged transient are pooled,
        so control replies always own their memory).  ``deadline`` is an
        *absolute* monotonic bound on getting the expected reply: it
        spans straggler frames and partial receives alike, so neither a
        trickling peer nor a backlog of stale frames can stretch one
        block's reply past the armed fault deadline.
        """
        pool = self._pools.get(w) if key is not None else None
        while True:
            try:
                msg, info = recv_frame(
                    self._socks[w], pool=pool, key=key, deadline=deadline
                )
            except (ConnectionError, OSError) as exc:
                raise _WorkerGone(w, exc) from None
            if msg[1] != self._epoch:
                continue  # straggler from an aborted binding
            if msg[0] == "error":
                raise RuntimeError(f"socket worker {w} failed:\n{msg[2]}")
            if msg[0] != expected_kind:  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"expected {expected_kind!r} from worker {w}, got {msg[0]!r}"
                )
            if msg[0] == "done":
                with self._wire_lock:
                    self._vector_bytes_received += info["payload"]
                    self._oob_bytes += info["oob_bytes"]
            return msg

    # -- binding ---------------------------------------------------------
    def _spec_bytes(self, owned: list[int]) -> bytes:
        """The pickled spec for one owned set -- pickled exactly once.

        Cached by owned tuple for the binding's lifetime: recovery
        (respawn or adoption of the same block set) reuses the
        attach-time bytes instead of re-walking the matrices.
        Worker-specific knobs (lane, trace, wire mode) ride in the
        frame's meta dict, which is what makes the payload shareable.
        """
        key = tuple(owned)
        payload = self._spec_cache.get(key)
        if payload is not None:
            self._spec_pickles_reused += 1
            return payload
        ctx = self._ctx
        t0 = time.perf_counter()
        payload = pickle.dumps(
            owned_rows_spec(
                ctx["A"], ctx["b"], ctx["sets"], ctx["solvers"], owned,
                ctx["use_cache"],
            ),
            protocol=5,
        )
        with self._wire_lock:
            self._serialize_seconds += time.perf_counter() - t0
        self._spec_cache[key] = payload
        return payload

    def _send_spec(self, verb: str, w: int, owned: list[int]) -> int:
        """Ship one binding frame to worker ``w``; returns payload bytes."""
        payload = self._spec_bytes(owned)
        meta = {
            "trace": self._tracer is not None,
            "lane": f"worker-{w}",
            "wire": self.wire_protocol,
        }
        info = send_frame(
            self._socks[w],
            (verb, self._epoch, meta, pickle.PickleBuffer(payload)),
            zero_copy=self._zero,
        )
        with self._wire_lock:
            self._serialize_seconds += info["serialize_seconds"]
            self._transmit_seconds += info["transmit_seconds"]
        return info["payload"]

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
        self._policy = fault_policy
        self._fault = FaultStats()
        self._cache_retired = CacheStats()
        self._cache_last = {}
        self._membership_version += 1
        self._placement = placement
        live = self._ensure_connected(
            min_workers=placement.nworkers if placement is not None else 1,
            useful=L,
        )
        if not live:
            raise RuntimeError(
                "no live socket workers to attach to (the whole fixed "
                "address set was lost); recreate the executor"
            )
        for w in live:
            self._socks[w].settimeout(self.reply_timeout)
        if placement is not None:
            if placement.nworkers > len(live):
                raise ValueError(
                    f"placement schedules {placement.nworkers} workers but "
                    f"only {len(live)} socket workers are connected (fixed "
                    "address sets cannot grow)"
                )
            # Plan slot i is served by the i-th live connection.
            slot_rank = {i: live[i] for i in range(placement.nworkers)}
            owner = {l: slot_rank[int(placement.assignment[l])] for l in range(L)}
            self._slot_of = {rank: slot for slot, rank in slot_rank.items()}
        else:
            owner = {l: live[l % len(live)] for l in range(L)}
            self._slot_of = {}
        self._owner = owner
        self._use_cache = cache is not None
        self._epoch += 1
        self._ctx = {
            "A": csr,
            "b": b,
            "sets": sets_list,
            "solvers": solvers,
            "use_cache": self._use_cache,
        }
        self._z_shapes = halo_shapes(csr, b, sets_list)
        # Each active worker receives only its owned band rows (and the
        # matching b entries) -- attach traffic is ~1/W of the matrix per
        # worker instead of W full copies.
        active = sorted({owner[l] for l in range(L)})
        self._bound_workers = set(active)
        self.attach_payload_bytes = {}
        self._spec_cache = {}
        self._spec_pickles_reused = 0
        for pool in self._pools.values():
            pool.clear()
        with self._wire_lock:
            self._vector_bytes_sent = 0
            self._vector_bytes_received = 0
            self._serialize_seconds = 0.0
            self._transmit_seconds = 0.0
            self._oob_bytes = 0
        # Transactional attach: without a policy a worker death still
        # fails fast (there is no half-bound binding the caller could
        # use, and the corpse is marked so the *next* attach replaces or
        # maps around it); with a FaultPolicy the lost worker's blocks
        # are re-homed through the same recovery path a mid-solve death
        # takes, and the binding completes.
        failures: dict[int, list] = {}
        pending: list[int] = []
        for w in active:
            owned = [l for l in range(L) if owner[l] == w]
            try:
                self.attach_payload_bytes[w] = self._send_spec("attach", w, owned)
                pending.append(w)
            except OSError as exc:
                if fault_policy is None:
                    self._mark_lost_at_attach(w)
                    raise RuntimeError(
                        f"socket worker {w} died during attach: {exc}"
                    )
                failures[w] = []
        for w in pending:
            try:
                self._recv_reply(w, "attached")
            except _WorkerGone as exc:
                if fault_policy is None:
                    self._mark_lost_at_attach(exc.rank)
                    raise
                failures[exc.rank] = []
        if failures:
            self._recover(failures)
        self._active_workers = sorted(set(self._owner.values()))
        self._block_seconds = {l: 0.0 for l in range(L)}
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        # Bump the epoch so straggler replies from an aborted solve round
        # are discarded instead of tripping the detached-reply check.
        self._epoch += 1
        self._collect_trace()
        try:
            # Best-effort per worker: detach runs in drivers' finally
            # blocks, so a *dead peer* must not raise here and replace the
            # informative original failure (the broken connection will
            # surface on the next attach anyway).  Only death-shaped
            # failures (broken streams, _WorkerGone) are swallowed:
            # a worker-reported error frame or a protocol violation is a
            # real bug and propagates instead of being misclassified as
            # an expected teardown casualty.
            for w in self._live_ranks():
                try:
                    self._socks[w].settimeout(self.reply_timeout)
                    send_msg(self._socks[w], ("detach", self._epoch))
                    self._recv_reply(w, "detached")
                except (OSError, _WorkerGone):
                    continue
        finally:
            self._attached = False
            self._active_workers = []
            self._ctx = None
            self._placement = None

    @property
    def nblocks(self) -> int:
        return len(self._owner) if self._attached else 0

    def _collect_trace(self) -> None:
        """Pull worker-recorded spans onto the driver timeline.

        Runs at detach (after the epoch bump, before the detach verbs) so
        every worker's whole binding history arrives in one batch.  Each
        worker's clock is re-based with a Cristian midpoint estimate from
        the trace round-trip.  Best-effort per worker: a dead peer loses
        its spans but can never wedge detach (the broken stream will
        surface on the next attach anyway).
        """
        tracer = self._tracer
        if tracer is None:
            return
        for w in self._live_ranks():
            try:
                self._socks[w].settimeout(self.reply_timeout)
                t_send = tracer.now()
                send_msg(self._socks[w], ("trace", self._epoch))
                msg = self._recv_reply(w, "trace")
                t_recv = tracer.now()
            except (OSError, _WorkerGone):
                continue
            batch, worker_now = msg[2], msg[3]
            offset = estimate_clock_offset(t_send, worker_now, t_recv)
            tracer.ingest(batch, clock_offset=offset)

    def _mark_lost_at_attach(self, rank: int) -> None:
        self._lost.add(rank)
        try:
            self._socks[rank].close()
        except OSError:  # pragma: no cover - already closed
            pass

    # -- fault injection / recovery --------------------------------------
    def alive_workers(self) -> list[int]:
        """Ranks not yet declared lost.  The chaos victim pool."""
        return self._live_ranks()

    def kill_worker(self, rank: int) -> bool:
        """Hard-kill worker ``rank``.  The chaos hook.

        An owned loopback worker's process is SIGKILLed; an external
        worker cannot be killed remotely, so its *connection* is severed
        instead (the observable failure is identical driver-side).
        Recovery is not triggered here -- the next solve round finds the
        broken stream, exactly as a real mid-run crash would surface.
        """
        if not (0 <= rank < len(self._socks)) or rank in self._lost:
            return False
        pid = self._sock_pids[rank]
        proc = next((p for p in self._procs if p.pid == pid), None) if pid else None
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=10.0)
            return True
        try:
            self._socks[rank].shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._socks[rank].close()
        return True

    def fault_stats(self) -> FaultStats:
        return self._fault.snapshot()

    # -- elastic membership ----------------------------------------------
    def membership_version(self) -> int:
        return self._membership_version

    def owner_map(self) -> dict:
        return dict(self._owner)

    def grow(self, workers=1) -> list[int]:
        """Add workers to the live fleet; returns their new ranks.

        ``workers`` is an int count (owned loopback workers are spawned)
        or a list of ``(host, port)`` addresses of externally started
        workers (see :func:`serve_worker`) -- the only way to grow a
        fixed ``addresses=`` fleet, which has no processes to spawn.
        New workers join idle at brand-new ranks (a rank is never
        reused); route blocks onto them with :meth:`migrate`.
        """
        if not self._attached:
            raise RuntimeError("SocketExecutor is not attached")
        first_new = len(self._socks)
        if isinstance(workers, int):
            if workers <= 0:
                return []
            if self.addresses is not None:
                raise ValueError(
                    "a fixed address set cannot grow by count; pass the "
                    "new workers' (host, port) addresses"
                )
            self._connect(self._spawn_loopback(workers))
        else:
            addrs = [(str(h), int(p)) for h, p in workers]
            if not addrs:
                return []
            self._connect(addrs, pids=[None] * len(addrs))
            if self.addresses is not None:
                self.addresses.extend(addrs)
        added = list(range(first_new, len(self._socks)))
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

        ``workers`` is an explicit list of ranks or an int count (the
        highest-ranked live workers are chosen).  Retirement is
        scheduling, not fault: the retirees' cache counters are banked
        before they go (``run_cache_stats`` stays monotonic), their
        blocks migrate to the deterministic least-loaded survivors via
        ``adopt``, then each retiree is disconnected -- owned loopback
        workers get the terminal ``exit`` verb, external workers just
        lose this driver's connection (their accept loop survives).
        Must be called at a quiescent round boundary.  Returns the
        ranks actually retired.
        """
        if not self._attached:
            raise RuntimeError("SocketExecutor is not attached")
        alive = self._live_ranks()
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
        # Final cache poll before the retirees disconnect: their
        # per-binding delta moves into the retired accumulator.
        if self._use_cache:
            polled = [w for w in victims if w in self._bound_workers]
            for w in polled:
                self._socks[w].settimeout(self.reply_timeout)
                send_msg(self._socks[w], ("stats", self._epoch))
            for w in polled:
                _, _, delta = self._recv_reply(w, "stats")
                self._cache_retired.merge_in(delta)
                self._cache_last.pop(w, None)
        orphans = sorted(l for l, w in self._owner.items() if w in set(victims))
        new_owner = reassign_orphans(orphans, self._owner, survivors)
        self._dispatch_migration(new_owner)
        owned = self.addresses is None
        for w in victims:
            try:
                if owned:
                    self._socks[w].settimeout(2.0)
                    send_msg(self._socks[w], ("exit",))
                self._socks[w].shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._socks[w].close()
            # Lost-set membership excludes the rank from liveness; the
            # fault counters are untouched (this is not a failure).
            self._lost.add(w)
            self._bound_workers.discard(w)
        if owned:
            for w in victims:
                pid = self._sock_pids[w]
                proc = (
                    next((p for p in self._procs if p.pid == pid), None)
                    if pid else None
                )
                if proc is not None:
                    proc.join(timeout=10.0)
                    if proc.is_alive():  # pragma: no cover - stuck worker
                        proc.kill()
                        proc.join(timeout=5.0)
        self._active_workers = sorted(set(self._owner.values()))
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

        Only entries that move an existing block to a *different* live
        worker are shipped; each adopter re-factors its new blocks
        through its local cache via ``adopt``.  Returns the number of
        blocks moved.
        """
        if not self._attached:
            raise RuntimeError("SocketExecutor is not attached")
        alive = set(self._live_ranks())
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
        """Ship ``adopt`` frames for a planned (non-fault) re-homing.

        The elastic counterpart of :meth:`_recover`'s adoption leg: same
        verb, same owned-rows spec bytes, but billed to the migration
        counters (``blocks_migrated`` / ``migration_seconds``) instead
        of the fault ones -- nothing was lost, the next dispatch simply
        lands elsewhere.
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
            # The refactor may exceed a tight solve deadline: run it
            # under the long protocol timeout, like recovery adoption.
            self._socks[w].settimeout(self.reply_timeout)
            self._send_spec("adopt", w, sorted(owned))
        for w in sorted(by_adopter):
            msg = self._recv_reply(w, "adopted")
            self._fault.migration_seconds += msg[2]
        self._owner.update(moved)
        self._bound_workers.update(by_adopter)
        self._active_workers = sorted(set(self._owner.values()))
        self._fault.blocks_migrated += len(moved)
        if self._tracer is not None:
            self._tracer.event(
                "elastic.migrate", cat="elastic", lane="driver",
                blocks=len(moved), adopters=sorted(by_adopter),
            )
        return len(moved)

    def _adoption_candidates(self, dead_rank: int, live: list[int]) -> list[int]:
        """Candidate adopters, re-derived from the placement plan.

        With a plan, survivors in the dead worker's co-location group are
        preferred (the orphan's exchanges stay on the cheap local links);
        the shared least-loaded/lowest-rank rule then picks within them.
        """
        if self._placement is not None:
            plan = self._placement
            slot_of = self._slot_of  # attach-time rank -> plan slot
            dead_slot = slot_of.get(dead_rank)
            if dead_slot is not None:
                group = plan.workers[dead_slot].group
                same = [
                    r for r in live
                    if slot_of.get(r) is not None
                    and plan.workers[slot_of[r]].group == group
                ]
                if same:
                    return same
        return live

    def _recover(self, failures: dict[int, list]) -> None:
        """Mark the failed workers lost and re-home their blocks."""
        policy = self._policy
        tracer = self._tracer
        for w in sorted(failures):
            if w in self._lost:
                continue
            self._lost.add(w)
            self._fault.workers_lost += 1
            # A dead worker can no longer answer a stats poll: bank its
            # last-polled cache delta so the aggregate stays monotonic.
            self._cache_retired.merge_in(self._cache_last.pop(w, None))
            self._bound_workers.discard(w)
            if tracer is not None:
                tracer.event("worker.lost", cat="fault", lane="driver", worker=w)
            pid = self._sock_pids[w]
            proc = next((p for p in self._procs if p.pid == pid), None) if pid else None
            if proc is not None and proc.is_alive():
                proc.kill()  # a deadline breach: the worker is hung, not dead
                proc.join(timeout=10.0)
            try:
                self._socks[w].shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._socks[w].close()
        if (
            policy.max_worker_losses is not None
            and self._fault.workers_lost > policy.max_worker_losses
        ):
            raise RuntimeError(
                f"fault policy exhausted: {self._fault.workers_lost} workers "
                f"lost (max {policy.max_worker_losses})"
            )
        dead_set = set(failures)
        orphans = sorted(l for l, w in self._owner.items() if w in dead_set)
        new_owner: dict[int, int] = {}
        if policy.respawn and self.addresses is None:
            first_new = len(self._socks)
            self._connect(self._spawn_loopback(len(dead_set)))
            replacement = dict(zip(sorted(dead_set), range(first_new, len(self._socks))))
            self._fault.respawns += len(dead_set)
            if tracer is not None:
                for old, new in replacement.items():
                    tracer.event(
                        "respawn", cat="fault", lane="driver",
                        worker=new, replaces=old,
                    )
            for l in orphans:
                new_owner[l] = replacement[self._owner[l]]
        else:
            live = self._live_ranks()
            new_owner = reassign_orphans(
                orphans, self._owner, live,
                candidates_for=lambda l: self._adoption_candidates(
                    self._owner[l], live
                ),
            )
        self._fault.blocks_requeued += len(orphans)
        by_adopter: dict[int, list[int]] = {}
        for l in orphans:
            by_adopter.setdefault(new_owner[l], []).append(l)
        for w, owned in sorted(by_adopter.items()):
            # The adoption refactor may legitimately exceed a tight solve
            # deadline: run it under the long protocol timeout.  The spec
            # bytes come from the binding's pickle cache: a respawned
            # replacement (same owned set) ships without re-pickling.
            self._socks[w].settimeout(self.reply_timeout)
            self._send_spec("adopt", w, owned)
        for w in sorted(by_adopter):
            msg = self._recv_reply(w, "adopted")
            self._fault.refactor_seconds += msg[2]
        self._owner.update(new_owner)
        self._bound_workers.update(by_adopter)
        self._active_workers = sorted(set(self._owner.values()))
        self._membership_version += 1

    # -- solving ---------------------------------------------------------
    def _run_worker_tasks(
        self, w: int, tasks: list[tuple[int, np.ndarray]]
    ) -> tuple[list[tuple[int, np.ndarray, float]], list, _WorkerGone | None]:
        """Strict send-one/recv-one pairing on worker ``w``'s stream.

        The pairing can never deadlock (at most one request and one
        reply in flight per stream) and keeps the per-worker solve order
        deterministic.  Returns ``(done, undone, error)``: a broken
        stream ends the batch early instead of raising, so the caller
        can recover the undone tail elsewhere.  Worker-reported kernel
        errors still raise.
        """
        done: list[tuple[int, np.ndarray, float]] = []
        timeout = self._solve_timeout()
        for i, (l, z) in enumerate(tasks):
            try:
                # Re-arm the base timeout per task: a deadline-bounded
                # receive below may leave the socket with whatever sliver
                # of time remained, and the next send must not inherit it.
                self._socks[w].settimeout(timeout)
            except OSError as exc:
                # The stream is already broken: the rest of the batch is
                # undone and the caller's recovery owns the diagnosis.
                return done, tasks[i:], _WorkerGone(w, exc)
            try:
                # A send to a dead peer is a worker death exactly like a
                # failed recv (whether it surfaces here or on the reply is
                # a TCP timing accident), so both convert to _WorkerGone
                # and route through recovery.  Worker-reported kernel
                # error frames raise out of _recv_reply as RuntimeError
                # and are deliberately NOT caught here: a broken kernel
                # must surface to the caller, never be misread as a
                # worker loss and "recovered" into an infinite refactor
                # loop.
                info = send_frame(
                    self._socks[w],
                    ("solve", self._epoch, l, z),
                    zero_copy=self._zero,
                    transient=True,
                )
                with self._wire_lock:
                    self._vector_bytes_sent += info["payload"]
                    self._serialize_seconds += info["serialize_seconds"]
                    self._transmit_seconds += info["transmit_seconds"]
                    self._oob_bytes += info["oob_bytes"]
            except (ConnectionError, OSError) as exc:
                return done, tasks[i:], _WorkerGone(w, exc)
            try:
                # Per-block deadline: absolute from this block's dispatch,
                # so stragglers and trickled chunks cannot extend it.
                _, _, rl, piece, dt = self._recv_reply(
                    w, "done", key=l, deadline=time.monotonic() + timeout
                )
            except _WorkerGone as exc:
                return done, tasks[i:], exc
            done.append((rl, piece, dt))
        return done, [], None

    def _frame_z(self, l: int, z) -> np.ndarray:
        """Block ``l``'s halo vector as sent, checked against its halo size.

        Only the leading (halo) dimension is fixed: a frame, unlike a
        shm slot, may carry a batch of any width.
        """
        arr = np.asarray(z, dtype=float)
        if arr.shape[:1] != self._z_shapes[l][:1]:
            raise ValueError(
                f"block {l} takes a halo vector of {self._z_shapes[l][0]} "
                f"rows, got shape {arr.shape}"
            )
        return arr

    def solve_blocks(
        self, tasks: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        if not self._attached:
            raise RuntimeError("SocketExecutor is not attached")
        blocks = [l for l, _ in tasks]
        if len(set(blocks)) != len(blocks):
            raise ValueError("duplicate block in one solve_blocks call")
        pieces: dict[int, np.ndarray] = {}
        tracer = self._tracer
        if tracer is not None:
            with self._wire_lock:
                sent0, recv0 = self._vector_bytes_sent, self._vector_bytes_received
                ser0, tx0 = self._serialize_seconds, self._transmit_seconds
            t_wait = tracer.now()
        todo = [(l, self._frame_z(l, z)) for l, z in tasks]
        while todo:
            by_worker: dict[int, list[tuple[int, np.ndarray]]] = {}
            for l, z in todo:
                by_worker.setdefault(self._owner[l], []).append((l, z))
            futures = {
                w: self._io_pool.submit(self._run_worker_tasks, w, wtasks)
                for w, wtasks in by_worker.items()
            }
            failures: dict[int, list] = {}
            errors: list[Exception] = []
            for w, fut in futures.items():
                try:
                    done, undone, gone = fut.result()
                except Exception as exc:  # kernel error frames raise through
                    errors.append(exc)
                    continue
                for l, piece, dt in done:
                    pieces[l] = piece
                    self._block_seconds[l] += dt
                if gone is not None:
                    failures[w] = undone
            if errors:
                raise errors[0]
            if not failures:
                break
            if self._policy is None:
                raise RuntimeError(
                    f"socket workers died mid-solve: {sorted(failures)} "
                    "(attach with a FaultPolicy to recover)"
                )
            self._recover(failures)
            todo = [t for _, undone in sorted(failures.items()) for t in undone]
        if tracer is not None:
            # One aggregated wait span + wire event pair per round on the
            # driver lane; the per-block detail lives on the worker lanes.
            tracer.add(
                "barrier.wait", "wait", t_wait, tracer.now() - t_wait,
                lane="driver", tasks=len(tasks),
            )
            with self._wire_lock:
                sent = self._vector_bytes_sent - sent0
                received = self._vector_bytes_received - recv0
                ser = self._serialize_seconds - ser0
                tx = self._transmit_seconds - tx0
            # Aggregated driver-lane split of the round's send cost:
            # serialize (pickling) vs transmit (socket writes).  The
            # per-frame detail lives on the worker lanes.
            tracer.add(
                "wire.serialize", "wire", t_wait, ser, lane="driver", bytes=sent,
            )
            tracer.add(
                "wire.transmit", "wire", t_wait, tx, lane="driver", bytes=sent,
            )
            tracer.event("wire.send", cat="wire", lane="driver", bytes=sent)
            tracer.event("wire.recv", cat="wire", lane="driver", bytes=received)
        return [pieces[l] for l in blocks]

    def map(self, fn: Callable, items: Iterable) -> list:
        # Socket workers speak a fixed verb set, not closures; setup-phase
        # maps run inline (worker-side factorization already parallelises
        # the attach across machines).
        return [fn(item) for item in items]

    def open_stream(self) -> "_SocketStream":
        if not self._attached:
            raise RuntimeError("SocketExecutor is not attached")
        return _SocketStream(self)

    # -- observability ---------------------------------------------------
    def block_seconds(self) -> dict[int, float]:
        return dict(self._block_seconds)

    def wire_stats(self) -> dict:
        with self._wire_lock:
            return {
                "attach_payload_bytes": dict(self.attach_payload_bytes),
                "vector_bytes_sent": self._vector_bytes_sent,
                "vector_bytes_received": self._vector_bytes_received,
                "serialize_seconds": self._serialize_seconds,
                "transmit_seconds": self._transmit_seconds,
                # Bytes that crossed the wire out of band -- each one a
                # byte that skipped the pickle/concat/unpickle copies the
                # seed protocol paid (both directions, driver side).
                "copies_avoided": self._oob_bytes,
                "spec_pickles_reused": self._spec_pickles_reused,
                "wire_protocol": self.wire_protocol,
            }

    def run_cache_stats(self) -> CacheStats | None:
        if not self._attached or not self._use_cache:
            return None
        # Only workers bound this epoch hold current-epoch counters (an
        # idle worker's delta would describe some older binding) -- and
        # a bound worker stays polled even after migration empties it,
        # so its hits never vanish from the aggregate.
        polled = sorted(w for w in self._bound_workers if w not in self._lost)
        for w in polled:
            self._socks[w].settimeout(self.reply_timeout)
            send_msg(self._socks[w], ("stats", self._epoch))
        # Start from the counters banked from retired/dead workers, then
        # add each live worker's cumulative per-binding delta -- respawn,
        # grow, and shrink can never move the aggregate backwards.
        merged = self._cache_retired.snapshot()
        for w in polled:
            _, _, delta = self._recv_reply(w, "stats")
            merged.merge_in(delta)
            if delta is not None:
                self._cache_last[w] = delta
        return merged

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Tear everything down: idempotent, and safe after a worker crash.

        Only *owned* loopback workers (spawned by this executor) receive
        the terminal ``exit`` verb; externally started workers
        (``addresses=``) are merely disconnected -- their accept loop
        waits for the next driver, so a shared remote fleet survives one
        driver's teardown.  Exit frames are fire-and-forget (a dead peer
        just errors the send), sockets are closed unconditionally, and
        spawned workers are joined with a bound then terminated/killed.
        The executor may be re-attached afterwards: the next ``attach``
        spawns/connects a fresh worker set.
        """
        self._attached = False
        owned = self.addresses is None
        for w, sock in enumerate(self._socks):
            if owned and w not in self._lost:
                try:
                    sock.settimeout(2.0)
                    send_msg(sock, ("exit",))
                except OSError:
                    pass
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._socks = []
        self._sock_pids = []
        if self._io_pool is not None:
            self._io_pool.shutdown(wait=True)
            self._io_pool = None
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=5.0)
        self._procs = []
        self._owner = {}
        self._active_workers = []
        self._lost = set()
        self._block_seconds = {}
        self._ctx = None
        self._placement = None
        self._pools = {}
        self._spec_cache = {}
        self._cache_last = {}
        self._bound_workers = set()


class _SocketStream(SolveStream):
    """Out-of-order solve stream over the socket fleet.

    The driver thread sends solve frames the moment a block's gates
    open; one receive loop per active worker (on the executor's io
    pool) collects that worker's replies in stream FIFO order and feeds
    a shared completion queue.  Each loop only touches its socket when
    a reply is actually due (a ``want`` queue of dispatched blocks), so
    the per-request deadline keeps its meaning.  No mid-stream
    recovery: a worker death fails the stream -- the barrier path owns
    the FaultPolicy machinery.
    """

    def __init__(self, ex: "SocketExecutor"):
        self._ex = ex
        self._done_q: queue.Queue = queue.Queue()
        self._want: dict[int, queue.Queue] = {}
        self._futures = []
        self._inflight = 0
        timeout = ex._solve_timeout()
        for w in ex._active_workers:
            ex._socks[w].settimeout(timeout)
            q: queue.Queue = queue.Queue()
            self._want[w] = q
            self._futures.append(ex._io_pool.submit(self._recv_loop, w, q))

    def _recv_loop(self, w: int, want: queue.Queue) -> None:
        ex = self._ex
        while True:
            l = want.get()
            if l is None:
                return
            try:
                _, _, rl, piece, dt = ex._recv_reply(w, "done", key=l)
            except Exception as exc:
                self._done_q.put(("error", exc))
                return
            # Per-block keys: each block belongs to exactly one worker,
            # so only this loop writes this entry.
            ex._block_seconds[rl] += dt
            self._done_q.put(("done", (rl, piece)))

    def submit(self, l: int, z) -> None:
        l = int(l)
        ex = self._ex
        w = ex._owner[l]
        z = ex._frame_z(l, z)
        try:
            info = send_frame(
                ex._socks[w],
                ("solve", ex._epoch, l, z),
                zero_copy=ex._zero,
                transient=True,
            )
        except (ConnectionError, OSError) as exc:
            raise RuntimeError(
                f"socket worker {w} died mid-stream: {exc}"
            ) from exc
        with ex._wire_lock:
            ex._vector_bytes_sent += info["payload"]
            ex._serialize_seconds += info["serialize_seconds"]
            ex._transmit_seconds += info["transmit_seconds"]
            ex._oob_bytes += info["oob_bytes"]
        self._want[w].put(l)
        self._inflight += 1

    def next_done(self) -> tuple[int, np.ndarray]:
        if self._inflight <= 0:
            raise RuntimeError("no solve in flight")
        try:
            kind, payload = self._done_q.get(
                timeout=self._ex._solve_timeout() + 30.0
            )
        except queue.Empty:
            raise RuntimeError(
                "socket stream timed out waiting for a piece"
            ) from None
        if kind == "error":
            raise payload
        self._inflight -= 1
        return payload

    def close(self) -> None:
        # Drain outstanding replies first so the streams stay
        # frame-aligned for any later barrier round, then stop the
        # receive loops with their sentinels.
        try:
            while self._inflight > 0:
                self.next_done()
        except Exception:
            self._inflight = 0
        for q in self._want.values():
            q.put(None)
        for fut in self._futures:
            fut.exception()
        self._want = {}
        self._futures = []


def main(argv: list[str] | None = None) -> int:
    """CLI: run one socket worker (``python -m repro.runtime.sockets``)."""
    parser = argparse.ArgumentParser(
        prog="repro.runtime.sockets",
        description="Serve one multisplitting socket worker.",
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address")
    parser.add_argument("--port", type=int, default=5555, help="bind port")
    parser.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="N",
        help="chaos knob: hard-exit the worker after N solve replies, "
        "simulating a mid-run node failure (for drills against a real "
        "fleet's FaultPolicy recovery)",
    )
    args = parser.parse_args(argv)
    chaos = (
        f" (chaos: crash after {args.crash_after} solves)"
        if args.crash_after is not None
        else ""
    )
    print(f"[pid {os.getpid()}] serving multisplitting worker on "
          f"{args.host}:{args.port}{chaos}", flush=True)
    serve_worker(
        args.port, args.host, on_bound=lambda p: None, crash_after=args.crash_after
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual deployment entry
    raise SystemExit(main())
