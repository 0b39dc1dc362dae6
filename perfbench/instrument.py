"""Benchmark-side spans around calls into the program's public entry points.

Nothing here reaches inside ``repro``: every span is recorded by a
delegating object the benchmark hands to the program through a public
parameter --

* :class:`TimedExecutor`, an :class:`repro.runtime.Executor` passed as
  ``backend=``, times ``attach`` / ``solve_round`` / ``detach`` and
  notes what the driver reads back (``block_seconds``, ``wire_stats``,
  ``run_cache_stats``, ``fault_stats``);
* :class:`TimedKernel`, a :class:`repro.direct.base.DirectSolver` passed
  as ``direct_solver=``, times ``factor`` (in-process workloads only:
  fleet workers factor in their own processes);
* :class:`TimedPool`, a :class:`repro.serve.SolverPool`, times
  ``solve_batch``.

Spans live in memory (:class:`Spans`) and are written once, at the end
of the run.  Each span records its name, start, end, parent span,
request id and lane: the thread it ran on, or the asyncio task of a
concurrent request.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.direct.base import DirectSolver
from repro.runtime import Executor
from repro.serve import SolverPool

NAME, START, END, PARENT, REQUEST, LANE, NOTES = range(7)


class Spans:
    """In-memory span store; records nothing while :attr:`active` is False."""

    def __init__(self) -> None:
        self.active = False
        self.records: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, start: float, parent: int | None, request, lane=None) -> int:
        lane = threading.current_thread().name if lane is None else lane
        record = [name, start, None, parent, request, lane, None]
        with self._lock:
            self.records.append(record)
            return len(self.records) - 1

    @contextmanager
    def span(self, name: str, request=None):
        """Time the enclosed block as a child of this thread's open span."""
        if not self.active:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.records[parent][REQUEST]
        index = self._open(name, time.perf_counter(), parent, request)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.records[index][END] = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: int | None, request, lane) -> None:
        """Record a finished span whose parent and lane are given explicitly.

        Used for spans that overlap their siblings on one thread (the
        open loop's concurrent ``ServeGateway.submit`` calls, one asyncio
        task each), which a per-thread stack cannot nest.
        """
        if self.active:
            self.records[self._open(name, start, parent, request, lane)][END] = end

    def note(self, key: str, value) -> None:
        """Attach a value to this thread's innermost open span."""
        stack = self._stack() if self.active else None
        if stack:
            record = self.records[stack[-1]]
            if record[NOTES] is None:
                record[NOTES] = {}
            record[NOTES][key] = value

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(records: list[list]) -> dict[int, float]:
    """Span index -> its duration minus the time its children cover.

    Children on another lane (a pool thread, a concurrent request) run
    beside their parent rather than inside its time, so only children on
    the parent's own lane are subtracted.
    """
    kids = child_index(records)
    out = {}
    for i, r in enumerate(records):
        inner = [
            (max(records[k][START], r[START]), min(records[k][END], r[END]))
            for k in kids.get(i, ())
            if records[k][LANE] == r[LANE]
        ]
        out[i] = (r[END] - r[START]) - covered((a, b) for a, b in inner if b > a)
    return out


def child_index(records: list[list]) -> dict[int, list[int]]:
    """Parent span index -> its children's indices, in recording order."""
    kids: dict[int, list[int]] = {}
    for i, r in enumerate(records):
        if r[PARENT] is not None:
            kids.setdefault(r[PARENT], []).append(i)
    return kids


class TimedKernel(DirectSolver):
    """Delegating direct solver: one ``direct.factor`` span per factorization.

    The wrapped kernel's factorization is returned untouched, so solves
    are bit-identical to the bare kernel.  The cache keys a kernel by its
    attributes; ``spans`` is one object for the whole run, so the key is
    stable across solves.
    """

    def __init__(self, inner: DirectSolver, spans: Spans):
        self.inner = inner
        self.spans = spans
        self.name = inner.name

    def factor(self, A):
        with self.spans.span("direct.factor"):
            return self.inner.factor(A)


class TimedExecutor(Executor):
    """Delegating executor: spans around the contract's phase calls.

    It forwards what the sequential barrier driver calls; the wrapped
    executor does the work.

    ``make_inner`` builds the wrapped executor lazily, once per calling
    thread (the serve pool drives one binding per worker thread, which a
    single executor could not hold), so one instance can be shared by a
    thread pool the way a backend *name* is.
    """

    def __init__(self, make_inner, spans: Spans):
        self._make_inner = make_inner
        self._spans = spans
        self._local = threading.local()
        self._all: list[Executor] = []
        self._all_lock = threading.Lock()
        self.name = "timed"

    @property
    def inner(self) -> Executor:
        ex = getattr(self._local, "ex", None)
        if ex is None:
            ex = self._local.ex = self._make_inner()
            self.name = ex.name
            with self._all_lock:
                self._all.append(ex)
        return ex

    def set_tracer(self, tracer) -> None:
        self.inner.set_tracer(tracer)

    def attach(self, A, b, sets, solver, **kwargs) -> None:
        inner = self.inner
        with self._spans.span("runtime.attach"):
            inner.attach(A, b, sets, solver, **kwargs)
        self._spans.note("nblocks", len(sets))

    def detach(self) -> None:
        with self._spans.span("runtime.detach"):
            self.inner.detach()

    def solve_blocks(self, tasks):
        with self._spans.span("runtime.solve_blocks"):
            return self.inner.solve_blocks(tasks)

    def solve_round(self, Z):
        with self._spans.span("runtime.solve_round"):
            return self.inner.solve_round(Z)

    def map(self, fn, items):
        return self.inner.map(fn, items)

    def block_seconds(self):
        out = self.inner.block_seconds()
        self._spans.note("block_seconds", out)
        return out

    def run_cache_stats(self):
        out = self.inner.run_cache_stats()
        self._spans.note("cache", out)
        return out

    def fault_stats(self):
        out = self.inner.fault_stats()
        self._spans.note("faults", out)
        return out

    def wire_stats(self):
        out = self.inner.wire_stats()
        self._spans.note("wire", out)
        return out

    def close(self) -> None:
        with self._all_lock:
            owned, self._all = self._all, []
        self._local = threading.local()
        for ex in owned:
            ex.close()


class TimedPool(SolverPool):
    """Solver pool that times every ``solve_batch`` (traced or not).

    The wall and CPU durations are the serve workload's solve samples,
    so they are kept in both modes; the span is recorded only when
    tracing.  The CPU time is the calling thread's: the pool runs each
    batch, inline backend included, on one of its threads.  A served
    column is a view into its batch's solution block, so the block's
    identity maps each reply back to its batch.  No block is held here:
    that would keep every reply's memory alive for the whole run.
    """

    def __init__(self, spans: Spans, **kwargs):
        super().__init__(**kwargs)
        self.spans = spans
        #: ``(start, end, columns, CPU seconds)`` of every batch, in completion order.
        self.batches: list[tuple] = []
        self._by_block: dict[int, int] = {}
        self._batch_lock = threading.Lock()
        self._seq = 0

    def solve_batch(self, key, B):
        with self._batch_lock:
            self._seq += 1
            batch = f"batch-{self._seq}"
        c0, t0 = time.thread_time(), time.perf_counter()
        with self.spans.span("pool.solve_batch", request=batch):
            X = super().solve_batch(key, B)
        t1 = time.perf_counter()
        cpu = time.thread_time() - c0
        owner = X if X.base is None else X.base
        with self._batch_lock:
            self._by_block[id(owner)] = len(self.batches)
            self.batches.append((t0, t1, B.shape[1], cpu))
        return X

    def batch_of(self, column) -> tuple:
        """The :attr:`batches` row of the batch that produced ``column``.

        Call it while ``column`` is alive: its block's id is unique only
        as long as the block lives.
        """
        owner = column if column.base is None else column.base
        return self.batches[self._by_block[id(owner)]]
