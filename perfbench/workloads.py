"""The workloads: inputs from the seed, set-up, requests, teardown.

Common solver settings: the paper's stopping tolerance ``1e-8``, the
``scipy`` kernel, ownership weighting, uniform bands (sequential mode
with no cluster and no placement) and ``mode="sequential"``.

The benchmark owns its inputs: matrices come from
``repro.matrices.diagonally_dominant``, right-hand sides are
manufactured here from a seeded ``x_true``, and the solver only ever
sees ``(A, b)``.  ``--seed`` drives the right-hand sides, the arrival
times and the tenant of each request.  The matrices are the same for
every seed (:data:`MATRIX_SEED`): their structure sets what a solve
costs, and matrices drawn afresh per seed moved the solve cost, and with
it every timing, from run to run by more than a change to the program
should have to.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from instrument import Spans, TimedExecutor, TimedKernel, TimedPool
from measure import check_answer, cpu_seconds
from repro import MultisplittingSolver
from repro.direct.base import get_solver
from repro.matrices import diagonally_dominant
from repro.runtime import InlineExecutor, ProcessExecutor, SocketExecutor
from repro.serve import ServeGateway

TOL = 1e-8
SOLVER_SETTINGS = dict(mode="sequential", tolerance=TOL, weighting="ownership")


#: The run seed every matrix is generated from, whatever ``--seed`` is.
MATRIX_SEED = 0


def _seed(seed: int, *tags: int) -> int:
    """A generator seed derived from the run seed and a purpose tag."""
    return int(np.random.default_rng([seed, *tags]).integers(2**31))


@dataclass
class Request:
    index: int
    A: object
    b: np.ndarray
    x_true: np.ndarray
    tenant: int = 0
    due: float = 0.0


@dataclass
class Sample:
    """One request's outcome as the client saw it."""

    index: int
    ok: bool
    error: str = ""
    solve_s: float = 0.0
    solve_cpu_s: float = 0.0
    latency_s: float = 0.0
    late_s: float = 0.0
    queue_wait_s: float = 0.0
    iterations: int = 0
    residual_ratio: float = 0.0
    max_error: float = 0.0
    x: np.ndarray | None = field(default=None, repr=False)


def _manufacture(A, rng) -> tuple[np.ndarray, np.ndarray]:
    x_true = rng.uniform(-1.0, 1.0, size=A.shape[0])
    return np.asarray(A @ x_true).ravel(), x_true


class Workload:
    """Shared shape: ``setup`` / ``teardown`` may repeat; requests are seeded."""

    name = ""
    params: dict = {}
    #: Workers the block solves are spread over (for the round overhead).
    workers = 1
    #: Blocks solve in worker processes: factor spans cannot be taken, and
    #: one answer per run is re-solved inline to check the executor contract.
    fleet = False

    def __init__(self, seed: int, spans: Spans, traced: bool):
        self.seed = seed
        self.spans = spans
        self.traced = traced

    def kernel(self):
        return TimedKernel(get_solver("scipy"), self.spans) if self.traced else "scipy"

    def checked(self, sample: Sample, req: Request, x) -> Sample:
        ok, ratio, err = check_answer(req.A, req.b, x, req.x_true, TOL)
        sample.residual_ratio, sample.max_error = ratio, err
        if not ok:
            sample.ok = False
            sample.error = f"wrong answer: residual {ratio:.2g}x its bound, error {err:.2g}"
        return sample


class ClosedLoop(Workload):
    """One client: the next request is sent when the previous reply is back."""

    processors = 8

    def request(self, i: int) -> Request:
        A = self.matrix_for(i)
        b, x_true = _manufacture(A, np.random.default_rng([self.seed, 2, i]))
        return Request(i, A, b, x_true)

    def run_pass(self, seconds: float) -> list[Sample]:
        spans = self.spans
        samples = []
        with spans.span("bench.pass", request="pass"):
            t_end = time.perf_counter() + seconds
            i = 0
            while i == 0 or time.perf_counter() < t_end:
                rid = f"req-{i}"
                with spans.span("bench.input", request=rid):
                    req = self.request(i)
                sample = Sample(index=i, ok=True)
                sent = time.perf_counter()
                try:
                    with spans.span("bench.send", request=rid):
                        result, sample.solve_s, sample.solve_cpu_s = self.send(req)
                except Exception as exc:  # counted as a failed request, never retried
                    samples.append(Sample(i, False, f"{type(exc).__name__}: {exc}"))
                    i += 1
                    continue
                sample.latency_s = time.perf_counter() - sent
                with spans.span("bench.check", request=rid):
                    sample.iterations = result.iterations
                    if i == 0:  # kept for the cross-check, which needs one answer
                        sample.x = result.x
                    if not result.converged:
                        sample.ok, sample.error = False, f"did not converge ({result.status})"
                    else:
                        self.checked(sample, req, result.x)
                samples.append(sample)
                i += 1
        return samples

    def timed_solve(self, solver, req: Request, trace=None):
        """``(result, wall seconds, CPU seconds)`` of one solve."""
        c0, t0 = cpu_seconds(), time.perf_counter()
        with self.spans.span("solver.solve"):
            result = solver.solve(req.A, req.b, trace=trace)
        t1 = time.perf_counter()
        return result, t1 - t0, cpu_seconds() - c0


class ColdSolve(ClosedLoop):
    name = "cold-solve"
    matrices_n = 3
    params = dict(
        backend="inline", processors=8, matrices=3,
        matrix="diagonally_dominant(12000, density_per_row=4, bandwidth=50, dominance=1.6)",
        request="fresh MultisplittingSolver (cold cache) on the next matrix, fresh rhs",
    )

    def setup(self) -> None:
        self.matrices = [
            diagonally_dominant(
                12_000, density_per_row=4, bandwidth=50, dominance=1.6, seed=_seed(MATRIX_SEED, 1, k)
            )
            for k in range(self.matrices_n)
        ]
        self.executor = (
            TimedExecutor(InlineExecutor, self.spans) if self.traced else InlineExecutor()
        )
        self._kernel = self.kernel()

    def matrix_for(self, i: int):
        return self.matrices[i % len(self.matrices)]

    def new_solver(self):
        with self.spans.span("solver.build"):
            return MultisplittingSolver(
                self.processors, backend=self.executor, direct_solver=self._kernel,
                **SOLVER_SETTINGS,
            )

    def send(self, req: Request):
        return self.timed_solve(self.new_solver(), req)

    def observe_pair(self, req: Request, trace) -> float:
        return self.timed_solve(self.new_solver(), req, trace)[2]

    def teardown(self) -> None:
        self.executor.close()

    def model_inputs(self) -> list:
        return list(self.matrices)


#: Backends one ``fleet-rounds`` answer per run is solved again on, after
#: the fleet has closed; each must match the fleet's answer bit for bit
#: (the executor contract).  The socket fleet is where ``runtime.sockets``
#: and ``runtime.wire`` are timed.  It is spawned, not forked: the driver
#: may still run threads, and forking a threaded process is unsafe.
CROSS_CHECKS = {
    "inline": "inline",
    "sockets": partial(SocketExecutor, workers=2, start_method="spawn"),
}


class FleetRounds(ClosedLoop):
    """A long-lived solver on a two-worker fleet: warm cache, many rounds.

    The matrix has its own fixed generator seed 0: at dominance 1.005
    the round count swings by a third between generator seeds.
    """

    name = "fleet-rounds"
    workers = 2
    fleet = True
    params = dict(
        backend="ProcessExecutor(max_workers=2)", processors=8,
        matrix="diagonally_dominant(6000, bandwidth=50, dominance=1.005, seed=0)",
        request="new rhs on one long-lived solver (default cache), warm-up solve in set-up",
    )

    def make_executor(self):
        return ProcessExecutor(max_workers=2)

    def setup(self) -> None:
        self.A = diagonally_dominant(6_000, bandwidth=50, dominance=1.005, seed=0)
        self.executor = (
            TimedExecutor(self.make_executor, self.spans) if self.traced else self.make_executor()
        )
        # Fleet workers factor in their own processes; the kernel is
        # pickled to them, so it stays the bare registry name.
        self.solver = MultisplittingSolver(
            self.processors, backend=self.executor, direct_solver="scipy", **SOLVER_SETTINGS
        )
        warm = Request(-1, self.A, *_manufacture(self.A, np.random.default_rng([self.seed, 4])))
        result = self.solver.solve(warm.A, warm.b)
        sample = self.checked(Sample(-1, result.converged), warm, result.x)
        if not sample.ok:
            raise RuntimeError(f"warm-up solve failed: {sample.error or result.status}")

    def matrix_for(self, i: int):
        return self.A

    def send(self, req: Request):
        return self.timed_solve(self.solver, req)

    def observe_pair(self, req: Request, trace) -> float:
        return self.timed_solve(self.solver, req, trace)[2]

    def reference(self, req: Request, backend):
        """Solve ``req`` again on ``backend`` with the same settings."""
        ex = backend if isinstance(backend, str) else backend()
        try:
            with MultisplittingSolver(
                self.processors, backend=ex, direct_solver="scipy", **SOLVER_SETTINGS
            ) as solver:
                t0 = time.perf_counter()
                result = solver.solve(req.A, req.b)
                return result, time.perf_counter() - t0
        finally:
            if not isinstance(ex, str):
                ex.close()

    def teardown(self) -> None:
        self.executor.close()

    def model_inputs(self) -> list:
        return [self.A]


class ServeMixed(Workload):
    """Open loop: seeded Poisson arrivals at a fixed rate over 12 tenants."""

    name = "serve-mixed"
    tenants = 12
    # 15 req/s is about half the pool's measured capacity.  Batches are
    # timed in CPU seconds of their pool thread, which waiting for the
    # interpreter lock held by the other thread does not inflate.
    rate = 15.0
    skew = 1.0
    processors = 4
    params = dict(
        gateway="ServeGateway(window=0.005, max_batch=32, max_pending=512)",
        pool="SolverPool(size=2, processors=4, cache_capacity=32), inline",
        tenants=12, matrix="diagonally_dominant(500, dominance=1.5, bandwidth=8)",
        popularity_skew=1.0, offered_rate_per_s=15.0, loop="open (Poisson)",
    )

    def setup(self) -> None:
        self.matrices = [
            diagonally_dominant(500, dominance=1.5, bandwidth=8, seed=_seed(MATRIX_SEED, 5, t))
            for t in range(self.tenants)
        ]
        backend = TimedExecutor(InlineExecutor, self.spans) if self.traced else "inline"
        self.backend = backend
        self.pool = TimedPool(
            self.spans, size=2, processors=self.processors, cache_capacity=32,
            backend=backend, direct_solver=self.kernel(),
            tolerance=TOL, weighting="ownership",
        )
        self.gateway = ServeGateway(self.pool, window=0.005, max_batch=32, max_pending=512)
        self.keys = [self.gateway.register(A) for A in self.matrices]
        rng = np.random.default_rng([self.seed, 6])
        warm = [Request(-1, A, *_manufacture(A, rng), tenant=t) for t, A in enumerate(self.matrices)]

        async def warm_up():
            return await asyncio.gather(
                *(self.gateway.submit(self.keys[r.tenant], r.b) for r in warm)
            )

        for req, x in zip(warm, asyncio.run(warm_up())):
            sample = self.checked(Sample(-1, True), req, x)
            if not sample.ok:
                raise RuntimeError(f"warm-up request failed: {sample.error}")

    def arrivals(self, seconds: float) -> list[Request]:
        """The seeded open-loop schedule: Poisson times, skewed tenants."""
        rng = np.random.default_rng([self.seed, 7])
        weights = 1.0 / np.arange(1, self.tenants + 1, dtype=float) ** self.skew
        weights /= weights.sum()
        out = []
        t = rng.exponential(1.0 / self.rate)
        while t < seconds or not out:
            tenant = int(rng.choice(self.tenants, p=weights))
            A = self.matrices[tenant]
            out.append(Request(len(out), A, *_manufacture(A, rng), tenant=tenant, due=t))
            t += rng.exponential(1.0 / self.rate)
        return out

    def run_pass(self, seconds: float) -> list[Sample]:
        requests = self.arrivals(seconds)
        spans = self.spans
        samples: list = [None] * len(requests)

        async def fire(req: Request, t0: float, root) -> None:
            due = t0 + req.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            try:
                x = await self.gateway.submit(self.keys[req.tenant], req.b)
            except Exception as exc:  # shed or failed: counted, never retried
                x = exc
            done = time.perf_counter()
            rid = f"req-{req.index}"
            spans.add("gateway.submit", sent, done, root, rid, lane=rid)
            sample = Sample(req.index, True, late_s=sent - due, latency_s=done - due)
            if isinstance(x, BaseException):
                sample.ok, sample.error = False, f"{type(x).__name__}: {x}"
            else:
                # Checked now, while the reply is alive; only the figures are kept.
                t_start, t_end, _, _ = self.pool.batch_of(x)
                sample.solve_s = t_end - t_start
                sample.queue_wait_s = sample.latency_s - sample.solve_s
                self.checked(sample, req, x)
            samples[req.index] = sample

        async def run() -> None:
            with spans.span("bench.pass", request="pass"):
                root = spans.current() if spans.active else None
                t0 = time.perf_counter()
                await asyncio.gather(*(fire(r, t0, root) for r in requests))
                await self.gateway.drain()

        self.batches_before = len(self.pool.batches)
        self.cache_before = self.pool.cache_stats()
        asyncio.run(run())
        return samples

    def batch_times(self, since: int) -> tuple[list[float], list[float]]:
        """Wall and CPU seconds of the pool solves dispatched after the first ``since``."""
        rows = self.pool.batches[since:]
        return [t1 - t0 for t0, t1, _, _ in rows], [cpu for *_, cpu in rows]

    def observe_pair(self, req: Request, trace) -> float:
        B = np.column_stack([req.b] * 4)
        c0 = cpu_seconds()
        self.pool.solver.solve(req.A, B, trace=trace)
        return cpu_seconds() - c0

    def teardown(self) -> None:
        self.pool.close()
        if self.traced:
            self.backend.close()

    def model_inputs(self) -> list:
        return list(self.matrices)


WORKLOADS = {w.name: w for w in (ColdSolve, FleetRounds, ServeMixed)}
