"""Statistics, answer checks, leak checks and provenance for one run."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

# Tail percentiles need this many samples beyond them.
TAIL_BEYOND = 10


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: an observed sample, never interpolated."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(len(ordered) * pct / 100.0)))
    return float(ordered[rank - 1])


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with ten samples beyond.

    That percentile is ``100 (n - 10) / n`` (the eleventh-largest
    sample).  With twenty samples or fewer it would fall below the
    median, so it is held at p50: a closed loop of one-second solves
    does not collect enough of them in one run to see further into the
    tail.  The percentile is reported with the value.
    """
    n = len(values)
    pct = max(50.0, 100.0 * (n - TAIL_BEYOND) / n)
    return nearest_rank(values, pct), pct


def median(values) -> float:
    """Nearest-rank p50 (0 for no samples), so a tail held at p50 equals it."""
    return nearest_rank(values, 50.0) if len(values) else 0.0


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _process_clock(pid: int) -> int:
    """The CPU-time clock id of another process (Linux's ``CPUCLOCK_SCHED``)."""
    return ((~pid) << 3) | 2


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its live worker processes.

    This process counts all its threads; a worker counts from its start.
    CPU time does not include steal (time the hypervisor gave a virtual
    CPU's slot to another guest) or time spent waiting for a CPU, so it
    holds still when a shared host gets busy, where wall-clock time does
    not.  Deltas are taken while the set of workers is unchanged.
    """
    total = time.process_time()
    for proc in multiprocessing.active_children():
        try:
            total += time.clock_gettime(_process_clock(proc.pid))
        except OSError:  # exited since it was listed
            pass
    return total


class HostSpeed:
    """The host speed probe (``hostspeed.py``), running beside a benchmark run.

    It is a plain subprocess, not a ``multiprocessing`` child, so
    :func:`cpu_seconds` does not count it.
    """

    PERIOD = 0.5
    #: Normalised timings are CPU seconds on a CPU that runs the probe's
    #: kernel in this many CPU seconds.
    REFERENCE_S = 0.02

    def __init__(self, script: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(script), str(self.PERIOD)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        """Close the probe's input, wait for it and keep its samples (once)."""
        if self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:  # a forked worker still holds its input open
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in out.splitlines():
            stamp, *seconds = (float(x) for x in line.split())
            self.samples.append((stamp, float(np.mean(seconds))))

    def kernel_s(self, t0: float, t1: float) -> float:
        """Median kernel CPU seconds (mean over CPUs) of the samples in ``[t0, t1]``.

        A stretch shorter than the probe's period uses the nearest sample.
        """
        inside = [k for t, k in self.samples if t0 <= t <= t1]
        if not inside:
            mid = (t0 + t1) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return float(np.median(inside))

    def scale(self, t0: float, t1: float) -> float:
        """Factor turning CPU seconds in ``[t0, t1]`` into normalised seconds."""
        return self.REFERENCE_S / self.kernel_s(t0, t1)


def check_answer(A, b, x, x_true, tol: float) -> tuple[bool, float, float]:
    """Gate one answer on its residual and on its error against ``x_true``.

    The residual must satisfy ``|b - A x|_inf <= 100 tol |A|_inf
    max(1, |x|_inf)`` -- the stopping rule bounds successive increments
    by ``tol``, and 100 leaves room for the slow contraction of the
    nearly singular fleet matrix -- and the error ``|x - x_true|_inf``
    must stay below ``1000 tol``.  Returns ``(ok, residual ratio to its
    bound, error)``.
    """
    if x is None or not np.all(np.isfinite(x)):
        return False, float("inf"), float("inf")
    residual = float(np.max(np.abs(b - A @ x)))
    norm_a = float(np.max(np.asarray(abs(A).sum(axis=1)).ravel()))
    bound = 100.0 * tol * norm_a * max(1.0, float(np.max(np.abs(x))))
    error = float(np.max(np.abs(x - x_true)))
    return residual <= bound and error <= 1000.0 * tol, residual / bound, error


def steal_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine, from ``/proc/stat``.

    Steal is time a virtual CPU was ready but the hypervisor ran something
    else.  It lengthens wall-clock figures without the program doing any
    more work, so each run records its share next to them.
    """
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return ticks[7], sum(ticks)


class LeakCheck:
    """Process state at the start of a workload run, compared at its end."""

    def __init__(self) -> None:
        self.shm = self._shm()
        self.fds = self._fds()
        self.threads = {t.ident for t in threading.enumerate()}

    @staticmethod
    def _shm() -> set[str]:
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:
            return set()

    @staticmethod
    def _fds() -> set[str]:
        return set(os.listdir("/proc/self/fd"))

    def leaks(self) -> list[str]:
        """Names of everything left behind; empty when the run is clean."""
        found = [f"child process {p.name} (pid {p.pid})" for p in multiprocessing.active_children()]
        found += [f"/dev/shm entry {name}" for name in sorted(self._shm() - self.shm)]
        extra_fds = self._fds() - self.fds
        for fd in sorted(extra_fds, key=int):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue  # the descriptor listdir itself held
            found.append(f"file descriptor {fd} -> {target}")
        found += [
            f"thread {t.name}" for t in threading.enumerate() if t.ident not in self.threads
        ]
        return found


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """SHA-1 over every file under ``src/``: identifies the code without git."""
    h = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path) -> dict:
    return {
        "host_cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "source_sha1": _source_digest(root),
    }
