"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run measures
the end-to-end metrics with no instrumentation in the program's path;
with ``--trace 1`` it records benchmark-side spans around the program's
entry points and reports the per-layer metrics instead (see
``perfbench/README.md``).  Beside every run a probe process
(``hostspeed.py``) times a fixed reference kernel, and CPU timings are
normalised by it.  Every answer is checked; the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record of the run (provenance, parameters, sample counts,
self-time attribution) is written under ``.perfbench/`` in the
checkout; ``perfbench/compare.py`` compares two sets of such records.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# One BLAS thread per process: the stated workers (two processes or two
# pool threads) are then the whole load.  Multi-threaded BLAS in each of
# them oversubscribes the cores and makes run times swing many-fold.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Pairs of untraced/traced solves behind ``observe.overhead_frac``.
OBSERVE_PAIRS = {"serve-mixed": 10}
DEFAULT_OBSERVE_PAIRS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop the stdlib's shared-memory tracker process, if one was started.

    Shared-memory planes start it on first use and it would otherwise
    outlive this run; ``_stop`` waits for it to exit.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


class Pass(NamedTuple):
    """What one measured pass leaves: samples, per-solve times, CPU total."""

    samples: list
    solve_s: list[float]
    solve_cpu_s: list[float]
    cpu_s: float
    start: float
    end: float


def figures(p: Pass, setup_wall, setup_cpu, scale: float) -> tuple[dict, dict]:
    """The end-to-end figures of one pass, and their raw CPU and wall-clock twins.

    The end-to-end timings are normalised CPU seconds: CPU seconds summed
    over the driver and its worker processes, times ``scale``, the host
    speed probe's factor over the run.  The ``cpu.*`` figures are the
    raw CPU seconds and the ``wall.*`` figures the wall-clock ones.
    Returns ``(values, sample counts)``.
    """
    from measure import median, tail

    ok = [s for s in p.samples if s.ok]
    latency = [s.latency_s for s in ok]
    cpu_tail, cpu_pct = tail(p.solve_cpu_s) if p.solve_cpu_s else (0.0, 0.0)
    wall_tail, _ = tail(p.solve_s) if p.solve_s else (0.0, 0.0)
    lat_tail, lat_pct = tail(latency) if latency else (0.0, 0.0)
    request_cpu = p.cpu_s / len(p.samples)
    values = {
        "setup_s": median(setup_cpu) * scale,
        "solve_cpu_s.p50": median(p.solve_cpu_s) * scale,
        "solve_cpu_s.tail": cpu_tail * scale,
        "request_cpu_s": request_cpu * scale,
        "ok_frac": len(ok) / len(p.samples),
        "cpu.setup_s": median(setup_cpu),
        "cpu.solve_s.p50": median(p.solve_cpu_s),
        "cpu.request_s": request_cpu,
        "wall.setup_s": median(setup_wall),
        "wall.solve_s.p50": median(p.solve_s),
        "wall.solve_s.tail": wall_tail,
        "wall.latency_s.p50": median(latency),
        "wall.latency_s.tail": lat_tail,
    }
    counts = {
        "setup": {"samples": len(setup_cpu)},
        "solve": {"samples": len(p.solve_cpu_s), "tail_percentile": cpu_pct},
        "latency": {"samples": len(latency), "tail_percentile": lat_pct},
        "requests": {"attempted": len(p.samples), "failed": len(p.samples) - len(ok)},
    }
    return values, counts


def cross_check(wl, samples) -> tuple[dict, dict, dict]:
    """Solve one fleet answer again on the other executors.

    The executor contract promises bit-identical answers; a mismatch fails
    that request.  Returns ``({executor: identical}, {executor: solve
    seconds}, sockets.* per-layer figures)`` -- the socket-fleet solve is
    where ``runtime.sockets`` and ``runtime.wire`` are measured.
    """
    import numpy as np
    from workloads import CROSS_CHECKS

    identical, seconds = {}, {}
    socket_metrics = dict.fromkeys(
        ("sockets.solve_s", "sockets.bytes_per_round", "sockets.serialize_s",
         "sockets.transmit_s"), 0.0)
    sample = next((s for s in samples if s.x is not None), None)
    if not wl.fleet or sample is None:
        return identical, seconds, socket_metrics
    req = wl.request(sample.index)
    for name, backend in CROSS_CHECKS.items():
        ref, seconds[name] = wl.reference(req, backend)
        identical[name] = bool(
            ref.iterations == sample.iterations and np.array_equal(ref.x, sample.x)
        )
        if name == "sockets":
            socket_metrics = {
                "sockets.solve_s": seconds[name],
                "sockets.bytes_per_round": ref.wire["vector_bytes_sent"] / ref.iterations,
                "sockets.serialize_s": ref.wire["serialize_seconds"],
                "sockets.transmit_s": ref.wire["transmit_seconds"],
            }
    if not all(identical.values()) and sample.ok:
        sample.ok, sample.error = False, f"differs from another executor: {identical}"
    return identical, seconds, socket_metrics


def run(args, contract) -> int:
    from measure import HostSpeed

    probe = HostSpeed(HERE / "hostspeed.py")
    try:
        return measure_run(args, contract, probe)
    finally:
        probe.stop()


def measure_run(args, contract, probe) -> int:
    import layers
    from instrument import END, LANE, NAME, PARENT, REQUEST, START, Spans
    from measure import (HostSpeed, LeakCheck, cpu_seconds, median, nearest_rank,
                         peak_rss_mb, provenance, steal_ticks)
    from workloads import WORKLOADS, ServeMixed

    cls = WORKLOADS[args.workload]
    leak_check = LeakCheck()
    spans = Spans()
    traced = bool(args.trace)
    wl = cls(args.seed, spans, traced)
    serve = isinstance(wl, ServeMixed)

    setup_wall, setup_cpu = [], []
    setup_start = time.perf_counter()
    for rep in range(SETUP_REPEATS):
        c0, t0 = cpu_seconds(), time.perf_counter()
        wl.setup()
        setup_wall.append(time.perf_counter() - t0)
        setup_cpu.append(cpu_seconds() - c0)
        if rep < SETUP_REPEATS - 1:
            wl.teardown()

    def measured_pass(seconds) -> Pass:
        c0, t0 = cpu_seconds(), time.perf_counter()
        samples = wl.run_pass(seconds)
        t1 = time.perf_counter()
        cpu = cpu_seconds() - c0
        if serve:
            solve, solve_cpu = wl.batch_times(wl.batches_before)
        else:
            ok = [s for s in samples if s.ok]
            solve, solve_cpu = [s.solve_s for s in ok], [s.solve_cpu_s for s in ok]
        return Pass(samples, solve, solve_cpu, cpu, t0, t1)

    record: dict = {}
    steal0 = steal_ticks()
    try:
        if not traced:
            measured = measured_pass(args.seconds)
            all_samples = measured.samples
        else:
            plain = measured_pass(args.seconds / 2)
            spans.active = True
            measured = measured_pass(args.seconds / 2)
            spans.active = False
            all_samples = plain.samples + measured.samples
            cache_delta = wl.pool.cache_stats().since(wl.cache_before) if serve else None
            first = wl.arrivals(1)[0] if serve else wl.request(0)
            on = off = 0.0
            for _ in range(OBSERVE_PAIRS.get(wl.name, DEFAULT_OBSERVE_PAIRS)):
                off += wl.observe_pair(first, None)
                on += wl.observe_pair(first, True)
        # Taken before the cross-check, whose solves are not the workload.
        driver_rss = peak_rss_mb()
    finally:
        steal1 = steal_ticks()
        wl.teardown()
    worker_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    probe.stop()
    try:
        bit_identical, cross, socket_metrics = cross_check(wl, measured.samples)
    finally:
        stop_resource_tracker()
    ticks = steal1[1] - steal0[1]
    record["host_steal_frac"] = (steal1[0] - steal0[0]) / ticks if ticks else 0.0
    leaks = leak_check.leaks()

    failed = [s for s in all_samples if not s.ok]
    # One host speed for the whole run: the set-ups alone are too short
    # for enough probe samples.
    scale = probe.scale(setup_start, measured.end)
    values, counts = figures(measured, setup_wall, setup_cpu, scale)
    values["peak_rss_mb"] = driver_rss
    values["host.kernel_s"] = HostSpeed.REFERENCE_S / scale
    values["host.steal_frac"] = record["host_steal_frac"]
    if traced:
        samples = measured.samples
        rows = layers.unit_rows(spans.records)
        attrib = layers.attribution(spans.records)
        predicted, flops = layers.model_figures(wl.model_inputs(), wl.processors)
        values.update(layers.layer_metrics(rows, wl.workers, inline_factor=not wl.fleet))
        plain_values, _ = figures(plain, setup_wall, setup_cpu, scale)
        # The wall-clock figures come from the untraced half.
        values.update({k: v for k, v in plain_values.items() if k.startswith("wall.")})
        batches = len(measured.solve_s) if serve else 0
        values.update({
            "pattern.predicted_bytes_per_round": predicted,
            "wire.sent_over_predicted": values["wire.bytes_per_round"] / predicted,
            "direct.flops_per_round": flops,
            "runtime.worker_peak_rss_mb": worker_rss,
            "serve.pool_solve_s.p50": median(measured.solve_s) if serve else 0.0,
            "serve.queue_wait_s.p50": (
                median([s.queue_wait_s for s in samples if s.ok]) if serve else 0.0
            ),
            "serve.batch_size.mean": len(samples) / batches if batches else 0.0,
            "serve.batches": float(batches),
            "loadgen.late_s.p99": nearest_rank([s.late_s for s in samples], 99) if serve else 0.0,
            "observe.overhead_frac": on / off - 1.0,
            **socket_metrics,
            "trace.span_overhead_frac": (
                values["solve_cpu_s.p50"] / plain_values["solve_cpu_s.p50"] - 1.0
            ),
            "trace.wall_s": attrib["wall_s"],
            "trace.unattributed_s": attrib["unattributed_s"],
            "trace.unattributed_frac": attrib["unattributed_s"] / attrib["wall_s"],
        })
        if serve:
            # Pool threads share one cache: per-call deltas interleave, so
            # the pass total over the pool's own counters is the exact figure.
            values.update({
                "cache.hits": cache_delta.hits / batches,
                "cache.misses": cache_delta.misses / batches,
                "cache.evictions": cache_delta.evictions / batches,
                "cache.hit_rate": cache_delta.hit_rate,
            })
        record["untraced_pass"] = plain_values
        record["attribution"] = attrib

    section = "per_layer" if traced else "end_to_end"
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in contract[section]
    }
    prov = provenance(ROOT)
    record.update({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": wl.params, "provenance": prov,
        "setup_wall_s": setup_wall, "setup_cpu_s": setup_cpu,
        "counts": counts, "values": values, "leaks": leaks,
        "bit_identical": bit_identical, "cross_check_solve_s": cross,
        "failures": [f"request {s.index}: {s.error}" for s in failed],
        "max_residual_ratio": max((s.residual_ratio for s in all_samples), default=0.0),
        "max_error": max((s.max_error for s in all_samples), default=0.0),
    })
    stamp = f"{wl.name}.seed{args.seed}.trace{args.trace}.{time.time_ns()}"
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{stamp}.json").write_text(json.dumps(record, indent=1, default=str))
    if traced:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        fields = (("name", NAME), ("start", START), ("end", END), ("parent", PARENT),
                  ("request", REQUEST), ("lane", LANE))
        (OUT / "spans" / f"{stamp}.json").write_text(json.dumps(
            [{k: r[i] for k, i in fields} for r in spans.records]
        ))

    report(record, metrics, counts)
    correct = not failed and not leaks
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if leaks else 0


def report(record, metrics, counts) -> None:
    prov = record["provenance"]
    values = record["values"]
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print(f"  host: {prov['host_cores']} cores ({prov['affinity_cores']} usable), "
          f"Python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"git {prov['git_sha'] or 'n/a'}, src sha1 {prov['source_sha1'][:12]}")
    print(f"  params: {json.dumps(record['params'])}")
    setup = ", ".join(f"{c:.3f}/{w:.3f}" for c, w in zip(record["setup_cpu_s"],
                                                         record["setup_wall_s"]))
    print(f"  setup runs (CPU/wall s): {setup}; host steal while measuring: "
          f"{record['host_steal_frac']:.1%} of CPU time")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    wall = ", ".join(f"{k[5:]} {v:.4g}" for k, v in values.items() if k.startswith("wall."))
    print(f"  wall clock (s): {wall}")
    for name in ("solve", "latency"):
        c = counts[name]
        print(f"  {name}: {c['samples']} samples, tail = p{c['tail_percentile']:.1f}")
    print(f"  failed {counts['requests']['failed']} of {counts['requests']['attempted']}; "
          f"max residual/bound {record['max_residual_ratio']:.3g}, "
          f"max error {record['max_error']:.3g}; "
          f"bit-identical across executors: {record['bit_identical'] or 'n/a'}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    if "attribution" in record:
        attrib = record["attribution"]
        rows = ", ".join(f"{k} {v:.3f}" for k, v in attrib["self_s"].items())
        print(f"  traced wall {attrib['wall_s']:.3f} s over {attrib['lanes']} lanes, "
              f"unattributed {attrib['unattributed_s']:.4f} s")
        print(f"    self s: {rows}")
    print("  leaks: " + ("; ".join(record["leaks"]) if record["leaks"] else "none"))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: the program is not importable from src/: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
