"""Per-layer metrics of a traced pass, derived from the benchmark's spans.

A *solve unit* is one ``MultisplittingSolver.solve`` as the benchmark
sees it: the ``solver.solve`` span of a closed-loop request, or the
``pool.solve_batch`` span of a served batch.  Times are means per unit
(so the layer rows of one unit add up to its duration); the round
intervals are pooled over every round of the pass.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from instrument import END, LANE, NAME, NOTES, PARENT, START, child_index, covered, self_times
from measure import median, nearest_rank
from repro.core.local import build_local_systems
from repro.core.partition import uniform_bands
from repro.core.weighting import make_weighting
from repro.direct.base import get_solver
from repro.schedule.pattern import message_bytes_matrix

UNIT_SPANS = ("solver.solve", "pool.solve_batch")
# How many leading requests ``sequential.iterations`` summarises: a fixed
# count, so the figure repeats exactly for a seed whatever the run length.
ITERATION_REQUESTS = 5


def _dur(record) -> float:
    return record[END] - record[START]


def unit_rows(records: list[list]) -> list[dict]:
    """One row of layer times and notes per solve unit, in start order."""
    kids = child_index(records)

    def children(i: int, name: str) -> list[int]:
        return [k for k in kids.get(i, ()) if records[k][NAME] == name]

    rows = []
    for u, rec in enumerate(records):
        if rec[NAME] not in UNIT_SPANS or rec[END] is None:
            continue
        attach = children(u, "runtime.attach")
        rounds = children(u, "runtime.solve_round")
        detach = children(u, "runtime.detach")
        notes = rec[NOTES] or {}
        factors = [f for a in attach for f in children(a, "direct.factor")]
        row = {
            "start": rec[START],
            "solve": _dur(rec),
            "resolve": records[attach[0]][START] - rec[START] if attach else 0.0,
            "attach": sum(_dur(records[a]) for a in attach),
            "factor_spans": sum(_dur(records[f]) for f in factors),
            "factor_span_calls": len(factors),
            "weighting": (
                records[rounds[0]][START] - records[attach[-1]][END] if attach and rounds else 0.0
            ),
            "rounds": sum(_dur(records[r]) for r in rounds),
            "round_starts": [records[r][START] for r in rounds],
            "detach": sum(_dur(records[d]) for d in detach),
            "iterations": len(rounds),
            "nblocks": notes.get("nblocks", 0),
            "block": sum((notes.get("block_seconds") or {}).values()),
            "wire": notes.get("wire") or {},
            "cache": notes.get("cache"),
            "faults": notes.get("faults"),
        }
        row["driver"] = row["solve"] - row["resolve"] - row["attach"] - row["rounds"] - row["detach"]
        rows.append(row)
    rows.sort(key=lambda r: r["start"])
    return rows


def attribution(records: list[list]) -> dict:
    """Self time per span name over the traced pass, checked lane by lane.

    On each lane the self times plus the time no span covers must add up
    to the pass's wall clock.  They do only if the lane's spans nest:
    overlapping siblings, a span tied to the wrong parent or to a parent
    on another lane all count some time twice, and the run fails.

    The unattributed remainder is the part of the ``bench.pass`` root
    that none of its children covers: the benchmark loop's own work on
    the closed loops, the time with no request in flight on
    ``serve-mixed``.
    """
    root = next(i for i, r in enumerate(records) if r[NAME] == "bench.pass" and r[PARENT] is None)
    t0, t1 = records[root][START], records[root][END]
    wall = t1 - t0
    own = self_times(records)
    by_lane: dict[str, list[int]] = defaultdict(list)
    for i, r in enumerate(records):
        if r[START] < t0 or r[END] > t1:
            raise RuntimeError(f"span {r[NAME]} on lane {r[LANE]} lies outside the traced pass")
        by_lane[r[LANE]].append(i)
    by_name: dict[str, float] = defaultdict(float)
    for lane, mine in by_lane.items():
        idle = wall - covered((records[i][START], records[i][END]) for i in mine)
        total = sum(own[i] for i in mine) + idle
        if abs(total - wall) > 1e-6 * max(1.0, wall):
            raise RuntimeError(f"lane {lane}: self times and idle sum to {total} s, wall is {wall} s")
        for i in mine:
            by_name[records[i][NAME]] += own[i]
    kids = child_index(records).get(root, [])
    return {
        "wall_s": wall,
        "lanes": len(by_lane),
        "unattributed_s": wall - covered((records[k][START], records[k][END]) for k in kids),
        "self_s": dict(sorted(by_name.items())),
    }


def model_figures(matrices, processors: int) -> tuple[float, float]:
    """Mean predicted bytes per round and mean computed flops per round.

    The partition and weighting are the ones the facade builds for the
    common settings (uniform bands, no overlap, ownership weighting).
    """
    predicted, flops = [], []
    kernel = get_solver("scipy")
    for A in matrices:
        n = A.shape[0]
        part = uniform_bands(n, processors).to_general()
        predicted.append(float(message_bytes_matrix(A, part, make_weighting("ownership", part)).sum()))
        systems = build_local_systems(A, np.zeros(n), part.sets, kernel)
        flops.append(float(sum(s.iteration_flops for s in systems)))
    return float(np.mean(predicted)), float(np.mean(flops))


def layer_metrics(rows: list[dict], workers: int, inline_factor: bool) -> dict:
    """Per-layer figures over the traced pass's solve units."""
    if not rows:
        raise RuntimeError("the traced pass completed no solve")

    def mean(key: str) -> float:
        return float(np.mean([r[key] for r in rows]))

    def wire(key: str) -> float:
        return float(np.mean([r["wire"].get(key, 0) for r in rows]))

    caches = [r["cache"] for r in rows if r["cache"] is not None]
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    intervals = [
        b - a for r in rows for a, b in zip(r["round_starts"], r["round_starts"][1:])
    ]
    if inline_factor:
        factor_s, factor_calls = mean("factor_spans"), mean("factor_span_calls")
    else:
        factor_s = float(np.mean([c.factor_seconds_spent for c in caches])) if caches else 0.0
        factor_calls = misses / len(rows)
    bytes_per_round = float(np.mean([
        r["wire"].get("vector_bytes_sent", 0) / r["iterations"] for r in rows if r["iterations"]
    ]))
    faults = [r["faults"] for r in rows if r["faults"] is not None]
    out = {
        "solver.resolve_s": mean("resolve"),
        "runtime.attach_s": mean("attach"),
        "direct.factor_s": factor_s,
        "direct.factor_calls": factor_calls,
        "local.slice_prune_s": mean("attach") - factor_s if inline_factor else 0.0,
        "weighting.update_s": mean("weighting"),
        "runtime.round_s.p50": nearest_rank(intervals, 50) if intervals else 0.0,
        "runtime.round_s.p99": nearest_rank(intervals, 99) if intervals else 0.0,
        "runtime.solve_round_s": mean("rounds"),
        "runtime.detach_s": mean("detach"),
        "direct.solve_s": mean("block"),
        "direct.solve_calls": float(np.mean([r["iterations"] * r["nblocks"] for r in rows])),
        "runtime.round_overhead_s": mean("rounds") - mean("block") / workers,
        "sequential.driver_s": mean("driver"),
        "sequential.iterations": median([r["iterations"] for r in rows[:ITERATION_REQUESTS]]),
        "wire.vector_bytes_sent": wire("vector_bytes_sent"),
        "wire.vector_bytes_received": wire("vector_bytes_received"),
        "wire.bytes_per_round": bytes_per_round,
        "wire.serialize_s": wire("serialize_seconds"),
        "wire.transmit_s": wire("transmit_seconds"),
        "wire.attach_payload_bytes": float(np.mean([
            sum((r["wire"].get("attach_payload_bytes") or {}).values()) for r in rows
        ])),
        "cache.hits": hits / len(rows),
        "cache.misses": misses / len(rows),
        "cache.evictions": sum(c.evictions for c in caches) / len(rows),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.workers_lost": float(sum(f.workers_lost for f in faults)),
        "runtime.blocks_requeued": float(sum(f.blocks_requeued for f in faults)),
    }
    return out
