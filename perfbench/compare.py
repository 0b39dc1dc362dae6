"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of run records (``.perfbench/runs``
of two checkouts) or single record files.  For every pair of workload and
end-to-end metric it prints both medians, both quartile ranges and a
verdict, judged against the bounds in ``BENCHMARK.json``:

* ``worse``      -- NEW's median is worse than BASE's by more than the bound;
* ``better``     -- NEW wins at least nine tenths of the seed-paired runs
  and the medians differ by more than BASE's own quartile range;
* ``unresolved`` -- either side's quartile range exceeds the bound (unless
  every NEW run beats every BASE run);
* ``no worse``   -- anything else.

Traced records (``--trace 1``) get a per-layer table of medians instead.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(where: str) -> dict:
    """``{(workload, trace): [record, ...]}`` from a directory or a file."""
    path = Path(where)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text())
        out[(record["workload"], record["trace"])].append(record)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list, new: list, metric: dict) -> tuple[str, dict]:
    """Judge one metric: ``base`` and ``new`` are ``(seed, value)`` lists."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    a = [v for _, v in base]
    b = [v for _, v in new]
    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
    spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
    gain = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    paired = dict(base)
    pairs = [(paired[s], v) for s, v in new if s in paired]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    bound = metric["bound"]
    if max(spread_a, spread_b) > bound:
        word = "better" if all_better else "unresolved"
    elif gain < -bound:
        word = "worse"
    elif gain > spread_a and win_frac >= 0.9:
        word = "better"
    else:
        word = "no worse"
    detail = {"base": qa, "new": qb, "spread": (spread_a, spread_b),
              "change": gain, "win_frac": win_frac, "pairs": len(pairs)}
    return word, detail


def workloads(base: dict, new: dict) -> list[str]:
    """Every workload either side ran (including ones run by name only)."""
    return sorted({w for w, _ in base} | {w for w, _ in new})


def compare_end_to_end(base: dict, new: dict, contract: dict) -> None:
    print(f"{'workload':<14} {'metric':<16} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
          f"{'gain':>8} {'wins':>9}  verdict")
    for workload in workloads(base, new):
        a_runs, b_runs = base.get((workload, 0), []), new.get((workload, 0), [])
        if not a_runs or not b_runs:
            print(f"{workload:<14} (no untraced runs on one side or both)")
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            word, d = verdict(
                [(r["seed"], r["values"][name]) for r in a_runs],
                [(r["seed"], r["values"][name]) for r in b_runs],
                metric,
            )
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:<14} {name:<16} {fmt(d['base']):>32} {fmt(d['new']):>32} "
                  f"{d['change']:>+8.1%} {d['win_frac']:>5.0%}/{d['pairs']:<3}  {word}")


def compare_layers(base: dict, new: dict, contract: dict) -> None:
    for workload in workloads(base, new):
        a_runs, b_runs = base.get((workload, 1), []), new.get((workload, 1), [])
        if not a_runs or not b_runs:
            continue
        print(f"\nper-layer, {workload} ({len(a_runs)} base / {len(b_runs)} new traced runs)")
        for metric in contract["per_layer"]:
            name = metric["name"]
            a = statistics.median(r["values"][name] for r in a_runs)
            b = statistics.median(r["values"][name] for r in b_runs)
            if a == 0 and b == 0:
                continue
            change = f"{(b - a) / a:+.1%}" if a else "new"
            print(f"  {name:<36} {a:>14.6g} {b:>14.6g} {change:>9} {metric['unit']}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    compare_end_to_end(base, new, contract)
    compare_layers(base, new, contract)
    return 0


if __name__ == "__main__":
    sys.exit(main())
