"""Compare two benchmark result files: parent commit against a change.

Usage (from the repository root)::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records ``run.py --out`` appends.  Runs are paired by
workload and seed (the n-th parent run of a seed with the n-th change run
of that seed).  Per workload and end-to-end metric this prints each side's
median and quartiles, the pairs the change won, the metric's bound from
``BENCHMARK.json`` and a verdict:

* ``improved``: the change won at least 9 of every 10 pairs and its median
  is better than the parent's by more than the parent's quartile spread;
* ``unresolved``: either side's quartile spread is wider than the bound,
  unless every change run reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``no worse``: otherwise.

Per-layer medians from ``--trace 1`` records follow, with their deltas;
every ratio is printed with its base.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

RATIO_BASES = {
    "batch.vectorized_frac": "batch.sessions_submitted",
    "edge.cache_hit_ratio": "edge.cache_lookups",
    "edge.shared_cell_frac": "edge.cells",
    "trace.covered_frac": "fleet.driver.wall_s",
}
"""The per-layer metric each ratio is taken over.  ``trace.overhead_frac``
is over the untraced runs' driver wall time, kept in the result file."""

WIN_SHARE = 0.9


def load(path: str) -> List[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def series(
    records: List[dict], trace: int
) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """workload -> metric -> [(seed, value)] in file order."""
    out: Dict[str, Dict[str, List[Tuple[int, float]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for record in records:
        meta = record["meta"]
        if meta["trace"] != trace:
            continue
        for name, entry in record["result"]["metrics"].items():
            out[meta["workload"]][name].append((meta["seed"], entry["value"]))
    return out


def pairs(
    parent: List[Tuple[int, float]], change: List[Tuple[int, float]]
) -> List[Tuple[float, float]]:
    by_seed: Dict[int, List[float]] = defaultdict(list)
    for seed, value in change:
        by_seed[seed].append(value)
    matched = []
    for seed, value in parent:
        if by_seed[seed]:
            matched.append((value, by_seed[seed].pop(0)))
    return matched


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    matched: List[Tuple[float, float]], bound: float, lower_better: bool
) -> Tuple[str, int]:
    sign = -1.0 if lower_better else 1.0
    parent = [p for p, _ in matched]
    change = [c for _, c in matched]
    wins = sum(1 for p, c in matched if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if wins >= math.ceil(WIN_SHARE * len(matched)) and gain > p3 - p1:
        return "improved", wins
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "no worse", wins
        return "unresolved", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    return "no worse", wins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)

    print("End-to-end (median [q1, q3] over runs; pairs matched by seed)")
    header = (
        f"{'workload':<12} {'metric':<16} {'parent':>28} {'change':>28} "
        f"{'won':>6} {'bound':>6}  verdict"
    )
    print(header)
    p_series, c_series = series(parent, 0), series(change, 0)
    for workload in sorted(set(p_series) & set(c_series)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            matched = pairs(
                p_series[workload][name], c_series[workload][name]
            )
            if not matched:
                continue
            result, wins = verdict(
                matched, metric["bound"], metric["better"] == "lower"
            )
            p1, pm, p3 = quartiles([p for p, _ in matched])
            c1, cm, c3 = quartiles([c for _, c in matched])
            print(
                f"{workload:<12} {name:<16} "
                f"{pm:>10.4g} [{p1:.4g}, {p3:.4g}]".ljust(58)
                + f"{cm:>10.4g} [{c1:.4g}, {c3:.4g}]".rjust(28)
                + f" {wins:>3}/{len(matched):<2} {metric['bound']:>6.2f}"
                f"  {result}  ({metric['unit']})"
            )

    print("\nPer-layer (median over traced runs)")
    p_layers, c_layers = series(parent, 1), series(change, 1)
    for workload in sorted(set(p_layers) & set(c_layers)):
        print(f"[{workload}]")
        for metric in spec["per_layer"]:
            name = metric["name"]
            p_values = [v for _, v in p_layers[workload].get(name, [])]
            c_values = [v for _, v in c_layers[workload].get(name, [])]
            if not p_values or not c_values:
                continue
            pm, cm = statistics.median(p_values), statistics.median(c_values)
            if pm == 0 and cm == 0:
                continue
            ratio = f"x{cm / pm:.3f}" if pm else "new"
            line = (
                f"  {name:<44} {pm:>12.5g} -> {cm:<12.5g} "
                f"{cm - pm:+.4g} {metric['unit']} ({ratio})"
            )
            base = RATIO_BASES.get(name)
            if base is not None:
                p_base = statistics.median(
                    v for _, v in p_layers[workload][base]
                )
                c_base = statistics.median(
                    v for _, v in c_layers[workload][base]
                )
                line += f"  base {base}: {p_base:.6g} -> {c_base:.6g}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
