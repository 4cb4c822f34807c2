"""Compare two sets of benchmark runs, workload by workload.

Usage::

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

``PARENT`` and ``CHANGE`` are directories of result files written by
``run.py --out``, one file per untraced (``--trace 0``) run.  Runs are
paired in the order they started, so run the two sets alternately (parent,
change, parent, change, ...) on the same host.  For every end-to-end metric
of ``BENCHMARK.json``:

* **unresolved** -- either set's interquartile spread, as a share of its
  median, exceeds the metric's bound (the runs cannot tell), unless every
  run of the change reads better than every run of the parent.  ``setup_s``
  is exempt: a run times only a few set-ups, so it is judged by its median
  alone (its spread is still printed);
* **gain** -- the change wins at least 9 of every 10 alternating pairs and
  the medians differ, in the better direction, by more than the parent's
  interquartile spread;
* **no worse** -- the change's median is not worse than the parent's by more
  than the metric's bound;
* **worse** -- otherwise.

A workload is **invalid** when a run of the change is incorrect or fails a
larger share of its operations than the parent's runs do: none of its
metrics counts then.  Each workload gets its own row; the exit code is 1
when any metric is worse or any workload invalid.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Judged by their median against the bound only, whatever their spread.
SPREAD_EXEMPT = ("setup_s",)


def load_runs(directory: str) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced result files by workload, in the order the runs started."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("trace") == 0 and "workload" in result:
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["provenance"].get("started_at", 0.0))
    return runs


def spread(values: List[float]) -> Tuple[float, float]:
    """``(median, interquartile range)``."""
    if len(values) < 2:
        return (values[0] if values else 0.0), 0.0
    quartiles = statistics.quantiles(values, n=4)
    return statistics.median(values), quartiles[2] - quartiles[0]


def failed_share(runs: List[Dict[str, Any]]) -> float:
    return (sum(r["failed"] for r in runs)
            / max(sum(r["attempted"] for r in runs), 1))


def verdict(parent: List[float], change: List[float], better: str,
            bound: float, spread_rule: bool = True) -> Dict[str, Any]:
    """Apply the comparison rule to one metric of one workload."""
    lower = better == "lower"
    parent_median, parent_iqr = spread(parent)
    change_median, change_iqr = spread(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
    delta = change_median - parent_median
    worse_share = (delta if lower else -delta) / parent_median if parent_median else 0.0
    row = {"parent_median": parent_median, "change_median": change_median,
           "parent_spread": parent_iqr / parent_median if parent_median else 0.0,
           "change_spread": change_iqr / change_median if change_median else 0.0,
           "wins": wins, "pairs": len(pairs), "worse_share": worse_share}
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    too_spread = row["parent_spread"] > bound or row["change_spread"] > bound
    if spread_rule and too_spread and not all_better:
        row["verdict"] = "unresolved"
    elif (pairs and wins >= 0.9 * len(pairs) and abs(delta) > parent_iqr
          and worse_share < 0):
        row["verdict"] = "gain"
    elif worse_share <= bound:
        row["verdict"] = "no worse"
    else:
        row["verdict"] = "worse"
    return row


def compare(parent_source: str, change_source: str,
            benchmark_path: str) -> Tuple[List[str], bool]:
    with open(benchmark_path, "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parent_runs = load_runs(parent_source)
    change_runs = load_runs(change_source)
    lines: List[str] = []
    any_worse = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            lines.append(f"{workload}: missing runs (parent {len(parent)}, "
                         f"change {len(change)})")
            continue
        incorrect = sum(1 for r in change if not r["correct"])
        if incorrect or failed_share(change) > failed_share(parent):
            any_worse = True
            lines.append(f"{workload}: invalid -- {incorrect} incorrect change "
                         f"runs, failed share {failed_share(change):.4%} vs "
                         f"{failed_share(parent):.4%} at the parent")
            continue
        rows = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            rows[name] = verdict([r["metrics"][name]["value"] for r in parent],
                                 [r["metrics"][name]["value"] for r in change],
                                 metric["better"], metric["bound"],
                                 spread_rule=name not in SPREAD_EXEMPT)
        by_verdict: Dict[str, List[str]] = {}
        for name, row in rows.items():
            by_verdict.setdefault(row["verdict"], []).append(name)
        any_worse = any_worse or "worse" in by_verdict
        summary = "; ".join(f"{kind}: {', '.join(names)}"
                            for kind, names in sorted(by_verdict.items()))
        lines.append(f"{workload} ({len(parent)} vs {len(change)} runs) | {summary}")
        for name, row in rows.items():
            lines.append(
                f"    {name:22s} {row['verdict']:10s} "
                f"{row['parent_median']:.6g} -> {row['change_median']:.6g} "
                f"({-row['worse_share']:+.1%} better), wins {row['wins']}/{row['pairs']}, "
                f"spread {row['parent_spread']:.1%} / {row['change_spread']:.1%}")
    return lines, any_worse


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    lines, any_worse = compare(args.parent, args.change, args.benchmark)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
