"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that run.py writes with --trace 0
(`<workload>-seed<n>-trace0.json`).  Runs of the two sides with the same
workload and seed form a pair; make them alternately (parent first on odd
seeds, change first on even ones) so drift in the machine hits both sides.

One row per workload and end-to-end metric gives each side's median and
quartiles, the pairs the change won, and a verdict:

improved    the change won at least 9/10 of at least ten pairs (ties count
            for neither side) and the medians differ by more than the
            parent's interquartile range;
worse       the change's median is worse than the parent's by more than the
            metric's bound in BENCHMARK.json, or the change failed more ops
            than the parent (a gain does not count then);
unresolved  neither, and either side's interquartile range exceeds the bound
            (unless every change run beats every parent run);
unchanged   otherwise.

A metric that a workload does not resolve reports that workload's
query_p50_ms (listed in the result files under samples.stand_for_median);
its row reads "n/a" and gets no verdict.

Exit status 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        data = json.loads(path.read_text())
        runs[(data["workload"], data["seed"])] = data
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float], more_failed: bool = False) -> tuple[str, int]:
    """(verdict, pairs won by the change) for paired value lists;
    `more_failed` says the change failed more ops than the parent."""
    lower = metric["better"] == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    if more_failed:
        return "worse", wins
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = (pm - cm) if lower else (cm - pm)
    if len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and gain > p3 - p1:
        return "improved", wins
    if -gain > metric["bound"] * abs(pm):
        return "worse", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > metric["bound"]:
        every = max(change) < min(parent) if lower else min(change) > max(parent)
        return ("unchanged" if every else "unresolved"), wins
    return "unchanged", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_runs, change_runs = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = sorted(set(parent_runs) & set(change_runs))
    if not pairs:
        print("no (workload, seed) pair present on both sides", file=sys.stderr)
        return 2
    any_worse = False
    print(f"{'workload':<12} {'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'won':>7} verdict")
    for workload in dict.fromkeys(w for w, _ in pairs):
        keys = [k for k in pairs if k[0] == workload]
        change_first = sum(change_runs[k]["started_at"] < parent_runs[k]["started_at"] for k in keys)
        failed = sum(parent_runs[k]["failed"] for k in keys), sum(change_runs[k]["failed"] for k in keys)
        stand_ins = {
            name
            for runs in (parent_runs, change_runs)
            for k in keys
            for name in runs[k]["samples"].get("stand_for_median", [])
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in stand_ins:
                print(f"{workload:<12} {name:<18} n/a (stands for query_p50_ms)")
                continue
            parent = [parent_runs[k]["metrics"][name]["value"] for k in keys]
            change = [change_runs[k]["metrics"][name]["value"] for k in keys]
            result, wins = verdict(metric, parent, change, failed[1] > failed[0])
            any_worse |= result == "worse"
            cells = [
                "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(values)) for values in (parent, change)
            ]
            print(f"{workload:<12} {name:<18} {cells[0]:>34} {cells[1]:>34} {wins:>3}/{len(keys):<3} {result}")
        print(
            f"{workload:<12} {len(keys)} pairs, change ran first in {change_first}; "
            f"failed ops parent {failed[0]}, change {failed[1]}"
        )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
