"""Paired comparison of two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py PARENT_RUNS... -- CHANGE_RUNS...

Each argument is a file written by ``run.py --out``.  Runs pair up in the
order given (the first parent run with the first change run, and so on),
so alternate which side runs first while collecting them.  Bounds and
directions come from BENCHMARK.json.  For every workload and end-to-end
metric the script prints each side's median and quartiles, the share of
pairs the change won (ties count for neither side) and a verdict:

* ``regressed``  -- the change's median is worse than the parent's by more
  than the bound, and the spread of the runs is within the bound (or every
  change run reads worse than every parent run);
* ``improved``   -- at least ten pairs, the change won at least nine tenths
  of them, and the medians differ by more than the distance between the
  parent's quartiles;
* ``unresolved`` -- the spread of either side, as interquartile distance
  over median, is wider than the bound and not every change run reads
  better than every parent run; or the change looks better on fewer than
  ten pairs;
* ``unchanged``  -- otherwise.

Exit status: 1 on any ``regressed`` or any rise in the fail ratio (failed
over attempted operations), 2 on unusable input, otherwise 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` cuts them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> dict:
    """Judge one workload x metric; ``pairs`` are ``(parent, change)`` runs."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / abs(pm)  # > 0: the change is worse
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    win_share = wins / len(pairs) if pairs else 0.0
    looks_better = (
        worse_by < 0 and win_share >= WIN_SHARE_FOR_GAIN and abs(cm - pm) > p3 - p1
    )
    if worse_by > bound and (spread <= bound or all_worse):
        outcome = "regressed"
    elif looks_better and len(pairs) >= MIN_PAIRS_FOR_GAIN:
        outcome = "improved"
    elif looks_better or (spread > bound and not all_better):
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "verdict": outcome, "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "worse_by": worse_by, "spread": spread, "wins": wins, "losses": losses,
        "pairs": len(pairs),
    }


def _value(run: dict, workload: str, metric: str) -> float | None:
    entry = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
    return None if entry is None else entry.get("value")


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> list[dict]:
    """One row per workload x end-to-end metric present on both sides."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [v for r in parent_runs if (v := _value(r, workload, name)) is not None]
            change = [v for r in change_runs if (v := _value(r, workload, name)) is not None]
            if not parent or not change:
                continue
            pairs = [
                (p, c) for rp, rc in zip(parent_runs, change_runs)
                if (p := _value(rp, workload, name)) is not None
                and (c := _value(rc, workload, name)) is not None
            ]
            row = verdict(parent, change, pairs, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"], **row})
    return rows


def fail_ratios(runs: list[dict]) -> dict[str, float]:
    """Failed over attempted operations per workload, over all runs."""
    totals: dict[str, list[int]] = {}
    for run in runs:
        for workload, res in run["workloads"].items():
            entry = totals.setdefault(workload, [0, 0])
            entry[0] += res["failed"]
            entry[1] += res["attempted"]
    return {w: failed / max(attempted, 1) for w, (failed, attempted) in totals.items()}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent_paths, change_paths = argv[:split], argv[split + 1:]
    if not parent_paths or not change_paths:
        print("error: give at least one run on each side of --", file=sys.stderr)
        return 2
    try:
        parent_runs = [json.loads(Path(p).read_text()) for p in parent_paths]
        change_runs = [json.loads(Path(p).read_text()) for p in change_paths]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    rows = compare(parent_runs, change_runs, spec)
    print(f"{'workload':<15} {'metric':<13} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse by':>9} {'wins':>7}  verdict")
    for row in rows:
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        print(f"{row['workload']:<15} {row['metric']:<13} "
              f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>34} "
              f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>34} "
              f"{row['worse_by']:>+8.1%} {row['wins']:>3}/{row['pairs']:<3}  "
              f"{row['verdict']} (bound {row['bound']:.0%}, spread {row['spread']:.1%})")
    status = 1 if any(row["verdict"] == "regressed" for row in rows) else 0
    before, after = fail_ratios(parent_runs), fail_ratios(change_runs)
    for workload, ratio in after.items():
        if ratio > before.get(workload, 0.0):
            print(f"{workload}: fail ratio rose from {before.get(workload, 0.0):.3g} "
                  f"to {ratio:.3g}")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
