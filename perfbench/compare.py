"""Compare benchmark results of a parent commit and a change, metric by metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the standard output of benchmark runs, one run per
file.  Runs are paired by workload, trace flag and seed, so run both sides
on the same seeds, at least ten, alternating which side runs first.  Every
metric x workload pairing gets its own row; workloads are never combined
into one score.  A row shows each side's median and quartiles, the share
of pairs the change wins (ties count for neither side), and a verdict:

  gain        the change wins at least 90% of the pairs and the medians
              differ by more than the parent's interquartile range
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound
  worse       it is worse by more than the bound
  unresolved  a side's interquartile range, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run

Per-layer metrics have no bound; their rows carry no verdict.  The exit
code is 1 if any row is "worse" and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

GAIN_WIN_RATE = 0.9


def load_runs(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """{(workload, trace): {seed: metrics}} from the result files in ``directory``.

    A file may hold several runs, as ``--workload all`` prints them; each
    result line belongs to the ``{"run": ...}`` line just before it.
    """
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        facts = None
        for line in path.read_text().splitlines():
            if not line.startswith("{"):
                continue
            data = json.loads(line)
            if "run" in data:
                facts = data["run"]
            elif "metrics" in data and facts is not None:
                key = (facts["workload"], facts["trace"])
                runs.setdefault(key, {})[facts["seed"]] = {
                    name: m["value"] for name, m in data["metrics"].items()
                }
                facts = None
    return runs


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_row(parent: list[float], change: list[float], better: str, bound: float | None):
    """Figures and verdict of one metric x workload row; runs are paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = _summary(parent)
    c_q1, c_med, c_q3 = _summary(change)
    row = {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "win_rate": wins / len(parent),
        "verdict": "",
    }
    if bound is None or p_med == 0 or c_med == 0:
        return row
    worse_by = sign * (p_med - c_med) / abs(p_med)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    improved = sign * (c_med - p_med) > p_q3 - p_q1
    if row["win_rate"] >= GAIN_WIN_RATE and improved:
        row["verdict"] = "gain"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse_by > bound:
        row["verdict"] = "worse"
    else:
        row["verdict"] = "no worse"
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)

    worse = False
    print(
        f"{'workload':<13} {'metric':<34} {'parent med [q1, q3]':>32} "
        f"{'change med [q1, q3]':>32} {'wins':>5}  verdict"
    )
    for key in sorted(parent_runs.keys() & change_runs.keys()):
        seeds = sorted(parent_runs[key].keys() & change_runs[key].keys())
        if not seeds:
            continue
        unpaired = (parent_runs[key].keys() | change_runs[key].keys()) - set(seeds)
        if unpaired:
            print(f"# {key[0]}: runs without a partner ignored, seeds {sorted(unpaired)}")
        for name, m in metrics.items():
            if name not in parent_runs[key][seeds[0]]:
                continue
            parent = [parent_runs[key][s][name] for s in seeds]
            change = [change_runs[key][s][name] for s in seeds]
            if not any(parent + change):
                continue  # a layer this workload never calls
            row = compare_row(parent, change, m["better"], m.get("bound"))
            worse |= row["verdict"] == "worse"
            cells = [
                "{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in ("parent", "change")
            ]
            print(
                f"{key[0]:<13} {name:<34} {cells[0]:>32} {cells[1]:>32} "
                f"{row['win_rate']:>5.0%}  {row['verdict']}"
            )
        print(f"# {key[0]} trace={key[1]}: {len(seeds)} pairs")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
