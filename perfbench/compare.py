"""Compare two result sets of the benchmark, one row per workload and metric.

::

    python3 perfbench/compare.py OLD.json NEW.json

A result set is what ``repeat.py`` writes (``perfbench-results/1``):
runs of one commit over several seeds.  For every (workload, end-to-end
metric) pair present in both sets the tool prints both medians with
their quartiles and the relative change of the median, then a verdict:

* ``worse`` / ``better`` — the medians differ by more than the metric's
  bound from ``BENCHMARK.json``, in the metric's bad / good direction;
* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, so the runs cannot tell;
* ``same`` — within the bound.

A header line gives each set's median ``reference_loop_ms`` (a fixed
pure-Python loop timed by every run), so a difference that comes from a
busier host shows as such.  The exit status is 1 when any row is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def bounds() -> dict[str, dict]:
    """End-to-end metric name → its ``BENCHMARK.json`` entry."""
    try:
        spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return {entry["name"]: entry for entry in spec.get("end_to_end", [])}


def summarize(runs: list[dict]) -> dict[tuple[str, str], dict]:
    """(workload, metric) → median, quartiles and spread over the runs."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    out = {}
    for key, series in values.items():
        median = statistics.median(series)
        if len(series) > 1:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = series[0]
        spread = (q3 - q1) / abs(median) if median else 0.0
        out[key] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                    "n": len(series)}
    return out


def verdict(old: dict, new: dict, entry: dict) -> tuple[float, str]:
    """(relative change of the median, verdict word) for one row."""
    bound = entry["bound"]
    change = (new["median"] - old["median"]) / abs(old["median"])
    if max(old["spread"], new["spread"]) > bound:
        return change, "unresolved"
    worse = change > bound if entry["better"] == "lower" else change < -bound
    better = change < -bound if entry["better"] == "lower" else change > bound
    return change, "worse" if worse else "better" if better else "same"


def compare(old_runs: list[dict], new_runs: list[dict], limits: dict) -> list[dict]:
    old, new = summarize(old_runs), summarize(new_runs)
    rows = []
    for key in sorted(old.keys() & new.keys()):
        entry = limits.get(key[1])
        if entry is None:
            continue  # not an end-to-end metric (traced runs)
        change, word = verdict(old[key], new[key], entry)
        rows.append({"workload": key[0], "metric": key[1], "old": old[key],
                     "new": new[key], "change": change, "verdict": word,
                     "bound": entry["bound"], "unit": entry["unit"]})
    return rows


def _load(path: str) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def host_speed(runs: list[dict]) -> float | None:
    """Median ``reference_loop_ms`` of a result set's host records."""
    times = [
        run["host"]["reference_loop_ms"]
        for run in runs
        if "reference_loop_ms" in run.get("host", {})
    ]
    return statistics.median(times) if times else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old_runs, new_runs = _load(args.old), _load(args.new)
    rows = compare(old_runs, new_runs, bounds())

    def cell(s: dict) -> str:
        return f"{s['median']:.4g} [{s['q1']:.4g}–{s['q3']:.4g}]"

    speeds = host_speed(old_runs), host_speed(new_runs)
    if None not in speeds:
        print(f"host reference loop: old {speeds[0]:.1f} ms, new {speeds[1]:.1f} ms"
              " (a difference here is the host, not the program)")
    print(f"{'workload':16} {'metric':26} {'old median [q1–q3]':30} "
          f"{'new median [q1–q3]':30} {'change':>8} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:16} {row['metric']:26} {cell(row['old']):30} "
            f"{cell(row['new']):30} {row['change']:+8.1%} {row['bound']:6.0%}  "
            f"{row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
