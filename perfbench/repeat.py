"""Run the benchmark over many seeds and keep the runs as one result set.

::

    python3 perfbench/repeat.py --seeds 1-10 --seconds 40 --out perfbench-results.json

Each run is ``run.py`` in its own process, one after another, for every
workload unless ``--workloads`` names some; it prints every end-to-end
(or, with ``--trace 1``, per-layer) metric by name as it goes.  The
result set (``perfbench-results/1``) holds every run's host record and
final JSON object; ``compare.py`` reads two of them.  The summary
printed at the end gives, per workload and metric, the median, the
quartiles and the spread — the quartile distance as a share of the
median — next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import bounds, host_speed, summarize

HERE = Path(__file__).resolve().parent
SCHEMA = "perfbench-results/1"


def seeds(text: str) -> list[int]:
    """``1-10`` or ``1,4,9`` → list of seeds."""
    out: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    host = next(
        (json.loads(line[5:]) for line in lines if line.startswith("host ")), {}
    )
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": host,
        "log": lines[1:-1],
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default="text-stream,http-faulted",
        help="comma-separated (default: every workload)",
    )
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="result-set JSON file")
    args = parser.parse_args(argv)
    runs = []
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            metrics = runs[-1]["result"]["metrics"]
            print(
                f"{workload} seed={seed} "
                + ", ".join(
                    f"{k}={v['value']:.4g} {v['unit']}" for k, v in metrics.items()
                ),
                flush=True,
            )
    Path(args.out).write_text(
        json.dumps({"schema": SCHEMA, "runs": runs}, indent=1) + "\n",
        encoding="utf-8",
    )
    limits = bounds()
    speed = host_speed(runs)
    if speed is not None:
        print(f"host reference loop: {speed:.1f} ms (median over the runs)")
    print(f"{'workload':16} {'metric':26} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for (workload, metric), row in summarize(runs).items():
        bound = limits.get(metric, {}).get("bound")
        print(
            f"{workload:16} {metric:26} {row['median']:12.6g} {row['q1']:12.6g} "
            f"{row['q3']:12.6g} {row['spread']:8.3f} "
            f"{'' if bound is None else bound:>6}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
