"""Tests of the benchmark itself: smoke runs, oracle check, tracing, compare.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import loadgen
import run as bench

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- the contract -------------------------------------------------------------


def test_benchmark_json_names_what_the_code_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(loadgen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("workload", loadgen.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "7", "--seconds", "0.4",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    assert all(
        isinstance(m["value"], (int, float)) for m in result["metrics"].values()
    )
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(
        PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(
        "--workload", "text-stream", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- in-process drives ----------------------------------------------------------


async def _drive_text(plans, seconds: float):
    """Drive ``text-stream`` plans against an in-process server."""
    from repro.service import MonitorServer
    from repro.workload.scenarios import get_scenario

    spec, per_connection = plans
    async with MonitorServer(get_scenario("two_phase_dynamic").registry()) as server:
        conns = await loadgen.open_connections(
            "text-stream", server.port, spec, per_connection, 0
        )
        try:
            tally, _window = await loadgen.drive(conns, seconds)
        finally:
            for conn in conns:
                await conn.close()
    return tally


def test_oracle_check_fails_on_a_wrong_expectation():
    spec, per_connection = loadgen.build_plans("text-stream", 3, 1)
    honest = asyncio.run(_drive_text((spec, per_connection), 0.2))
    assert honest.failed == 0 and honest.disagreements == 0
    # Claim the oracle expects a violation at event 5 of every chunk.
    plan = per_connection[0]
    plan.expect = [5] * len(plan.expect)
    tally = asyncio.run(_drive_text((spec, [plan]), 0.2))
    assert tally.disagreements == tally.ops > 0
    assert tally.failed == tally.ops and tally.events == 0
    assert "!= oracle 5" in tally.notes[0]


def test_judge_classifies_replies():
    from repro.service.protocol import SessionStatus

    clean = SessionStatus(events=64)
    assert loadgen.judge(clean, 64, None) is None
    assert loadgen.judge(None, 64, None) == ("ERR reply", False)
    assert loadgen.judge(clean, 64, 3)[1] is True
    assert loadgen.judge(SessionStatus(events=64, errors=1), 64, None)[1] is False
    assert loadgen.judge(clean, 128, None)[1] is False


def test_untraced_run_carries_no_wrapper_after_a_traced_run():
    plans = loadgen.build_plans("text-stream", 4, 1)
    originals = {}
    for _layer, module, path, _kind in layers.TARGETS:
        owner, attr = layers._resolve(module, path)
        originals[(module, path)] = owner.__dict__[attr]

    tracer = layers.Tracer().install()
    try:
        assert len(layers.wrapped_targets()) == len(layers.TARGETS)
        traced = asyncio.run(_drive_text(plans, 0.2))
    finally:
        tracer.uninstall()
    counted = tracer.snapshot()
    assert counted["SpecMonitor.observe"]["calls"] == traced.events > 0

    assert layers.wrapped_targets() == []
    for (module, path), original in originals.items():
        owner, attr = layers._resolve(module, path)
        assert owner.__dict__[attr] is original, f"{module}.{path}"
    untraced = asyncio.run(_drive_text(plans, 0.2))
    assert untraced.events > 0 and untraced.failed == 0
    assert tracer.snapshot() == counted  # nothing reached the old wrappers


def test_self_time_excludes_nested_regions_and_coroutine_waits():
    from time import sleep

    tracer = layers.Tracer()
    outer_stat, inner_stat, coro_stat = layers._Stat(), layers._Stat(), layers._Stat()
    inner = tracer._sync(lambda: sleep(0.03), inner_stat, "inner")

    def outer_fn():
        sleep(0.02)
        inner()

    outer = tracer._sync(outer_fn, outer_stat, "outer")

    async def waiting():
        await asyncio.sleep(0.05)  # suspended: not work
        outer()  # nested inside one step of the coroutine

    asyncio.run(tracer._async(waiting, coro_stat, "waiting")())
    assert 0.025 < inner_stat.self_ns / 1e9 < 0.045
    assert 0.015 < outer_stat.self_ns / 1e9 < 0.028
    assert outer_stat.wall_ns / 1e9 > 0.045
    assert coro_stat.self_ns / 1e9 < 0.005
    assert coro_stat.wall_ns / 1e9 > 0.095
    assert coro_stat.calls == outer_stat.calls == inner_stat.calls == 1


# -- reference speed and stolen time ---------------------------------------------


def _window(slices, samples, cpu_ns=1_000_000):
    tally = loadgen.Tally(samples=samples, events=sum(p.events for p in slices))
    tally.slices = slices
    mark = {"hwm_kib": 1024}
    return bench.Window(tally, 1.0, {**mark, "cpu_ns": 0}, {**mark, "cpu_ns": cpu_ns}, 0.0)


def test_window_scales_to_the_reference_speed_and_drops_stolen_time():
    ref = bench.REFERENCE_S
    slices = [
        # a CPU twice as slow as the reference: times halve
        loadgen.Slice(100, 0.1, 0.0, 2 * ref, 0, 2),
        # reference speed, but half the slice went to another guest
        loadgen.Slice(100, 0.1, 0.05, ref, 2, 4),
    ]
    window = _window(slices, [0.002, 0.004, 0.030, 0.001])
    assert window.reference_s == pytest.approx(0.05 + 0.05)
    assert window.events_per_s == pytest.approx(200 / 0.1)
    assert window.slowdown == pytest.approx(0.2 / (0.05 + 0.1))
    # only the steal-free slice's samples, halved
    assert window.ordered == pytest.approx([0.001, 0.002])
    figures, context = bench.figures(window)
    assert figures["verdict_p90_ms"] == pytest.approx(2.0)
    assert figures["server_cpu_us_per_event"] == pytest.approx(
        1e6 / 200 / 1e3 / window.slowdown
    )
    assert context["unscaled_verdict_p90_ms"] == pytest.approx(30.0)


def test_clean_slices_falls_back_to_the_least_stolen_half():
    s = loadgen.Slice
    some = [s(1, 0.1, 0.0, 1.0, 0, 10), s(1, 0.1, 0.01, 1.0, 10, 20)]
    assert bench.clean_slices(some) == some[:1]  # half the round trips
    busy = [s(1, 0.1, 0.02, 1.0, 0, 10), s(1, 0.1, 0.01, 1.0, 10, 20),
            s(1, 0.1, 0.0, 1.0, 20, 25), s(1, 0.1, 0.03, 1.0, 25, 35)]
    assert bench.clean_slices(busy) == [busy[2], busy[1]]


# -- compare ----------------------------------------------------------------------


def _result_set(values: dict[str, list[float]]) -> list[dict]:
    """One run per index: {metric: [value per run]} for workload ``w``."""
    count = len(next(iter(values.values())))
    return [
        {
            "workload": "w",
            "seed": i,
            "result": {
                "metrics": {
                    name: {"value": series[i], "unit": "x"}
                    for name, series in values.items()
                }
            },
        }
        for i in range(count)
    ]


LIMITS = {
    "events_per_s": {"name": "events_per_s", "unit": "events/s",
                     "better": "higher", "bound": 0.1},
    "verdict_p50_ms": {"name": "verdict_p50_ms", "unit": "ms",
                       "better": "lower", "bound": 0.1},
    "setup_s": {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
}


def test_compare_flags_worse_better_same_and_unresolved(tmp_path, capsys):
    old = _result_set({
        "events_per_s": [100, 101, 99, 100, 100],
        "verdict_p50_ms": [1.0, 1.01, 0.99, 1.0, 1.0],
        "setup_s": [0.2, 0.21, 0.2, 0.19, 0.2],
        "trace.overhead_ratio": [1.3, 1.3, 1.3, 1.3, 1.3],
    })
    new = _result_set({
        "events_per_s": [60, 61, 59, 60, 60],  # 40 % fewer: worse
        "verdict_p50_ms": [0.5, 0.51, 0.49, 0.5, 0.5],  # halved: better
        "setup_s": [0.1, 0.3, 0.2, 0.15, 0.25],  # wide spread: unresolved
        "trace.overhead_ratio": [1.0, 1.0, 1.0, 1.0, 1.0],  # not compared
    })
    rows = {r["metric"]: r for r in compare.compare(old, new, LIMITS)}
    assert set(rows) == {"events_per_s", "verdict_p50_ms", "setup_s"}
    assert rows["events_per_s"]["verdict"] == "worse"
    assert rows["events_per_s"]["change"] == pytest.approx(-0.4)
    assert rows["verdict_p50_ms"]["verdict"] == "better"
    assert rows["setup_s"]["verdict"] == "unresolved"
    same = compare.compare(old, old, LIMITS)
    assert {r["verdict"] for r in same} == {"same"}

    paths = []
    for name, runs in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"schema": "perfbench-results/1", "runs": runs}))
        paths.append(str(path))
    # the command line reads the bounds of BENCHMARK.json (0.25)
    assert compare.main(paths) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "unresolved" in out and "better" in out
    assert compare.main([paths[0], paths[0]]) == 0
