"""CLI surface of the workload subsystem, plus serve/send exit codes."""

import asyncio
import io
import json
import threading

import pytest

from repro.cli import main
from repro.service import MonitorServer, SpecRegistry


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_three(self):
        code, text = run("workload", "list")
        assert code == 0
        for name in ("two_phase_dynamic", "pubsub_fanout", "leader_election"):
            assert name in text
        assert "monitored spec: FanOutBroker" in text


class TestRun:
    def test_fault_free_run_exits_zero(self):
        code, text = run(
            "workload", "run", "leader_election",
            "--seed", "3", "--sessions", "2", "--events", "60",
        )
        assert code == 0
        assert "oracle agreement 100%" in text
        assert "expected 0, observed 0" in text

    def test_faulted_run_exits_zero_when_oracle_agrees(self):
        code, text = run(
            "workload", "run", "pubsub_fanout",
            "--seed", "7", "--faults", "reorder=0.05,dup=0.05,drop=0.05",
            "--sessions", "3", "--events", "100",
        )
        assert code == 0
        assert "oracle agreement 100%" in text

    def test_unknown_scenario_exits_two(self):
        code, text = run("workload", "run", "ghost")
        assert code == 2 and "no scenario named" in text

    def test_malformed_faults_exit_two(self):
        code, text = run(
            "workload", "run", "pubsub_fanout", "--faults", "flip=0.5"
        )
        assert code == 2 and "bad fault" in text

    def test_host_without_port_exits_two(self):
        code, text = run(
            "workload", "run", "pubsub_fanout", "--host", "127.0.0.1"
        )
        assert code == 2 and "--host needs --port" in text

    def test_bench_out_writes_baseline_and_faulted(self, tmp_path):
        code, text = run(
            "workload", "run", "two_phase_dynamic",
            "--seed", "11", "--faults", "drop=0.05",
            "--sessions", "2", "--events", "60",
            "--bench-out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "BENCH_workload_two_phase_dynamic.json"
        assert str(path) in text
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-bench/1"
        assert doc["params"]["scenario"] == "two_phase_dynamic"
        assert [r["label"] for r in doc["runs"]] == ["fault-free", "faulted"]
        for record in doc["runs"]:
            assert record["violations"]["agreement"] == 1.0
            assert record["events_per_sec"] > 0


class TestVerify:
    def test_scenario_claims_through_engine(self):
        code, text = run("workload", "verify", "leader_election")
        assert code == 0
        assert "| wel-1 |" in text
        assert "all leader_election claims agree" in text


class TestServeScenario:
    def test_file_and_scenario_both_rejected(self, tmp_path):
        doc = tmp_path / "x.oun"
        doc.write_text("object o\n")
        code, text = run(
            "serve", str(doc), "--scenario", "pubsub_fanout", "--port", "0"
        )
        assert code == 2 and "exactly one" in text

    def test_neither_rejected(self):
        code, text = run("serve", "--port", "0")
        assert code == 2 and "exactly one" in text

    def test_unknown_scenario_rejected(self):
        code, text = run("serve", "--scenario", "ghost", "--port", "0")
        assert code == 2 and "no scenario named" in text


@pytest.fixture()
def live_server():
    """A MonitorServer on its own thread/loop, for CLI-level send tests."""
    from repro.workload.scenarios import get_scenario

    scenario = get_scenario("pubsub_fanout")
    registry = scenario.registry()
    started = threading.Event()
    box = {}

    def serve():
        async def body():
            async with MonitorServer(registry) as server:
                box["port"] = server.port
                box["stop"] = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                started.set()
                await box["stop"].wait()

        asyncio.run(body())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(5.0)
    yield box["port"]
    box["loop"].call_soon_threadsafe(box["stop"].set)
    thread.join(5.0)


class TestSendExitCodes:
    """`repro send` must exit nonzero when the service observes a violation."""

    def test_clean_trace_exits_zero(self, tmp_path, live_server):
        trace = tmp_path / "ok.trace"
        trace.write_text("pb1 -> bk : PUB(Data:d1)\n")
        code, text = run(
            "send", str(trace), "--spec", "FanOutBroker",
            "--port", str(live_server),
        )
        assert code == 0 and "events ok" in text

    def test_violating_trace_exits_one(self, tmp_path, live_server):
        trace = tmp_path / "bad.trace"
        # an ACK before any delivery violates the broker protocol
        trace.write_text(
            "pb1 -> bk : PUB(Data:d1)\ns1 -> bk : ACK\n"
        )
        code, text = run(
            "send", str(trace), "--spec", "FanOutBroker",
            "--port", str(live_server),
        )
        assert code == 1 and "violated at event #1" in text

    def test_workload_run_against_external_server(self, live_server):
        code, text = run(
            "workload", "run", "pubsub_fanout",
            "--seed", "5", "--faults", "dup=0.05",
            "--sessions", "2", "--events", "60",
            "--host", "127.0.0.1", "--port", str(live_server),
        )
        assert code == 0
        assert "oracle agreement 100%" in text
