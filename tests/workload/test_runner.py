"""Runner tests: live service verdicts must match the oracle exactly.

These run the full stack — generator → wire format → client →
server queue → dense monitor — hermetically (in-process server on an
ephemeral port), with one and with several concurrent sessions, with
and without faults.
"""

import asyncio
import socket

import pytest

from repro.core.errors import ReproError
from repro.obs.registry import Histogram, use_registry
from repro.service import MonitorServer
from repro.workload.generator import FaultSpec
from repro.workload.runner import (
    WorkloadReport,
    _drive_session,
    _histogram_from_prometheus,
    _workload_counters,
    run_workload,
)
from repro.workload.scenarios import get_scenario

from .conftest import SCENARIO_NAMES

FAULTS = FaultSpec(reorder=0.05, dup=0.05, drop=0.05)


class TestOracleAgreement:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("sessions", (1, 4))
    def test_faulted_run_agrees(self, name, sessions):
        # several sessions interleave their runs on the server's one queue
        report = run_workload(
            name, seed=13, faults=FAULTS, sessions=sessions, events=120
        )
        assert report.all_agree, report.describe()
        assert report.agreement == 1.0
        # the verdicts agree *positionally*, not just on presence
        for outcome in report.sessions:
            assert outcome.expected == outcome.observed
            assert outcome.errors == 0
        assert report.events_total > 0

    def test_fault_free_run_sees_no_violations(self):
        report = run_workload(
            "pubsub_fanout", seed=13, sessions=2, events=100
        )
        assert report.all_agree
        assert report.expected_violations == 0
        assert report.observed_violations == 0
        assert report.fault_counts() == {"reorder": 0, "dup": 0, "drop": 0}

    def test_sessions_use_distinct_seeds(self):
        report = run_workload(
            "leader_election", seed=1, faults=FAULTS, sessions=4, events=100
        )
        # with per-session seeds S:i, sessions diverge: their fault
        # tallies are not all identical
        assert len({tuple(sorted(s.faults.items())) for s in report.sessions}) > 1


class TestReportShape:
    @pytest.fixture(scope="class")
    def report(self):
        return run_workload(
            "two_phase_dynamic", seed=3, faults=FAULTS, sessions=2, events=80
        )

    def test_latency_summary_present_in_process(self, report):
        assert report.latency is not None
        assert report.latency["count"] == report.events_total
        assert set(report.latency) == {
            "count", "mean_us", "p50_us", "p90_us", "p99_us",
        }

    def test_latency_counts_only_this_run_against_a_shared_server(self):
        # Two runs against one external server: the server's histogram
        # holds both, and each report covers its own events only.
        async def go():
            registry = get_scenario("pubsub_fanout").registry()
            async with MonitorServer(registry) as server:
                return [
                    await asyncio.to_thread(
                        run_workload,
                        "pubsub_fanout",
                        seed=seed,
                        sessions=2,
                        events=60,
                        port=server.port,
                    )
                    for seed in (1, 2)
                ]

        for report in asyncio.run(go()):
            assert report.events_total == 120
            assert report.latency["count"] == report.events_total

    def test_run_record_matches_bench_schema(self, report):
        record = report.run_record("faulted")
        assert record["label"] == "faulted"
        assert record["sessions"] == 2
        assert record["events"] == report.events_total
        assert record["events_per_sec"] > 0
        assert set(record["faults"]) == {"reorder", "dup", "drop"}
        assert record["violations"]["agreement"] == 1.0

    def test_describe_is_human_readable(self, report):
        text = report.describe()
        assert "two_phase_dynamic" in text
        assert "oracle agreement 100%" in text
        assert "DISAGREEMENT" not in text

    def test_metrics_counters_fed(self):
        with use_registry() as registry:
            run_workload(
                "pubsub_fanout", seed=13, faults=FAULTS, sessions=2, events=80
            )
            snapshot = registry.snapshot()
        assert snapshot["repro_workload_events_total"][""] > 0
        assert snapshot["repro_workload_sessions_total"][""] == 2
        assert snapshot["repro_workload_disagreements_total"][""] == 0
        # at least one fault kind was injected at these rates
        assert snapshot["repro_workload_faults_total"]


class TestErrors:
    def test_unknown_scenario(self):
        with pytest.raises(ReproError, match="no scenario named"):
            run_workload("ghost")

    def test_unreachable_session_is_reported_not_raised(self):
        # A session whose client raises ServiceUnavailable (here: nothing
        # serves the port) is a failed outcome in the report.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        scenario = get_scenario("two_phase_dynamic")
        compiled = scenario.registry().get(scenario.monitored)

        async def run():
            with use_registry():
                return await _drive_session(
                    0,
                    "127.0.0.1",
                    port,
                    scenario,
                    compiled,
                    seed=1,
                    faults=FaultSpec(),
                    events=20,
                    duration=None,
                    binary=False,
                    batch=None,
                    counters=_workload_counters(),
                    session_key="k",
                )

        outcome = asyncio.run(run())
        assert outcome.unreachable and not outcome.agreed
        report = WorkloadReport(
            scenario=scenario.name,
            spec=scenario.monitored,
            seed=1,
            faults=FaultSpec(),
            sessions=(outcome,),
            seconds=1.0,
            latency=None,
        )
        text = report.describe()
        assert report.agreement == 0.0
        assert "oracle agreement 0%" in text
        assert "1 session(s) unreachable" in text


class TestPrometheusRoundTrip:
    def test_histogram_survives_exposition(self):
        with use_registry() as registry:
            hist = registry.histogram("rt_seconds", help="x")
            for value in (0.0005, 0.002, 0.002, 5.0):
                hist.observe(value)
            text = registry.format_prometheus()
        back = _histogram_from_prometheus(text, "rt_seconds")
        assert isinstance(back, Histogram)
        assert back.count == hist.count
        assert back.counts == hist.counts
        assert back.total == pytest.approx(hist.total)

    def test_absent_family_is_none(self):
        assert _histogram_from_prometheus("other_total 3\n", "rt_seconds") is None
