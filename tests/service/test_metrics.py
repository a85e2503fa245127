"""Tests for service metrics: counters, histograms, snapshot shape."""

import pytest

from repro.obs.metrics import CheckerMetrics, ServiceMetrics
from repro.obs.registry import LatencyHistogram, use_registry


class TestLatencyHistogram:
    def test_counts_and_mean(self):
        hist = LatencyHistogram()
        hist.observe(1e-6)
        hist.observe(3e-6)
        assert hist.count == 2
        assert abs(hist.mean - 2e-6) < 1e-12

    def test_buckets_are_cumulative_ready(self):
        hist = LatencyHistogram(bounds=(0.001, 0.01))
        hist.observe(0.0005)
        hist.observe(0.005)
        hist.observe(5.0)  # overflow
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"]["overflow"] == 1
        assert sum(snap["buckets"].values()) == 3

    def test_empty_mean_is_zero(self):
        assert LatencyHistogram().mean == 0.0


class TestServiceMetrics:
    def test_event_counters(self):
        with use_registry() as registry:
            metrics = ServiceMetrics()
            metrics.record_event(1e-6, skipped=0)
            metrics.record_event(1e-6, skipped=1)
            metrics.record_event(1e-6, skipped=0)
            metrics.record_malformed()
            metrics.record_violation()
        snap = metrics.snapshot()
        assert snap["events_observed"] == 3
        assert snap["events_skipped"] == 1
        assert snap["events_malformed"] == 1
        assert snap["violations"] == 1
        assert snap["latency"]["count"] == 3
        steps = registry.snapshot()["repro_monitor_steps_total"][""]
        assert steps == 2

    def test_a_run_is_one_call_with_per_event_counts(self):
        with use_registry():
            metrics = ServiceMetrics()
            metrics.record_event(8e-6, events=4, skipped=1)
        snap = metrics.snapshot()
        assert snap["events_observed"] == 4
        assert snap["events_skipped"] == 1
        latency = snap["latency"]
        assert latency["count"] == 4
        assert latency["mean_seconds"] == pytest.approx(2e-6)

    def test_a_batch_is_one_observation(self):
        with use_registry() as registry:
            metrics = ServiceMetrics()
            metrics.record_batch(64, 1e-4)
        snap = metrics.snapshot()
        assert snap["events_observed"] == 64
        assert snap["latency"]["count"] == 1
        values = registry.snapshot()
        assert values["repro_monitor_batches_total"][""] == 1
        assert values["repro_monitor_batched_events_total"][""] == 64

    def test_session_counters(self):
        with use_registry():
            metrics = ServiceMetrics()
            metrics.session_opened()
            metrics.session_opened()
            metrics.session_closed()
        snap = metrics.snapshot()
        assert snap["sessions_opened"] == 2 and snap["sessions_closed"] == 1

    def test_the_snapshot_reads_the_registry(self):
        with use_registry() as registry:
            metrics = ServiceMetrics()
            metrics.record_event(2e-6, events=3, skipped=1)
            metrics.record_malformed(2)
            metrics.session_opened()
        values = registry.snapshot()
        snap = metrics.snapshot()
        for key, family in (
            ("events_observed", "repro_monitor_events_total"),
            ("events_skipped", "repro_monitor_skipped_total"),
            ("events_malformed", "repro_monitor_malformed_total"),
            ("violations", "repro_monitor_violations_total"),
            ("sessions_opened", "repro_sessions_opened_total"),
            ("sessions_closed", "repro_sessions_closed_total"),
        ):
            assert snap[key] == values[family][""], key
        assert snap["latency"] == values["repro_event_check_seconds"][""]


class TestCheckerMetrics:
    def _outcome(self, *, agrees=True, error=None, seconds=0.1):
        class FakeOutcome:
            pass

        o = FakeOutcome()
        o.agrees = agrees
        o.error = error
        o.seconds = seconds
        return o

    def test_outcome_counters(self):
        m = CheckerMetrics()
        m.record_outcome(self._outcome(agrees=True))
        m.record_outcome(self._outcome(agrees=False))
        m.record_outcome(self._outcome(error="RefinementError: nope"))
        m.record_outcome(self._outcome(error="EngineTimeout: exceeded 2s"))
        snap = m.snapshot()
        assert snap["obligations_run"] == 4
        assert snap["agreements"] == 1
        assert snap["disagreements"] == 1
        assert snap["errors"] == 2
        assert snap["timeouts"] == 1
        assert snap["wall"]["count"] == 4

    def test_cache_delta_merge_and_hit_rate(self):
        m = CheckerMetrics()
        m.record_cache(hits=3, misses=1, stores=1)
        m.record_cache(hits=1, uncacheable=1, errors=1)
        assert m.cache_lookups == 6
        assert abs(m.cache_hit_rate - 4 / 6) < 1e-12
        snap = m.snapshot()
        assert snap["cache_hits"] == 4
        assert snap["cache_errors"] == 1

    def test_empty_hit_rate_is_zero(self):
        assert CheckerMetrics().cache_hit_rate == 0.0
