"""The unified metrics registry and its Prometheus text rendering."""

import pytest

from repro.core.errors import ObservabilityError
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    use_registry,
)


def parse_prometheus(text: str) -> dict[str, dict[str, float]]:
    """name → {label-string: value}; '#' comment lines are skipped."""
    out: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(" ", 1)
        if "{" in name_labels:
            name, rest = name_labels.split("{", 1)
            labels = rest[:-1]
        else:
            name, labels = name_labels, ""
        out.setdefault(name, {})[labels] = float(value)
    return out


class TestMetricObjects:
    def test_counter_only_goes_up(self):
        c = MetricsRegistry().counter("c_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_histogram_buckets_and_overflow(self):
        h = Histogram(bounds=(0.1, 1.0))
        for x in (0.05, 0.5, 0.5, 99.0):
            h.observe(x)
        assert h.count == 4
        assert h.counts == [1, 2, 1]
        assert h.total == pytest.approx(100.05)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"]["overflow"] == 1
        assert snap["mean_seconds"] == pytest.approx(100.05 / 4)

    def test_histogram_weighted_observation(self):
        h = Histogram(bounds=(0.1, 1.0))
        h.observe(0.5, 3)
        h.observe(0.05)
        assert h.counts == [1, 3, 0]
        assert h.count == 4
        assert h.total == pytest.approx(1.55)


class TestRegistry:
    def test_same_object_per_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", labels=(("spec", "W"),))
        b = reg.counter("hits_total", labels=(("spec", "W"),))
        c = reg.counter("hits_total", labels=(("spec", "R"),))
        assert a is b and a is not c

    def test_label_order_is_normalised(self):
        reg = MetricsRegistry()
        a = reg.counter("x", labels=(("b", "2"), ("a", "1")))
        b = reg.counter("x", labels={"a": "1", "b": "2"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ObservabilityError):
            reg.gauge("n")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", help="c").inc(3)
        reg.histogram("h_seconds").observe(0.5)
        snap = reg.snapshot()
        assert snap["c_total"][""] == 3
        assert snap["h_seconds"][""]["count"] == 1
        assert reg.names() == ["c_total", "h_seconds"]

    def test_use_registry_scopes_and_restores(self):
        outer = get_registry()
        with use_registry() as scoped:
            assert get_registry() is scoped
            get_registry().counter("scoped_total").inc()
            assert "scoped_total" in scoped.names()
        assert get_registry() is outer
        assert "scoped_total" not in outer.names()


class TestPrometheusText:
    def test_round_trip_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_hits_total", labels=(("spec", "W"),), help="hits"
        ).inc(3)
        reg.gauge("repro_pool", help="pool size").set(2)
        h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for x in (0.05, 0.5, 99.0):
            h.observe(x)

        text = reg.format_prometheus()
        assert "# HELP repro_hits_total hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert "# TYPE repro_lat_seconds histogram" in text
        assert text.endswith("\n")

        samples = parse_prometheus(text)
        assert samples["repro_hits_total"]['spec="W"'] == 3.0
        assert samples["repro_pool"][""] == 2.0
        # buckets are cumulative; +Inf equals the observation count
        buckets = samples["repro_lat_seconds_bucket"]
        assert buckets['le="0.1"'] == 1.0
        assert buckets['le="1.0"'] == 2.0
        assert buckets['le="+Inf"'] == 3.0
        assert samples["repro_lat_seconds_count"][""] == 3.0
        assert samples["repro_lat_seconds_sum"][""] == pytest.approx(99.55)

    def test_default_buckets_are_log_spaced_seconds(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert all(
            b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        )
