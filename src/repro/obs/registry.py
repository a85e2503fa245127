"""One metrics registry: counters, gauges, histograms, Prometheus text.

Every layer of the system writes its counters through this one sink
(the service, the checker, the pass pipeline, DFA exploration): a
:class:`MetricsRegistry` of named metric *families*, each family holding
one metric per label set, renderable as a stable ``snapshot()`` dict and
as Prometheus text exposition format (the service's ``METRICS`` verb and
``--metrics-port`` endpoint).

Conventions:

* Names follow Prometheus style — ``repro_cache_hits_total`` — and a
  family's kind (counter/gauge/histogram) is fixed at first registration;
  re-registering with a different kind raises
  :class:`~repro.core.errors.ObservabilityError`.
* Labels are passed as a tuple of ``(key, value)`` pairs and normalised
  to sorted order, so ``(("pass", "x"),)`` names one time series however
  the call site spells it.
* Metric objects are plain attribute-mutating values with no locks: the
  mutation sites are single-threaded (asyncio event loop, inline checker
  runs) or merge per-worker deltas on the parent, exactly as the legacy
  metric classes did.
* Accessors return the *same* object for the same (name, labels), so hot
  paths resolve a metric once and then pay one integer add per event.

The process-wide registry (:func:`get_registry`) is what the service
exports; :func:`use_registry` swaps in a fresh one for a block so tests
assert on exactly their own increments.
"""

from __future__ import annotations

import bisect
import contextlib
import math

from repro.core.errors import ObservabilityError

__all__ = [
    "DEFAULT_BUCKETS",
    "OBLIGATION_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Upper bounds (seconds) of the latency buckets: 1µs … ~1s, log-spaced.
DEFAULT_BUCKETS = tuple(1e-6 * 4**i for i in range(11))

#: Buckets for whole proof obligations: 1ms … ~1000s, log-spaced.  One
#: obligation compiles DFAs and runs automaton products, so it lives three
#: orders of magnitude above a single online event check.
OBLIGATION_BUCKETS = tuple(1e-3 * 4**i for i in range(11))


class Counter:
    """A monotonically increasing count (int or float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (pool sizes, intern-table sizes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount


class Histogram:
    """A fixed-bucket histogram of observations (seconds, usually).

    The shape is the service's historical ``LatencyHistogram`` —
    ``bounds``, per-bucket ``counts`` with one overflow bucket at the
    end, ``count``, ``total`` — kept bit-for-bit so every snapshot a
    test or dashboard pinned stays valid; Prometheus rendering is
    layered on top (cumulative ``_bucket`` series plus ``_sum``/
    ``_count``).
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(bounds))
        # one overflow bucket past the last bound
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float, n: int = 1) -> None:
        """Record ``n`` observations of ``seconds`` each."""
        self.counts[bisect.bisect_left(self.bounds, seconds)] += n
        self.count += n
        self.total += seconds * n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "buckets": {
                f"le_{bound:g}": n
                for bound, n in zip(self.bounds, self.counts)
            }
            | {"overflow": self.counts[-1]},
        }


#: The name :mod:`repro.service` exports the same class under.
LatencyHistogram = Histogram


def _norm_labels(labels) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    if isinstance(labels, dict):
        items = labels.items()
    else:
        items = labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


def _fmt_value(value: int | float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def _fmt_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Family:
    """One named family: a fixed kind, one metric per label set."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """A process-wide (or test-scoped) collection of metric families."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # -- registration ----------------------------------------------------

    def _get(self, name: str, kind: str, help: str, labels, factory):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help)
        elif family.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if help and not family.help:
            family.help = help
        key = _norm_labels(labels)
        metric = family.series.get(key)
        if metric is None:
            metric = family.series[key] = factory()
        return metric

    def counter(self, name: str, labels=(), help: str = "") -> Counter:
        """The counter for (name, labels), created on first touch."""
        return self._get(name, "counter", help, labels, Counter)

    def gauge(self, name: str, labels=(), help: str = "") -> Gauge:
        """The gauge for (name, labels), created on first touch."""
        return self._get(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        labels=(),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """The histogram for (name, labels), created on first touch."""
        return self._get(
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    # -- reporting -------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._families)

    def snapshot(self) -> dict:
        """Plain-dict snapshot: family name → {label-string: value}."""
        out: dict = {}
        for name in self.names():
            family = self._families[name]
            series: dict = {}
            for key, metric in sorted(family.series.items()):
                label = ",".join(f"{k}={v}" for k, v in key)
                if isinstance(metric, Histogram):
                    series[label] = metric.snapshot()
                else:
                    series[label] = metric.value
            out[name] = series
        return out

    def format_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in self.names():
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, metric in sorted(family.series.items()):
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, n in zip(metric.bounds, metric.counts):
                        cumulative += n
                        le = _fmt_labels(key, f'le="{_fmt_value(float(bound))}"')
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    le = _fmt_labels(key, 'le="+Inf"')
                    lines.append(f"{name}_bucket{le} {metric.count}")
                    lines.append(
                        f"{name}_sum{_fmt_labels(key)} {_fmt_value(metric.total)}"
                    )
                    lines.append(f"{name}_count{_fmt_labels(key)} {metric.count}")
                else:
                    lines.append(
                        f"{name}{_fmt_labels(key)} {_fmt_value(metric.value)}"
                    )
        return "\n".join(lines) + "\n"


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer writes through."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Swap in a fresh (or given) registry for a block; yields it.

    Test isolation: metric objects resolved *inside* the block land in
    the scoped registry; objects resolved before it keep writing to the
    old one (resolution happens at construction time by design).
    """
    if registry is None:
        registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
