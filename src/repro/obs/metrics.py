"""Layer-level metric bundles, unified on the :mod:`repro.obs` registry.

:class:`ServiceMetrics` (online monitoring), :class:`CheckerMetrics`
(obligation engine + machine cache) and :class:`NormalizationMetrics`
(pass pipeline) all write through the process-wide
:class:`~repro.obs.registry.MetricsRegistry`, so one Prometheus scrape
sees the whole system regardless of which layer did the work.

The service's counts live *only* in the registry: :class:`ServiceMetrics`
holds the resolved metric objects and derives ``snapshot()`` from them.
The checker and pipeline bundles also keep their own integers, because
they count a different quantity: one engine run (``EngineRun.metrics``)
or one pipeline, while the registry counts the whole process.  A
snapshot derived from the registry would be cumulative across runs.

Registry metric objects are resolved once at construction (a dict lookup
per event would not survive on the service's hot path); per-pass labelled
counters resolve per distinct pass name.  All mutation is single-threaded
or delta-merged on a parent, as before — no locks.
"""

from __future__ import annotations

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    LatencyHistogram,
    MetricsRegistry,
    OBLIGATION_BUCKETS,
    get_registry,
)

__all__ = [
    "LatencyHistogram",
    "ServiceMetrics",
    "CheckerMetrics",
    "NormalizationMetrics",
    "DEFAULT_BUCKETS",
    "OBLIGATION_BUCKETS",
    "declare_cache_counters",
]


def declare_cache_counters(registry: MetricsRegistry) -> dict:
    """Resolve (creating on first touch) the machine-cache counter family.

    Shared by :class:`CheckerMetrics` and the service's metrics endpoint:
    the service pre-touches them so a scrape shows the family at zero
    even before any offline check ran in the process.
    """
    return {
        "hits": registry.counter(
            "repro_cache_hits_total", help="machine-cache lookups served from disk"
        ),
        "misses": registry.counter(
            "repro_cache_misses_total", help="machine-cache lookups that compiled"
        ),
        "stores": registry.counter(
            "repro_cache_stores_total", help="compiled machines written to the cache"
        ),
        "errors": registry.counter(
            "repro_cache_errors_total", help="corrupt or unwritable cache entries"
        ),
        "uncacheable": registry.counter(
            "repro_cache_uncacheable_total",
            help="compilations without a stable fingerprint",
        ),
    }


class CheckerMetrics:
    """Counters and wall-time histogram for one obligation-engine run.

    Measures the *offline* checker: whole proof obligations instead of
    single events, plus the machine cache's hit/miss/store/error and
    uncacheable counts.  Mutation happens either on one thread (inline
    runs) or by merging per-worker deltas on the parent (parallel runs),
    so plain integers are race-free here too.
    """

    def __init__(self) -> None:
        self.obligations_run = 0
        self.agreements = 0
        self.disagreements = 0
        self.errors = 0
        self.timeouts = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stores = 0
        self.cache_errors = 0
        self.cache_uncacheable = 0
        self.wall = LatencyHistogram(OBLIGATION_BUCKETS)
        registry = get_registry()
        self._g_cache = declare_cache_counters(registry)
        self._c_obligations = registry.counter(
            "repro_obligations_total", help="proof obligations run"
        )
        self._c_errors = registry.counter(
            "repro_obligation_errors_total", help="obligations ending in error"
        )
        self._c_timeouts = registry.counter(
            "repro_obligation_timeouts_total", help="obligations killed by timeout"
        )
        self._h_wall = registry.histogram(
            "repro_obligation_seconds",
            buckets=OBLIGATION_BUCKETS,
            help="wall seconds per proof obligation",
        )

    # -- recording -----------------------------------------------------------

    def record_outcome(self, outcome) -> None:
        """One finished :class:`~repro.checker.obligations.ObligationOutcome`."""
        self.obligations_run += 1
        self._c_obligations.inc()
        self.wall.observe(outcome.seconds)
        self._h_wall.observe(outcome.seconds)
        if outcome.error is not None:
            self.errors += 1
            self._c_errors.inc()
            if "timeout" in outcome.error.lower():
                self.timeouts += 1
                self._c_timeouts.inc()
        elif outcome.agrees:
            self.agreements += 1
        else:
            self.disagreements += 1

    def record_cache(
        self,
        *,
        hits: int = 0,
        misses: int = 0,
        stores: int = 0,
        errors: int = 0,
        uncacheable: int = 0,
    ) -> None:
        """Merge a cache-stats delta (one worker's, or a whole run's)."""
        self.cache_hits += hits
        self.cache_misses += misses
        self.cache_stores += stores
        self.cache_errors += errors
        self.cache_uncacheable += uncacheable
        self._g_cache["hits"].inc(hits)
        self._g_cache["misses"].inc(misses)
        self._g_cache["stores"].inc(stores)
        self._g_cache["errors"].inc(errors)
        self._g_cache["uncacheable"].inc(uncacheable)

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses + self.cache_uncacheable

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict snapshot; keys are stable for tests and dumps."""
        return {
            "obligations_run": self.obligations_run,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stores": self.cache_stores,
            "cache_errors": self.cache_errors,
            "cache_uncacheable": self.cache_uncacheable,
            "wall": self.wall.snapshot(),
        }


class NormalizationMetrics:
    """Per-pass rewrite counts and wall time for a normalization pipeline.

    One instance lives on each :class:`~repro.passes.base.PassPipeline`
    (the process-wide default pipeline accumulates across every
    normalization the process runs).  Same conventions as the sibling
    classes: monotonic counters mutated from one thread and a stable
    ``snapshot()`` shape.
    """

    def __init__(self) -> None:
        self.normalizations = 0
        self.rewrites = 0
        self.pass_rewrites: dict[str, int] = {}
        self.pass_seconds: dict[str, float] = {}
        registry = get_registry()
        self._registry = registry
        self._c_runs = registry.counter(
            "repro_normalize_runs_total", help="whole pipeline runs"
        )
        self._c_rewrites = registry.counter(
            "repro_normalize_rewrites_total", help="rewrites fired, all passes"
        )
        self._c_pass: dict[str, tuple] = {}

    # -- recording -----------------------------------------------------------

    def record_pass(self, name: str, rewrites: int, seconds: float) -> None:
        """One application of one pass (possibly zero rewrites)."""
        self.pass_rewrites[name] = self.pass_rewrites.get(name, 0) + rewrites
        self.pass_seconds[name] = self.pass_seconds.get(name, 0.0) + seconds
        counters = self._c_pass.get(name)
        if counters is None:
            labels = (("pass", name),)
            counters = self._c_pass[name] = (
                self._registry.counter(
                    "repro_normalize_pass_rewrites_total",
                    labels,
                    help="rewrites fired per pass",
                ),
                self._registry.counter(
                    "repro_normalize_pass_seconds_total",
                    labels,
                    help="wall seconds spent per pass",
                ),
            )
        counters[0].inc(rewrites)
        counters[1].inc(seconds)

    def record_run(self, rewrites: int) -> None:
        """One whole pipeline run over one trace set."""
        self.normalizations += 1
        self.rewrites += rewrites
        self._c_runs.inc()
        self._c_rewrites.inc(rewrites)

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict snapshot; keys are stable for tests and dumps."""
        return {
            "normalizations": self.normalizations,
            "rewrites": self.rewrites,
            "passes": {
                name: {
                    "rewrites": self.pass_rewrites.get(name, 0),
                    "seconds": self.pass_seconds.get(name, 0.0),
                }
                for name in sorted(
                    set(self.pass_rewrites) | set(self.pass_seconds)
                )
            },
        }


class ServiceMetrics:
    """The online service's accounting, held only in the registry.

    Each method updates the registry metrics resolved at construction,
    once each; :meth:`snapshot` reads them back.  Because the registry
    is process-wide, two servers in one process share these counts (a
    test that asserts absolute values builds its server inside
    :func:`~repro.obs.registry.use_registry`).
    """

    def __init__(self) -> None:
        registry = get_registry()
        self._c_events = registry.counter(
            "repro_monitor_events_total", help="events accepted by sessions"
        )
        self._c_steps = registry.counter(
            "repro_monitor_steps_total",
            help="in-alphabet events stepped through a monitor",
        )
        self._c_skipped = registry.counter(
            "repro_monitor_skipped_total", help="events outside the bound alphabet"
        )
        self._c_malformed = registry.counter(
            "repro_monitor_malformed_total", help="unparseable or spec-less events"
        )
        self._c_violations = registry.counter(
            "repro_monitor_violations_total", help="first violations detected"
        )
        self._c_opened = registry.counter(
            "repro_sessions_opened_total",
            help="sessions whose first SPEC succeeded (durable re-attach included)",
        )
        self._c_closed = registry.counter(
            "repro_sessions_closed_total",
            help="sessions counted as opened that have since ended",
        )
        self._h_check = registry.histogram(
            "repro_event_check_seconds", help="per-event check latency, all specs"
        )
        self._c_batches = registry.counter(
            "repro_monitor_batches_total",
            help="EVENTS batches stepped by binary sessions",
        )
        self._c_batched = registry.counter(
            "repro_monitor_batched_events_total",
            help="events carried by EVENTS batches",
        )

    # -- recording -----------------------------------------------------------

    def record_batch(self, n: int, seconds: float) -> None:
        """One ``EVENTS`` batch of ``n`` in-alphabet events checked.

        The whole point of batching is to amortise accounting, so this is
        *one* histogram observation (the batch's wall time — per-event
        latency is ``seconds / n``) and counter increments of ``n``,
        not ``n`` per-event records.
        """
        self._c_events.inc(n)
        self._c_steps.inc(n)
        self._c_batches.inc()
        self._c_batched.inc(n)
        self._h_check.observe(seconds)

    def record_event(
        self, seconds: float, *, events: int = 1, skipped: int = 0
    ) -> None:
        """``events`` events checked in ``seconds`` in all.

        ``skipped`` of them were outside the alphabet.  A text run is one
        call: counters move by the run's counts, and the histogram takes
        ``events`` observations of the mean per-event latency, so its
        count stays one per event.
        """
        self._c_events.inc(events)
        if skipped:
            self._c_skipped.inc(skipped)
        if events > skipped:
            self._c_steps.inc(events - skipped)
        if events > 1:
            seconds /= events
        self._h_check.observe(seconds, events)

    def record_malformed(self, n: int = 1) -> None:
        self._c_malformed.inc(n)

    def record_violation(self) -> None:
        self._c_violations.inc()

    def session_opened(self) -> None:
        self._c_opened.inc()

    def session_closed(self) -> None:
        self._c_closed.inc()

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict snapshot of the registry values; keys are stable."""
        return {
            "events_observed": self._c_events.value,
            "events_skipped": self._c_skipped.value,
            "events_malformed": self._c_malformed.value,
            "violations": self._c_violations.value,
            "sessions_opened": self._c_opened.value,
            "sessions_closed": self._c_closed.value,
            "latency": self._h_check.snapshot(),
        }
