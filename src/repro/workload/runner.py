"""Drive generated streams through the live service; check the oracle.

The runner is the workload subsystem's executable claim: *violations are
detected exactly where the theory says they must be*.  For each session
it generates a seeded, fault-injected stream (session ``i`` of a run
with seed ``S`` uses stream seed ``"S:i"``), computes the expected
violation position by independent dense stepping, feeds the stream to a
:class:`~repro.service.server.MonitorServer` through the real
:class:`~repro.service.client.MonitorClient` wire path, and compares the
service's ``STATUS`` verdict to the oracle.

By default the server is spun up in-process on an ephemeral port (the
hermetic mode tests and benchmarks use); pass ``port`` (and ``host``) to
drive an external ``repro serve --scenario`` instance instead — latency
percentiles are then read back over the wire from the server's
``METRICS`` Prometheus dump.

Instrumented with :mod:`repro.obs`: a ``workload.run`` span wrapping
per-session ``workload.session`` spans, plus counters for events sent,
injected faults by kind, expected/observed violations, and oracle
disagreements.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import time
from dataclasses import dataclass

from repro.obs.registry import Histogram, get_registry
from repro.obs.trace import span
from repro.service.client import MonitorClient, ServiceUnavailable
from repro.workload.generator import FaultSpec, StreamSession
from repro.workload.results import latency_summary
from repro.workload.scenarios import Scenario, get_scenario

__all__ = ["SessionOutcome", "WorkloadReport", "run_workload"]

#: Per-event check latency family exposed by the service (see
#: :class:`repro.obs.metrics.ServiceMetrics`), read back over ``METRICS``.
_LATENCY_FAMILY = "repro_event_check_seconds"


@dataclass(frozen=True, slots=True)
class SessionOutcome:
    """One session's verdict versus its oracle."""

    session: int
    events_sent: int
    expected: int | None
    observed: int | None
    faults: dict[str, int]
    errors: int
    #: The client raised ``ServiceUnavailable``: no attach or resume.
    unreachable: bool = False

    @property
    def agreed(self) -> bool:
        ok = self.errors == 0 and self.expected == self.observed
        return ok and not self.unreachable


@dataclass(frozen=True, slots=True)
class WorkloadReport:
    """A full run: per-session outcomes plus throughput and latency."""

    scenario: str
    spec: str
    seed: int
    faults: FaultSpec
    sessions: tuple[SessionOutcome, ...]
    seconds: float
    latency: dict | None
    binary: bool = False
    kills: int = 0
    restarts: int = 0

    @property
    def events_total(self) -> int:
        return sum(s.events_sent for s in self.sessions)

    @property
    def events_per_sec(self) -> float:
        return self.events_total / self.seconds if self.seconds else 0.0

    @property
    def expected_violations(self) -> int:
        return sum(1 for s in self.sessions if s.expected is not None)

    @property
    def observed_violations(self) -> int:
        return sum(1 for s in self.sessions if s.observed is not None)

    @property
    def agreement(self) -> float:
        """Fraction of sessions whose verdict matched the oracle."""
        if not self.sessions:
            return 1.0
        return sum(1 for s in self.sessions if s.agreed) / len(self.sessions)

    @property
    def all_agree(self) -> bool:
        return all(s.agreed for s in self.sessions)

    def fault_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {"reorder": 0, "dup": 0, "drop": 0}
        for s in self.sessions:
            for kind, count in s.faults.items():
                totals[kind] += count
        return totals

    def run_record(self, label: str) -> dict:
        """This run as one ``runs[]`` entry of the BENCH schema."""
        return {
            "label": label,
            "wire": "binary" if self.binary else "text",
            "sessions": len(self.sessions),
            "events": self.events_total,
            "seconds": round(self.seconds, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "latency": self.latency,
            "faults": self.fault_counts(),
            "violations": {
                "expected": self.expected_violations,
                "observed": self.observed_violations,
                "agreement": round(self.agreement, 4),
            },
            "chaos": {"kills": self.kills, "restarts": self.restarts},
        }

    def describe(self) -> str:
        """A compact human-readable summary."""
        faults = self.fault_counts()
        wire = "binary" if self.binary else "text"
        lines = [
            f"{self.scenario} (spec {self.spec}, seed {self.seed}, "
            f"faults {self.faults.describe()}, {wire} wire)",
            f"  {len(self.sessions)} sessions, {self.events_total} events "
            f"in {self.seconds:.3f}s ({self.events_per_sec:,.0f} events/s)",
            f"  faults injected: reorder={faults['reorder']} "
            f"dup={faults['dup']} drop={faults['drop']}",
            f"  violations: expected {self.expected_violations}, observed "
            f"{self.observed_violations}; oracle agreement "
            f"{self.agreement:.0%}",
        ]
        if unreachable := sum(s.unreachable for s in self.sessions):
            lines.append(f"  {unreachable} session(s) unreachable past every retry")
        if self.kills:
            lines.append(
                f"  chaos: killed {self.kills} worker(s), "
                f"restarts={self.restarts}"
            )
        if self.latency:
            lines.append(
                f"  check latency: p50={self.latency.get('p50_us')}µs "
                f"p90={self.latency.get('p90_us')}µs "
                f"p99={self.latency.get('p99_us')}µs"
            )
        for s in self.sessions:
            if not s.agreed:
                lines.append(
                    f"  DISAGREEMENT session {s.session}: expected "
                    f"{s.expected}, observed {s.observed} "
                    f"({s.errors} wire errors)"
                )
        return "\n".join(lines)


def _workload_counters():
    registry = get_registry()
    return {
        "events": registry.counter(
            "repro_workload_events_total",
            help="events sent by workload sessions",
        ),
        "sessions": registry.counter(
            "repro_workload_sessions_total", help="workload sessions driven"
        ),
        "expected": registry.counter(
            "repro_workload_expected_violations_total",
            help="sessions whose oracle predicted a violation",
        ),
        "observed": registry.counter(
            "repro_workload_observed_violations_total",
            help="sessions the service flagged as violated",
        ),
        "disagreements": registry.counter(
            "repro_workload_disagreements_total",
            help="sessions whose verdict differed from the oracle",
        ),
    }


def _fault_counter(kind: str):
    return get_registry().counter(
        "repro_workload_faults_total",
        labels={"kind": kind},
        help="faults injected into workload streams, by kind",
    )


def _histogram_from_prometheus(text: str, family: str) -> Histogram | None:
    """Rebuild one (unlabeled) histogram family from exposition text."""
    bounds: list[float] = []
    cumulative: list[int] = []
    count: int | None = None
    total = 0.0
    for line in text.splitlines():
        if line.startswith(f"{family}_bucket{{"):
            labels, _, value = line.partition(" ")
            le = labels.partition('le="')[2].partition('"')[0]
            if le == "+Inf":
                continue
            bounds.append(float(le))
            cumulative.append(int(float(value)))
        elif line.startswith(f"{family}_count"):
            count = int(float(line.rpartition(" ")[2]))
        elif line.startswith(f"{family}_sum"):
            total = float(line.rpartition(" ")[2])
    if count is None or not bounds:
        return None
    hist = Histogram(tuple(bounds))
    previous = 0
    counts = []
    for value in cumulative:
        counts.append(value - previous)
        previous = value
    counts.append(count - previous)
    hist.counts = counts
    hist.count = count
    hist.total = total
    return hist


async def _check_latency(host: str, port: int) -> Histogram | None:
    """The server's check-latency histogram, as ``METRICS`` reports it."""
    client = MonitorClient(host, port)
    await client.connect()
    try:
        text = await client.metrics()
    finally:
        await client.close()
    return _histogram_from_prometheus(text, _LATENCY_FAMILY)


def _since(after: Histogram | None, before: Histogram | None) -> Histogram | None:
    """``after`` minus ``before``: the observations made in between."""
    if after is None or before is None:
        return after
    after.counts = [a - b for a, b in zip(after.counts, before.counts)]
    after.count -= before.count
    after.total -= before.total
    return after


async def _chaos_killer(
    server, kill_at: tuple[int, ...], clients: list, seed, record: dict
) -> None:
    """SIGKILL a seeded-random worker at each sent-events threshold.

    Watches the *client-side* send counters (the only vantage point that
    exists while a worker is dying) and leaves respawning to the
    server's supervisor; durable sessions then resume exactly-once.
    """
    rng = random.Random(f"{seed}:chaos")
    for threshold in sorted(kill_at):
        while sum(c.events_sent for c in clients) < threshold:
            await asyncio.sleep(0.01)
        index = rng.randrange(server.procs)
        server.kill_worker(index)
        record["kills"] += 1
        get_registry().counter(
            "repro_workload_kills_total",
            help="workers SIGKILLed by the chaos fault injector",
        ).inc()


async def _drive_session(
    index: int,
    host: str,
    port: int,
    scenario: Scenario,
    compiled,
    *,
    seed: int,
    faults: FaultSpec,
    events: int,
    duration: float | None,
    binary: bool,
    batch: int | None,
    counters,
    session_key: str | None = None,
    client_sink: list | None = None,
) -> SessionOutcome:
    stream = StreamSession(compiled, faults, seed=f"{seed}:{index}")
    errors = 0
    observed = None
    unreachable = False
    with span(
        "workload.session",
        scenario=scenario.name,
        session=index,
        binary=binary,
    ):
        client = MonitorClient(
            host,
            port,
            spec=scenario.monitored,
            proto=2 if binary else 1,
            session=session_key,
            **({"batch": batch} if batch is not None else {}),
        )
        if client_sink is not None:
            client_sink.append(client)
        try:
            await client.connect()
            deadline = (
                time.monotonic() + duration if duration is not None else None
            )
            while True:
                batch = stream.next_batch(events)
                for event in batch:
                    await client.send_event(event)
                if not batch:
                    break  # walk hit a dead end; the stream is complete
                if deadline is None or time.monotonic() >= deadline:
                    break
            status = await client.status()
            errors = status.errors
            observed = status.violation_index
        except ServiceUnavailable:
            unreachable = True
        finally:
            await client.close()
    counters["sessions"].inc()
    counters["events"].inc(stream.events_emitted)
    for kind, count in stream.fault_counts.items():
        if count:
            _fault_counter(kind).inc(count)
    expected = stream.expected_violation
    if expected is not None:
        counters["expected"].inc()
    if observed is not None:
        counters["observed"].inc()
    outcome = SessionOutcome(
        session=index,
        events_sent=stream.events_emitted,
        expected=expected,
        observed=observed,
        faults=dict(stream.fault_counts),
        errors=errors,
        unreachable=unreachable,
    )
    if not outcome.agreed:
        counters["disagreements"].inc()
    return outcome


async def _run(
    scenario: Scenario,
    *,
    seed: int,
    faults: FaultSpec,
    sessions: int,
    events: int,
    duration: float | None,
    host: str | None,
    port: int | None,
    history_limit: int | None,
    binary: bool,
    batch: int | None,
    procs: int | None,
    data_dir,
    durable: bool,
    kill_at: tuple[int, ...],
) -> WorkloadReport:
    registry = scenario.registry(history_limit=history_limit)
    compiled = registry.get(scenario.monitored)
    counters = _workload_counters()
    chaos = {"kills": 0, "restarts": 0}

    async def drive(
        target_host: str,
        target_port: int,
        *,
        latency: bool = True,
        chaos_server=None,
    ):
        before = (
            await _check_latency(target_host, target_port) if latency else None
        )
        clients: list = []
        started = time.monotonic()
        chaos_task = (
            asyncio.create_task(
                _chaos_killer(chaos_server, kill_at, clients, seed, chaos)
            )
            if chaos_server is not None and kill_at
            else None
        )
        try:
            outcomes = await asyncio.gather(
                *(
                    _drive_session(
                        i,
                        target_host,
                        target_port,
                        scenario,
                        compiled,
                        seed=seed,
                        faults=faults,
                        events=events,
                        duration=duration,
                        binary=binary,
                        batch=batch,
                        counters=counters,
                        session_key=(
                            f"{scenario.name}-{seed}:{i}" if durable else None
                        ),
                        client_sink=clients,
                    )
                    for i in range(sessions)
                )
            )
        finally:
            if chaos_task is not None:
                chaos_task.cancel()
                try:
                    await chaos_task
                except asyncio.CancelledError:
                    pass
        seconds = time.monotonic() - started
        summary = None
        if latency:
            hist = _since(await _check_latency(target_host, target_port), before)
            summary = latency_summary(hist) if hist is not None else None
        if chaos_server is not None:
            chaos["restarts"] = chaos_server.restarts
        return WorkloadReport(
            scenario=scenario.name,
            spec=scenario.monitored,
            seed=seed,
            faults=faults,
            sessions=tuple(outcomes),
            seconds=seconds,
            latency=summary,
            binary=binary,
            kills=chaos["kills"],
            restarts=chaos["restarts"],
        )

    with span(
        "workload.run",
        scenario=scenario.name,
        seed=seed,
        sessions=sessions,
        faults=faults.describe(),
        binary=binary,
    ) as sp:
        if port is not None:
            report = await drive(host or "127.0.0.1", port)
        elif procs is not None and procs > 1:
            from repro.service.topology import ScaleOutServer

            with tempfile.TemporaryDirectory() as tmp:
                store = data_dir if data_dir is not None else (
                    tmp if durable or kill_at else None
                )
                async with ScaleOutServer(
                    scenario=scenario.name,
                    procs=procs,
                    data_dir=store,
                    history_limit=history_limit,
                ) as server:
                    # Per-worker histograms live in N processes; percentile
                    # aggregation across them is not meaningful here.
                    report = await drive(
                        "127.0.0.1", server.port, latency=False,
                        chaos_server=server,
                    )
        else:
            from repro.service.server import MonitorServer

            with tempfile.TemporaryDirectory() as tmp:
                store = data_dir if data_dir is not None else (
                    tmp if durable else None
                )
                async with MonitorServer(registry, data_dir=store) as server:
                    report = await drive("127.0.0.1", server.port)
        sp.set(
            events=report.events_total,
            agreement=report.agreement,
            expected=report.expected_violations,
            observed=report.observed_violations,
        )
    return report


def run_workload(
    scenario_name: str,
    *,
    seed: int = 0,
    faults: FaultSpec | None = None,
    sessions: int = 4,
    events: int = 200,
    duration: float | None = None,
    host: str | None = None,
    port: int | None = None,
    history_limit: int | None = 4096,
    binary: bool = False,
    batch: int | None = None,
    procs: int | None = None,
    data_dir=None,
    durable: bool = False,
    kill_at: tuple[int, ...] = (),
) -> WorkloadReport:
    """Run one scenario workload and report oracle agreement.

    ``events`` is the happy-path batch size per session; with
    ``duration`` set, each session keeps streaming batches until the
    deadline passes.  ``port=None`` (the default) runs a hermetic
    in-process server; otherwise the stream is
    driven at ``host:port``, which must be a ``repro serve`` instance
    with the scenario's specs registered (``repro serve --scenario``).

    ``binary=True`` drives the same streams over the proto=2 framing
    (clients request ``HELLO proto=2`` and ship ``EVENTS`` id batches of
    ``batch`` ids — the client default when ``None``); the oracle check
    is framing-independent, which is exactly what makes this runner the
    verdict-equivalence gate between the two wire paths.

    ``procs=N`` (N > 1) runs a hermetic
    :class:`~repro.service.topology.ScaleOutServer` instead of the
    in-process server.  ``durable=True`` gives session ``i`` the
    idempotency key ``"<scenario>-<seed>:i"`` (over ``data_dir``, or a
    run-scoped temporary directory); ``kill_at=(n, ...)`` then SIGKILLs
    a seeded-random worker each time the run's total sent-event count
    crosses ``n`` — the supervisor respawns it, durable clients resume,
    and the oracle check is the replay-correctness law: verdicts must
    match an uninterrupted run exactly.
    """
    scenario = get_scenario(scenario_name)
    return asyncio.run(
        _run(
            scenario,
            seed=seed,
            faults=faults if faults is not None else FaultSpec(),
            sessions=sessions,
            events=events,
            duration=duration,
            host=host,
            port=port,
            history_limit=history_limit,
            binary=binary,
            batch=batch,
            procs=procs,
            data_dir=data_dir,
            durable=durable,
            kill_at=tuple(kill_at),
        )
    )
