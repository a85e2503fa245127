"""Per-layer tracing from the outside: wrap public calls, keep counts and self time.

A :class:`Tracer` replaces each timed function at the name its caller
resolves (a module attribute such as ``repro.service.server.parse_command``
or a class attribute such as ``SpecMonitor.observe``) with a wrapper that
counts calls and measures time, and :meth:`Tracer.uninstall` puts every
original back.  Nothing inside ``src/`` changes.

Timing rules:

* A synchronous call is one region.  A coroutine is timed per *step* —
  from each resume to its next suspension — so waiting for a socket or a
  queue is never counted as work.  Its wall time (first call to result)
  is kept as well, for the metrics that are waits (``ShardPool.flush``,
  ``MonitorClient.status``).
* Regions nest on a per-thread stack.  A region's self time is its
  duration minus the regions it contains, so the self times of all
  targets never count one nanosecond twice.
* ``Gateway.send_events``/``end_session`` block an HTTP handler thread on
  a future while the work happens on other threads; they are recorded
  with wall time only and take no part in self-time accounting.

Everything is kept in memory; :meth:`Tracer.snapshot` returns plain dicts
the server child writes out when asked.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter_ns

__all__ = ["PER_LAYER", "TARGETS", "Tracer", "layer_metrics", "wrapped_targets"]

#: Every per-layer metric a traced run reports, with its unit.  The
#: ``setup``, ``server``, ``loadgen`` and ``trace`` rows are filled by the
#: load generator; the rest come from :func:`layer_metrics`.
PER_LAYER = (
    ("protocol.parse_calls", "count"),
    ("protocol.parse_us_per_event", "us"),
    ("wire.frames", "count"),
    ("wire.decode_us_per_frame", "us"),
    ("wire.bytes_per_event", "bytes"),
    ("shards.submits", "count"),
    ("shards.submit_us", "us"),
    ("shards.flushes", "count"),
    ("shards.flush_wait_us", "us"),
    ("monitor.step_calls", "count"),
    ("monitor.events_stepped", "count"),
    ("monitor.step_ns_per_event", "ns"),
    ("monitor.dense_ratio", "ratio"),
    ("monitor.violations", "count"),
    ("obs.account_calls", "count"),
    ("obs.account_us_per_event", "us"),
    ("durability.appends", "count"),
    ("durability.append_us", "us"),
    ("durability.bytes_per_event", "bytes"),
    ("durability.fsyncs", "count"),
    ("durability.fsync_ms", "ms"),
    ("durability.snapshots", "count"),
    ("durability.snapshot_ms", "ms"),
    ("registry.binds", "count"),
    ("registry.bind_us", "us"),
    ("client.send_us_per_event", "us"),
    ("client.status_rtt_ms", "ms"),
    ("api.calls", "count"),
    ("api.send_events_ms", "ms"),
    ("gateway.http_overhead_ms", "ms"),
    ("setup.import_s", "s"),
    ("setup.compile_s", "s"),
    ("setup.spawn_s", "s"),
    ("server.cpu_frac", "ratio"),
    ("server.unattributed_us_per_event", "us"),
    ("loadgen.cpu_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: (layer, module, attribute path, kind).  ``sync`` and ``async`` targets
#: count toward self time; ``wait`` targets only toward wall time.
TARGETS = (
    ("protocol", "repro.service.server", "parse_command", "sync"),
    ("protocol", "repro.runtime.tracefile", "parse_line", "sync"),
    ("wire", "repro.service.wire", "read_frame", "async"),
    ("wire", "repro.service.wire", "unpack_event_ids", "sync"),
    ("wire", "repro.service.wire", "encode_frame", "sync"),
    ("shards", "repro.service.shards", "ShardPool.submit_to", "async"),
    ("shards", "repro.service.shards", "ShardPool.flush", "async"),
    ("monitor", "repro.runtime.monitor", "SpecMonitor.observe", "sync"),
    ("monitor", "repro.runtime.monitor", "SpecMonitor.observe_ids", "sync"),
    ("obs", "repro.obs.metrics", "ServiceMetrics.record_event", "sync"),
    ("obs", "repro.obs.metrics", "ServiceMetrics.record_batch", "sync"),
    ("obs", "repro.obs.metrics", "ServiceMetrics.record_violation", "sync"),
    ("obs", "repro.obs.metrics", "ServiceMetrics.record_malformed", "sync"),
    ("durability", "repro.service.durability", "WorkerStore.append", "sync"),
    ("durability", "repro.service.durability", "WorkerStore.sync", "sync"),
    ("durability", "repro.service.durability", "WorkerStore._fsync", "sync"),
    (
        "durability",
        "repro.service.durability",
        "WorkerStore.write_snapshot",
        "sync",
    ),
    ("registry", "repro.service.registry", "SpecRegistry.new_monitor_for", "sync"),
    ("client", "repro.service.client", "MonitorClient.send_event", "async"),
    ("client", "repro.service.client", "MonitorClient.status", "async"),
    ("api", "repro.api", "Gateway.send_events", "wait"),
    ("api", "repro.api", "Gateway.end_session", "wait"),
)

#: Marker attribute every wrapper carries (the no-leftover check reads it).
MARKER = "__perfbench_wrapped__"


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + ``Class.attr`` path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def wrapped_targets() -> list[str]:
    """Names of targets that currently carry a tracing wrapper."""
    out = []
    for _layer, module, path, _kind in TARGETS:
        owner, attr = _resolve(module, path)
        if getattr(owner.__dict__.get(attr), MARKER, False):
            out.append(f"{module}.{path}")
    return out


class _Stat:
    """Counters of one target: calls, self/wall ns, and its own extras."""

    __slots__ = (
        "calls", "self_ns", "wall_ns", "events", "bytes", "dense",
        "steps", "violations",
    )

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.wall_ns = 0
        self.events = 0
        self.bytes = 0
        self.dense = 0
        self.steps = 0
        self.violations = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _Stepped:
    """Awaitable that drives a coroutine and times each of its steps."""

    __slots__ = ("coro", "tracer", "stat", "on_result")

    def __init__(self, coro, tracer, stat, on_result) -> None:
        self.coro = coro
        self.tracer = tracer
        self.stat = stat
        self.on_result = on_result

    def __await__(self):
        coro, stat, stack_of = self.coro, self.stat, self.tracer._stack
        send, throw = coro.send, coro.throw
        value = error = None
        first = perf_counter_ns()
        while True:
            stack = stack_of()
            stack.append(0)
            start = perf_counter_ns()
            try:
                yielded = send(value) if error is None else throw(error)
            except StopIteration as stop:
                _close(stack, start, stat)
                stat.calls += 1
                stat.wall_ns += perf_counter_ns() - first
                if self.on_result is not None:
                    self.on_result(stat, stop.value)
                return stop.value
            except BaseException:
                _close(stack, start, stat)
                stat.calls += 1
                stat.wall_ns += perf_counter_ns() - first
                raise
            _close(stack, start, stat)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def _close(stack: list, start: int, stat: _Stat) -> None:
    """End a region: book self time, hand the duration to the parent."""
    elapsed = perf_counter_ns() - start
    stat.self_ns += elapsed - stack.pop()
    if stack:
        stack[-1] += elapsed


def _frame_bytes(stat: _Stat, result) -> None:
    stat.bytes += 5 + len(result[1])  # u8 opcode + u32 length + payload


class Tracer:
    """Installs wrappers on :data:`TARGETS`; collects their statistics."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._monitor_depth = [0]  # monitors step on the server loop thread

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            return local.stack

    # -- wrappers -----------------------------------------------------------

    def _sync(self, fn, stat: _Stat, name: str):
        stack_of = self._stack
        if name.startswith("SpecMonitor."):
            # observe_ids falls back to observe per event on a deoptimised
            # monitor; only the outermost monitor call counts its events.
            depth = self._monitor_depth
            batch = name == "SpecMonitor.observe_ids"

            def wrapper(*args, **kwargs):
                monitor = args[0]
                dense0 = monitor.dense_steps
                steps0 = dense0 + monitor.fallback_steps
                alive0 = monitor.alive
                nested = depth[0] > 0
                depth[0] += 1
                stack = stack_of()
                stack.append(0)
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    _close(stack, start, stat)
                    depth[0] -= 1
                    if not nested:
                        stat.calls += 1
                        stat.events += len(args[1]) if batch else 1
                        stat.dense += monitor.dense_steps - dense0
                        stat.steps += (
                            monitor.dense_steps + monitor.fallback_steps - steps0
                        )
                        stat.violations += alive0 and not monitor.alive

            return wrapper

        appends = name == "WorkerStore.append"  # (self, shard, record)

        def wrapper(*args, **kwargs):
            stack = stack_of()
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                _close(stack, start, stat)
                stat.calls += 1
                stat.wall_ns += perf_counter_ns() - start
                if appends:
                    stat.bytes += len(args[2])

        return wrapper

    def _async(self, fn, stat: _Stat, name: str):
        tracer = self
        on_result = _frame_bytes if name == "read_frame" else None

        async def wrapper(*args, **kwargs):
            return await _Stepped(fn(*args, **kwargs), tracer, stat, on_result)

        return wrapper

    @staticmethod
    def _wait(fn, stat: _Stat):
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                stat.calls += 1
                stat.wall_ns += perf_counter_ns() - start

        return wrapper

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("tracer already installed")
        for _layer, module, path, kind in TARGETS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            if getattr(original, MARKER, False):
                raise RuntimeError(f"{module}.{path} is already wrapped")
            stat = self.stats.setdefault(path, _Stat())
            if kind == "sync":
                wrapper = self._sync(original, stat, path)
            elif kind == "async":
                wrapper = self._async(original, stat, path)
            else:
                wrapper = self._wait(original, stat)
            functools.update_wrapper(wrapper, original)
            setattr(wrapper, MARKER, True)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def snapshot(self) -> dict[str, dict]:
        """Every target's counters, keyed by attribute path."""
        return {name: stat.as_dict() for name, stat in self.stats.items()}


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    before: dict, after: dict, *, events: int, server_cpu_ns: int,
    post_rtt_ms: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced window from two snapshots.

    ``events`` is the window's acknowledged events, ``server_cpu_ns`` the
    server process's CPU over the window and ``post_rtt_ms`` the load generator's
    mean HTTP round trip (0 when the workload has none).
    """
    delta = {
        name: {k: v - before.get(name, {}).get(k, 0) for k, v in stat.items()}
        for name, stat in after.items()
    }

    def total(key: str, *names: str) -> int:
        return sum(delta[name][key] for name in names)

    parse = ("parse_command", "parse_line")
    monitor = ("SpecMonitor.observe", "SpecMonitor.observe_ids")
    account = tuple(
        f"ServiceMetrics.record_{what}"
        for what in ("event", "batch", "violation", "malformed")
    )
    frames = total("calls", "read_frame")
    submits = total("calls", "ShardPool.submit_to")
    flushes = total("calls", "ShardPool.flush")
    stepped = total("events", *monitor)
    appends = total("calls", "WorkerStore.append")
    fsyncs = total("calls", "WorkerStore._fsync")
    snapshots = total("calls", "WorkerStore.write_snapshot")
    binds = total("calls", "SpecRegistry.new_monitor_for")
    sends = total("calls", "MonitorClient.send_event")
    statuses = total("calls", "MonitorClient.status")
    posts = total("calls", "Gateway.send_events")
    send_events_ms = _per(total("wall_ns", "Gateway.send_events"), posts) / 1e6
    attributed = sum(
        delta[path]["self_ns"]
        for _layer, _module, path, kind in TARGETS
        if kind != "wait"
    )
    return {
        "protocol.parse_calls": total("calls", *parse),
        "protocol.parse_us_per_event": _per(total("self_ns", *parse), events) / 1e3,
        "wire.frames": frames,
        "wire.decode_us_per_frame": _per(
            total("self_ns", "read_frame", "unpack_event_ids"), frames
        ) / 1e3,
        "wire.bytes_per_event": _per(total("bytes", "read_frame"), events),
        "shards.submits": submits,
        "shards.submit_us": _per(total("self_ns", "ShardPool.submit_to"), submits)
        / 1e3,
        "shards.flushes": flushes,
        "shards.flush_wait_us": _per(total("wall_ns", "ShardPool.flush"), flushes)
        / 1e3,
        "monitor.step_calls": total("calls", *monitor),
        "monitor.events_stepped": stepped,
        "monitor.step_ns_per_event": _per(total("self_ns", *monitor), stepped),
        "monitor.dense_ratio": _per(
            total("dense", *monitor), total("steps", *monitor)
        ),
        "monitor.violations": total("violations", *monitor),
        "obs.account_calls": total("calls", *account),
        "obs.account_us_per_event": _per(total("self_ns", *account), events) / 1e3,
        "durability.appends": appends,
        "durability.append_us": _per(total("self_ns", "WorkerStore.append"), appends)
        / 1e3,
        "durability.bytes_per_event": _per(
            total("bytes", "WorkerStore.append"), events
        ),
        "durability.fsyncs": fsyncs,
        "durability.fsync_ms": _per(total("wall_ns", "WorkerStore._fsync"), fsyncs)
        / 1e6,
        "durability.snapshots": snapshots,
        "durability.snapshot_ms": _per(
            total("wall_ns", "WorkerStore.write_snapshot"), snapshots
        ) / 1e6,
        "registry.binds": binds,
        "registry.bind_us": _per(
            total("self_ns", "SpecRegistry.new_monitor_for"), binds
        ) / 1e3,
        "client.send_us_per_event": _per(
            total("self_ns", "MonitorClient.send_event"), sends
        ) / 1e3,
        "client.status_rtt_ms": _per(
            total("wall_ns", "MonitorClient.status"), statuses
        ) / 1e6,
        "api.calls": posts + total("calls", "Gateway.end_session"),
        "api.send_events_ms": send_events_ms,
        "gateway.http_overhead_ms": post_rtt_ms - send_events_ms if posts else 0.0,
        "server.unattributed_us_per_event": _per(
            server_cpu_ns - attributed, events
        ) / 1e3,
    }
