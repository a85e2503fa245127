"""HTTP gateway benchmark: single-event POSTs vs batch=64 POSTs.

Drives the ``two_phase_dynamic`` workload scenario through the full
HTTP stack — ``http.client`` keep-alive connection → the asyncio
HTTP front on the Gateway's loop → :class:`repro.api.Gateway` → binary
wire → in-process :class:`MonitorServer` — two ways: one event per
``POST /v1/sessions/{key}/events``, and 64-line batches.  Two claims
are checked on every run:

* **parity** — the HTTP verdicts agree with the independent dense
  oracle and with a direct proto=2 TCP client fed the identical
  streams (the gateway is a third framing of one protocol; see
  docs/http-api.md and tests/gateway/test_parity.py);
* **speedup** — batch=64 sustains at least ``MIN_SPEEDUP``× the
  single-event throughput (the acceptance gate of the batching
  endpoint: per-request HTTP overhead must be amortisable).

Runs under the pytest-benchmark harness *and* standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_gateway.py -q
    PYTHONPATH=src python benchmarks/bench_gateway.py

The standalone form persists ``BENCH_gateway_<scenario>.json`` when
``REPRO_BENCH_DIR`` is set (repro-bench/1 schema).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import threading
import time

import pytest

from repro.api import Gateway
from repro.gateway import GatewayServer
from repro.service import MonitorClient, MonitorServer
from repro.workload.generator import FaultSpec, StreamSession
from repro.workload.scenarios import get_scenario

SCENARIO = "two_phase_dynamic"
SESSIONS = 2
EVENTS_PER_SESSION = 600
SEED = 2026
FAULTS = FaultSpec(reorder=0.03, dup=0.02, drop=0.02)

#: The acceptance gate: batch=64 events/sec must be at least this
#: multiple of one-event-per-POST events/sec on the same streams.
MIN_SPEEDUP = 5.0

#: (label, batch) — batch=1 means one event per request.
CONFIGS = [("http-single", 1), ("http-b64", 64)]


def _streams():
    """(lines, expected) per session — one seeded source of truth."""
    scenario = get_scenario(SCENARIO)
    compiled = scenario.registry().get(scenario.monitored)
    out = []
    for index in range(SESSIONS):
        stream = StreamSession(compiled, FAULTS, seed=f"{SEED}:{index}")
        out.append(
            (stream.next_batch_lines(EVENTS_PER_SESSION), stream.expected_violation)
        )
    return scenario, out


@contextlib.contextmanager
def _live_stack():
    """Threaded MonitorServer + Gateway + HTTP front; yields (port, tcp_port)."""
    scenario = get_scenario(SCENARIO)
    box: dict = {}
    started = threading.Event()

    def run() -> None:
        async def main() -> None:
            async with MonitorServer(scenario.registry()) as server:
                box["port"] = server.port
                box["loop"] = asyncio.get_running_loop()
                box["stop"] = asyncio.Event()
                started.set()
                await box["stop"].wait()

        asyncio.run(main())

    thread = threading.Thread(target=run, name="bench-gateway-server", daemon=True)
    thread.start()
    assert started.wait(timeout=60)
    with Gateway("127.0.0.1", box["port"]) as gateway:
        with GatewayServer(gateway, host="127.0.0.1", port=0) as front:
            try:
                yield front.port, box["port"]
            finally:
                box["loop"].call_soon_threadsafe(box["stop"].set)
                thread.join(timeout=30)


def _post(conn, path: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    data = response.read()
    assert response.status == 200, data
    return json.loads(data)


def _drive(port: int, streams, batch: int, label: str):
    """Post every stream through the gateway; returns (seconds, verdicts, n)."""
    scenario = get_scenario(SCENARIO)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    verdicts = []
    total = 0
    start = time.perf_counter()
    try:
        for index, (lines, _expected) in enumerate(streams):
            path = f"/v1/sessions/{label}-{index}/events"
            status = None
            for offset in range(0, len(lines), batch):
                chunk = lines[offset : offset + batch]
                payload = {"events": chunk}
                if offset == 0:
                    payload["spec"] = scenario.monitored
                status = _post(conn, path, payload)
                total += len(chunk)
            assert status is not None and status["errors"] == 0
            violation = status["violation"]
            verdicts.append(violation["index"] if violation else None)
    finally:
        conn.close()
    return time.perf_counter() - start, verdicts, total


def _tcp_verdicts(port: int, streams):
    """The same streams over a direct proto=2 wire client."""
    scenario = get_scenario(SCENARIO)

    async def drive():
        out = []
        for lines, _expected in streams:
            async with MonitorClient(
                "127.0.0.1", port, spec=scenario.monitored, proto=2, batch=64
            ) as client:
                for line in lines:
                    await client.send_event(line)
                status = await client.status()
                assert status.errors == 0
                out.append(status.violation_index)
        return out

    return asyncio.run(drive())


@pytest.mark.parametrize("label,batch", CONFIGS)
def bench_gateway_throughput(benchmark, label, batch):
    _scenario, streams = _streams()
    with _live_stack() as (http_port, _tcp_port):
        seconds, verdicts, total = benchmark(
            lambda: _drive(http_port, streams, batch, label)
        )
    assert verdicts == [expected for _lines, expected in streams]
    benchmark.extra_info["mode"] = label
    benchmark.extra_info["events_per_sec"] = round(total / seconds)


def main() -> None:
    from repro.workload.results import maybe_write_bench

    _scenario, streams = _streams()
    oracle = [expected for _lines, expected in streams]
    runs = []
    rates: dict[str, float] = {}
    with _live_stack() as (http_port, tcp_port):
        tcp = _tcp_verdicts(tcp_port, streams)
        assert tcp == oracle, f"binary wire disagrees with oracle: {tcp} != {oracle}"
        for label, batch in CONFIGS:
            seconds, verdicts, total = _drive(http_port, streams, batch, label)
            assert verdicts == oracle, (
                f"{label} disagrees with oracle: {verdicts} != {oracle}"
            )
            rate = total / seconds
            rates[label] = rate
            print(
                f"{label}: {total} events in {seconds:.3f}s "
                f"→ {rate:,.0f} events/sec"
            )
            runs.append(
                {
                    "label": label,
                    "wire": "http",
                    "batch": batch,
                    "sessions": SESSIONS,
                    "events": total,
                    "seconds": round(seconds, 6),
                    "events_per_sec": round(rate, 1),
                    "violations": {
                        "expected": sum(1 for v in oracle if v is not None),
                        "observed": sum(1 for v in verdicts if v is not None),
                        "agreement": 1.0,
                    },
                }
            )
    speedup = rates["http-b64"] / rates["http-single"]
    print(f"http-b64 / http-single speedup: {speedup:.1f}×")
    print("parity: HTTP == proto=2 TCP == dense oracle ✓")
    assert speedup >= MIN_SPEEDUP, (
        f"batch=64 is only {speedup:.1f}× single (gate: {MIN_SPEEDUP}×)"
    )
    path = maybe_write_bench(
        f"gateway_{SCENARIO}",
        {
            "scenario": SCENARIO,
            "seed": SEED,
            "sessions": SESSIONS,
            "events": EVENTS_PER_SESSION,
            "min_speedup": MIN_SPEEDUP,
            "speedup_b64": round(speedup, 2),
            "parity": "http == proto2 == oracle",
        },
        runs,
    )
    if path is not None:
        print(f"→ {path}")


if __name__ == "__main__":
    main()
