"""Metrics fan-in over a real --procs topology: the fixed dead end.

Before the gateway, ``--metrics-port`` with ``--procs > 1`` was simply
refused — each worker process owns a private registry, so no single
scrape existed.  Now every worker opens a direct per-worker listener
(:attr:`ScaleOutServer.worker_ports`), and the gateway's ``metrics_text``
scrapes them all and folds the dumps with
:func:`repro.obs.merge.merge_prometheus`.  Spawned-worker test: costs
seconds, like tests/service/test_scaleout.py.
"""

from __future__ import annotations

import asyncio
import contextlib
import re
import threading

from repro.api import Gateway

from tests.gateway.conftest import DOC, EVENT


@contextlib.contextmanager
def live_scaleout(**kwargs):
    """Run a ScaleOutServer on a background thread; yields the server."""
    from repro.service.topology import ScaleOutServer

    box: dict = {}
    started = threading.Event()

    def run() -> None:
        async def main() -> None:
            server = ScaleOutServer(document=DOC, **kwargs)
            try:
                await server.start()
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                box["stop"] = asyncio.Event()
                started.set()
                await box["stop"].wait()
            except BaseException as exc:
                box["error"] = exc
                started.set()
                raise
            finally:
                if "server" in box:
                    await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, name="scaleout-test", daemon=True)
    thread.start()
    assert started.wait(timeout=120), "scale-out topology did not start"
    if "error" in box:
        raise box["error"]
    try:
        yield box["server"]
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=60)


def test_gateway_aggregates_worker_metrics(tmp_path):
    with live_scaleout(procs=2, data_dir=tmp_path) as server:
        ports = server.worker_ports
        assert len(ports) == 2 and all(isinstance(p, int) for p in ports)
        assert ports[0] != ports[1]

        targets = lambda: [  # noqa: E731 - re-read per scrape on purpose
            ("127.0.0.1", port) for port in server.worker_ports if port
        ]
        with Gateway(
            "127.0.0.1", server.port, metrics_targets=targets
        ) as gateway:
            # open sessions on distinct keys so both workers see traffic
            for key in ("alpha", "bravo", "charlie", "delta"):
                gateway.send_events(key, [EVENT], spec="A")
            text = gateway.metrics_text()

    # counters fold by summing — one unlabeled series for both workers
    match = re.search(r"^repro_sessions_opened_total (\d+)$", text, re.M)
    assert match, text
    assert int(match.group(1)) == 4
    assert "# TYPE repro_sessions_opened_total counter" in text
    assert 'repro_sessions_opened_total{worker=' not in text

    # gauges must NOT sum: each worker keeps its value, labeled by worker
    assert re.search(
        r'^repro_durability_open_logs\{worker="0"\} ', text, re.M
    ), text
    assert re.search(
        r'^repro_durability_open_logs\{worker="1"\} ', text, re.M
    ), text

    # the gateway stamps its own request counters onto the merged dump
    assert "repro_gateway_requests_total" in text
