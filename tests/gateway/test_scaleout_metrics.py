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
import os
import re
import threading
import urllib.request

import pytest

from repro import cli
from repro.api import Gateway, _http_fronts
from repro.obs.registry import use_registry
from repro.service import MonitorClient, MonitorServer, SpecRegistry

from tests.gateway.conftest import DOC, EVENT, EXTRA_DOC


@contextlib.contextmanager
def live_scaleout(document=DOC, **kwargs):
    """Run a ScaleOutServer on a background thread; yields the server."""
    from repro.service.topology import ScaleOutServer

    box: dict = {}
    started = threading.Event()

    def run() -> None:
        async def main() -> None:
            server = ScaleOutServer(document=document, **kwargs)
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


async def _lists(port, name):
    async with MonitorClient("127.0.0.1", port) as client:
        return name in client.server_specs


def _scrape(port):
    url = f"http://127.0.0.1:{port}/metrics"
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8")


@pytest.mark.parametrize("procs", [1, 2])
def test_watch_counts_each_edit_once(tmp_path, monkeypatch, procs):
    """``--watch`` counters reach a ``--metrics-port`` scrape, once per edit.

    Wired as ``serve`` wires it: one poller beside the server, in the
    process that serves the metrics, so an edit that reaches two workers
    still counts once.
    """
    from repro.service.topology import ScaleOutServer

    monkeypatch.setattr(cli, "_WATCH_INTERVAL_S", 0.02)
    doc = tmp_path / "spec.oun"
    doc.write_text(DOC, encoding="utf-8")
    edited = DOC + EXTRA_DOC.split("object c", 1)[1]

    async def run():
        if procs == 1:
            server, targets = MonitorServer(SpecRegistry.from_text(DOC)), None
        else:
            server = ScaleOutServer(document=DOC, procs=procs)
            targets = lambda: [  # noqa: E731
                ("127.0.0.1", port) for port in server.worker_ports if port
            ]
        await server.start()
        watching = asyncio.create_task(
            cli._watch_document(
                doc, "127.0.0.1", server.port, cli._stamp(doc)
            )
        )
        try:
            async with _http_fronts(
                "127.0.0.1",
                server.port,
                host="127.0.0.1",
                metrics_port=0,
                metrics_targets=targets,
            ) as (_, front):
                bumped = doc.stat().st_mtime_ns + 1_000_000_000
                doc.write_text(edited, encoding="utf-8")
                os.utime(doc, ns=(bumped, bumped))
                ports = server.worker_ports if procs > 1 else (server.port,)
                for _ in range(200):
                    listed = [await _lists(port, "Extra") for port in ports]
                    if all(listed):
                        break
                    await asyncio.sleep(0.02)
                loop = asyncio.get_running_loop()
                return listed, await loop.run_in_executor(
                    None, _scrape, front.port
                )
        finally:
            watching.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await watching
            await server.stop()

    with use_registry():
        listed, text = asyncio.run(run())
    assert all(listed)
    assert re.search(r"^repro_watch_reloads_total 1$", text, re.M), text
    assert re.search(r"^repro_watch_errors_total 0$", text, re.M), text
    assert text.count("# TYPE repro_watch_reloads_total counter") == 1
