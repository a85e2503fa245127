"""The METRICS verb and the ``--metrics-port`` scrape front, end to end."""

import asyncio
import contextlib
import socket

import pytest

from repro.api import Gateway, _http_fronts
from repro.gateway import MetricsServer
from repro.obs.registry import use_registry
from repro.service import MonitorClient, MonitorServer, SpecRegistry

from tests.gateway.conftest import live_server

WRITE_SESSION = [
    "w1 -> o : OW",
    "w1 -> o : W(Data:d1)",
    "w1 -> o : W(Data:d2)",
    "w1 -> o : CW",
]


def parse_prometheus(text: str) -> dict[str, dict[str, float]]:
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


class TestMetricsVerb:
    def test_round_trip_exposes_all_layers(self, cast):
        async def run() -> str:
            with use_registry():
                registry = SpecRegistry([cast.write(), cast.read2()])
                async with MonitorServer(registry) as server:
                    async with MonitorClient(
                        "127.0.0.1", server.port, spec="Write"
                    ) as client:
                        for line in WRITE_SESSION:
                            await client.send_event(line)
                        return await client.metrics()

        text = asyncio.run(run())
        assert text.endswith("\n")
        assert "# TYPE" in text
        samples = parse_prometheus(text)

        # monitor layer: every event of the session is accounted for
        assert samples["repro_monitor_events_total"][""] == len(WRITE_SESSION)
        assert sum(samples["repro_monitor_steps_total"].values()) > 0

        # queue layer: the events stepped in runs, at least one task and
        # at most one per event
        tasks = sum(samples["repro_shard_tasks_total"].values())
        assert 1 <= tasks <= len(WRITE_SESSION)

        # checker cache families are pre-declared even when untouched
        for family in (
            "repro_cache_hits_total",
            "repro_cache_misses_total",
        ):
            assert family in samples

        # histogram framing survived the wire: +Inf bucket == _count
        counts = samples["repro_event_check_seconds_count"]
        buckets = samples["repro_event_check_seconds_bucket"]
        for labels, count in counts.items():
            inf = f'{labels},le="+Inf"' if labels else 'le="+Inf"'
            assert buckets[inf] == count

    def test_metrics_leaves_session_usable(self, cast):
        async def run():
            with use_registry():
                registry = SpecRegistry([cast.write()])
                async with MonitorServer(registry) as server:
                    async with MonitorClient(
                        "127.0.0.1", server.port, spec="Write"
                    ) as client:
                        await client.send_event(WRITE_SESSION[0])
                        first = await client.metrics()
                        await client.send_event(WRITE_SESSION[1])
                        second = await client.metrics()
                        status = await client.status()
                        return first, second, status

        first, second, status = asyncio.run(run())
        assert status.ok and status.events == 2
        a = parse_prometheus(first)["repro_monitor_events_total"][""]
        b = parse_prometheus(second)["repro_monitor_events_total"][""]
        assert (a, b) == (1.0, 2.0)


@contextlib.contextmanager
def metrics_front(cast):
    """A live server behind the ``--metrics-port`` front; yields its port."""
    with use_registry():
        with live_server(SpecRegistry([cast.write()])) as port:
            with Gateway("127.0.0.1", port) as gateway:
                with MetricsServer(gateway, host="127.0.0.1", port=0) as front:
                    yield front.port


def exchange(port: int, request: bytes) -> bytes:
    """Send one raw request; return every byte the front answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    return b"".join(chunks)


class TestScrapeEndpoint:
    def test_http_get_returns_prometheus_text(self, cast):
        with metrics_front(cast) as port:
            raw = exchange(port, b"GET /metrics HTTP/1.0\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"text/plain; version=0.0.4" in head
        samples = parse_prometheus(body.decode("utf-8"))
        assert "repro_cache_hits_total" in samples
        # Content-Length matches the body exactly (HTTP framing)
        length = next(
            int(l.split(b":")[1])
            for l in head.split(b"\r\n")
            if l.lower().startswith(b"content-length")
        )
        assert length == len(body)

    @pytest.mark.parametrize(
        "request_head, status",
        [
            (b"GET /" + b"x" * 100_000 + b" HTTP/1.0\r\n\r\n", b"414"),
            (
                b"GET /metrics HTTP/1.0\r\n"
                + (b"X-Filler: " + b"y" * 50 + b"\r\n") * 2_000
                + b"\r\n",
                b"431",
            ),
        ],
        ids=["long-request-line", "endless-headers"],
    )
    def test_request_head_is_bounded_at_64_kib(
        self, cast, request_head, status
    ):
        """A head past 64 KiB gets a whole refusal and a close, not a traceback.

        The request line is read at most 64 KiB + 1 deep (``414``); the
        header lines stop at 100 (``431``).
        """
        with metrics_front(cast) as port:
            raw = exchange(port, request_head)
        assert raw.startswith(b"HTTP/1.1 " + status + b" ")
        head, _, body = raw.partition(b"\r\n\r\n")
        length = next(
            int(l.split(b":")[1])
            for l in head.split(b"\r\n")
            if l.lower().startswith(b"content-length")
        )
        assert length == len(body)

    def test_a_megabyte_head_still_reads_its_refusal(self, cast):
        """The front reads a refused head's rest before it closes.

        Closing on unread input resets the connection, and the reset
        could discard the ``431`` before the client read it.
        """
        request = (
            b"GET /metrics HTTP/1.0\r\n"
            + (b"X-Filler: " + b"y" * 50 + b"\r\n") * 20_000
            + b"\r\n"
        )
        with metrics_front(cast) as port:
            raw = exchange(port, request)
        assert raw.startswith(b"HTTP/1.1 431 ")

    def test_no_metrics_port_means_no_endpoint(self, cast):
        """Without a metrics port no HTTP front and no Gateway open."""

        async def run():
            with use_registry():
                registry = SpecRegistry([cast.write()])
                async with MonitorServer(registry) as server:
                    assert not hasattr(server, "metrics_port")
                    async with _http_fronts(
                        "127.0.0.1", server.port, host="127.0.0.1"
                    ) as fronts:
                        return fronts

        assert asyncio.run(run()) == (None, None)

    @pytest.mark.parametrize("lines, status", [(99, b"200"), (100, b"431")])
    def test_header_lines_are_bounded_at_100(self, cast, lines, status):
        """At most 100 lines follow the request line, the blank included."""
        request = (
            b"GET /metrics HTTP/1.0\r\n"
            + b"X-Filler: y\r\n" * lines
            + b"\r\n"
        )
        with metrics_front(cast) as port:
            raw = exchange(port, request)
        assert raw.startswith(b"HTTP/1.1 " + status + b" ")
