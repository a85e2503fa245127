"""``--watch FILE``: mtime-polled document hot-swap under live traffic.

The poller of ``repro serve --watch`` sends each edit as an ``UPDATE``
to the service's own port, so these tests run it against a server the
way the CLI does.
"""

import asyncio
import contextlib
import os

import pytest

from repro import cli
from repro.obs.registry import use_registry
from repro.service import MonitorClient, MonitorServer, SpecRegistry

OLD_DOC = """
object o
object c
specification A {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)>*"
}
specification B {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)> <c,o,M(_)>*"
}
"""

#: OLD_DOC with only B edited (B becomes as permissive as A).
NEW_DOC = OLD_DOC.replace('"<c,o,M(_)> <c,o,M(_)>*"', '"<c,o,M(_)>*"')

EVENT = "c -> o : M(Data:d)"


def _rewrite(path, text):
    """Replace the watched file with a guaranteed-fresh stamp.

    The poller compares ``(st_mtime_ns, st_size)``; coarse filesystem
    clocks can hand two quick writes the same mtime, so the test bumps
    the mtime explicitly instead of sleeping and hoping.
    """
    stamp = path.stat().st_mtime_ns
    path.write_text(text, encoding="utf-8")
    bumped = max(path.stat().st_mtime_ns, stamp + 1_000_000_000)
    os.utime(path, ns=(bumped, bumped))


@pytest.fixture(autouse=True)
def _fast_polls(monkeypatch):
    monkeypatch.setattr(cli, "_WATCH_INTERVAL_S", 0.02)


@contextlib.asynccontextmanager
async def _watching(path, server):
    """Run the ``--watch`` poller against ``server`` from ``path``'s stamp."""
    task = asyncio.create_task(
        cli._watch_document(path, "127.0.0.1", server.port, cli._stamp(path))
    )
    try:
        yield
    finally:
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task


async def _wait_for(predicate, *, tries=400, pause=0.01):
    for _ in range(tries):
        if predicate():
            return
        await asyncio.sleep(pause)
    pytest.fail("watcher never saw the edit")


class TestWatch:
    def test_edit_hot_swaps_under_live_traffic(self, tmp_path):
        doc = tmp_path / "spec.oun"
        doc.write_text(OLD_DOC, encoding="utf-8")

        async def run():
            registry = SpecRegistry.from_text(OLD_DOC)
            async with MonitorServer(registry) as server, _watching(
                doc, server
            ):
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="B"
                ) as session:
                    await session.send_event(EVENT)  # traffic on the old build
                    _rewrite(doc, NEW_DOC)
                    await _wait_for(lambda: registry.get("B").version == 1)
                    # the bound session still drains its pinned build …
                    await session.send_event(EVENT)
                    mid = await session.status()
                    # … and a rebind picks up the swapped machine
                    await session.use_spec("B")
                    await session.send_event(EVENT)
                    end = await session.status()
            return mid, end

        mid, end = asyncio.run(run())
        assert mid.ok and mid.events == 2
        assert end.ok and end.events == 1

    def test_broken_edit_keeps_the_last_good_build(self, tmp_path):
        doc = tmp_path / "spec.oun"
        doc.write_text(OLD_DOC, encoding="utf-8")

        async def run():
            registry = SpecRegistry.from_text(OLD_DOC)
            async with MonitorServer(registry) as server, _watching(
                doc, server
            ):
                _rewrite(doc, "specification {")  # a half-saved document
                # a broken edit must not take the service down: new
                # sessions keep binding the last good build while the
                # watcher keeps polling
                errors = metrics.counter("repro_watch_errors_total")
                await _wait_for(lambda: errors.value == 1)
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="B"
                ) as client:
                    await client.send_event(EVENT)
                    broken_era = await client.status()
                _rewrite(doc, NEW_DOC)
                await _wait_for(lambda: registry.get("B").version == 1)
            return broken_era, registry

        with use_registry() as metrics:
            broken_era, registry = asyncio.run(run())
        assert broken_era.ok and broken_era.events == 1
        assert registry.get("B").version == 1
        assert registry.get("A").version == 0

    def test_unchanged_stamp_is_never_reapplied(self, tmp_path, monkeypatch):
        doc = tmp_path / "spec.oun"
        doc.write_text(OLD_DOC, encoding="utf-8")
        stamp, polls = cli._stamp, []

        def counted_stamp(path):
            polls.append(path)
            return stamp(path)

        monkeypatch.setattr(cli, "_stamp", counted_stamp)
        monkeypatch.setattr(cli, "_WATCH_INTERVAL_S", 0.01)

        async def run():
            registry = SpecRegistry.from_text(OLD_DOC)
            async with MonitorServer(registry) as server, _watching(
                doc, server
            ):
                # one stamp at start, then one per poll, no edit
                await _wait_for(lambda: len(polls) > 10)
            return registry

        with use_registry() as metrics:
            registry = asyncio.run(run())
        assert registry.get("A").version == 0
        assert registry.get("B").version == 0
        assert metrics.counter("repro_watch_reloads_total").value == 0
        assert metrics.counter("repro_watch_errors_total").value == 0
