"""Tests for the live SPEC update path: registry hot-swap + UPDATE verb."""

import asyncio
import gc
import weakref

import pytest

from repro.core.errors import ReproError
from repro.pipeline import stage_counts
from repro.service import (
    MonitorClient,
    MonitorServer,
    SpecRegistry,
)

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


class TestRegistryUpdate:
    def test_same_text_is_all_unchanged(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        old = registry.get("B")
        report = registry.update_from_text(OLD_DOC)
        assert report.changed == () and report.added == ()
        assert set(report.unchanged) == {"A", "B"}
        assert registry.get("B") is old  # identity: sessions unaffected

    def test_one_spec_edit_swaps_only_that_spec(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        old_a, old_b = registry.get("A"), registry.get("B")
        report = registry.update_from_text(NEW_DOC)
        assert report.changed == ("B",)
        assert report.unchanged == ("A",)
        assert registry.get("A") is old_a
        new_b = registry.get("B")
        assert new_b is not old_b
        assert new_b.version == old_b.version + 1

    def test_swap_evicts_the_replaced_interned_machine(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        old_b = weakref.ref(registry.get("B").machine)
        assert old_b() is not registry.get("A").machine
        registry.update_from_text(NEW_DOC)
        gc.collect()
        # nothing keeps B's old machine; B's new content equals A's, so
        # one machine and one image serve both
        assert old_b() is None
        assert registry.get("B").machine is registry.get("A").machine
        assert registry.get("B").dense is registry.get("A").dense

    def test_force_installs_fresh_private_machines(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        old_b = registry.get("B")
        report = registry.update_from_text(OLD_DOC, force=True)
        assert set(report.changed) == {"A", "B"}
        fresh = registry.get("B")
        assert fresh is not old_b
        assert fresh.version == old_b.version + 1
        # force bypasses sharing: the rebuilt dense image is a fresh
        # private object, not even shared with A's identical rebuild
        assert fresh.dense is not old_b.dense
        assert fresh.machine is not registry.get("A").machine

    def test_plain_load_after_force_is_unchanged(self):
        """A forced build keeps its node key: the same text matches it."""
        registry = SpecRegistry.from_text(OLD_DOC)
        registry.update_from_text(OLD_DOC, force=True)
        forced = {name: registry.get(name) for name in ("A", "B")}
        report = registry.update_from_text(OLD_DOC)
        assert report.changed == () and set(report.unchanged) == {"A", "B"}
        assert all(registry.get(n) is forced[n] for n in forced)
        # an edit still swaps exactly the edited spec
        report = registry.update_from_text(NEW_DOC)
        assert report.changed == ("B",) and report.unchanged == ("A",)
        assert registry.get("B").version == forced["B"].version + 1
        # a forced build stays private: nothing shares its machine
        assert registry.get("B").machine is not forced["A"].machine

    def test_str_report(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        report = registry.update_from_text(NEW_DOC)
        assert str(report) == "changed=1 unchanged=1 added=0"


#: Spec B's declaration in OLD_DOC, the part each reload edits.
B_BODY = OLD_DOC[OLD_DOC.index("specification B") :]


def _reload_document(i: int) -> str:
    """OLD_DOC with spec B's method renamed: reload ``i`` edits B only."""
    return OLD_DOC.replace(B_BODY, B_BODY.replace("M(", f"N{i}("))


class TestReloadRetention:
    """Hot swaps retain nothing: a replaced build lives only as long as
    the sessions bound to it, and the pipeline memo holds one document."""

    RELOADS = 200

    def test_replaced_builds_are_unreachable_after_many_reloads(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        replaced = []
        for i in range(self.RELOADS):
            replaced.append(weakref.ref(registry.get("B").machine))
            report = registry.update_from_text(_reload_document(i))
            assert report.changed == ("B",) and report.unchanged == ("A",)
        gc.collect()
        assert [ref for ref in replaced if ref() is not None] == []
        assert registry.get("A").version == 0
        assert registry.get("B").version == self.RELOADS
        sizes = registry.pipeline.sizes()
        assert sizes == {
            "parse": 1,
            "elaborate": 2,
            "normalize": 2,
            "compose": 0,
        }

    def test_a_failed_load_keeps_the_memo(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        before = registry.pipeline.sizes()
        with pytest.raises(ReproError):
            registry.update_from_text(OLD_DOC + "specification B {}")
        assert registry.pipeline.sizes() == before
        # the memo still holds OLD_DOC's build: an edit of B elaborates
        # B alone and reuses A's stage
        hits = stage_counts()[("elaborate", "hit")]
        report = registry.update_from_text(NEW_DOC)
        assert stage_counts()[("elaborate", "hit")] == hits + 1
        assert report.changed == ("B",) and report.unchanged == ("A",)


class TestUpdateVerb:
    """The wire-level UPDATE verb, text and binary framings."""

    def _registry(self):
        return SpecRegistry.from_text(OLD_DOC)

    @pytest.mark.parametrize("proto", [1, 2])
    def test_update_document_over_both_framings(self, proto):
        async def run():
            registry = self._registry()
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, proto=proto
                ) as client:
                    fields = await client.update_document(text=NEW_DOC)
            return fields, registry

        fields, registry = asyncio.run(run())
        assert fields["changed"] == "1"
        assert fields["unchanged"] == "1"
        assert fields["added"] == "0"
        assert fields["specs"] == "B"
        assert registry.get("B").version == 1

    def test_plain_put_after_forced_put_keeps_versions(self):
        from tests.gateway.conftest import live_gateway

        registry = self._registry()
        with live_gateway(registry) as (api, _gw):
            status, body = api.request("PUT", "/v1/documents/B?force=1", OLD_DOC)
            assert status == 200 and body["changed"] == 2
            versions = {n: registry.get(n).version for n in ("A", "B")}
            status, body = api.request("PUT", "/v1/documents/B", OLD_DOC)
            assert status == 200
            assert (body["changed"], body["unchanged"]) == (0, 2)
            assert {n: registry.get(n).version for n in versions} == versions
            status, body = api.request("PUT", "/v1/documents/B", NEW_DOC)
            assert status == 200
            assert (body["changed"], body["unchanged"]) == (1, 1)
            assert registry.get("B").version == versions["B"] + 1

    def test_bound_session_drains_on_the_old_machine(self):
        """A mid-session swap never changes the session's machine."""

        async def run():
            registry = self._registry()
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="B"
                ) as session:
                    await session.send_event(EVENT)
                    async with MonitorClient(
                        "127.0.0.1", server.port
                    ) as admin:
                        await admin.update_document(text=NEW_DOC)
                    # old-B requires at least two M events; still bound
                    await session.send_event(EVENT)
                    mid = await session.status()
                    # rebinding picks up the new machine and resets
                    await session.use_spec("B")
                    await session.send_event(EVENT)
                    end = await session.status()
            return mid, end

        mid, end = asyncio.run(run())
        assert mid.ok and mid.events == 2
        assert end.ok and end.events == 1

    def test_scenario_form(self):
        async def run():
            registry = self._registry()
            async with MonitorServer(registry) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    return await client.update_document(
                        scenario="pubsub_fanout"
                    )

        fields = asyncio.run(run())
        assert int(fields["added"]) > 0

    def test_broken_document_is_an_error_and_registry_untouched(self):
        async def run():
            registry = self._registry()
            async with MonitorServer(registry) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ReproError):
                        await client.update_document(text="specification {")
            return registry

        registry = asyncio.run(run())
        assert registry.names() == ["A", "B"]
        assert registry.get("B").version == 0

    def test_client_validates_arguments(self):
        client = MonitorClient("127.0.0.1", 1)
        with pytest.raises(ReproError, match="exactly one"):
            asyncio.run(client.update_document())
        with pytest.raises(ReproError, match="exactly one"):
            asyncio.run(client.update_document(text="x", scenario="y"))


#: OLD_DOC with B's alphabet *widened* by a second method N — the letter
#: table of (B, version 1) strictly contains version 0's.
WIDER_DOC = """
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
  method N(Data)
  alphabet { <c, o, M(_)> ; <c, o, N(_)> ; }
  traces prs "<c,o,M(_)>* <c,o,N(_)>*"
}
"""

N_EVENT = "c -> o : N(Data:d)"


class TestBinaryUpdateRace:
    """UPDATE racing proto=2 EVENTS batches (PR 9 satellite check).

    A bound binary session keeps draining its pinned build — its queued
    letter ids mean what they meant when the table was synced — while a
    rebind resyncs the LETTERS table keyed ``(name, version)`` and only
    then sees the new alphabet.
    """

    def test_batches_drain_pinned_build_and_rebind_resyncs_letters(self):
        async def run():
            registry = SpecRegistry.from_text(OLD_DOC)
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="B", proto=2, batch=8
                ) as session:
                    letters_v0 = session.letters
                    # half a batch queued, then the document swaps under it
                    await session.send_event(EVENT)
                    async with MonitorClient(
                        "127.0.0.1", server.port, proto=2
                    ) as admin:
                        await admin.update_document(text=WIDER_DOC)
                    await session.send_event(EVENT)
                    mid = await session.status()  # flush: both ids hit old B
                    # the widened alphabet is invisible to the pinned build:
                    # N travels as a raw EVENT frame and is skipped
                    await session.send_event(N_EVENT)
                    drained = await session.status()
                    # rebinding resyncs LETTERS for (B, 1): N now validates
                    await session.use_spec("B")
                    letters_v1 = session.letters
                    await session.send_event(EVENT)
                    await session.send_event(N_EVENT)
                    end = await session.status()
            return letters_v0, letters_v1, mid, drained, end

        letters_v0, letters_v1, mid, drained, end = asyncio.run(run())
        # old B needs two M events; the queued batch drained on it
        assert mid.ok and mid.events == 2 and mid.skipped == 0
        assert drained.events == 3 and drained.skipped == 1
        # the rebind fetched a strictly larger letter table
        assert set(letters_v0) < set(letters_v1)
        assert end.ok and end.events == 2 and end.skipped == 0
