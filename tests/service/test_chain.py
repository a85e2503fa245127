"""The document chain: one process's restart law and the chain file codec.

A server started with a data directory keeps the document in force as
its start-up source plus every accepted ``UPDATE``, in order, in
``<data-dir>/chain.json``.  A restart on the same directory and the same
source rebuilds the same registry, so a durable session bound to a spec
an update added re-attaches; a start from another source begins a new
chain.  The multi-process half of the law is in ``test_scaleout.py``.
"""

import asyncio
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.service import MonitorClient, MonitorServer, SpecRegistry
from repro.service.chain import (
    CHAIN_FILE,
    ChainStore,
    build_registry,
    decode_chain,
    encode_chain,
)
from repro.service.durability import DurabilityError

from tests.service.test_scaleout import (
    DEEP_DOC,
    DOC,
    EDITED_DOC,
    EVENT,
    _baseline,
    _verdict,
)

#: Another start-up document: no Cap, no Extra.
OTHER_DOC = DOC.replace("specification Cap", "specification Other")

LINES = [EVENT, "c -> o : N(Data:d)", EVENT, EVENT]


async def _specs(port):
    async with MonitorClient("127.0.0.1", port) as client:
        return sorted(client.server_specs)


class TestRestart:
    def test_restart_keeps_updates_and_the_session_reattaches(self, tmp_path):
        async def before():
            registry = SpecRegistry.from_text(DOC)
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    await client.update_document(text=EDITED_DOC)
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Extra", session="k1"
                ) as client:
                    for line in LINES[:3]:
                        await client.send_event(line)
                    await client.status()

        async def after():
            registry = SpecRegistry.from_text(DOC)
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                specs = await _specs(server.port)
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Extra", session="k1"
                ) as client:
                    for line in LINES[3:]:
                        await client.send_event(line)
                    return specs, await client.status()

        asyncio.run(before())
        specs, status = asyncio.run(after())
        assert specs == ["Cap", "Extra"]
        (oracle,) = asyncio.run(_baseline([LINES], EDITED_DOC, "Extra"))
        assert _verdict(status) == _verdict(oracle)
        assert status.events == len(LINES)

    def test_another_source_begins_a_new_chain(self, tmp_path):
        """An edited start-up document is served as it is, never refused."""

        async def serve(doc, update=None):
            registry = SpecRegistry.from_text(doc)
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                if update is not None:
                    async with MonitorClient(
                        "127.0.0.1", server.port
                    ) as client:
                        await client.update_document(text=update)
                return await _specs(server.port)

        assert asyncio.run(serve(DOC, EDITED_DOC)) == ["Cap", "Extra"]
        stored = (tmp_path / CHAIN_FILE).read_bytes()
        assert asyncio.run(serve(OTHER_DOC)) == ["Other"]
        # the old chain stays until the new one records its first update
        assert (tmp_path / CHAIN_FILE).read_bytes() == stored
        assert asyncio.run(serve(OTHER_DOC, EDITED_DOC)) == [
            "Cap",
            "Extra",
            "Other",
        ]
        source, updates = decode_chain((tmp_path / CHAIN_FILE).read_bytes())
        assert source == SpecRegistry.from_text(OTHER_DOC).build_key()
        assert updates == [(None, EDITED_DOC, False)]
        # and the first source, served again, starts over as well
        assert asyncio.run(serve(DOC)) == ["Cap"]

    def test_rejected_updates_change_nothing(self, tmp_path):
        async def run():
            registry = SpecRegistry.from_text(DOC)
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    await client.update_document(text=EDITED_DOC)
                    # on disk before the OK reached the client
                    stored = (tmp_path / CHAIN_FILE).read_bytes()
                    assert decode_chain(stored)[1] == [
                        (None, EDITED_DOC, False)
                    ]
                    versions = {
                        name: registry.get(name).version
                        for name in registry.names()
                    }
                    for request in (
                        {"text": "specification {"},
                        {"scenario": "no_such_scenario"},
                    ):
                        with pytest.raises(ReproError, match="rejected"):
                            await client.update_document(**request)
                        assert (tmp_path / CHAIN_FILE).read_bytes() == stored
                        assert versions == {
                            name: registry.get(name).version
                            for name in registry.names()
                        }

        asyncio.run(run())

    def test_an_unrecorded_update_is_refused_and_changes_nothing(
        self, tmp_path
    ):
        """The reply agrees with what is served, now and after a restart."""
        blocker = tmp_path / (CHAIN_FILE + ".tmp")
        blocker.mkdir()  # the chain's temporary file cannot be written

        async def serve(update=None):
            registry = SpecRegistry.from_text(DOC)
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                reply = None
                if update is not None:
                    try:
                        async with MonitorClient(
                            "127.0.0.1", server.port
                        ) as client:
                            await client.update_document(text=update)
                        reply = "OK"
                    except ReproError as exc:
                        reply = str(exc)
                return reply, await _specs(server.port)

        reply, specs = asyncio.run(serve(EDITED_DOC))
        assert "cannot record the update" in reply
        assert specs == ["Cap"]
        assert not (tmp_path / CHAIN_FILE).exists()
        assert asyncio.run(serve()) == (None, ["Cap"])
        blocker.rmdir()
        assert asyncio.run(serve(EDITED_DOC)) == ("OK", ["Cap", "Extra"])
        assert asyncio.run(serve()) == (None, ["Cap", "Extra"])

    def test_a_too_deep_document_is_refused(self, tmp_path):
        """Parser recursion is an ``ERR``, not a dropped connection."""

        async def run():
            registry = SpecRegistry.from_text(DOC)
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ReproError, match="nests too deeply"):
                        await client.update_document(text=DEEP_DOC)
                    await client.update_document(text=EDITED_DOC)
                return await _specs(server.port)

        assert asyncio.run(run()) == ["Cap", "Extra"]

    def test_a_scenario_server_replays_its_chain(self, tmp_path):
        """A registry built as the benchmark builds it keeps a chain too."""
        from repro.workload.scenarios import get_scenario

        async def serve(update=False):
            registry = get_scenario("pubsub_fanout").registry()
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                if update:
                    async with MonitorClient(
                        "127.0.0.1", server.port
                    ) as client:
                        await client.update_document(
                            scenario="pubsub_fanout", force=True
                        )
                return {n: registry.get(n).version for n in registry.names()}

        first = asyncio.run(serve())
        assert set(asyncio.run(serve(update=True)).values()) == {1}
        again = asyncio.run(serve())
        assert again == {name: 1 for name in first}

    def test_build_registry_equals_a_served_registry(self):
        built = build_registry(
            None, DOC, [(None, EDITED_DOC, False), (None, DOC, True)],
            history_limit=16,
        )
        served = SpecRegistry.from_text(DOC)
        served.update_from_text(EDITED_DOC)
        served.update_from_text(DOC, force=True)
        assert {n: built.get(n).version for n in built.names()} == {
            n: served.get(n).version for n in served.names()
        } == {"Cap": 1, "Extra": 0}


#: Arbitrary JSON values, nested a little.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)

def _lacks(key):
    """A filter: JSON values that are not objects holding ``key``."""
    return lambda value: not isinstance(value, dict) or key not in value


#: Well-formed chain entries.
ENTRIES = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.text(max_size=8), st.none()),
            st.tuples(st.none(), st.text(max_size=40)),
        ),
        st.booleans(),
    ).map(lambda pair: (*pair[0], pair[1])),
    max_size=4,
)


def _decodes_or_refuses(blob: bytes) -> None:
    """:func:`decode_chain` returns a chain or raises DurabilityError only."""
    try:
        source, updates = decode_chain(blob)
    except DurabilityError:
        return
    assert isinstance(source, str)
    for scenario, text, force in updates:
        assert (scenario is None) != (text is None)
        assert isinstance(force, bool)


class TestChainCodec:
    @given(st.text(max_size=12), ENTRIES)
    def test_round_trip(self, source, updates):
        assert decode_chain(encode_chain(source, updates)) == (
            source,
            updates,
        )

    @given(st.binary(max_size=256))
    def test_arbitrary_bytes_decode_or_refuse(self, blob):
        _decodes_or_refuses(blob)

    @given(st.text(max_size=12), ENTRIES.filter(bool), st.data())
    def test_a_truncated_file_is_refused(self, source, updates, data):
        blob = encode_chain(source, updates)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(DurabilityError):
            decode_chain(blob[:cut])

    @given(JSON.filter(_lacks("source")))
    def test_json_of_the_wrong_shape_is_refused(self, value):
        blob = json.dumps(value).encode("utf-8")
        with pytest.raises(DurabilityError):
            decode_chain(blob)

    @given(ENTRIES, JSON.filter(_lacks("force")))
    def test_a_wrong_entry_is_refused(self, updates, entry):
        blob = json.dumps(
            {
                "source": "text:x",
                "updates": [
                    *({"scenario": s, "text": t, "force": f}
                      for s, t, f in updates),
                    entry,
                ],
            }
        ).encode("utf-8")
        with pytest.raises(DurabilityError):
            decode_chain(blob)

    def test_deep_nesting_is_refused(self):
        with pytest.raises(DurabilityError):
            decode_chain(b"[" * 100_000)

    def test_a_leftover_tmp_reads_as_the_previous_chain(self, tmp_path):
        store = ChainStore(tmp_path, "text:a")
        store.append((None, "first", False))
        # a crash after the temporary write, before its rename
        (tmp_path / (CHAIN_FILE + ".tmp")).write_bytes(
            encode_chain("text:a", [(None, "first", False), (None, "x", 1)])[
                :-7
            ]
        )
        again = ChainStore(tmp_path, "text:a")
        assert again.load() == [(None, "first", False)]
        again.append((None, "second", True))
        assert ChainStore(tmp_path, "text:a").load() == [
            (None, "first", False),
            (None, "second", True),
        ]

    def test_no_chain_file_is_an_empty_chain(self, tmp_path):
        assert ChainStore(tmp_path, "text:a").load() == []
