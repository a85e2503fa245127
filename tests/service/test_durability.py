"""Durable event log, snapshots, and the replay correctness law.

The law under test (ISSUE PR 9): interrupt a durable session at any
event index, restart the server over the same data directory, finish
the stream — the per-session verdict (ok flag, violation index and
event, counters) must be identical to an uninterrupted run.
"""

import asyncio
import functools
import json
import random
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.registry import get_registry
from repro.service import MonitorClient, MonitorServer, SpecRegistry
from repro.service import durability
from repro.service.durability import (
    REC_BIND,
    REC_IDS,
    REC_LINE,
    REC_RESET,
    DurabilityError,
    LogIndex,
    Record,
    WorkerStore,
    decode_records,
    encode_record,
    load_best_snapshot,
    recover,
    scan_records,
)
from repro.service import wire
from repro.service.protocol import parse_reply
from repro.workload.generator import FaultSpec, StreamSession
from repro.workload.scenarios import all_scenarios, get_scenario

WRITE_LINES = [
    "w1 -> o : OW",
    "w1 -> o : W(Data:d1)",
    "w1 -> o : UNRELATED",  # outside Write's alphabet: skipped
    "w1 -> o : W(Data:d2)",
    "w1 -> o : CW",
]

VIOLATING_LINES = [
    "w9 -> o : OW",
    "w9 -> o : W(Data:d1)",
    "intruder -> o : W(Data:d1)",
    "w9 -> o : CW",
]
VIOLATION_INDEX = 2


@pytest.fixture(scope="module")
def registry(cast) -> SpecRegistry:
    return SpecRegistry([cast.write()])


# -- record codec ------------------------------------------------------------


class TestRecordCodec:
    def test_round_trip(self):
        blob = b"".join(
            [
                encode_record(REC_BIND, "k", 0, 0, b"Write"),
                encode_record(REC_LINE, "k", 1, 0, b"w -> o : OW"),
                encode_record(REC_RESET, "k", 2, 1),
            ]
        )
        records = list(decode_records(blob))
        assert [r.opcode for r in records] == [REC_BIND, REC_LINE, REC_RESET]
        assert [r.lsn for r in records] == [0, 1, 2]
        assert [r.received for r in records] == [0, 0, 1]
        assert records[0].body == b"Write"
        assert records[1].body == b"w -> o : OW"
        assert [r.inputs for r in records] == [0, 1, 0]

    def test_ids_record_counts_its_inputs(self):
        body = wire.pack_event_ids([7, 7, 9])
        record = next(iter(decode_records(encode_record(REC_IDS, "k", 3, 5, body))))
        assert record.inputs == 3
        assert record.body == body

    def test_torn_tail_ends_the_stream_cleanly(self):
        intact = encode_record(REC_LINE, "k", 0, 0, b"a -> o : OW")
        torn = encode_record(REC_LINE, "k", 1, 1, b"a -> o : CW")
        for cut in range(1, len(torn)):
            records = list(decode_records(intact + torn[:-cut]))
            assert [r.lsn for r in records] == [0], f"cut={cut}"

    def test_payload_shorter_than_prefix_is_an_error(self):
        # A complete frame whose payload cannot hold the record prefix is
        # corruption, not a torn tail.
        with pytest.raises(DurabilityError):
            list(decode_records(wire.encode_frame(REC_LINE, b"xx")))

    def test_oversized_key_rejected(self):
        with pytest.raises(DurabilityError):
            encode_record(REC_LINE, "k" * 70_000, 0, 0, b"")

    def test_non_utf8_key_is_a_durability_error(self):
        payload = struct.pack("<IIH", 0, 0, 2) + b"\xff\xfe"
        with pytest.raises(DurabilityError):
            list(decode_records(wire.encode_frame(REC_LINE, payload)))


_OPCODES = st.sampled_from([REC_BIND, REC_LINE, REC_IDS, REC_RESET])
_U32S = st.integers(0, 2**32 - 1)
_RECORDS = st.tuples(
    _OPCODES, st.text(max_size=12), _U32S, _U32S, st.binary(max_size=40)
)


class TestRecordCodecProperties:
    @settings(max_examples=300)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_decode_or_raise_durability_error(self, blob):
        try:
            records = list(decode_records(blob))
        except DurabilityError:
            return
        assert all(isinstance(r, Record) for r in records)

    @settings(max_examples=200)
    @given(st.lists(_RECORDS, max_size=8))
    def test_decode_inverts_encode(self, fields):
        blob = b"".join(encode_record(*f) for f in fields)
        assert list(decode_records(blob)) == [
            Record(opcode=op, key=key, lsn=lsn, received=received, body=body)
            for op, key, lsn, received, body in fields
        ]


# -- worker store ------------------------------------------------------------


class TestWorkerStore:
    def test_append_and_scan_across_shards(self, tmp_path):
        store = WorkerStore(tmp_path, worker_id=0, fsync_every=2)
        store.append(1, encode_record(REC_BIND, "k", 0, 0, b"Write"))
        store.append(0, encode_record(REC_LINE, "k", 1, 0, b"x"))
        store.append(1, encode_record(REC_LINE, "k", 2, 1, b"y"))
        store.append(0, encode_record(REC_LINE, "other", 0, 0, b"z"))
        store.close()
        assert sorted(p.name for p in tmp_path.glob("worker-0/*.log")) == [
            "shard-0.log",
            "shard-1.log",
        ]
        # scan rebuilds the per-key total order by lsn across shard files
        records = scan_records(tmp_path, "k")
        assert [r.lsn for r in records] == [0, 1, 2]
        assert [r.body for r in records] == [b"Write", b"x", b"y"]
        assert [r.body for r in scan_records(tmp_path, "other")] == [b"z"]

    def test_scan_of_missing_dir_is_empty(self, tmp_path):
        assert scan_records(tmp_path / "nope", "k") == []
        assert load_best_snapshot(tmp_path / "nope", "k") is None

    def test_snapshot_round_trip_keeps_the_freshest(self, tmp_path):
        store = WorkerStore(tmp_path, worker_id=0)
        store.write_snapshot({"key": "k", "lsn": 3, "received": 2})
        store.write_snapshot({"key": "k", "lsn": 9, "received": 7})
        # a second worker's older snapshot of the same key must lose
        other = WorkerStore(tmp_path, worker_id=1)
        other.write_snapshot({"key": "k", "lsn": 5, "received": 4})
        store.close()
        other.close()
        best = load_best_snapshot(tmp_path, "k")
        assert best is not None and best["lsn"] == 9 and best["received"] == 7
        # no tmp files left behind by the atomic rename
        assert not list(tmp_path.glob("worker-*/snapshots/*.tmp"))

    def test_fsync_every_must_be_positive(self, tmp_path):
        with pytest.raises(DurabilityError):
            WorkerStore(tmp_path, fsync_every=0)

    def test_append_after_a_torn_tail_keeps_every_whole_record(self, tmp_path):
        # A crash left half a record at the end of the log; the restarted
        # worker's appends must start on a record boundary, not inside it.
        store = WorkerStore(tmp_path)
        store.append(0, encode_record(REC_LINE, "k", 0, 0, b"a"))
        store.close()
        torn = encode_record(REC_LINE, "k", 1, 1, b"b" * 16)
        with open(tmp_path / "worker-0" / "shard-0.log", "ab") as fh:
            fh.write(torn[: len(torn) // 2])
        store = WorkerStore(tmp_path)
        store.append(0, encode_record(REC_LINE, "k", 1, 1, b"c"))
        store.append(0, encode_record(REC_LINE, "k", 2, 2, b"d"))
        store.close()
        assert [(r.lsn, r.body) for r in scan_records(tmp_path, "k")] == [
            (0, b"a"),
            (1, b"c"),
            (2, b"d"),
        ]


# -- recovery units ----------------------------------------------------------


def _log_lines(store, key, lines, *, lsn=0, received=0, shard=0, bind="Write"):
    """Append a BIND plus one REC_LINE per line; returns (next_lsn, received)."""
    if bind is not None:
        store.append(shard, encode_record(REC_BIND, key, lsn, received, bind.encode()))
        lsn += 1
    for line in lines:
        store.append(shard, encode_record(REC_LINE, key, lsn, received, line.encode()))
        lsn += 1
        received += 1
    return lsn, received


def _recover(root, key, registry):
    """``recover()`` plus how many log records it replayed."""
    counter = get_registry().counter("repro_durability_replayed_records_total")
    before = counter.value
    state = recover(root, key, registry)
    return state, counter.value - before


class TestRecover:
    def test_full_log_replay(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", WRITE_LINES)
        store.close()
        state, _ = _recover(tmp_path, "k", registry)
        assert state.compiled.name == "Write"
        assert state.events == len(WRITE_LINES)
        assert state.skipped == 1
        assert state.errors == 0
        assert state.received == received
        assert state.next_lsn == next_lsn
        assert state.status().violation_index is None
        assert state.monitor is not None

    def test_replay_restores_a_violation(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        _log_lines(store, "k", VIOLATING_LINES)
        store.close()
        status = recover(tmp_path, "k", registry).status()
        assert status.violation_index == VIOLATION_INDEX
        assert status.violation_event == VIOLATING_LINES[VIOLATION_INDEX]

    def test_duplicate_suffix_is_deduplicated(self, tmp_path, registry):
        # An at-least-once resend re-logs lines the log already holds
        # (same watermark); replay must apply them exactly once.
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", WRITE_LINES)
        _log_lines(
            store,
            "k",
            WRITE_LINES[-2:],
            lsn=next_lsn,
            received=received - 2,
            bind=None,
        )
        store.close()
        state = recover(tmp_path, "k", registry)
        assert state.events == len(WRITE_LINES)
        assert state.received == received

    def test_partially_covered_batch_replays_only_its_suffix(self, tmp_path):
        scenario, registry, lines = _scenario_lines("pubsub_fanout", 0, n=12)
        table = registry.get(scenario.monitored).letter_lines
        ids = [table.index(line) for line in lines if line in table]
        assert len(ids) > 8
        bind = scenario.monitored.encode()

        def recovered(key, *batches):
            store = WorkerStore(tmp_path)
            store.append(0, encode_record(REC_BIND, key, 0, 0, bind))
            for lsn, (received, batch) in enumerate(batches, start=1):
                body = wire.pack_event_ids(batch)
                store.append(0, encode_record(REC_IDS, key, lsn, received, body))
            store.close()
            return recover(tmp_path, key, registry)

        once = recovered("once", (0, ids))
        # a resend whose first 3 ids the watermark already covers
        resent = recovered("resent", (0, ids[:8]), (5, ids[5:]))
        assert resent.received == once.received == len(ids)
        assert resent.status() == once.status()
        assert resent.events == len(ids)

    def test_reset_record_clears_counters_not_watermark(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", VIOLATING_LINES)
        store.append(0, encode_record(REC_RESET, "k", next_lsn, received))
        _log_lines(
            store,
            "k",
            WRITE_LINES[:2],
            lsn=next_lsn + 1,
            received=received,
            bind=None,
        )
        store.close()
        state = recover(tmp_path, "k", registry)
        assert state.events == 2
        assert state.status().violation_index is None
        # the watermark keeps counting across RESET: dedup stays sound
        assert state.received == received + 2

    def test_snapshot_skips_the_covered_prefix(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", WRITE_LINES)
        store.close()
        full, replayed = _recover(tmp_path, "k", registry)
        assert replayed == len(WRITE_LINES) + 1  # + the BIND record

        # now snapshot the final state: recovery replays nothing
        monitor = full.monitor
        payload = {
            "key": "k",
            "spec": "Write",
            "lsn": next_lsn,
            "received": received,
            "events": full.events,
            "skipped": full.skipped,
            "errors": full.errors,
            "violation": None,
            "monitor": {"alive": monitor.alive, "dstate": monitor._dstate},
        }
        store2 = WorkerStore(tmp_path)
        store2.write_snapshot(payload)
        store2.close()
        snapped, replayed = _recover(tmp_path, "k", registry)
        assert replayed == 0
        assert snapped.events == full.events
        assert snapped.skipped == full.skipped
        assert snapped.received == full.received
        assert snapped.next_lsn == full.next_lsn

    def test_unknown_key_recovers_to_a_blank_session(self, tmp_path, registry):
        state = recover(tmp_path, "ghost", registry)
        assert state.compiled is None and state.events == 0 and state.received == 0


# -- snapshot loader -----------------------------------------------------------


def _write_raw_snapshot(root, key, text, worker=0):
    path = root / f"worker-{worker}" / "snapshots" / durability._snapshot_name(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


_GOOD_SNAPSHOT = {
    "key": "k",
    "spec": "Write",
    "lsn": 99,
    "received": 99,
    "events": 99,
    "skipped": 0,
    "errors": 0,
    "violation": None,
    "monitor": None,
}


class TestSnapshotLoader:
    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "k",
            7,
            {**_GOOD_SNAPSHOT, "lsn": "99"},
            {**_GOOD_SNAPSHOT, "received": None},
            {**_GOOD_SNAPSHOT, "events": 9.5},
            {**_GOOD_SNAPSHOT, "skipped": -1},
            {**_GOOD_SNAPSHOT, "lsn": True},
            {**_GOOD_SNAPSHOT, "errors": [1]},
            {**_GOOD_SNAPSHOT, "spec": 3},
            {**_GOOD_SNAPSHOT, "violation": {"index": "2"}},
            {**_GOOD_SNAPSHOT, "monitor": {"dstate": "0"}},
            {**_GOOD_SNAPSHOT, "monitor": ["alive"]},
        ],
        ids=repr,
    )
    def test_malformed_snapshot_counts_as_torn(self, tmp_path, registry, payload):
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", WRITE_LINES)
        store.close()
        _write_raw_snapshot(tmp_path, "k", json.dumps(payload))
        assert load_best_snapshot(tmp_path, "k") is None
        # recovery replays the whole log instead
        state, replayed = _recover(tmp_path, "k", registry)
        assert replayed == len(WRITE_LINES) + 1
        assert state.events == len(WRITE_LINES)
        assert (state.received, state.next_lsn) == (received, next_lsn)

    def test_malformed_snapshot_loses_to_a_good_one(self, tmp_path):
        _write_raw_snapshot(tmp_path, "k", json.dumps(_GOOD_SNAPSHOT), worker=0)
        _write_raw_snapshot(
            tmp_path, "k", json.dumps({**_GOOD_SNAPSHOT, "lsn": "500"}), worker=1
        )
        assert load_best_snapshot(tmp_path, "k") == _GOOD_SNAPSHOT

    def test_snapshot_of_another_key_is_ignored(self, tmp_path):
        # a name collision (or a copied file) must not hand over state
        _write_raw_snapshot(tmp_path, "k", json.dumps({**_GOOD_SNAPSHOT, "key": "j"}))
        assert load_best_snapshot(tmp_path, "k") is None

    def test_out_of_range_dense_state_replays_the_log(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        _log_lines(store, "k", WRITE_LINES)
        store.close()
        payload = {**_GOOD_SNAPSHOT, "monitor": {"alive": True, "dstate": 10**6}}
        _write_raw_snapshot(tmp_path, "k", json.dumps(payload))
        state, replayed = _recover(tmp_path, "k", registry)
        assert replayed == len(WRITE_LINES) + 1
        assert state.events == len(WRITE_LINES)

    @settings(
        max_examples=100,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.dictionaries(
            st.sampled_from(sorted(_GOOD_SNAPSHOT)),
            st.recursive(
                st.none() | st.booleans() | st.integers(-3, 300) | st.text(max_size=4),
                lambda inner: st.lists(inner, max_size=2)
                | st.dictionaries(st.sampled_from(["index", "event", "alive", "dstate"]), inner, max_size=3),
                max_leaves=4,
            ),
        )
    )
    def test_any_json_snapshot_recovers_without_crashing(
        self, tmp_path, registry, fields
    ):
        # the law: a usable snapshot or a skipped one, never an exception
        _write_raw_snapshot(tmp_path, "k", json.dumps({**fields, "key": "k"}))
        state = recover(tmp_path, "k", registry)
        assert min(state.events, state.received, state.next_lsn) >= 0


# -- log index -----------------------------------------------------------------


def _full_scan(root, key):
    """The reference: decode every log in full and keep ``key``'s records."""
    records = [
        record
        for log in sorted(Path(root).glob("worker-*/shard-*.log"))
        for record in decode_records(log.read_bytes())
        if record.key == key
    ]
    return sorted(records, key=lambda r: r.lsn)


_KEYS = ["k0", "k1", "k2"]
_APPENDS = st.tuples(
    st.just("append"),
    st.integers(0, 1),  # worker
    st.integers(0, 2),  # shard
    st.sampled_from(_KEYS),
    st.binary(max_size=24),
    st.none() | st.floats(0.01, 0.99),  # cut: visible half-written first
)
_QUERIES = st.tuples(st.just("query"))


class TestLogIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_APPENDS, _QUERIES), min_size=1, max_size=30))
    def test_index_equals_a_full_scan(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            index = LogIndex(root)
            lsns = dict.fromkeys(_KEYS, 0)

            def check():
                for key in _KEYS:
                    assert index.records(key) == _full_scan(root, key)

            for op in ops:
                if op[0] == "query":
                    check()
                    continue
                _, worker, shard, key, body, cut = op
                record = encode_record(REC_LINE, key, lsns[key], lsns[key], body)
                lsns[key] += 1
                log = root / f"worker-{worker}" / f"shard-{shard}.log"
                log.parent.mkdir(parents=True, exist_ok=True)
                with open(log, "ab") as fh:
                    if cut is not None:
                        split = max(1, int(len(record) * cut))
                        fh.write(record[:split])
                        fh.flush()
                        check()  # the half-written record is not visible yet
                        record = record[split:]
                    fh.write(record)
            check()

    def test_fresh_key_recoveries_read_each_log_byte_once(self, tmp_path, registry):
        stores = [WorkerStore(tmp_path, worker_id=i, fsync_every=1) for i in range(2)]
        index = LogIndex(tmp_path)
        for n in range(12):
            key = f"fresh-{n}"
            state = recover(tmp_path, key, registry, index=index)
            assert state.received == 0 and state.next_lsn == 0
            _log_lines(stores[n % 2], key, WRITE_LINES, shard=n % 3)
        for store in stores:
            store.close()
        index.refresh()
        logs = sorted(tmp_path.glob("worker-*/shard-*.log"))
        sizes = [log.stat().st_size for log in logs]
        assert sorted(index._consumed) == sorted(sizes)
        assert index.scanned_bytes == sum(sizes)
        # a returning key finds its whole history through the warm index
        state = recover(tmp_path, "fresh-5", registry, index=index)
        assert state.events == len(WRITE_LINES)
        assert index.scanned_bytes == sum(sizes)

    def test_rewritten_directory_rebuilds_the_index(self, tmp_path):
        store = WorkerStore(tmp_path)
        _log_lines(store, "k", WRITE_LINES)
        store.close()
        index = LogIndex(tmp_path)
        assert len(index.records("k")) == len(WRITE_LINES) + 1
        # the log is replaced by a shorter one: offsets past its end are void
        shutil.rmtree(tmp_path / "worker-0")
        store = WorkerStore(tmp_path)
        _log_lines(store, "k", WRITE_LINES[:1])
        store.close()
        assert index.records("k") == _full_scan(tmp_path, "k")
        assert len(index.records("k")) == 2


# -- end-to-end replay law ---------------------------------------------------


async def _drive(port, spec, lines, key, *, proto=1, status_every=None):
    """One durable session sending ``lines``; returns its final status.

    A ``None`` line sends RESET.  Binary sessions batch 5 ids per
    ``EVENTS`` frame, so batches straddle snapshots and the cut.
    """
    client = MonitorClient(
        "127.0.0.1", port, spec=spec, session=key, proto=proto, batch=5
    )
    await client.connect()
    try:
        for i, line in enumerate(lines, start=1):
            if line is None:
                await client.reset()
            else:
                await client.send_event(line)
            if status_every and i % status_every == 0:
                await client.status()
        return await client.status()
    finally:
        await client.close()


def _verdict(status):
    return (
        status.ok,
        status.events,
        status.skipped,
        status.errors,
        status.violation_index,
        status.violation_event,
    )


@functools.cache
def _registry_of(name):
    """One registry per scenario for the whole module.

    No test here updates a registry, and servers and recoveries only
    read one, so sharing it stands in for a process restart's fresh
    build at a fraction of the compile cost.
    """
    return get_scenario(name).registry()


def _scenario_lines(name, seed, n=60):
    scenario = get_scenario(name)
    registry = _registry_of(name)
    compiled = registry.get(scenario.monitored)
    stream = StreamSession(
        compiled, faults=FaultSpec(dup=0.05, drop=0.05), seed=seed
    )
    return scenario, registry, stream.next_batch_lines(n)


def _noisy(lines, rng):
    """``lines`` with malformed lines, a comment and a mid-stream RESET.

    Two lines become whitespace variants of themselves: the same events,
    but lines the letter table misses, so replay covers both table hits
    and parsed lines.
    """
    noisy = list(lines)
    for junk in ("not an event", "# a comment", "a -> : M()", "x -> o : W(("):
        noisy.insert(rng.randrange(len(noisy) + 1), junk)
    for i in rng.sample(range(len(lines)), 2):
        noisy[noisy.index(lines[i])] = lines[i].replace(" -> ", "  ->  ", 1)
    noisy.insert(len(noisy) // 2, None)
    return noisy


class TestReplayLaw:
    @pytest.mark.parametrize("stream", ["clean", "noisy"])
    @pytest.mark.parametrize("proto", [1, 2])
    @pytest.mark.parametrize(
        "scenario_name", [s.name for s in all_scenarios()]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("wipe_snapshots", [False, True])
    def test_interrupted_equals_uninterrupted(
        self, tmp_path, scenario_name, seed, wipe_snapshots, proto, stream
    ):
        scenario, registry, lines = _scenario_lines(scenario_name, seed)
        rng = random.Random(f"{scenario_name}:{seed}")
        cut = rng.randrange(1, len(lines))
        if stream == "noisy":
            lines = _noisy(lines, rng)
            cut = rng.randrange(1, len(lines))
        key = f"{scenario_name}:{seed}"
        spec = scenario.monitored

        async def run():
            # the uninterrupted twin
            async with MonitorServer(
                registry, data_dir=tmp_path / "a"
            ) as server:
                baseline = await _drive(server.port, spec, lines, key, proto=proto)

            # interrupted at `cut`, then restarted over the same data dir
            durable = dict(
                data_dir=tmp_path / "b", fsync_every=4, snapshot_every=16
            )
            async with MonitorServer(
                _registry_of(scenario.name), **durable
            ) as server:
                await _drive(
                    server.port, spec, lines[:cut], key, proto=proto, status_every=7
                )
            if wipe_snapshots:
                # force a pure log replay: deleting every checkpoint must
                # not change the recovered state
                for snap_dir in (tmp_path / "b").glob("worker-*/snapshots"):
                    shutil.rmtree(snap_dir)
            async with MonitorServer(
                _registry_of(scenario.name), **durable
            ) as server:
                resumed = await _drive(
                    server.port, spec, lines[cut:], key, proto=proto
                )
            return baseline, resumed

        baseline, resumed = asyncio.run(run())
        assert _verdict(resumed) == _verdict(baseline)

    @pytest.mark.parametrize("stream", ["clean", "noisy"])
    @pytest.mark.parametrize(
        "scenario_name", [s.name for s in all_scenarios()]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pipelined_text_burst_recovers_to_live_status(
        self, tmp_path, scenario_name, seed, stream
    ):
        """Every line in one write, with snapshot points inside the burst.

        ``snapshot_every`` is far below the write, so the snapshot
        trigger's flush lands between runs of one burst.  A copy of the
        data dir taken right after the live ``STATUS`` is what a killed
        process leaves: recovering it gives the live status, with or
        without its snapshot, and the log holds one ``REC_LINE`` per line.
        """
        scenario, registry, lines = _scenario_lines(scenario_name, seed)
        if stream == "noisy":
            lines = _noisy(lines, random.Random(f"{scenario_name}:{seed}"))
        key = f"burst:{scenario_name}:{seed}"
        request = [
            f"HELLO session={key}",
            f"SPEC {scenario.monitored}",
            *("RESET" if line is None else f"EVENT {line}" for line in lines),
            "STATUS",
        ]
        replies = sum(1 for line in request if not line.startswith("EVENT "))
        killed = tmp_path / "killed"

        async def run():
            async with MonitorServer(
                registry,
                data_dir=tmp_path / "live",
                fsync_every=4,
                snapshot_every=8,
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(("\n".join(request) + "\n").encode())
                await writer.drain()
                for _ in range(replies):
                    reply = await reader.readline()
                shutil.copytree(tmp_path / "live", killed)
                writer.close()
                await writer.wait_closed()
                return parse_reply(reply.decode()).status

        live = asyncio.run(run())
        records = scan_records(killed, key)
        assert [r.opcode for r in records].count(REC_LINE) == sum(
            line is not None for line in lines
        )
        snapshot = load_best_snapshot(killed, key)
        assert 0 < snapshot["lsn"] < len(records)
        assert recover(killed, key, _registry_of(scenario.name)).status() == live
        for snap_dir in killed.glob("worker-*/snapshots"):
            shutil.rmtree(snap_dir)
        assert recover(killed, key, _registry_of(scenario.name)).status() == live

    @pytest.mark.parametrize("proto", [1, 2])
    def test_client_auto_resume_across_restart(self, tmp_path, proto, cast):
        """A live client rides out a server restart transparently."""
        registry = SpecRegistry([cast.write()])
        lines = WRITE_LINES + VIOLATING_LINES

        async def run():
            # uninterrupted control session (plain, no durability)
            async with MonitorServer(
                SpecRegistry([cast.write()])
            ) as control_server:
                async with MonitorClient(
                    "127.0.0.1", control_server.port, spec="Write", proto=proto
                ) as control:
                    for line in lines:
                        await control.send_event(line)
                    baseline = await control.status()

            server = MonitorServer(
                registry, data_dir=tmp_path / "d", fsync_every=1
            )
            await server.start()
            port = server.port
            client = MonitorClient(
                "127.0.0.1", port, spec="Write", session="k", proto=proto
            )
            await client.connect()
            assert client.durable
            for line in lines[:4]:
                await client.send_event(line)
            await client.status()
            await server.stop()

            # restart on the same port; the client's next sync reconnects,
            # re-attaches the session, and resends the unacked suffix
            server = MonitorServer(
                SpecRegistry([cast.write()]),
                port=port,
                data_dir=tmp_path / "d",
                fsync_every=1,
            )
            await server.start()
            try:
                for line in lines[4:]:
                    await client.send_event(line)
                status = await client.status()
            finally:
                await client.close()
                await server.stop()
            return baseline, status

        baseline, status = _with_retries(run)
        assert status.events == len(lines)
        assert status.skipped == 1
        assert not status.ok
        assert _verdict(status) == _verdict(baseline)

    def test_non_durable_sessions_see_no_applied_field(self, tmp_path, cast):
        registry = SpecRegistry([cast.write()])

        async def run():
            async with MonitorServer(
                registry, data_dir=tmp_path
            ) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write"
                ) as plain:
                    await plain.send_event(WRITE_LINES[0])
                    return await plain.status(), plain.durable

        status, durable = asyncio.run(run())
        assert not durable
        assert status.applied is None


def _with_retries(run, attempts=3):
    """Re-run a port-reusing coroutine if the port was snatched between binds."""
    for attempt in range(attempts):
        try:
            return asyncio.run(run())
        except OSError:
            if attempt == attempts - 1:
                raise


class TestDurableServing:
    @pytest.mark.parametrize("proto", [1, 2])
    def test_applied_inputs_are_logged_before_the_reply(self, tmp_path, cast, proto):
        # ``applied=`` promises the log holds the inputs (a process crash
        # loses none of them), not that they were fsynced: with the
        # default fsync_every nothing here has reached the disk yet.
        lines = WRITE_LINES + VIOLATING_LINES

        async def run():
            async with MonitorServer(
                SpecRegistry([cast.write()]), data_dir=tmp_path
            ) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write", session="k", proto=proto
                ) as client:
                    for line in lines:
                        await client.send_event(line)
                    status = await client.status()
                    return status, scan_records(tmp_path, "k")

        status, records = asyncio.run(run())
        assert status.applied == len(lines)
        assert sum(record.inputs for record in records) == status.applied

    def test_older_shard_log_reattaches_unchanged(self, tmp_path, cast):
        # Servers before 2.0.0 spread a worker's records over one log per
        # session queue.  A key logged in shard-2.log re-attaches with the
        # applied= and verdict of a live run, and new records go to
        # shard-0.log.
        old = tmp_path / "old"
        store = WorkerStore(old)
        _log_lines(store, "k", VIOLATING_LINES, shard=2)
        store.close()
        shard_2 = (old / "worker-0" / "shard-2.log").read_bytes()
        events = b"".join(b"EVENT %s\n" % line.encode() for line in VIOLATING_LINES)

        async def replies(data_dir, body: bytes, count: int) -> list[bytes]:
            async with MonitorServer(
                SpecRegistry([cast.write()]), data_dir=data_dir
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"HELLO session=k\nSPEC Write\n" + body)
                await writer.drain()
                out = [await reader.readline() for _ in range(count)]
                writer.close()
                await writer.wait_closed()
                return out[1:]

        live = asyncio.run(replies(tmp_path / "live", events + b"STATUS\n", 3))
        recovered = asyncio.run(
            replies(old, b"STATUS\nEVENT w9 -> o : CW\nBYE\n", 4)
        )
        assert live[0] == b"OK spec Write applied=0\n"
        assert recovered[0] == b"OK spec Write applied=4\n"
        assert recovered[1] == live[1]
        assert b"index=2" in live[1]
        assert (old / "worker-0" / "shard-2.log").read_bytes() == shard_2
        tail = scan_records(old, "k")[-1]
        assert (tail.opcode, tail.body) == (REC_LINE, b"w9 -> o : CW")
        assert sorted(p.name for p in (old / "worker-0").glob("*.log")) == [
            "shard-0.log",
            "shard-2.log",
        ]

    def test_closes_below_the_schedule_leave_only_the_log(self, tmp_path, cast):
        # BYE and the close write no snapshot: a key fed, BYEd and closed
        # N times below snapshot_every keeps one log and no snapshot, and
        # each re-attach recovers the STATUS and applied= it left live.
        lines = WRITE_LINES + VIOLATING_LINES
        chunks = [lines[i : i + 3] for i in range(0, len(lines), 3)]

        async def run():
            async with MonitorServer(
                SpecRegistry([cast.write()]), data_dir=tmp_path
            ) as server:
                live, recovered = [], []
                applied = 0
                for chunk in chunks:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )

                    async def ask(request: bytes) -> bytes:
                        writer.write(request)
                        await writer.drain()
                        return await reader.readline()

                    await ask(b"HELLO session=k1\n")
                    spec = await ask(b"SPEC Write\n")
                    assert spec == b"OK spec Write applied=%d\n" % applied
                    recovered.append(await ask(b"STATUS\n"))
                    writer.write(
                        b"".join(b"EVENT %s\n" % line.encode() for line in chunk)
                    )
                    live.append(await ask(b"STATUS\n"))
                    assert (await ask(b"BYE\n")).startswith(b"OK bye events=")
                    writer.close()
                    await writer.wait_closed()
                    applied += len(chunk)
            return live, recovered

        live, recovered = asyncio.run(run())
        assert recovered[1:] == live[:-1]
        assert b"index=%d" % (len(WRITE_LINES) + VIOLATION_INDEX) in live[-1]
        assert list((tmp_path / "worker-0" / "snapshots").iterdir()) == []
        assert [p.name for p in (tmp_path / "worker-0").glob("*.log")] == [
            "shard-0.log"
        ]
        assert sum(r.inputs for r in scan_records(tmp_path, "k1")) == len(lines)

    @pytest.mark.parametrize("yields", range(11))
    def test_stop_waits_for_a_closing_connection(self, tmp_path, cast, yields):
        # stop() racing a client that just closed must still wait for the
        # connection's close, leaving no task behind and every input logged.
        errors = []
        lines = ["w1 -> o : OW"] * 50

        async def run():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            server = MonitorServer(
                SpecRegistry([cast.write()]), data_dir=tmp_path
            )
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for request in (b"HELLO session=k1\n", b"SPEC Write\n"):
                writer.write(request)
                await reader.readline()
            writer.write(b"".join(b"EVENT %s\n" % line.encode() for line in lines))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            for _ in range(yields):
                await asyncio.sleep(0)
            await server.stop()
            leftover = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            async with MonitorServer(SpecRegistry([cast.write()])) as plain:
                baseline = await _drive(plain.port, "Write", lines, None)
            return leftover, baseline

        leftover, baseline = asyncio.run(run())
        assert leftover == []
        assert errors == []
        state = recover(tmp_path, "k1", SpecRegistry([cast.write()]))
        assert state.received == len(lines)
        assert _verdict(state.status()) == _verdict(baseline)


# -- recovery-level laws -----------------------------------------------------


def _unsnapshotted_inputs(root, key):
    """The inputs a recovery of ``key`` must replay: past its freshest snapshot."""
    snap = load_best_snapshot(root, key)
    covered = snap["lsn"] if snap is not None else 0
    return sum(r.inputs for r in scan_records(root, key) if r.lsn >= covered)


class TestReplayBound:
    @pytest.mark.parametrize("proto", [1, 2])
    @pytest.mark.parametrize("shape", ["close", "crash"])
    def test_replay_stays_under_the_schedule(self, tmp_path, shape, proto):
        """K attaches of m < snapshot_every inputs each, K·m ≫ snapshot_every.

        ``close`` re-attaches after a BYE and a clean stop; ``crash``
        re-attaches to a copy of the data dir taken while the previous
        server was still live, which is what a killed process leaves.
        Either way recovery carries the schedule's count, so every
        recovery replays fewer than ``snapshot_every + m`` inputs.
        """
        every, m = 8, 3
        scenario, _, lines = _scenario_lines("pubsub_fanout", 0, n=48)
        chunks = [lines[i : i + m] for i in range(0, len(lines) - m + 1, m)]
        assert len(chunks) * m >= 5 * every
        key, spec = f"bound:{shape}", scenario.monitored

        async def run():
            replays = []
            data_dir = tmp_path / "d0"
            for i, chunk in enumerate(chunks):
                replays.append(_unsnapshotted_inputs(data_dir, key))
                async with MonitorServer(
                    _registry_of(scenario.name), data_dir=data_dir, snapshot_every=every
                ) as server:
                    client = MonitorClient(
                        "127.0.0.1", server.port, spec=spec, session=key,
                        proto=proto, batch=m,
                    )
                    await client.connect()
                    try:
                        for line in chunk:
                            await client.send_event(line)
                        status = await client.status()
                        if shape == "crash":
                            killed = tmp_path / f"d{i + 1}"
                            shutil.copytree(data_dir, killed)
                            data_dir = killed
                    finally:
                        await client.close()
            async with MonitorServer(_registry_of(scenario.name)) as plain:
                sent = [line for chunk in chunks for line in chunk]
                baseline = await _drive(plain.port, spec, sent, None, proto=proto)
            return replays, status, baseline

        replays, status, baseline = asyncio.run(run())
        assert max(replays) < every + m, replays
        assert _verdict(status) == _verdict(baseline)


class TestTornTailRecovery:
    @pytest.mark.parametrize("proto", [1, 2])
    @pytest.mark.parametrize("snapshot_every", [2, 1024])
    def test_every_cut_of_the_last_record_recovers_the_whole_prefix(
        self, tmp_path, proto, snapshot_every
    ):
        """Cut a live server's log inside its last record, at every byte.

        A server restarted over each cut re-attaches the key with the
        ``STATUS`` and ``applied=`` of the state after the last whole
        record, and its next append starts where that record ended.
        """
        scenario, registry, lines = _scenario_lines("two_phase_dynamic", 0, n=8)
        key, spec = "torn", scenario.monitored
        durable = dict(data_dir=tmp_path / "live", snapshot_every=snapshot_every)
        client_args = dict(spec=spec, session=key, proto=proto, batch=1)

        async def live():
            async with MonitorServer(registry, **durable) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, **client_args
                ) as client:
                    for line in lines[:-1]:
                        await client.send_event(line)
                    before = await client.status()
                    await client.send_event(lines[-1])
                    await client.status()
                    shutil.copytree(tmp_path / "live", tmp_path / "killed")
            return before

        before = asyncio.run(live())
        log = tmp_path / "killed" / "worker-0" / "shard-0.log"
        blob = log.read_bytes()
        start, end, last = list(durability._walk_records(blob))[-1]
        assert end == len(blob) and last.received == len(lines) - 1

        async def reattach(data_dir):
            async with MonitorServer(
                _registry_of(scenario.name), data_dir=data_dir,
                snapshot_every=snapshot_every,
            ) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, **client_args
                ) as client:
                    recovered = await client.status()
                    await client.send_event(lines[-1])
                    await client.status()
            return recovered

        for cut in range(start, end):
            data_dir = tmp_path / f"cut-{cut}"
            shutil.copytree(tmp_path / "killed", data_dir)
            torn = data_dir / "worker-0" / "shard-0.log"
            torn.write_bytes(blob[:cut])
            recovered = asyncio.run(reattach(data_dir))
            assert _verdict(recovered) == _verdict(before), cut
            assert recovered.applied == before.applied == len(lines) - 1
            after = torn.read_bytes()
            assert after[:start] == blob[:start]
            (first, stop, appended), = durability._walk_records(after[start:])
            assert (first, stop) == (0, len(after) - start)
            assert (appended.lsn, appended.received) == (last.lsn, last.received)
            assert appended.inputs == 1
