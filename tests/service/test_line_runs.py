"""Text lines step in runs: the verdict equals stepping line by line.

The server hands consecutive accepted ``EVENT`` lines to its session
queue as one *run* and steps the run in one :meth:`Session.step_run`
call.  Trace sets are prefix-closed, so that must not change a single
reply.  The property sends one stream three
ways — all in one write (long runs), one write and a ``STATUS`` per line
(runs of one) and through the proto=2 client (``EVENTS`` batches between
``EVENT`` frames) — and compares every ``STATUS`` with a :class:`Session`
driven inline, the way crash replay drives it.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.registry import get_registry, use_registry
from repro.service import MonitorClient, MonitorServer, wire
from repro.service.protocol import parse_command, parse_reply
from repro.service.session import Session
from repro.service.shards import DEFAULT_QUEUE_SIZE
from repro.workload.generator import StreamSession
from repro.workload.scenarios import get_scenario
from tests.service.test_line_table import REGISTRIES, _pools

#: (registry, first spec, the spec a mid-stream SPEC may switch to).
#: WriteAcc mixes wire-safe and fresh-caller letters; Write has none.
RUN_SPECS = [
    ("two_phase_dynamic", "DynamicCoordinator", "PrefixAtomicDecision"),
    ("pubsub_fanout", "FanOutBroker", "DeliveryFanOut"),
    ("leader_election", "LeaderElection", "SingleLeader"),
    ("paper-cast", "WriteAcc", "Write"),
]

RESET = ("RESET",)


def _event_arg(line: str) -> str:
    """The argument the server sees for ``EVENT <line>``."""
    return parse_command(f"EVENT {line}").arg


def _wire(item) -> str:
    if item is RESET:
        return "RESET"
    if isinstance(item, tuple):
        return f"SPEC {item[1]}"
    return f"EVENT {item}"


def _inline(registry, spec, items):
    """Every prefix's status from a Session stepped one line at a time."""
    session = Session(registry)
    session.bind(registry.get(spec))
    statuses = []
    for item in items:
        if item is RESET:
            session.reset()
        elif isinstance(item, tuple):
            session.bind(registry.get(item[1]))
        else:
            pending = session.accept_line(_event_arg(item))
            if pending is not None:
                session.step_run([pending])
        statuses.append(session.status())
    return statuses


async def _read_status(reader, syncs: int):
    """Read ``syncs`` replies; the last one's status."""
    for _ in range(syncs):
        line = await reader.readline()
    return parse_reply(line.decode()).status


async def _one_write(port, spec, items):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    lines = [f"SPEC {spec}", *map(_wire, items), "STATUS"]
    writer.write(("\n".join(lines) + "\n").encode())
    await writer.drain()
    syncs = sum(1 for line in lines if not line.startswith("EVENT "))
    status = await _read_status(reader, syncs)
    writer.close()
    await writer.wait_closed()
    return status


async def _line_at_a_time(port, spec, items):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"SPEC {spec}\n".encode())
    await reader.readline()
    statuses = []
    for item in items:
        line = _wire(item)
        writer.write(f"{line}\nSTATUS\n".encode())
        await writer.drain()
        statuses.append(await _read_status(reader, 1 if line[0] == "E" else 2))
    writer.close()
    await writer.wait_closed()
    return statuses


async def _binary(port, spec, items):
    async with MonitorClient(
        "127.0.0.1", port, spec=spec, proto=2, batch=3
    ) as client:
        assert client.proto == 2
        for item in items:
            if item is RESET:
                await client.reset()
            elif isinstance(item, tuple):
                await client.use_spec(item[1])
            else:
                await client.send_event(item)
        return await client.status()


def _three_ways(registry, spec, items):
    async def run():
        async with MonitorServer(registry) as server:
            return (
                await _one_write(server.port, spec, items),
                await _line_at_a_time(server.port, spec, items),
                await _binary(server.port, spec, items),
            )

    return asyncio.run(run())


def _item_strategy(pools, other):
    lines = [
        line
        for pool in pools.values()
        for line in pool
        if line.strip()  # a blank EVENT is a protocol error, not an input
    ]
    hits = pools["canonical"] or lines
    return st.one_of(
        st.sampled_from(lines),
        st.sampled_from(hits),
        st.sampled_from(hits),
        st.just(RESET),
        st.just(("SPEC", other)),
    )


@pytest.mark.parametrize("registry_name,spec,other", RUN_SPECS)
def test_run_stepping_equals_line_at_a_time(registry_name, spec, other):
    registry = REGISTRIES[registry_name]()
    pools = _pools(registry.get(spec))

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(_item_strategy(pools, other), max_size=40))
    def check(items):
        expected = _inline(registry, spec, items)
        one_write, per_line, binary = _three_ways(registry, spec, items)
        assert per_line == expected
        if items:
            assert one_write == binary == expected[-1]

    check()


def _write_acc_hits():
    registry = REGISTRIES["paper-cast"]()
    return registry, ["c -> o : OW", "c -> o : W(Data:#Data0)", "c -> o : CW"]


def test_violation_index_inside_a_run_is_exact():
    """A violation deep in a run reports its own global index.

    The run starts after a parsed line (a miss) and a skipped one, so an
    index off by one in either direction moves the reported index.
    """
    registry, (ow, w, cw) = _write_acc_hits()
    items = [
        "c  ->  o : OW",  # parsed: not the canonical spelling
        "zz8 -> zz7 : NOPE",  # outside the alphabet: skipped
        w,
        cw,
        ow,
        w,
        cw,
        w,  # W without OW: the violation, index 7
        ow,
    ]
    one_write, per_line, binary = _three_ways(registry, "WriteAcc", items)
    for status in (one_write, per_line[-1], binary):
        assert (status.events, status.skipped, status.violation_index) == (9, 1, 7)
        assert status.violation_event == w
    assert _inline(registry, "WriteAcc", items)[-1] == one_write


def test_an_events_batch_closes_the_open_run():
    """``EVENT``, ``EVENTS``, ``EVENT`` frames in one write step in order.

    Were the batch not to close the run the first frame opened, the
    second ``EVENT`` would join that run and step before the batch:
    ``OW, CW, W`` instead of ``OW, W, CW``, a violation.
    """
    registry, (_ow, w, _cw) = _write_acc_hits()
    wid = registry.get("WriteAcc").line_ids[w]

    async def run():
        async with MonitorServer(registry) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                b"HELLO proto=2\n"
                + wire.encode_frame(wire.OP_SPEC, b"WriteAcc")
                + wire.encode_frame(wire.OP_EVENT, b"c  ->  o : OW")
                + wire.encode_frame(wire.OP_EVENTS, wire.pack_event_ids([wid]))
                + wire.encode_frame(wire.OP_EVENT, b"c  ->  o : CW")
                + wire.encode_frame(wire.OP_STATUS)
            )
            await writer.drain()
            await reader.readline()  # the HELLO reply
            for _ in range(3):  # SPEC's reply and letter table, then STATUS
                opcode, payload = await wire.read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return opcode, payload.decode()

    opcode, detail = asyncio.run(run())
    assert (opcode, detail) == (
        wire.OP_OK,
        "status spec=WriteAcc events=3 skipped=0 errors=0",
    )


def test_one_write_of_many_lines_steps_in_bounded_runs():
    """5,000 lines in one write: a correct verdict in a handful of runs."""
    scenario = get_scenario("two_phase_dynamic")
    registry = scenario.registry()
    compiled = registry.get(scenario.monitored)
    n, bad = 5000, 4001
    lines = StreamSession(compiled, seed=7).next_batch_lines(n)
    assert all(line in compiled.line_ids for line in lines)
    # A table letter that violates exactly at `bad`.
    for candidate in sorted(compiled.line_ids):
        probe = lines[:bad] + [candidate]
        if _inline(registry, scenario.monitored, probe)[-1].violation_index == bad:
            lines[bad] = candidate
            break
    else:  # pragma: no cover - the scenario always has a violating letter
        pytest.fail("no violating letter")
    expected = _inline(registry, scenario.monitored, lines)[-1]
    assert expected.violation_index == bad

    async def run():
        with use_registry():
            tasks = get_registry().counter("repro_shard_tasks_total")
            async with MonitorServer(registry) as server:
                before = tasks.value
                status = await _one_write(server.port, scenario.monitored, lines)
                return status, tasks.value - before

    status, tasks = asyncio.run(run())
    assert status == expected
    assert math.ceil(n / DEFAULT_QUEUE_SIZE) <= tasks <= 300
