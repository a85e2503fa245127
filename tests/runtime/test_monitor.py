"""Unit tests for online monitors and the protocol behaviours."""

import pytest

from repro.core.errors import MonitorViolation, RuntimeModelError
from repro.core.events import Event
from repro.core.values import DataVal, ObjectId
from repro.runtime import (
    PassiveBehavior,
    RandomScheduler,
    ReaderBehavior,
    RogueWriterBehavior,
    RoundRobinScheduler,
    SpecMonitor,
    System,
    WriterBehavior,
    WriteThenConfirmBehavior,
)

o = ObjectId("o")
d = DataVal("Data", "d")


class TestSpecMonitor:
    def test_accepting_stream(self, cast, x1):
        m = SpecMonitor(cast.write())
        assert m.observe(Event(x1, cast.o, "OW"))
        assert m.observe(Event(x1, cast.o, "W", (d,)))
        assert m.observe(Event(x1, cast.o, "CW"))
        assert m.ok and not m.violations

    def test_violation_detected_and_sticky(self, cast, x1, x2):
        m = SpecMonitor(cast.write())
        m.observe(Event(x1, cast.o, "OW"))
        assert not m.observe(Event(x2, cast.o, "W", (d,)))
        assert not m.ok
        # stays violated even after a "good" event
        assert not m.observe(Event(x1, cast.o, "CW"))
        assert len(m.violations) == 1
        v = m.violations[0]
        assert v.index == 1 and v.event.method == "W"

    def test_out_of_alphabet_events_skipped(self, cast, x1):
        m = SpecMonitor(cast.write())
        assert m.observe(Event(x1, cast.o, "UNRELATED"))
        assert m.ok

    def test_skipped_counts_out_of_alphabet_events_also_after_a_violation(
        self, cast, x1, x2
    ):
        m = SpecMonitor(cast.write())
        m.observe(Event(x1, cast.o, "UNRELATED"))
        m.observe(Event(x2, cast.o, "W", (d,)))  # violates
        m.observe(Event(x1, cast.o, "UNRELATED"))
        m.observe(Event(x1, cast.o, "OW"))
        assert m.skipped == 2 and m.events_seen == 4
        m.reset()
        assert m.skipped == 0

    def test_raise_mode(self, cast, x1):
        m = SpecMonitor(cast.write(), raise_on_violation=True)
        with pytest.raises(MonitorViolation):
            m.observe(Event(x1, cast.o, "W", (d,)))

    def test_reset(self, cast, x1):
        m = SpecMonitor(cast.write())
        m.observe(Event(x1, cast.o, "W", (d,)))
        assert not m.ok
        m.reset()
        assert m.ok and not m.violations

    def test_composed_specs_not_monitorable(self, cast):
        from repro.core.composition import compose

        comp = compose(cast.client(), cast.write_acc())
        with pytest.raises(RuntimeModelError):
            SpecMonitor(comp)


class TestBoundedHistory:
    def test_history_is_bounded_on_long_streams(self, cast, x1):
        m = SpecMonitor(cast.write(), history_limit=8)
        for _ in range(1000):
            m.observe(Event(x1, cast.o, "OW"))
            m.observe(Event(x1, cast.o, "W", (d,)))
            m.observe(Event(x1, cast.o, "CW"))
        assert m.ok
        assert m.events_seen == 3000
        assert len(m._history) == 8

    def test_violation_carries_true_global_index(self, cast, x1, x2):
        m = SpecMonitor(cast.write(), history_limit=4)
        for _ in range(100):  # 300 clean events, far beyond the window
            m.observe(Event(x1, cast.o, "OW"))
            m.observe(Event(x1, cast.o, "W", (d,)))
            m.observe(Event(x1, cast.o, "CW"))
        m.observe(Event(x2, cast.o, "W", (d,)))  # W without OW
        v = m.violations[0]
        assert v.index == 300
        # the recorded window is bounded but ends with the offending event
        assert len(v.trace) == 4
        assert v.trace[-1] == v.event

    def test_explicit_index_overrides_counter(self, cast, x1):
        m = SpecMonitor(cast.write())
        m.observe(Event(x1, cast.o, "W", (d,)), index=41)
        assert m.violations[0].index == 41

    def test_unbounded_history_still_available(self, cast, x1):
        m = SpecMonitor(cast.write(), history_limit=None)
        for _ in range(50):
            m.observe(Event(x1, cast.o, "OW"))
            m.observe(Event(x1, cast.o, "W", (d,)))
            m.observe(Event(x1, cast.o, "CW"))
        assert len(m._history) == 150

    def test_bad_history_limit_rejected(self, cast):
        with pytest.raises(RuntimeModelError):
            SpecMonitor(cast.write(), history_limit=0)

    def test_reset_clears_bounded_history(self, cast, x1):
        m = SpecMonitor(cast.write(), history_limit=4)
        m.observe(Event(x1, cast.o, "W", (d,)))
        m.reset()
        assert m.ok and m.events_seen == 0 and len(m._history) == 0


class TestEndToEnd:
    def test_wellbehaved_system_clean(self, cast):
        sys = System(RandomScheduler(seed=11))
        sys.add_object(cast.o, PassiveBehavior())
        sys.add_object(ObjectId("r1"), ReaderBehavior(cast.o))
        sys.add_object(ObjectId("w1"), WriterBehavior(cast.o, polite=True))
        m2, mw = SpecMonitor(cast.read2()), SpecMonitor(cast.write())
        sys.attach_monitor(m2)
        sys.attach_monitor(mw)
        sys.run(400)
        assert m2.ok and mw.ok
        assert len(sys.trace) > 20

    def test_rogue_writer_caught(self, cast):
        sys = System(RandomScheduler(seed=1))
        sys.add_object(cast.o, PassiveBehavior())
        sys.add_object(ObjectId("w"), RogueWriterBehavior(cast.o))
        m = SpecMonitor(cast.write())
        sys.attach_monitor(m)
        sys.run(30)
        assert not m.ok and sys.violations()

    def test_two_impolite_writers_conflict(self, cast):
        sys = System(RandomScheduler(seed=3))
        sys.add_object(cast.o, PassiveBehavior())
        sys.add_object(ObjectId("wa"), WriterBehavior(cast.o, writes_per_session=2))
        sys.add_object(ObjectId("wb"), WriterBehavior(cast.o, writes_per_session=2))
        m = SpecMonitor(cast.write())
        sys.attach_monitor(m)
        sys.run(300)
        assert not m.ok

    def test_client_behaviour_satisfies_client_spec(self, cast):
        sys = System(RoundRobinScheduler())
        sys.add_object(cast.o, PassiveBehavior())
        sys.add_object(cast.c, WriteThenConfirmBehavior(cast.o, cast.mon))
        m = SpecMonitor(cast.client())
        sys.attach_monitor(m)
        sys.run(50)
        assert m.ok and len(sys.trace) >= 4


class TestDenseMonitor:
    """The MachineImage fast path: integer steps, fallback, re-entry."""

    @pytest.fixture()
    def image(self, cast):
        from repro.automata.build import machine_to_dense
        from repro.checker.universe import FiniteUniverse

        spec = cast.write()
        u = FiniteUniverse.for_specs(spec)
        return spec, machine_to_dense(
            spec.traces.machine(), u.events_for(spec.alphabet)
        )

    def _letter(self, image, method, caller=None):
        spec, img = image
        for e in img.dfa.letters:
            if e.method == method and (caller is None or e.caller == caller):
                return e
        raise AssertionError(f"no letter with method {method}")

    def test_in_table_events_step_densely(self, image):
        spec, img = image
        m = SpecMonitor(spec, dense=img)
        w = self._letter(image, "OW").caller
        assert m.observe(self._letter(image, "OW", w))
        assert m.observe(self._letter(image, "W", w))
        assert m.observe(self._letter(image, "CW", w))
        assert m.ok
        assert m.dense_steps == 3 and m.fallback_steps == 0

    def test_dense_agrees_with_machine_on_violation(self, image):
        spec, img = image
        dense = SpecMonitor(spec, dense=img)
        plain = SpecMonitor(spec)
        # W without OW first: rejected by the write-session protocol.
        bad = self._letter(image, "W")
        assert dense.observe(bad) == plain.observe(bad) == False
        assert not dense.ok and not plain.ok
        assert dense.violations[0].index == plain.violations[0].index == 0
        assert dense.dense_steps == 1

    def test_out_of_table_events_fall_back_and_reenter(self, image, cast, x1):
        spec, img = image
        m = SpecMonitor(spec, dense=img)
        # x1 is in α(Write) but outside the instantiated universe: the
        # monitor must deoptimise to machine stepping...
        assert m.observe(Event(x1, cast.o, "OW"))
        assert m.fallback_steps == 1
        assert m.observe(Event(x1, cast.o, "W", (d,)))
        assert m.observe(Event(x1, cast.o, "CW"))
        assert m.ok and m.fallback_steps == 3
        assert m.dense_steps == 0

    def test_reentry_after_fallback(self, cast, x1, d1):
        # Read's machine state survives off-universe events unchanged, so
        # the monitor re-enters the dense array on the next indexed state.
        from repro.automata.build import machine_to_dense
        from repro.checker.universe import FiniteUniverse

        spec = cast.read()
        u = FiniteUniverse.for_specs(spec)
        img = machine_to_dense(spec.traces.machine(), u.events_for(spec.alphabet))
        m = SpecMonitor(spec, dense=img)
        assert m.observe(Event(x1, cast.o, "R", (d1,)))  # off-universe
        assert m.fallback_steps == 1
        assert m.observe(img.dfa.letters[0])  # a universe letter
        assert m.dense_steps == 1 and m.ok

    def test_a_known_letter_id_steps_like_the_lookup(self, image):
        spec, img = image
        w = self._letter(image, "OW").caller
        stream = [self._letter(image, m, w) for m in ("OW", "W", "CW")]
        stream.append(self._letter(image, "W"))
        looked_up, given = SpecMonitor(spec, dense=img), SpecMonitor(spec, dense=img)
        for event in stream:
            lid = img.dfa.table.get(event)
            assert looked_up.observe(event) == given.observe(event, lid=lid)
            assert (looked_up.state, looked_up._dstate, looked_up.dense_steps) == (
                given.state,
                given._dstate,
                given.dense_steps,
            )
        assert [v.index for v in looked_up.violations] == [
            v.index for v in given.violations
        ]

    def test_reset_restores_dense_entry(self, image):
        spec, img = image
        m = SpecMonitor(spec, dense=img)
        m.observe(self._letter(image, "W"))
        assert not m.ok
        m.reset()
        assert m.ok and m.dense_steps == 0
        assert m.observe(self._letter(image, "OW"))
        assert m.dense_steps == 1


class TestObserveIds:
    """observe_ids ≡ per-event observe — the EVENTS batch path's law."""

    @pytest.fixture()
    def image(self, cast):
        from repro.automata.build import machine_to_dense
        from repro.checker.universe import FiniteUniverse

        spec = cast.write()
        u = FiniteUniverse.for_specs(spec)
        return spec, machine_to_dense(
            spec.traces.machine(), u.events_for(spec.alphabet)
        )

    def _ids(self, img, *methods):
        """Letter ids of one caller's methods, in the order given."""
        caller = next(e.caller for e in img.dfa.letters if e.method == "OW")
        out = []
        for method in methods:
            event = next(
                e
                for e in img.dfa.letters
                if e.method == method and e.caller == caller
            )
            out.append(img.dfa.table.id_of(event))
        return out

    @staticmethod
    def _same(batched: SpecMonitor, stepped: SpecMonitor) -> None:
        assert batched.alive == stepped.alive
        assert batched.events_seen == stepped.events_seen
        assert batched.state == stepped.state
        assert list(batched._history) == list(stepped._history)
        assert [
            (v.index, v.event, v.trace) for v in batched.violations
        ] == [(v.index, v.event, v.trace) for v in stepped.violations]

    def test_clean_batch_equals_per_event(self, image):
        spec, img = image
        ids = self._ids(img, "OW", "W", "CW") * 10
        batched = SpecMonitor(spec, dense=img)
        stepped = SpecMonitor(spec, dense=img)
        assert batched.observe_ids(ids) is None
        for lid in ids:
            stepped.observe(img.dfa.table.letters[lid])
        self._same(batched, stepped)
        assert batched.dense_steps == len(ids)

    def test_violation_offset_is_batch_relative_index_global(self, image):
        spec, img = image
        # OW W CW, then a bare W: the write-session protocol rejects it
        ids = self._ids(img, "OW", "W", "CW", "W", "OW", "CW")
        batched = SpecMonitor(spec, dense=img)
        stepped = SpecMonitor(spec, dense=img)
        assert batched.observe_ids(ids, base_index=100) == 3
        for j, lid in enumerate(ids):
            stepped.observe(img.dfa.table.letters[lid], index=100 + j)
        self._same(batched, stepped)
        assert batched.violations[0].index == 103
        # post-violation events are counted and recorded, never stepped
        assert batched.events_seen == len(ids)
        assert batched.dense_steps == 4  # up to and including the bad W

    def test_violation_across_batch_split_keeps_global_index(self, image):
        spec, img = image
        ids = self._ids(img, "OW", "W", "CW", "W")
        whole = SpecMonitor(spec, dense=img)
        split = SpecMonitor(spec, dense=img)
        assert whole.observe_ids(ids) == 3
        assert split.observe_ids(ids[:2]) is None
        assert split.observe_ids(ids[2:]) == 1  # batch-relative
        self._same(whole, split)
        assert split.violations[0].index == 3  # global

    def test_batch_after_violation_only_counts(self, image):
        spec, img = image
        ids = self._ids(img, "W")  # violates immediately
        m = SpecMonitor(spec, dense=img)
        assert m.observe_ids(ids) == 0
        more = self._ids(img, "OW", "W", "CW")
        assert m.observe_ids(more) is None
        assert len(m.violations) == 1 and m.events_seen == 4
        assert m.dense_steps == 1  # the post-violation batch never stepped

    def test_base_index_defaults_to_events_seen(self, image):
        spec, img = image
        m = SpecMonitor(spec, dense=img)
        m.observe_ids(self._ids(img, "OW", "W", "CW"))
        m.observe_ids(self._ids(img, "W", "W"))
        assert m.violations[0].index == 3

    def test_deoptimised_monitor_matches_per_event(self, image, cast, x1):
        spec, img = image
        off = Event(x1, cast.o, "OW")  # in α(Write), outside the universe
        ids = self._ids(img, "OW", "W", "CW")
        batched = SpecMonitor(spec, dense=img)
        stepped = SpecMonitor(spec, dense=img)
        batched.observe(off)
        stepped.observe(off)
        assert batched._dstate is None  # pushed off the dense array
        offset = batched.observe_ids(ids)
        for lid in ids:
            stepped.observe(img.dfa.table.letters[lid])
        self._same(batched, stepped)
        # OW after an open OW violates: offset is batch-relative
        assert offset == 0 and batched.violations[0].index == 1

    def test_requires_dense_image(self, cast):
        m = SpecMonitor(cast.write())
        with pytest.raises(RuntimeModelError):
            m.observe_ids([0])
