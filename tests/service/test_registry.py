"""Tests for the spec registry: shared machines, precise errors."""

from pathlib import Path

import pytest

from repro.core.errors import ReproError, RuntimeModelError
from repro.core.events import Event
from repro.core.values import DataVal, ObjectId
from repro.service import SpecRegistry

EXAMPLES = Path(__file__).parent.parent.parent / "examples"


@pytest.fixture(scope="module")
def registry(cast) -> SpecRegistry:
    return SpecRegistry([cast.write(), cast.read2()])


class TestLookup:
    def test_names_sorted(self, registry):
        assert registry.names() == ["Read2", "Write"]
        assert "Write" in registry and len(registry) == 2

    def test_unknown_name_lists_known(self, registry):
        with pytest.raises(ReproError, match="Read2, Write"):
            registry.get("Nope")

    def test_from_file_skips_compositions_with_reason(self):
        registry = SpecRegistry.from_file(EXAMPLES / "readers_writers.oun")
        assert "Write" in registry
        # the document's named compositions are not monitorable online
        assert "System" not in registry
        with pytest.raises(RuntimeModelError, match="existential hiding"):
            registry.get("System")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            SpecRegistry.from_file(tmp_path / "nope.oun")


class TestSharedMachines:
    def test_monitors_share_one_compiled_machine(self, registry):
        a = registry.new_monitor("Write")
        b = registry.new_monitor("Write")
        assert a.machine is b.machine
        assert a.machine is registry.get("Write").machine

    def test_monitor_state_is_private(self, registry, cast, x1, x2):
        d = DataVal("Data", "d")
        a = registry.new_monitor("Write")
        b = registry.new_monitor("Write")
        assert not a.observe(Event(x1, cast.o, "W", (d,)))  # W without OW
        assert not a.ok
        assert b.ok  # untouched by a's violation
        assert b.observe(Event(x2, cast.o, "OW"))

    def test_history_limit_propagates(self, cast):
        registry = SpecRegistry([cast.write()], history_limit=16)
        monitor = registry.new_monitor("Write")
        assert monitor.history_limit == 16


#: Two specs with identical content under different names.
TWINS = """
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
  traces prs "<c,o,M(_)>*"
}
"""


class TestInterning:
    """A registry interns builds among its own entries by content key."""

    def test_same_content_shares_within_a_registry(self):
        registry = SpecRegistry.from_text(TWINS)
        assert registry.get("A").machine is registry.get("B").machine

    def test_repeated_document_load_adds_no_machines(self):
        text = (EXAMPLES / "readers_writers.oun").read_text()
        registry = SpecRegistry.from_text(text)
        before = {name: registry.get(name) for name in registry.names()}
        report = registry.update_from_text(text)
        assert report.changed == () and report.added == ()
        assert registry.names() == list(before)
        assert all(registry.get(name) is before[name] for name in before)

    def test_registries_share_nothing(self, cast):
        r1 = SpecRegistry([cast.write()])
        r2 = SpecRegistry([cast.write()])
        assert r1.get("Write").machine is not r2.get("Write").machine

    def test_shared_machine_behaviour_unchanged(self, cast, x1):
        from repro.core.events import Event as Ev
        from repro.core.values import DataVal as DV

        registry = SpecRegistry([cast.write()])
        shared = registry.new_monitor("Write")
        registry.update([cast.write()], force=True)
        private = registry.new_monitor("Write")
        assert private.machine is not shared.machine
        events = [
            Ev(x1, cast.o, "OW"),
            Ev(x1, cast.o, "W", (DV("Data", "d"),)),
            Ev(x1, cast.o, "CW"),
        ]
        for e in events:
            assert shared.observe(e) == private.observe(e)
        assert shared.ok and private.ok


class TestDenseImages:
    def test_registry_precompiles_dense_images(self, cast):
        reg = SpecRegistry([cast.write()])
        compiled = reg.get("Write")
        assert compiled.dense is not None
        assert compiled.dense.dfa.n_states == len(compiled.dense.states) + 1

    def test_dense_off_leaves_machine_monitoring(self, cast):
        reg = SpecRegistry([cast.write()], dense_state_limit=1)
        assert reg.get("Write").dense is None
        monitor = reg.new_monitor("Write")
        assert monitor.dense is None

    def test_images_shared_within_a_registry(self):
        registry = SpecRegistry.from_text(TWINS)
        a, b = registry.get("A").dense, registry.get("B").dense
        assert a is not None and a is b

    def test_state_budget_falls_back_to_machine(self, cast):
        reg = SpecRegistry([cast.write()], dense_state_limit=1)
        compiled = reg.get("Write")
        assert compiled.dense is None  # budget exceeded: machine stepping
        monitor = reg.new_monitor("Write")
        x = ObjectId("x9")
        assert monitor.observe(Event(x, cast.o, "OW"))
        assert monitor.ok

    def test_dense_monitor_agrees_with_machine_monitor(self, cast, x1):
        dense_reg = SpecRegistry([cast.write()])
        plain_reg = SpecRegistry([cast.write()], dense_state_limit=1)
        dm = dense_reg.new_monitor("Write")
        pm = plain_reg.new_monitor("Write")
        letters = dense_reg.get("Write").dense.dfa.letters
        stream = [e for e in letters[:3]] + [Event(x1, cast.o, "OW")]
        for e in stream:
            assert dm.observe(e) == pm.observe(e)
        assert dm.ok == pm.ok


class TestReRegistrationEviction:
    """Re-registering under a name retains nothing of the old build."""

    def test_repeated_swaps_keep_the_tables_bounded(self, cast):
        import gc
        import weakref

        registry = SpecRegistry([cast.write()])
        replaced = []
        for _ in range(5):
            replaced.append(weakref.ref(registry.get("Write").machine))
            registry.update([cast.write()], force=True)
        gc.collect()
        assert [ref for ref in replaced if ref() is not None] == []
        assert registry.names() == ["Write"]
