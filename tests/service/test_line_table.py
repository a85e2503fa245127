"""The steppable-line table: text lines resolve to letter ids at the door.

Every :class:`~repro.service.registry.CompiledSpec` carries ``line_ids``,
the canonical line → letter id map of its wire-safe letters.  A text
``EVENT`` whose line is in it steps the table's own letter without
parsing, and :meth:`SpecMonitor.observe` consults the dense table before
the symbolic alphabet.  Two laws make that reordering correct by
construction, and a property pins the table path to the parse path.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.alphabet import Alphabet
from repro.core.errors import ReproError
from repro.core.events import Event
from repro.core.values import DataVal, ObjectId
from repro.paper.specs import CAST
from repro.runtime import tracefile
from repro.runtime.monitor import SpecMonitor
from repro.service.protocol import SessionStatus
from repro.service.registry import SpecRegistry
from repro.service.session import Session
from repro.workload.generator import wire_safe_letters
from repro.workload.scenarios import all_scenarios, get_scenario

DOCUMENT = Path(__file__).parents[2] / "examples" / "readers_writers.oun"

#: Registry builders: every scenario registry and the paper's specs, both
#: as the Python cast and as the OUN document.
REGISTRIES = {
    "paper-cast": lambda: SpecRegistry(
        [
            CAST.read(),
            CAST.write(),
            CAST.read2(),
            CAST.rw(),
            CAST.rw2(),
            CAST.write_acc(),
            CAST.client(),
            CAST.client2(),
        ]
    ),
    "paper-document": lambda: SpecRegistry.from_file(DOCUMENT),
    **{s.name: s.registry for s in all_scenarios()},
}


def _reads_back(event: Event) -> bool:
    try:
        return tracefile.parse_line(tracefile.format_event(event)) == event
    except ReproError:
        return False


@pytest.mark.parametrize("registry_name", sorted(REGISTRIES))
class TestLineTableLaws:
    def test_every_table_letter_is_in_its_spec_alphabet(self, registry_name):
        registry = REGISTRIES[registry_name]()
        for name in registry.names():
            compiled = registry.get(name)
            if compiled.dense is None:
                continue
            for letter in compiled.dense.dfa.table.letters:
                assert compiled.spec.alphabet.contains(letter), (name, letter)

    def test_line_table_is_exactly_the_wire_safe_letters(self, registry_name):
        registry = REGISTRIES[registry_name]()
        for name in registry.names():
            compiled = registry.get(name)
            if compiled.dense is None:
                assert compiled.line_ids == {} and compiled.letter_lines == ()
                continue
            letters = compiled.dense.dfa.table.letters
            safe = [lid for lid, letter in enumerate(letters) if _reads_back(letter)]
            assert sorted(compiled.line_ids.values()) == safe, name
            assert wire_safe_letters(compiled.dense) == safe, name
            for line, lid in compiled.line_ids.items():
                assert line == compiled.letter_lines[lid]
                assert tracefile.parse_line(line) == letters[lid]


def test_a_spec_without_a_dense_image_has_empty_tables():
    compiled = SpecRegistry([CAST.write()], dense_state_limit=1).get("Write")
    assert compiled.line_ids == {} and compiled.letter_lines == ()
    assert compiled.letters_frame == b""


def test_fresh_caller_letters_are_not_wire_safe():
    compiled = SpecRegistry([CAST.write_acc()]).get("WriteAcc")
    assert "#Obj0 -> o : CW" in compiled.letter_lines
    assert "#Obj0 -> o : CW" not in compiled.line_ids
    assert "c -> o : CW" in compiled.line_ids
    assert tracefile.canonical_event("#Obj0 -> o : CW") is None


class TestCanonicalEvent:
    def test_canonical_line_gives_its_event(self):
        event = tracefile.canonical_event("c -> o : W(Data:d1)")
        assert event == Event(
            ObjectId("c"), ObjectId("o"), "W", (DataVal("Data", "d1"),)
        )

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "# a comment",
            "not an event",
            " c -> o : OW",
            "c -> o : OW ",
            "c  ->  o : OW",
            "c->o:OW",
            "c -> o : W(Data:d1,  Data:d2)",
        ],
    )
    def test_other_lines_are_not_canonical(self, line):
        assert tracefile.canonical_event(line) is None


# -- the hit path skips both parsing and the alphabet ---------------------------


def _stream(compiled, lines, session):
    session.bind(compiled)
    for line in lines:
        if line is None:
            session.reset()
            continue
        pending = session.accept_line(line)
        if pending is not None:
            session.step_run([pending])
    return session


def test_table_hits_neither_parse_nor_test_the_alphabet(monkeypatch):
    scenario = get_scenario("two_phase_dynamic")
    registry = scenario.registry()
    compiled = registry.get(scenario.monitored)
    calls = {"parse": 0, "alphabet": 0}
    parse, contains = tracefile.parse_line, Alphabet.contains

    def counted_parse(*args, **kwargs):
        calls["parse"] += 1
        return parse(*args, **kwargs)

    def counted_contains(*args, **kwargs):
        calls["alphabet"] += 1
        return contains(*args, **kwargs)

    monkeypatch.setattr(tracefile, "parse_line", counted_parse)
    monkeypatch.setattr(Alphabet, "contains", counted_contains)
    lines = list(compiled.line_ids) * 3
    session = _stream(compiled, lines, Session(registry))
    assert calls == {"parse": 0, "alphabet": 0}
    assert session.events == len(lines)
    # A variant line is parsed, but its event still hits the dense table;
    # only an event outside the table pays the alphabet test.
    _stream(compiled, ["  " + lines[0].replace(" : ", "  :  ")], session)
    assert calls == {"parse": 1, "alphabet": 0}
    _stream(compiled, ["zz8 -> zz7 : NOPE"], session)
    assert calls == {"parse": 2, "alphabet": 1}
    assert session.skipped == 1


# -- equivalence property: table path ≡ parse path ------------------------------

#: Monitored specs of every scenario plus two paper specs: WriteAcc mixes
#: wire-safe and fresh-caller letters, Write has no wire-safe letter.
PROPERTY_SPECS = [
    *((s.name, s.monitored) for s in all_scenarios()),
    ("paper-cast", "WriteAcc"),
    ("paper-cast", "Write"),
]

_MALFORMED = ("not an event", "a -> : M()", "x -> o : W((", "a -> b : 9bad")
_COMMENTS = ("# a comment", "", "   ", "#")


def _variants(line: str) -> list[str]:
    """Whitespace variants of a canonical line: same event, another line."""
    return [
        " " + line,
        line + " ",
        line.replace(" -> ", "->", 1),
        line.replace(" : ", "  :  ", 1),
        "\t" + line.replace(" -> ", " ->  ", 1),
    ]


def _mutants(letter: Event) -> list[Event]:
    """Events near a letter: fresh caller, callee, method or data labels."""
    fresh = ObjectId("zz9")
    out = [
        Event(fresh, letter.callee, letter.method, letter.args),
        Event(letter.caller, fresh, letter.method, letter.args),
        Event(letter.caller, letter.callee, "NOPE", letter.args),
    ]
    if any(isinstance(a, DataVal) for a in letter.args):
        args = tuple(
            DataVal(a.sort, "fresh9") if isinstance(a, DataVal) else a
            for a in letter.args
        )
        out.append(Event(letter.caller, letter.callee, letter.method, args))
    return out


def _pools(compiled):
    """Line pools for one spec, one per kind of input line."""
    letters = compiled.dense.dfa.table.letters
    alphabet = compiled.spec.alphabet
    canonical = sorted(compiled.line_ids)
    in_alphabet, out_of_alphabet = set(), {"zz8 -> zz7 : NOPE"}
    for letter in letters:
        for event in _mutants(letter):
            if not _reads_back(event) or compiled.dense.dfa.table.get(event) is not None:
                continue
            line = tracefile.format_event(event)
            (in_alphabet if alphabet.contains(event) else out_of_alphabet).add(line)
    hashed = {line for line in compiled.letter_lines if line not in compiled.line_ids}
    hashed |= {"#" + line for line in canonical}
    return {
        "canonical": canonical,
        "variant": sorted({v for line in canonical for v in _variants(line)}),
        "in_alphabet": sorted(in_alphabet),
        "out_of_alphabet": sorted(out_of_alphabet),
        "malformed": list(_MALFORMED),
        "comment": list(_COMMENTS),
        "hashed": sorted(hashed),
    }


def _line_strategy(pools):
    kinds = [st.sampled_from(pool) for pool in pools.values() if pool]
    canonical = [st.sampled_from(pools["canonical"])] * 3 if pools["canonical"] else []
    return st.one_of(*kinds, *canonical, st.none())


def _reference(compiled, lines) -> SessionStatus:
    """The parse path in its old order: parse, alphabet, then the machine."""
    events = skipped = errors = 0
    violation = None
    # No dense image: the machine steps, so the table plays no part.
    monitor = SpecMonitor(compiled.spec, machine=compiled.machine)
    for line in lines:
        if line is None:
            monitor.reset()
            events = skipped = errors = 0
            violation = None
            continue
        try:
            event = tracefile.parse_line(line)
        except ReproError:
            errors += 1
            continue
        if event is None:
            continue
        index = events
        events += 1
        if not compiled.spec.alphabet.contains(event):
            skipped += 1
            continue
        if monitor.alive and not monitor.observe(event, index=index):
            violation = (index, tracefile.format_event(event))
    return SessionStatus(
        spec=compiled.name,
        events=events,
        skipped=skipped,
        errors=errors,
        violation_index=violation[0] if violation else None,
        violation_event=violation[1] if violation else None,
    )


@pytest.mark.parametrize("registry_name,spec_name", PROPERTY_SPECS)
def test_table_path_equals_parse_path(registry_name, spec_name):
    registry = REGISTRIES[registry_name]()
    compiled = registry.get(spec_name)
    pools = _pools(compiled)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(_line_strategy(pools), max_size=40))
    def check(lines):
        session = _stream(compiled, lines, Session(registry))
        assert session.status() == _reference(compiled, lines)

    check()
