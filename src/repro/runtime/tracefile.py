"""Trace files: a plain-text serialisation of communication traces.

Recorded runs are library artifacts — monitors check them offline, tests
replay them, bug reports attach them.  The format is one event per line::

    caller -> callee : method(arg, arg, ...)

Arguments are either object names (``obj:name``) or data values
(``sort:label``); blank lines and ``#`` comments are ignored.  The format
round-trips exactly (see the tests) and is stable for diffing.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.errors import ReproError
from repro.core.events import Event
from repro.core.traces import Trace
from repro.core.values import DataVal, ObjectId, Value

__all__ = [
    "dumps",
    "loads",
    "save",
    "load",
    "parse_line",
    "format_event",
    "canonical_event",
    "wire_safe_lines",
]

_LINE_RE = re.compile(
    r"^\s*(?P<caller>\S+)\s*->\s*(?P<callee>\S+)\s*:\s*"
    r"(?P<method>[A-Za-z][A-Za-z0-9_']*)\s*(?:\((?P<args>.*)\))?\s*$"
)


def _format_value(v: Value) -> str:
    if isinstance(v, ObjectId):
        return f"obj:{v.name}"
    return f"{v.sort}:{v.label}"


def _parse_value(text: str, lineno: int) -> Value:
    text = text.strip()
    if ":" not in text:
        raise ReproError(
            f"trace line {lineno}: malformed value {text!r} "
            f"(expected 'obj:name' or 'Sort:label')"
        )
    sort, label = text.split(":", 1)
    if not label:
        raise ReproError(f"trace line {lineno}: empty value label in {text!r}")
    try:
        if sort == "obj":
            return ObjectId(label)
        return DataVal(sort, label)
    except ValueError as exc:
        raise ReproError(f"trace line {lineno}: bad value {text!r}: {exc}") from exc


def format_event(e: Event) -> str:
    """Serialise one event to its single-line text form."""
    if e.args:
        args = ", ".join(_format_value(a) for a in e.args)
        return f"{e.caller.name} -> {e.callee.name} : {e.method}({args})"
    return f"{e.caller.name} -> {e.callee.name} : {e.method}"


def parse_line(line: str, lineno: int = 1) -> Event | None:
    """Parse one line of the text format.

    Returns ``None`` for blank lines and ``#`` comments; raises
    :class:`~repro.core.errors.ReproError` (tagged with ``lineno``) for
    malformed lines.  This is the unit shared by :func:`loads`, the
    streaming ``repro monitor -`` CLI, and the service wire protocol.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    m = _LINE_RE.match(line)
    if m is None:
        raise ReproError(f"trace line {lineno}: cannot parse {line!r}")
    args: tuple[Value, ...] = ()
    if m.group("args") is not None and m.group("args").strip():
        args = tuple(
            _parse_value(part, lineno) for part in m.group("args").split(",")
        )
    try:
        return Event(
            ObjectId(m.group("caller")),
            ObjectId(m.group("callee")),
            m.group("method"),
            args,
        )
    except ValueError as exc:
        raise ReproError(f"trace line {lineno}: {exc}") from exc


def canonical_event(line: str) -> Event | None:
    """The event ``line`` is the canonical line of, or None.

    A line is canonical when it is exactly :func:`format_event` of what
    it parses to.  Comments, blank and malformed lines are not, and
    neither are whitespace variants of a canonical line.
    """
    try:
        event = parse_line(line)
    except ReproError:
        return None
    if event is None or format_event(event) != line:
        return None
    return event


def wire_safe_lines(events) -> dict[str, int]:
    """Canonical line → position, for each event whose line reads back to it.

    An event is *wire-safe* when ``parse_line(format_event(e)) == e``.
    A letter whose caller is a fresh object is not: its line
    (``#Obj0 -> o : CR``) reads as a comment.  Distinct wire-safe events
    have distinct lines, because a line parses to one event.
    """
    safe = {}
    for position, event in enumerate(events):
        line = format_event(event)
        if canonical_event(line) == event:
            safe[line] = position
    return safe


def dumps(trace: Trace) -> str:
    """Serialise a trace to the text format."""
    lines = [format_event(e) for e in trace]
    return "\n".join(lines) + ("\n" if lines else "")


def loads(text: str) -> Trace:
    """Parse the text format back into a trace."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        event = parse_line(raw, lineno)
        if event is not None:
            events.append(event)
    return Trace(tuple(events))


def save(trace: Trace, path: str | Path) -> None:
    """Write a trace file."""
    Path(path).write_text(dumps(trace))


def load(path: str | Path) -> Trace:
    """Read a trace file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}") from exc
    return loads(text)
