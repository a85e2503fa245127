"""Wire protocol of the monitoring service: newline-delimited text.

One TCP connection is one *session*: a stream of events checked against a
single specification, exactly the paper's view of a system run as a trace
``h`` with the soundness condition ``h/α(Γ) ∈ T(Γ)`` evaluated online.

The **normative specification** of this text framing (proto=1) *and* of
the length-prefixed binary framing it can upgrade to (proto=2, module
:mod:`repro.service.wire`) is ``docs/wire-protocol.md``; what follows is
the working summary.  Requests, one per line::

    HELLO [proto=N] [session=K]
                          negotiate; the server answers its agreed
                          protocol version and spec names, and a session
                          agreeing on proto>=2 switches to binary frames.
                          ``session=K`` names a durable session key: on a
                          server with a data directory the session's
                          inputs are logged and replayed across restarts
                          (the reply then carries ``durable=1``)
    SPEC <name>           bind the session to a specification
    EVENT <trace line>    feed one event (runtime/tracefile.py syntax)
    UPDATE <fields>       hot-swap compiled specs in the live registry:
                          ``scenario=<name>`` rebuilds a built-in
                          scenario's specs, ``lines=<n>`` announces that
                          exactly n raw lines of OUN document text
                          follow this line; ``force=1`` swaps in fresh
                          machines even for unchanged content
    STATUS                synchronise and report the session verdict
    METRICS               dump the process metrics (Prometheus text)
    RESET                 synchronise, then forget the session's history
    BYE                   synchronise, report, and close

``EVENT`` is deliberately *silent*: events pipeline without per-event
round-trips, and problems (malformed lines, no spec bound) are counted
and surfaced by the next synchronising verb.  ``UPDATE`` is the one
verb whose *request* may span lines — its ``lines=<n>`` form carries
the document body as exactly ``n`` raw lines after the command line
(blank lines included), mirroring how ``METRICS`` frames its reply.
Every other verb except ``EVENT`` — ``HELLO``, ``SPEC``, ``UPDATE``,
``STATUS``, ``METRICS``, ``RESET`` and ``BYE`` — elicits exactly one
reply line::

    OK <detail...>
    ERR <message>
    VIOLATION spec=<name> events=<n> skipped=<k> errors=<e> index=<i> event=<trace line>

The ``event=`` field is always last so the raw trace line (which contains
spaces) needs no quoting.  Status-shaped replies for a *durable* session
additionally carry ``applied=<a>`` (after ``errors=``): the number of
event inputs the server has durably logged and applied — the client's
resend watermark after a reconnect (see
:mod:`repro.service.durability`).  Non-durable sessions omit the field,
so their replies are byte-identical to earlier releases.

``METRICS`` is the one multi-line reply: ``OK metrics lines=<n>``
followed by exactly ``n`` raw lines of Prometheus text exposition from
the process-wide :mod:`repro.obs` registry — the line count up front
keeps the framing unambiguous inside the otherwise one-line protocol.

An unknown verb (including ``EVENTS``, which exists only as a binary
opcode) elicits a clean ``ERR`` and the connection stays up — this is
what lets mixed-version clients and servers interoperate.

The verb table above is asserted against :data:`VERBS` by
``tests/service/test_protocol.py``, so it cannot drift again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "VERBS",
    "Command",
    "ProtocolError",
    "Reply",
    "SessionStatus",
    "format_status",
    "parse_command",
    "parse_hello",
    "parse_hello_proto",
    "parse_reply",
]

PROTOCOL_VERSION = 1

#: Verbs that take an argument (rest of the line, may contain spaces).
_ARG_VERBS = frozenset({"SPEC", "EVENT", "UPDATE"})
#: Verbs that take no argument.
_BARE_VERBS = frozenset({"STATUS", "METRICS", "RESET", "BYE"})
#: Verbs whose argument is optional (``HELLO`` vs ``HELLO proto=2``).
_OPT_ARG_VERBS = frozenset({"HELLO"})
VERBS = _ARG_VERBS | _BARE_VERBS | _OPT_ARG_VERBS


def parse_hello_proto(arg: str) -> int:
    """The protocol version a ``HELLO`` argument requests.

    An empty argument is the proto=1 form every client has always sent;
    the only other accepted shape is ``proto=N`` with integer ``N >= 1``
    (a server answers ``min(N, its own maximum)``, so clients may ask
    for versions that do not exist yet).
    """
    if not arg:
        return 1
    key, _, value = arg.partition("=")
    if key != "proto":
        raise ProtocolError(f"malformed HELLO argument {arg!r}")
    try:
        proto = int(value)
    except ValueError as exc:
        raise ProtocolError(f"malformed HELLO proto {value!r}") from exc
    if proto < 1:
        raise ProtocolError(f"HELLO proto must be >= 1, got {proto}")
    return proto


def parse_hello(arg: str) -> tuple[int, str | None]:
    """Parse a full ``HELLO`` argument: ``(proto, session key or None)``.

    Accepts space-separated ``proto=N`` and ``session=K`` fields in any
    order (a repeated field keeps its last value); each ``proto=N``
    is read by :func:`parse_hello_proto`.  Anything else is a
    :class:`ProtocolError`, which the server answers with ``ERR``.
    """
    proto = 1
    session: str | None = None
    for token in arg.split():
        key, eq, value = token.partition("=")
        if key == "proto" and eq:
            proto = parse_hello_proto(token)
        elif key == "session" and eq:
            if not value:
                raise ProtocolError("HELLO session key must be non-empty")
            session = value
        else:
            raise ProtocolError(f"malformed HELLO argument {token!r}")
    return proto, session


class ProtocolError(ReproError):
    """Raised for lines that are not valid protocol messages."""


@dataclass(frozen=True, slots=True)
class Command:
    """One parsed request line: a verb and its (possibly empty) argument."""

    verb: str
    arg: str = ""


def parse_command(line: str) -> Command:
    """Parse one request line into a :class:`Command`."""
    line = line.strip()
    if not line:
        raise ProtocolError("empty command line")
    verb, _, rest = line.partition(" ")
    verb = verb.upper()
    rest = rest.strip()
    if verb not in VERBS:
        raise ProtocolError(f"unknown command {verb!r}")
    if verb in _ARG_VERBS and not rest:
        raise ProtocolError(f"{verb} requires an argument")
    if verb in _BARE_VERBS and rest:
        raise ProtocolError(f"{verb} takes no argument")
    if verb in _OPT_ARG_VERBS and rest:
        parse_hello(rest)  # reject malformed negotiation upfront
    return Command(verb, rest)


@dataclass(frozen=True, slots=True)
class SessionStatus:
    """A session verdict: counters plus the first violation, if any.

    ``events`` counts every ``EVENT`` accepted (in and out of alphabet),
    ``skipped`` the out-of-alphabet subset, ``errors`` the malformed or
    spec-less events.  ``violation_index`` is the 0-based session-global
    index of the first violating event.  ``applied`` is the durable
    session's idempotency watermark (total event inputs logged and
    applied, never reset); ``None`` on non-durable sessions, whose
    replies then render without the field.
    """

    spec: str | None = None
    events: int = 0
    skipped: int = 0
    errors: int = 0
    violation_index: int | None = None
    violation_event: str | None = None
    applied: int | None = None

    @property
    def ok(self) -> bool:
        return self.violation_index is None


def format_status(status: SessionStatus) -> str:
    """Render a :class:`SessionStatus` as one reply line."""
    spec = status.spec if status.spec is not None else "-"
    counters = (
        f"spec={spec} events={status.events} "
        f"skipped={status.skipped} errors={status.errors}"
    )
    if status.applied is not None:
        counters += f" applied={status.applied}"
    if status.ok:
        return f"OK status {counters}"
    return (
        f"VIOLATION {counters} index={status.violation_index} "
        f"event={status.violation_event or ''}"
    )


@dataclass(frozen=True, slots=True)
class Reply:
    """One parsed reply line.

    ``kind`` is ``"ok"``, ``"err"`` or ``"violation"``; ``detail`` is the
    raw text after the keyword; ``status`` is populated for status-shaped
    replies (``OK status ...`` and ``VIOLATION ...``).
    """

    kind: str
    detail: str
    status: SessionStatus | None = None


def _parse_fields(text: str) -> tuple[dict[str, str], str | None]:
    """Split ``k=v`` fields; ``event=`` swallows the rest of the line."""
    fields: dict[str, str] = {}
    rest = text
    while rest:
        if rest.startswith("event="):
            return fields, rest[len("event="):]
        part, _, rest = rest.partition(" ")
        key, eq, value = part.partition("=")
        if not eq:
            raise ProtocolError(f"malformed reply field {part!r}")
        fields[key] = value
        rest = rest.lstrip()
    return fields, None


def _parse_status(text: str, violated: bool) -> SessionStatus:
    fields, event = _parse_fields(text)
    try:
        spec = fields.get("spec", "-")
        return SessionStatus(
            spec=None if spec == "-" else spec,
            events=int(fields.get("events", 0)),
            skipped=int(fields.get("skipped", 0)),
            errors=int(fields.get("errors", 0)),
            violation_index=int(fields["index"]) if violated else None,
            violation_event=event if violated else None,
            applied=int(fields["applied"]) if "applied" in fields else None,
        )
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"malformed status reply {text!r}: {exc}") from exc


def parse_reply(line: str) -> Reply:
    """Parse one reply line into a :class:`Reply` (client side)."""
    line = line.strip()
    keyword, _, rest = line.partition(" ")
    if keyword == "OK":
        status = None
        if rest.startswith("status "):
            status = _parse_status(rest[len("status "):], violated=False)
        return Reply("ok", rest, status)
    if keyword == "ERR":
        return Reply("err", rest)
    if keyword == "VIOLATION":
        return Reply("violation", rest, _parse_status(rest, violated=True))
    raise ProtocolError(f"malformed reply line {line!r}")
