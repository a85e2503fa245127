"""One monitoring session's input semantics: the service's ingest core.

A session's verdict is a function of its trace prefix (the paper's
``h/α(Γ) ∈ T(Γ)``), so the live server and crash replay must compute
the same function.  They do by construction: both feed inputs through
this one synchronous :class:`Session`.  The live handlers
(:mod:`repro.service.server`) add the write-ahead log, the session-queue
hop and metrics around the calls; :func:`repro.service.durability.recover`
makes the same calls while replaying a key's log.

Ingest runs in two steps.  *Accepting* an input (:meth:`Session.accept_line`,
:meth:`Session.accept_ids`) decodes and validates it, counts it, and
assigns session-global event indices — in arrival order, which is why
the server accepts on its event loop before any queue hop.  A text line
that is a wire-safe letter's canonical line resolves through the bound
spec's ``line_ids`` table, like a binary letter id; only other lines
are parsed.  *Stepping* (:meth:`Session.step_run`,
:meth:`Session.step_ids`) feeds accepted inputs to the session's one
monitor and keeps its first violation; the server runs it on its
session FIFO, replay inline.  Accepted text events step in
*runs*: the server hands a burst of consecutive ones to the queue once
and :meth:`Session.step_run` steps them in one call; replay steps each
line as a run of one.

The snapshot format lives here too, writer and reader side by side:
:meth:`Session.snapshot`, :func:`snapshot_ok` and :meth:`Session.restore`.
"""

from __future__ import annotations

from array import array

from repro.core.errors import ReproError
from repro.runtime import tracefile
from repro.runtime.monitor import SpecMonitor, Violation
from repro.service import wire
from repro.service.protocol import SessionStatus
from repro.service.registry import CompiledSpec

__all__ = ["Session", "snapshot_ok"]


class Session:
    """One event stream checked by one monitor against one bound spec.

    The monitor sees the whole stream in arrival order, as the soundness
    check ``h/α(Γ) ∈ T(Γ)`` needs.
    """

    __slots__ = (
        "registry",
        "proto",
        "key",
        "compiled",
        "monitor",
        "events",
        "skipped",
        "errors",
        "violation",
        "restored_violation",
        "received",
        "next_lsn",
        "since_snapshot",
    )

    def __init__(self, registry, *, key: str | None = None) -> None:
        self.registry = registry
        self.proto = 1
        #: The durable-session key (None on plain sessions).
        self.key = key
        self.compiled: CompiledSpec | None = None
        #: Created on the first event after a bind.
        self.monitor: SpecMonitor | None = None
        self.events = 0
        self.skipped = 0
        self.errors = 0
        self.violation: Violation | None = None
        #: A violation restored from a snapshot as ``(index, line)``: the
        #: Violation itself cannot be rebuilt, because the bounded history
        #: that produced it is gone.
        self.restored_violation: tuple[int, str] | None = None
        #: The input watermark: every EVENT line and every EVENTS id
        #: counts one, and RESET never lowers it.  It is what ``applied=``
        #: reports, so resend dedup stays sound across RESET.
        self.received = 0
        #: The next log sequence number of a durable session.
        self.next_lsn = 0
        #: Inputs logged since the last snapshot, recovery's replay
        #: included (the live path's trigger).
        self.since_snapshot = 0

    # -- binding -------------------------------------------------------------

    def bind(self, compiled: CompiledSpec | None) -> None:
        """Start a fresh stream on ``compiled`` (None leaves it unbound)."""
        self.reset()
        self.compiled = compiled
        self.monitor = None

    def reset(self) -> None:
        """Forget the stream's history; the watermark keeps counting."""
        if self.monitor is not None:
            self.monitor.reset()
        self.events = 0
        self.skipped = 0
        self.errors = 0
        self.violation = None
        self.restored_violation = None

    # -- ingest --------------------------------------------------------------

    def accept_line(self, line: str):
        """Accept one ``EVENT`` line: ``(monitor, event, index, lid)``.

        Every line is one input.  A malformed line, or an event before
        any SPEC, counts an error; a comment counts nothing more.  None
        instead of the tuple means there is nothing to step.  A line in
        the bound spec's ``line_ids`` table is not parsed: ``event`` is
        then the table's own letter and ``lid`` its id; any other line
        is parsed and has ``lid`` None.
        """
        self.received += 1
        compiled = self.compiled
        lid = compiled.line_ids.get(line) if compiled is not None else None
        if lid is not None:
            event = compiled.dense.dfa.table.letters[lid]
        else:
            try:
                event = tracefile.parse_line(line)
            except ReproError:
                self.errors += 1
                return None
            if event is None:
                return None
            if compiled is None:
                self.errors += 1
                return None
        index = self.events
        self.events += 1
        return self._monitor(), event, index, lid

    def accept_ids(self, payload: bytes, skip: int = 0):
        """Accept one ``EVENTS`` payload; ``(monitor, ids, base)`` or None.

        A malformed payload raises :class:`~repro.service.wire.FrameError`
        before anything is counted.  Every id is one input, except the
        first ``skip``, which a replayed batch's watermark already
        covers.  Without a bound, tabulated spec no letter table was ever
        sent, so every id counts an error; ids outside the table are
        dropped and counted, so valid events keep consecutive indices as
        if the bad ids had been malformed lines.  ``base`` is the
        session-global index of the batch's first event.
        """
        ids = wire.unpack_event_ids(payload)
        if skip:
            ids = ids[skip:]
        n = len(ids)
        self.received += n
        if n == 0:
            return None
        compiled = self.compiled
        if compiled is None or compiled.dense is None:
            self.errors += n
            return None
        k = compiled.dense.dfa.n_letters
        if min(ids) < 0 or max(ids) >= k:
            ids = array("i", (lid for lid in ids if 0 <= lid < k))
            self.errors += n - len(ids)
            if not ids:
                return None
        base = self.events
        self.events += len(ids)
        return self._monitor(), ids, base

    def _monitor(self) -> SpecMonitor:
        if self.monitor is None:
            # Pinned to the bound CompiledSpec, not a name lookup: a hot
            # swap must not mix machines mid-session.
            self.monitor = self.registry.new_monitor_for(self.compiled)
        return self.monitor

    def step_run(self, run) -> tuple[int, bool]:
        """Step accepted events: (how many were outside the alphabet, first violation).

        ``run`` is a list of :meth:`accept_line` tuples in index order.
        The server never lets a run span a bind or a reset, so they all
        carry one monitor.  Each event steps through
        :meth:`SpecMonitor.observe` with the letter id the door resolved.
        """
        monitor = run[0][0]
        was_ok = not monitor.violations
        skipped_before = monitor.skipped
        observe = monitor.observe
        for _monitor, event, index, lid in run:
            observe(event, index=index, lid=lid)
        skipped = monitor.skipped - skipped_before
        self.skipped += skipped
        if was_ok and monitor.violations:
            self.violation = monitor.violations[-1]
            return skipped, True
        return skipped, False

    def step_ids(self, monitor: SpecMonitor, ids, base: int) -> bool:
        """Step one accepted batch; whether it first violated ``monitor``."""
        was_ok = not monitor.violations
        monitor.observe_ids(ids, base_index=base)
        if was_ok and monitor.violations:
            self.violation = monitor.violations[-1]
            return True
        return False

    # -- verdict -------------------------------------------------------------

    def _first_violation(self) -> tuple[int, str] | None:
        if self.violation is not None:
            return (
                self.violation.index,
                tracefile.format_event(self.violation.event),
            )
        return self.restored_violation

    def status(self) -> SessionStatus:
        first = self._first_violation()
        return SessionStatus(
            spec=self.compiled.name if self.compiled else None,
            events=self.events,
            skipped=self.skipped,
            errors=self.errors,
            violation_index=first[0] if first else None,
            violation_event=first[1] if first else None,
            applied=self.received if self.key is not None else None,
        )

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict | None:
        """The session's snapshot payload, or None when it cannot have one.

        A deoptimised monitor (alive but fallen off the dense table) has
        no stable integer state to persist — recovery replays more log
        instead, which is always correct, just slower.
        """
        monitor_state = None
        monitor = self.monitor
        if monitor is not None:
            if monitor.alive and monitor._dstate is None:
                return None
            monitor_state = {"alive": monitor.alive, "dstate": monitor._dstate}
        first = self._first_violation()
        return {
            "key": self.key,
            "spec": self.compiled.name if self.compiled else None,
            "lsn": self.next_lsn,
            "received": self.received,
            "events": self.events,
            "skipped": self.skipped,
            "errors": self.errors,
            "violation": (
                {"index": first[0], "event": first[1]} if first else None
            ),
            "monitor": monitor_state,
        }

    def restore(self, snap: dict) -> bool:
        """Adopt a snapshot that passed :func:`snapshot_ok`.

        False when its dense state is one the spec's image does not have;
        the session is then half-restored and the caller starts over.
        """
        self.events = snap.get("events", 0)
        self.skipped = snap.get("skipped", 0)
        self.errors = snap.get("errors", 0)
        self.received = snap.get("received", 0)
        self.next_lsn = snap.get("lsn", 0)
        violation = snap.get("violation")
        if violation is not None:
            self.restored_violation = (
                violation["index"],
                violation.get("event") or "",
            )
        name = snap.get("spec")
        if name is None:
            return True
        try:
            self.compiled = self.registry.get(name)
        except ReproError:
            # The document changed across the restart and no longer
            # declares this spec; the session comes back unbound with its
            # counters intact (docs/operations.md, "recovery semantics").
            return True
        state = snap.get("monitor")
        if state is None:
            return True  # no monitor existed yet; created on the next event
        monitor = self.registry.new_monitor_for(self.compiled)
        # Private-field surgery is deliberate: the snapshot *is* the
        # monitor's dense state, and rebuilding it through observe() would
        # need the full event history the bounded window no longer holds.
        monitor._seen = self.events
        if not state.get("alive", True):
            monitor.alive = False
            monitor._dstate = None
        else:
            dstate = state.get("dstate")
            monitor._dstate = dstate
            if dstate is not None and monitor.dense is not None:
                if dstate >= len(monitor.dense.states):
                    return False
                monitor.state = monitor.dense.states[dstate]
        self.monitor = monitor
        return True


#: Snapshot fields that must be counts when present (absent means 0).
_SNAPSHOT_COUNTS = ("lsn", "received", "events", "skipped", "errors")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def snapshot_ok(payload, key: str) -> bool:
    """Whether decoded JSON ``payload`` is a usable snapshot of ``key``.

    Anything but an object of the right key and field types counts as
    torn: recovery then replays more log, which is always correct.
    """
    if not isinstance(payload, dict) or payload.get("key") != key:
        return False
    if not all(_is_count(payload.get(name, 0)) for name in _SNAPSHOT_COUNTS):
        return False
    spec = payload.get("spec")
    violation = payload.get("violation")
    monitor = payload.get("monitor")
    if spec is not None and not isinstance(spec, str):
        return False
    if violation is not None and not (
        isinstance(violation, dict)
        and _is_count(violation.get("index"))
        and isinstance(violation.get("event", ""), (str, type(None)))
    ):
        return False
    return monitor is None or (
        isinstance(monitor, dict)
        and isinstance(monitor.get("alive", True), bool)
        and (monitor.get("dstate") is None or _is_count(monitor["dstate"]))
    )
