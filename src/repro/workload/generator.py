"""Deterministic event-stream generation with fault injection.

The generator turns a compiled scenario specification into adversarial
service traffic with a *known* verdict:

1. **Happy path** — a seeded random walk over the spec's dense
   :class:`~repro.automata.build.MachineImage` (the same flat successor
   array the online monitor steps through), choosing uniformly among the
   live wire-safe letters of the current state.  By construction every
   prefix stays in the trace set.
2. **Faults** — the walk is then mutated event-wise: ``drop`` removes an
   event, ``dup`` re-sends one immediately, ``reorder`` swaps adjacent
   survivors; each with its own independent per-event probability.
3. **Oracle** — the mutated stream is replayed through the dense image
   once more: the *expected violation position* is the first index whose
   prefix leaves the trace set (``None`` when the mutation happened to
   stay in-language — duplicating an event that may legally repeat, or
   swapping two events the spec never ordered).  This mirrors exactly
   the paper's first-violation semantics the service implements, but
   through an independent code path (no :class:`SpecMonitor` involved).

**Seeding/determinism contract**: one ``random.Random(str(seed))``
instance drives both the walk and the mutation, consumed in stream
order.  Identical ``(spec, events, faults, seed)`` therefore produce
identical streams, fault counts, and oracle positions — across
processes, platforms, and time (the CPython Mersenne Twister is stable).

Wire safety: letters are instantiated events; any whose trace-file line
does not round-trip (``parse_line ∘ format_event ≠ id`` — e.g. a fresh
universe value whose ``#``-prefixed name would read back as a comment)
are excluded from the walk, so every generated event survives the
service's wire format verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.core.events import Event
from repro.runtime import tracefile

__all__ = [
    "FaultSpec",
    "GeneratedStream",
    "StreamSession",
    "generate_stream",
    "wire_safe_letters",
]

_FAULT_KINDS = ("reorder", "dup", "drop")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Per-event fault probabilities, each in ``[0, 1]``."""

    reorder: float = 0.0
    dup: float = 0.0
    drop: float = 0.0

    def __post_init__(self) -> None:
        for kind in _FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(
                    f"fault rate {kind}={rate} outside [0, 1]"
                )

    @property
    def active(self) -> bool:
        return any(getattr(self, kind) > 0.0 for kind in _FAULT_KINDS)

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        """Parse the CLI form ``reorder=P,dup=P,drop=P`` (subset, any order)."""
        rates: dict[str, float] = {}
        for part in filter(None, (p.strip() for p in text.split(","))):
            kind, sep, value = part.partition("=")
            kind = kind.strip()
            if not sep or kind not in _FAULT_KINDS:
                raise ReproError(
                    f"bad fault {part!r}: expected "
                    f"{'|'.join(_FAULT_KINDS)}=RATE"
                )
            try:
                rates[kind] = float(value)
            except ValueError as exc:
                raise ReproError(f"bad fault rate in {part!r}") from exc
        return FaultSpec(**rates)

    def describe(self) -> str:
        return ",".join(
            f"{kind}={getattr(self, kind):g}" for kind in _FAULT_KINDS
        )

    def as_dict(self) -> dict[str, float]:
        return {kind: getattr(self, kind) for kind in _FAULT_KINDS}


def wire_safe_letters(image) -> list[int]:
    """Letter ids whose events survive a trace-line round-trip."""
    return list(tracefile.wire_safe_lines(image.dfa.table.letters).values())


class _HappyWalker:
    """Seeded uniform walk through a dense image's live states."""

    def __init__(self, compiled, rng: random.Random) -> None:
        image = compiled.dense
        if image is None:
            raise ReproError(
                f"{compiled.name}: no dense image (state space above the "
                f"registry budget?) — cannot generate workloads"
            )
        self._image = image
        self._rng = rng
        self._safe = wire_safe_letters(image)
        if not self._safe:
            raise ReproError(
                f"{compiled.name}: no wire-safe letters to generate from"
            )
        self._state = image.dfa.start
        self._successors: dict[int, list[tuple[int, int]]] = {}

    def _live_moves(self, state: int) -> list[tuple[int, int]]:
        moves = self._successors.get(state)
        if moves is None:
            dfa = self._image.dfa
            live = len(self._image.states)
            row = state * dfa.n_letters
            moves = self._successors[state] = [
                (lid, dfa.dense[row + lid])
                for lid in self._safe
                if dfa.dense[row + lid] < live
            ]
        return moves

    def batch(self, n: int) -> list[Event]:
        letters = self._image.dfa.table.letters
        out: list[Event] = []
        for _ in range(n):
            moves = self._live_moves(self._state)
            if not moves:  # dead end: every letter would violate
                break
            lid, nxt = moves[self._rng.randrange(len(moves))]
            out.append(letters[lid])
            self._state = nxt
        return out


class _DenseOracle:
    """First index whose prefix leaves the trace set, by dense stepping."""

    def __init__(self, compiled) -> None:
        image = compiled.dense
        if image is None:
            raise ReproError(f"{compiled.name}: no dense image for the oracle")
        self._name = compiled.name
        self._image = image
        self._state = image.dfa.start
        self._seen = 0
        self.violation_index: int | None = None

    def feed(self, events) -> None:
        dfa = self._image.dfa
        live = len(self._image.states)
        for event in events:
            index = self._seen
            self._seen += 1
            if self.violation_index is not None:
                continue  # irremediable: the first violation stands
            lid = dfa.table.get(event)
            if lid is None:
                raise ReproError(
                    f"{self._name}: event {event} outside the instantiated "
                    f"letter table — the generator never emits these"
                )
            nxt = dfa.dense[self._state * dfa.n_letters + lid]
            if nxt < live:
                self._state = nxt
            else:
                self.violation_index = index


def inject_faults(
    events: list[Event], faults: FaultSpec, rng: random.Random
) -> tuple[list[Event], dict[str, int]]:
    """Mutate a stream in place-order: dup/drop per event, then swaps."""
    counts = dict.fromkeys(_FAULT_KINDS, 0)
    out: list[Event] = []
    for event in events:
        if faults.drop and rng.random() < faults.drop:
            counts["drop"] += 1
            continue
        out.append(event)
        if faults.dup and rng.random() < faults.dup:
            out.append(event)
            counts["dup"] += 1
    if faults.reorder:
        i = 0
        while i + 1 < len(out):
            if rng.random() < faults.reorder:
                out[i], out[i + 1] = out[i + 1], out[i]
                counts["reorder"] += 1
                i += 2  # a swapped pair is not re-swapped
            else:
                i += 1
    return out, counts


class StreamSession:
    """One session's stream: incremental batches with a running oracle.

    Batches continue the happy walk from the previous batch's state, so
    a duration-bounded run is one long coherent stream; faults are
    injected within each batch (a swap never crosses a batch boundary).
    """

    def __init__(self, compiled, faults: FaultSpec | None = None, seed=0) -> None:
        self._rng = random.Random(str(seed))
        self._walker = _HappyWalker(compiled, self._rng)
        self._oracle = _DenseOracle(compiled)
        self._faults = faults if faults is not None else FaultSpec()
        self._lines: dict[Event, str] = {}
        self.fault_counts = dict.fromkeys(_FAULT_KINDS, 0)
        self.happy_events = 0
        self.events_emitted = 0

    def next_batch(self, n: int) -> list[Event]:
        happy = self._walker.batch(n)
        self.happy_events += len(happy)
        mutated, counts = inject_faults(happy, self._faults, self._rng)
        for kind, count in counts.items():
            self.fault_counts[kind] += count
        self._oracle.feed(mutated)
        self.events_emitted += len(mutated)
        return mutated

    def next_batch_lines(self, n: int) -> list[str]:
        """Like :meth:`next_batch`, pre-rendered as trace-file lines.

        Rendering is memoised per distinct event — a stream repeats few
        letters many times — so load generators measuring the *service*
        (``repro send``, ``benchmarks/bench_wire.py``) pay formatting
        once per letter, not once per event.  The oracle still runs on
        the event objects, so verdicts are identical to
        :meth:`next_batch`.
        """
        lines = self._lines
        out = []
        for event in self.next_batch(n):
            line = lines.get(event)
            if line is None:
                line = lines[event] = tracefile.format_event(event)
            out.append(line)
        return out

    @property
    def expected_violation(self) -> int | None:
        return self._oracle.violation_index


@dataclass(frozen=True, slots=True)
class GeneratedStream:
    """One fully generated stream with its oracle verdict."""

    events: tuple[Event, ...]
    happy_events: int
    faults: dict[str, int]
    expected_violation: int | None


def generate_stream(
    compiled, *, events: int, faults: FaultSpec | None = None, seed=0
) -> GeneratedStream:
    """Generate one complete seeded stream (the one-shot convenience)."""
    session = StreamSession(compiled, faults, seed)
    emitted = session.next_batch(events)
    return GeneratedStream(
        tuple(emitted),
        session.happy_events,
        dict(session.fault_counts),
        session.expected_violation,
    )
