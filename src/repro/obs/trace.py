"""Lightweight structured spans: the tracing half of ``repro.obs``.

A *span* is one timed phase of the pipeline — ``span("compile.traceset_dfa",
spec="RW")`` — with monotonic-clock start/end, free-form attributes, and
parent/child nesting carried through a :class:`contextvars.ContextVar`, so
nesting follows the call stack across functions, generators, and asyncio
tasks without any plumbing in signatures.

Spans only exist while at least one *sink* is installed (:func:`add_sink`
or the scoped :func:`use_sink`).  With no sink — the production default —
:func:`span` returns a shared no-op object and the cost of an
instrumentation point is one module-global truthiness check; nothing is
allocated and the ContextVar is never touched.  That is the disabled fast
path the ``benchmarks/bench_obs.py`` gate pins.

Crossing a process boundary (the obligation engine's worker pool) works by
value, not by ambient state: the parent captures :func:`current_span_id`,
ships it in the job, and the worker re-roots its own spans under it with
:func:`adopt_parent`.  Finished :class:`SpanRecord` values are plain
picklable dataclasses, so a worker collects its records in an in-memory
sink and ships them back for the parent to :func:`replay` into its own
sinks — re-parented, as if the work had happened inline.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Span",
    "SpanRecord",
    "add_sink",
    "adopt_parent",
    "current_span_id",
    "remove_sink",
    "replay",
    "span",
    "tracing_enabled",
    "use_sink",
]

#: Installed sinks (objects with an ``emit(record)`` method).  A plain
#: module-global list, *not* a ContextVar: spans raised anywhere in the
#: process — worker threads, asyncio tasks — flow to the same exporters,
#: and the disabled fast path is a single truthiness check.
_SINKS: list = []

#: The innermost live span (or adopted anchor) of the current context.
_CURRENT: contextvars.ContextVar["_Anchor | Span | None"] = contextvars.ContextVar(
    "repro_current_span", default=None
)

_IDS = itertools.count(1)
#: ``"<pid>-"``, formatted once per process; a forked child reformats it.
_ID_PREFIX = f"{os.getpid():x}-"


def _reset_id_prefix() -> None:
    global _ID_PREFIX
    _ID_PREFIX = f"{os.getpid():x}-"


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_reset_id_prefix)


def _new_span_id() -> str:
    """A process-unique span id, distinct across engine workers too."""
    return f"{_ID_PREFIX}{next(_IDS):x}"


@dataclass(slots=True)
class SpanRecord:
    """One finished span: plain data, picklable, JSON-friendly.

    ``start``/``end`` are monotonic-clock seconds — meaningful as
    differences and for ordering within one process, not as wall-clock
    timestamps.
    """

    name: str
    span_id: str
    parent_id: str | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


@dataclass(frozen=True, slots=True)
class _Anchor:
    """A parent-only stand-in for a span living in another process."""

    span_id: str


class Span:
    """A live span: context manager that emits a :class:`SpanRecord`.

    Created via :func:`span`; entering resolves the parent from the
    ambient context and installs itself as the current span, exiting
    stamps the end time and emits the finished record to every sink.
    An exception propagating through the block is recorded as an
    ``error`` attribute (the exception type name) and re-raised.
    """

    __slots__ = ("name", "span_id", "parent_id", "attrs", "start", "end", "_token")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id: str | None = None
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self._token: contextvars.Token | None = None

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        parent = _CURRENT.get()
        if parent is not None:
            self.parent_id = parent.span_id
        self._token = _CURRENT.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        emit(
            SpanRecord(
                self.name,
                self.span_id,
                self.parent_id,
                self.start,
                self.end,
                self.attrs,
            )
        )
        return False


def span(name: str, /, **attrs):
    """Open a span — or the shared no-op when no sink is installed.

    ``name`` is positional-only so attributes may themselves be called
    ``name`` (``span("elaborate.spec", name=spec.name)``).
    """
    if not _SINKS:
        return _NULL_SPAN
    return Span(name, attrs)


def tracing_enabled() -> bool:
    """Whether any sink is installed (spans are being recorded)."""
    return bool(_SINKS)


def current_span_id() -> str | None:
    """The ambient span id, for shipping across a process boundary."""
    current = _CURRENT.get()
    return current.span_id if current is not None else None


@contextlib.contextmanager
def adopt_parent(span_id: str | None):
    """Re-root spans of the block under a remote parent span id.

    The worker half of cross-process propagation: the parent process
    captures :func:`current_span_id` into the job, the worker wraps its
    work in ``adopt_parent(shipped_id)`` so its spans re-parent onto the
    shipping span when replayed.  ``None`` adopts nothing.
    """
    if span_id is None:
        yield
        return
    token = _CURRENT.set(_Anchor(span_id))
    try:
        yield
    finally:
        _CURRENT.reset(token)


def emit(record: SpanRecord) -> None:
    """Deliver one finished record to every installed sink."""
    for sink in list(_SINKS):
        sink.emit(record)


def replay(records: Iterable[SpanRecord]) -> None:
    """Emit already-finished records (e.g. shipped back from a worker)."""
    for record in records:
        emit(record)


def add_sink(sink) -> None:
    """Install a sink (an object with ``emit(record)``) process-wide."""
    _SINKS.append(sink)


def remove_sink(sink) -> None:
    """Uninstall a sink; unknown sinks are ignored."""
    with contextlib.suppress(ValueError):
        _SINKS.remove(sink)


@contextlib.contextmanager
def use_sink(sink):
    """Install a sink for the duration of a block; yields the sink."""
    add_sink(sink)
    try:
        yield sink
    finally:
        remove_sink(sink)
