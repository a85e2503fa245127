"""Exception hierarchy for the ``repro`` library.

Every error raised by library code derives from :class:`ReproError` so that
callers can catch library failures without intercepting programming errors
such as ``TypeError``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SortError",
    "AlphabetError",
    "SpecificationError",
    "CompositionError",
    "RefinementError",
    "MachineError",
    "RegexError",
    "AutomatonError",
    "UniverseError",
    "StateSpaceLimitExceeded",
    "OUNSyntaxError",
    "OUNElaborationError",
    "RuntimeModelError",
    "MonitorViolation",
    "UnknownSpecificationError",
    "UnknownSessionError",
    "SessionStateError",
    "FingerprintError",
    "CacheError",
    "EngineError",
    "ObservabilityError",
]


#: What every parser says about input nested past the recursion limit.
NESTING_MESSAGE = "document nests too deeply to parse"


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SortError(ReproError):
    """Raised for ill-formed sort expressions or mixed-base operations."""


class AlphabetError(ReproError):
    """Raised for ill-formed alphabets or unsupported alphabet operations."""


class SpecificationError(ReproError):
    """Raised when a specification violates Definition 1 well-formedness."""


class CompositionError(ReproError):
    """Raised when specifications cannot be composed (e.g. not composable)."""


class RefinementError(ReproError):
    """Raised for ill-posed refinement queries."""


class MachineError(ReproError):
    """Raised for ill-formed trace machines."""


class RegexError(ReproError):
    """Raised for ill-formed trace regular expressions."""


class AutomatonError(ReproError):
    """Raised for ill-formed automata or operations on mismatched alphabets."""


class UniverseError(ReproError):
    """Raised for ill-formed finite universes."""


class StateSpaceLimitExceeded(ReproError):
    """Raised when an exact compilation would exceed the state budget.

    Carries the number of states explored so far in :attr:`explored`.
    """

    def __init__(self, message: str, explored: int) -> None:
        super().__init__(message)
        self.explored = explored


class OUNSyntaxError(ReproError):
    """Raised by the OUN notation parser, with position information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class OUNElaborationError(ReproError):
    """Raised when a parsed OUN document cannot be elaborated to core objects."""


class RuntimeModelError(ReproError):
    """Raised for ill-formed runtime system models."""


class MonitorViolation(ReproError):
    """Raised (optionally) by online monitors when a safety spec is violated."""

    def __init__(self, message: str, trace, event) -> None:
        super().__init__(message)
        self.trace = trace
        self.event = event


class UnknownSpecificationError(ReproError):
    """Raised when a request names a specification the service doesn't have.

    The management surface (:class:`repro.api.Gateway`, HTTP gateway)
    maps this to a 404 — the caller asked for a resource, not an
    operation, and the resource doesn't exist.
    """


class UnknownSessionError(ReproError):
    """Raised when a request names a monitoring session that isn't open."""


class SessionStateError(ReproError):
    """Raised when a request conflicts with a session's current binding.

    E.g. posting events for spec B to a session already bound to spec A:
    honouring it would silently reset the session's counters, so the
    management surface refuses (HTTP 409) instead.
    """


class FingerprintError(ReproError):
    """Raised when a value has no stable content fingerprint.

    Compiled-machine caching treats this as "uncacheable": the artifact is
    compiled directly and never stored, so an unfingerprintable object can
    degrade performance but never correctness.
    """


class CacheError(ReproError):
    """Raised for ill-formed cache configurations (not for cache misses)."""


class EngineError(ReproError):
    """Raised for ill-formed obligation-engine configurations or sources."""


class ObservabilityError(ReproError):
    """Raised for ill-formed metrics registrations or span exporters."""
