"""Spec registry: compile specifications once, share machines across sessions.

Trace machines are pure (``step`` never mutates — see
:mod:`repro.machines.base`), so one compiled machine can drive every
session monitor concurrently; only the per-monitor *state* is private.
The registry is the single place the service pays elaboration and
compilation cost: sessions then spawn monitors in O(1).

Specifications whose trace sets are not machine-defined (compositions
involve existential hiding) are recorded as *unmonitorable* with the
reason, so a session binding to one gets a precise error instead of a
missing name.

A registry is the only owner of what it compiled.  It loads document
text through its own :class:`~repro.pipeline.SpecPipeline`, whose memo
holds only the previous successful build, and it remembers what each
entry was built from: the document node key (with the normalization
toggle) and the content fingerprint (:mod:`repro.checker.fingerprint`)
— the dense image's key when the spec tabulates, the machine's
otherwise.  An update whose spec matches the current entry on either
leaves that entry untouched; a node-key match is the **compile stage**
hit of the incremental build graph (``repro_pipeline_stage_*{stage=
"compile"}``).  Identical content among one registry's entries shares
one machine and one image.  A replaced build stays referenced only by
the sessions still draining on it, so a hot swap retains nothing once
they finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.automata.build import MachineImage, machine_to_dense
from repro.checker.fingerprint import fingerprint
from repro.core.errors import FingerprintError, ReproError, RuntimeModelError
from repro.core.specification import Specification
from repro.core.tracesets import FullTraceSet, MachineTraceSet
from repro.machines.base import TraceMachine
from repro.runtime.monitor import DEFAULT_HISTORY_LIMIT, SpecMonitor
from repro.runtime.tracefile import format_event, wire_safe_lines
from repro.service import wire

__all__ = [
    "CompiledSpec",
    "SpecRegistry",
    "UpdateReport",
    "DEFAULT_DENSE_STATE_LIMIT",
]

#: State budget for the registry's dense pre-compilation.  Deliberately
#: far below the checker's default: a spec whose reachable space is this
#: large is cheaper to monitor by machine stepping than to tabulate.
DEFAULT_DENSE_STATE_LIMIT = 20_000


def _normalized(traces):
    """The trace set in canonical (spec-scope) normalized form.

    Keying after normalization means syntactic variants of one spec
    — an unfused rename, a redundant ``True`` conjunct — land on one
    fingerprint and share one machine.  Spec-scope passes are monitor-safe:
    monitors project events to the specification alphabet before stepping.
    Respects the ambient :func:`~repro.passes.use_normalization` toggle.
    """
    from repro.passes import SPEC_SCOPE, normalize_traceset

    return normalize_traceset(traces, SPEC_SCOPE)


def _content_key(value) -> str | None:
    """``value``'s fingerprint, or ``None`` when it has no stable identity."""
    try:
        return fingerprint(value)
    except FingerprintError:
        return None


@dataclass(frozen=True, slots=True)
class _Identity:
    """What one registry entry was built from.

    ``node`` is the ``(node key, normalization toggle)`` of a text load;
    ``machine`` and ``image`` are content fingerprints (``image`` only
    when the entry has a dense image).  A forced build records only its
    node key: its machine and image stay private and shared with
    nothing, while the next ordinary load of the same text still finds
    the entry unchanged.
    """

    node: tuple[str, bool] | None = None
    machine: str | None = None
    image: str | None = None

    @property
    def content(self) -> str | None:
        return self.image if self.image is not None else self.machine


@dataclass(frozen=True, slots=True)
class CompiledSpec:
    """One monitorable specification with its shared compiled machine.

    ``dense`` is the machine's pre-compiled
    :class:`~repro.automata.build.MachineImage` when the registry could
    tabulate it within its state budget (``None`` otherwise); monitors
    step through it by letter id and fall back to ``machine`` for events
    outside the instantiated universe.  ``version`` counts hot swaps of
    the name: a live update that actually changes the compiled machine
    installs a new ``CompiledSpec`` with the next version, while sessions
    bound to the old one keep draining on it.

    ``letter_lines`` is the image's letter table as canonical trace
    lines, indexed by letter id (empty without an image): the table the
    binary protocol syncs after ``SPEC``.  ``line_ids`` maps the line of
    every *wire-safe* letter — one whose line parses back to that very
    letter (:func:`~repro.runtime.tracefile.wire_safe_lines`) — to its
    id, so a text ``EVENT`` carrying such a line steps without parsing.
    ``letters_frame`` is ``letter_lines`` pre-encoded as the one
    ``OP_LETTERS`` frame every binary session that binds this build
    receives (empty without letters).
    """

    name: str
    spec: Specification
    machine: TraceMachine
    dense: MachineImage | None = None
    version: int = 0
    letter_lines: tuple[str, ...] = ()
    line_ids: Mapping[str, int] = field(default_factory=dict)
    letters_frame: bytes = b""


@dataclass(frozen=True, slots=True)
class UpdateReport:
    """What a live registry update actually did, by spec name."""

    changed: tuple[str, ...]
    unchanged: tuple[str, ...]
    added: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"changed={len(self.changed)} unchanged={len(self.unchanged)} "
            f"added={len(self.added)}"
        )


class SpecRegistry:
    """Registry of monitorable specifications.

    Construction compiles every spec; afterwards the only mutation path
    is :meth:`update` (the service's hot-swap), which atomically
    replaces whole :class:`CompiledSpec` entries — readers holding a
    ``CompiledSpec`` never observe a half-updated spec.  ``pipeline``
    is the registry's own incremental build graph for document text.
    """

    def __init__(
        self,
        specs: Iterable[Specification],
        *,
        history_limit: int | None = DEFAULT_HISTORY_LIMIT,
        dense_state_limit: int = DEFAULT_DENSE_STATE_LIMIT,
    ) -> None:
        # Lazy: the pipeline pulls in the OUN front end, which
        # ``import repro.service`` alone does not need.
        from repro.pipeline import SpecPipeline

        self.history_limit = history_limit
        self._dense_state_limit = dense_state_limit
        self._compiled: dict[str, CompiledSpec] = {}
        self._identity: dict[str, _Identity] = {}
        self._unmonitorable: dict[str, str] = {}
        self.pipeline = SpecPipeline()
        self.update(specs)

    @classmethod
    def from_text(cls, text: str, **kwargs) -> "SpecRegistry":
        """Build a registry from OUN document text."""
        registry = cls((), **kwargs)
        registry.update_from_text(text)
        return registry

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "SpecRegistry":
        """Build a registry from an OUN document file."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        return cls.from_text(text, **kwargs)

    # -- compile stage ---------------------------------------------------

    def _compile(
        self,
        spec: Specification,
        node: tuple[str, bool] | None,
        machines: dict[str, TraceMachine],
        images: dict[str, MachineImage],
        force: bool,
    ) -> tuple[TraceMachine, MachineImage | None, _Identity]:
        """One spec's machine, dense image and identity, reusing equal content.

        ``machines`` and ``images`` map content keys to what this
        registry already holds; fresh builds are added to them.
        ``force=True`` skips them and builds private objects, keyed by
        ``node`` alone.
        """
        traces = _normalized(spec.traces)
        machine_key = None if force else _content_key(traces)
        machine = machines.get(machine_key)
        if machine is None:
            machine = traces.machine()
            if machine_key is not None:
                machines[machine_key] = machine
        image, image_key = self._compile_image(
            spec, machine, machine_key, images
        )
        identity = _Identity(node, machine_key, image_key)
        return machine, image, identity

    def _compile_image(
        self,
        spec: Specification,
        machine: TraceMachine,
        machine_key: str | None,
        images: dict[str, MachineImage],
    ) -> tuple[MachineImage | None, str | None]:
        """Pre-compile a spec's machine to a dense image, or ``None``.

        ``None`` means "monitor by machine stepping": the spec's universe
        cannot be derived, the reachable space exceeds the registry's
        state budget, or the compilation fails for any model-level
        reason.  Dense monitoring is an optimisation, never a requirement.
        """
        # Lazy imports: the checker layer reaches back into passes/service
        # metrics, so module-level imports would cycle.
        from repro.checker.compile import instantiated_letters
        from repro.checker.universe import FiniteUniverse

        try:
            universe = FiniteUniverse.for_specs(spec)
        except ReproError:
            return None, None
        # the machine key stands in for the trace set it fingerprints
        key = None if machine_key is None else _content_key(
            (machine_key, universe)
        )
        image = images.get(key)
        if image is not None:
            return image, key
        try:
            table = instantiated_letters(universe, spec.alphabet)
            image = machine_to_dense(
                machine,
                table.letters,
                state_limit=self._dense_state_limit,
                table=table,
            )
        except ReproError:
            return None, None
        if key is not None:
            images[key] = image
        return image, key

    def update(
        self,
        specs: Iterable[Specification],
        *,
        keys: Mapping[str, str] | None = None,
        force: bool = False,
    ) -> UpdateReport:
        """Register or hot-swap specs; report what actually changed.

        A spec is *unchanged* when its node key (``keys``, from a text
        load) or, failing that, its content key equals the current
        entry's — its existing entry, version, and letter table stay
        untouched, so bound sessions see nothing.  A *changed* spec
        atomically gets a new :class:`CompiledSpec` with a bumped
        ``version`` and its own letter tables; sessions already bound to
        the old ``CompiledSpec`` drain on it undisturbed, and nothing
        else keeps it.  ``force=True`` installs freshly compiled private
        builds even when nothing changed.
        """
        from repro.passes import normalization_enabled
        from repro.pipeline import record_stage

        keys = keys or {}
        norm = normalization_enabled()
        machines = {
            identity.machine: self._compiled[name].machine
            for name, identity in self._identity.items()
            if identity.machine is not None
        }
        images = {
            identity.image: self._compiled[name].dense
            for name, identity in self._identity.items()
            if identity.image is not None
        }
        changed: list[str] = []
        unchanged: list[str] = []
        added: list[str] = []
        for spec in specs:
            name = spec.name
            old = self._compiled.get(name)
            if not isinstance(spec.traces, (MachineTraceSet, FullTraceSet)):
                self._unmonitorable[name] = (
                    "composed trace sets involve existential hiding and are "
                    "checked offline, not monitored online"
                )
                if old is not None:
                    # the name stopped being monitorable: retire it
                    del self._compiled[name]
                    del self._identity[name]
                    changed.append(name)
                continue
            node_key = keys.get(name)
            node = None if node_key is None else (node_key, norm)
            current = self._identity.get(name)
            if node is not None:
                hit = (
                    not force and current is not None and current.node == node
                )
                record_stage("compile", hit=hit)
                if hit:
                    unchanged.append(name)
                    continue
            machine, image, identity = self._compile(
                spec, node, machines, images, force
            )
            if (
                current is not None
                and identity.content is not None
                and identity.content == current.content
            ):
                # same content: ``machines``/``images`` handed back the
                # current entry's very objects
                self._identity[name] = identity
                unchanged.append(name)
                continue
            version = 0 if old is None else old.version + 1
            letters = image.dfa.table.letters if image else ()
            lines = tuple(format_event(letter) for letter in letters)
            self._compiled[name] = CompiledSpec(
                name,
                spec,
                machine,
                image,
                version,
                lines,
                wire_safe_lines(letters),
                wire.encode_frame(wire.OP_LETTERS, wire.pack_letters(lines))
                if lines
                else b"",
            )
            self._identity[name] = identity
            self._unmonitorable.pop(name, None)
            (added if old is None else changed).append(name)
        return UpdateReport(tuple(changed), tuple(unchanged), tuple(added))

    def update_from_text(
        self, text: str, *, force: bool = False
    ) -> UpdateReport:
        """Hot-swap from OUN document text via the registry's pipeline."""
        build = self.pipeline.load(text)
        return self.update(
            build.specifications().values(), keys=build.keys(), force=force
        )

    # -- lookups ---------------------------------------------------------

    def names(self) -> list[str]:
        """Monitorable specification names, sorted."""
        return sorted(self._compiled)

    def __contains__(self, name: str) -> bool:
        return name in self._compiled

    def __len__(self) -> int:
        return len(self._compiled)

    def get(self, name: str) -> CompiledSpec:
        """Look up a compiled spec; raise a precise error if absent."""
        compiled = self._compiled.get(name)
        if compiled is not None:
            return compiled
        if name in self._unmonitorable:
            raise RuntimeModelError(
                f"specification {name!r} is not monitorable: "
                f"{self._unmonitorable[name]}"
            )
        known = ", ".join(self.names()) or "none"
        raise ReproError(f"no specification named {name!r} (have: {known})")

    def build_key(self) -> str:
        """Each served spec's name and the node and content keys it came from.

        One document or one scenario gives one key, in any process.
        """
        entries = sorted(self._identity.items())
        return fingerprint(tuple((n, i.node, i.machine, i.image) for n, i in entries))

    def new_monitor_for(self, compiled: CompiledSpec) -> SpecMonitor:
        """A fresh monitor pinned to one *specific* compiled spec.

        Sessions use this rather than :meth:`new_monitor` so a hot swap
        cannot mix machines mid-session: the session holds its
        ``CompiledSpec`` and every monitor it spawns steps that exact
        machine/image pair until the session rebinds.
        """
        return SpecMonitor(
            compiled.spec,
            machine=compiled.machine,
            dense=compiled.dense,
            history_limit=self.history_limit,
        )

    def new_monitor(self, name: str) -> SpecMonitor:
        """A fresh monitor over the *current* compiled machine and image."""
        return self.new_monitor_for(self.get(name))
