"""The incremental build graph: fingerprint-keyed pipeline stages.

One :class:`SpecPipeline` owns a memo table per stage:

========== ============================================= ==============
stage      memo key                                      produces
========== ============================================= ==============
parse      SHA-256 of the document text                  ``Document``
elaborate  spec node key (AST + scope signature)         raw spec
normalize  ``(node key, normalization toggle)``          canonical spec
compile    node key (recorded by the registry/cache)     machine/image
========== ============================================= ==============

Each memo holds only the previous successful build: a load stages its
entries in fresh tables and swaps them in when the whole document has
built, so a failed load keeps the old memo and a long run of reloads
retains one document's worth of parsed and elaborated state.

Compositions are folded by the elaborate stage, keyed through their
parts' keys (``composition_node_key``), so an edit to one spec in a
three-spec document re-runs exactly that spec's elaborate/normalize —
everything else is a stage hit.  The normalize memo carries the ambient
:func:`~repro.passes.use_normalization` toggle in its key because the
toggle changes the stage's output.

A :class:`SpecPipeline` produces byte-for-byte the same specifications
as the monolithic :func:`repro.oun.elaborate.elaborate`, including
error parity on redeclarations and unknown composition parts (checked
on every load; only the expensive work is memoized).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import OUNElaborationError
from repro.core.specification import Specification, component_spec
from repro.core.tracesets import MachineTraceSet
from repro.machines.boolean import TrueMachine
from repro.obs.registry import get_registry
from repro.obs.trace import span
from repro.oun.elaborate import (
    document_scope,
    elaborate_composition,
    elaborate_spec_decl,
)
from repro.oun.identity import (
    composition_node_key,
    parse_key,
    scope_signature,
    spec_node_key,
)
from repro.oun.parser import Document, parse_document
from repro.passes import normalization_enabled, normalize_machine

__all__ = [
    "STAGES",
    "DocumentBuild",
    "SpecBuild",
    "SpecPipeline",
    "normalize_component",
    "record_stage",
    "stage_counts",
]

#: The build graph's stages, in dependency order.  ``compile`` is
#: recorded by the service registry (its machines and dense images);
#: the first three are recorded here.
STAGES = ("parse", "elaborate", "normalize", "compile")

_HITS = "repro_pipeline_stage_hits_total"
_MISSES = "repro_pipeline_stage_misses_total"
_HELP = "Incremental build graph stage memo outcomes, by stage."


def record_stage(stage: str, hit: bool, n: int = 1) -> None:
    """Count one memo outcome for *stage* in the shared registry."""
    name = _HITS if hit else _MISSES
    get_registry().counter(name, labels=(("stage", stage),), help=_HELP).inc(n)


def stage_counts() -> dict[tuple[str, str], int]:
    """Current ``{(stage, "hit"|"miss"): count}`` — test/bench helper."""
    registry = get_registry()
    out: dict[tuple[str, str], int] = {}
    for stage in STAGES:
        labels = (("stage", stage),)
        out[(stage, "hit")] = registry.counter(_HITS, labels, help=_HELP).value
        out[(stage, "miss")] = registry.counter(
            _MISSES, labels, help=_HELP
        ).value
    return out


def normalize_component(spec: Specification) -> Specification:
    """The normalize stage: canonicalize one raw elaborated spec.

    Mirrors the tail of :func:`repro.oun.elaborate.elaborate_spec_decl`
    with ``normalize=True``: machine normalization (respecting the
    ambient toggle) plus the ``TrueMachine`` → machineless collapse.
    """
    traces = spec.traces
    if not isinstance(traces, MachineTraceSet):
        return spec
    machine = normalize_machine(traces.predicate)
    if isinstance(machine, TrueMachine):
        return component_spec(spec.name, spec.objects, spec.alphabet)
    if machine is traces.predicate:
        return spec
    return component_spec(spec.name, spec.objects, spec.alphabet, machine)


@dataclass(frozen=True, slots=True)
class SpecBuild:
    """One named node's build outcome."""

    name: str
    key: str
    specification: Specification
    #: True when every stage that ran for this node was a memo hit.
    reused: bool


@dataclass(frozen=True, slots=True)
class DocumentBuild:
    """A whole document's build: the AST plus every node, in order."""

    document: Document
    builds: tuple[SpecBuild, ...]

    def specifications(self) -> dict[str, Specification]:
        """Name → spec in declaration order (``elaborate()`` parity)."""
        return {b.name: b.specification for b in self.builds}

    def keys(self) -> dict[str, str]:
        """Name → stable node key, for the compile stage's memo."""
        return {b.name: b.key for b in self.builds}


class SpecPipeline:
    """Memoizing pipeline instance.  Not thread-safe; each
    :class:`~repro.service.registry.SpecRegistry` owns one."""

    def __init__(self) -> None:
        self._parsed: dict[str, Document] = {}
        self._elaborated: dict[str, Specification] = {}
        self._normalized: dict[tuple[str, bool], Specification] = {}
        self._composed: dict[tuple[str, bool], Specification] = {}

    # -- stages ----------------------------------------------------------

    def load(self, text: str) -> DocumentBuild:
        """Parse (memoized) and build a document from source text."""
        with span("pipeline.load"):
            key = parse_key(text)
            doc = self._parsed.get(key)
            if doc is None:
                record_stage("parse", hit=False)
                with span("pipeline.parse"):
                    doc = parse_document(text)
            else:
                record_stage("parse", hit=True)
            build = self.build(doc)
            self._parsed = {key: doc}
            return build

    def build(self, doc: Document) -> DocumentBuild:
        """Elaborate + normalize every node, reusing unchanged stages.

        The memo tables are replaced by this build's entries only once
        every node has built; an error leaves them as they were.
        """
        elaborated: dict[str, Specification] = {}
        normalized: dict[tuple[str, bool], Specification] = {}
        composed: dict[tuple[str, bool], Specification] = {}
        signature = scope_signature(doc)
        scope = document_scope(doc)
        norm = normalization_enabled()
        out: dict[str, Specification] = {}
        keys: dict[str, object] = {}
        builds: list[SpecBuild] = []

        for decl in doc.specifications:
            if decl.name in out:
                raise OUNElaborationError(
                    f"specification {decl.name!r} redeclared"
                )
            key = spec_node_key(signature, decl)
            raw = self._elaborated.get(key)
            elaborate_hit = raw is not None
            record_stage("elaborate", hit=elaborate_hit)
            if raw is None:
                with span("pipeline.elaborate", name=decl.name):
                    raw = elaborate_spec_decl(scope, decl, normalize=False)
            elaborated[key] = raw
            norm_key = (key, norm)
            spec = self._normalized.get(norm_key)
            normalize_hit = spec is not None
            record_stage("normalize", hit=normalize_hit)
            if spec is None:
                with span("pipeline.normalize", name=decl.name):
                    spec = normalize_component(raw)
            normalized[norm_key] = spec
            out[decl.name] = spec
            keys[decl.name] = key
            builds.append(
                SpecBuild(decl.name, key, spec, elaborate_hit and normalize_hit)
            )

        for comp in doc.compositions:
            if comp.name in out:
                raise OUNElaborationError(
                    f"composition {comp.name!r} redeclares an existing name"
                )
            # unknown-part parity with elaborate(): check on every load,
            # even when the fold itself is a memo hit.
            for part_name in comp.parts:
                if part_name not in out:
                    raise OUNElaborationError(
                        f"composition {comp.name!r}: unknown specification "
                        f"{part_name!r}"
                    )
            part_keys = tuple(keys[name] for name in comp.parts)
            ckey = composition_node_key(signature, comp, part_keys)
            comp_key = (ckey, norm)
            spec = self._composed.get(comp_key)
            hit = spec is not None
            # compositions fold already-normalized parts: one stage,
            # counted under "elaborate".
            record_stage("elaborate", hit=hit)
            if spec is None:
                with span("pipeline.compose", name=comp.name):
                    spec = elaborate_composition(out, comp)
            composed[comp_key] = spec
            out[comp.name] = spec
            keys[comp.name] = ckey
            builds.append(SpecBuild(comp.name, ckey, spec, hit))

        self._elaborated = elaborated
        self._normalized = normalized
        self._composed = composed
        return DocumentBuild(doc, tuple(builds))

    # -- maintenance -----------------------------------------------------

    def clear(self) -> None:
        """Drop every memo table (bench cold-path helper)."""
        self._parsed.clear()
        self._elaborated.clear()
        self._normalized.clear()
        self._composed.clear()

    def sizes(self) -> dict[str, int]:
        """Memo table sizes, for introspection and tests."""
        return {
            "parse": len(self._parsed),
            "elaborate": len(self._elaborated),
            "normalize": len(self._normalized),
            "compose": len(self._composed),
        }
