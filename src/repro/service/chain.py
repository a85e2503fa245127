"""The document in force: a start-up build plus its ordered updates.

A session's verdict means something only against one ``Γ``, so every
process that serves sessions must agree on it.  The document in force
is kept as one ordered chain: the start-up build, then every accepted
``UPDATE`` ``(scenario, text, force)`` in the order it was accepted.
Every registry is built by applying the chain through
:func:`apply_update`, the call the ``UPDATE`` verb makes, so a start, a
respawn, a restart and a live update take one path and end on the same
``(name, version)`` pairs.

Each chain has one owner: every :class:`~repro.service.server.MonitorServer`
with a data directory at one process, the
:class:`~repro.service.topology.ScaleOutServer` parent at ``--procs N``
(its workers keep none).  The owner keeps the chain in
``<data-dir>/chain.json`` (:class:`ChainStore`), written (tmp, fsync,
rename) after an ``UPDATE`` is found good and before it changes any
registry.  The file records its start-up build's
:meth:`~repro.service.registry.SpecRegistry.build_key`; a start from a
different build begins a new chain, so an operator who edits the served
document and restarts is never refused.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.errors import NESTING_MESSAGE, ReproError
from repro.obs.registry import get_registry
from repro.service.durability import DurabilityError
from repro.service.registry import SpecRegistry

__all__ = [
    "CHAIN_FILE",
    "ChainStore",
    "Entry",
    "apply_update",
    "build_registry",
    "decode_chain",
    "encode_chain",
    "load_update",
    "publish_versions",
]

#: The chain's file name, at the root of a data directory.
CHAIN_FILE = "chain.json"

#: One accepted update: ``(scenario, text, force)``, exactly one of the
#: first two set.
Entry = tuple[str | None, str | None, bool]


def publish_versions(registry: SpecRegistry) -> None:
    """Export each served spec's version: every process must agree on it."""
    metrics = get_registry()
    for name in registry.names():
        metrics.gauge(
            "repro_spec_version",
            {"spec": name},
            help="hot swaps of each served specification's build",
        ).set(registry.get(name).version)


def load_update(
    registry: SpecRegistry, scenario: str | None, text: str | None
):
    """An update's ``(specifications, node keys)``; nothing is swapped.

    Raises :class:`~repro.core.errors.ReproError` on an unknown scenario
    or a document that fails to parse or elaborate, including one nested
    too deeply for the recursive parsers.
    """
    if scenario is not None:
        from repro.workload.scenarios import get_scenario

        return get_scenario(scenario).specifications(), None
    try:
        build = registry.pipeline.load(text or "")
    except RecursionError:  # past the parsers, e.g. in elaboration
        raise ReproError(NESTING_MESSAGE) from None
    return build.specifications().values(), build.keys()


def apply_update(
    registry: SpecRegistry,
    scenario: str | None = None,
    text: str | None = None,
    force: bool = False,
    *,
    chain: ChainStore | None = None,
) -> str:
    """Hot-swap ``registry`` from a scenario or document; the OK detail.

    Existing sessions keep draining on the ``CompiledSpec`` they bound;
    new binds pick up the swapped builds, each with its own pre-encoded
    letter table.  A good update is appended to ``chain``, if given,
    before anything is swapped.  Raises
    :class:`~repro.core.errors.ReproError` when :func:`load_update`
    rejects the update or ``chain`` cannot record it, leaving the
    registry untouched.
    """
    specs, keys = load_update(registry, scenario, text)
    if chain is not None:
        chain.append((scenario, text, force))
    report = registry.update(specs, keys=keys, force=force)
    publish_versions(registry)
    touched = set(report.changed) | set(report.added)
    names = ",".join(sorted(touched)) or "-"
    return (
        f"update changed={len(report.changed)} "
        f"unchanged={len(report.unchanged)} added={len(report.added)} "
        f"specs={names}"
    )


def build_registry(
    scenario: str | None,
    text: str | None,
    updates=(),
    *,
    history_limit: int | None,
) -> SpecRegistry:
    """A chain's registry: its start-up source and ``updates``, in order."""
    registry = SpecRegistry((), history_limit=history_limit)
    apply_update(registry, scenario, text)
    for entry in updates:
        apply_update(registry, *entry)
    return registry


def encode_chain(source: str, updates) -> bytes:
    """A chain file's bytes."""
    return json.dumps(
        {
            "source": source,
            "updates": [
                {"scenario": scenario, "text": text, "force": force}
                for scenario, text, force in updates
            ],
        }
    ).encode("utf-8")


def decode_chain(blob: bytes) -> tuple[str, list[Entry]]:
    """A chain file's ``(source, updates)``; :class:`DurabilityError` if bad."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise DurabilityError(f"chain file is not JSON: {exc}") from None
    if (
        not isinstance(doc, dict)
        or not isinstance(doc.get("source"), str)
        or not isinstance(doc.get("updates"), list)
    ):
        raise DurabilityError("chain file needs a source and an update list")
    updates: list[Entry] = []
    for item in doc["updates"]:
        if not isinstance(item, dict) or set(item) != {
            "scenario",
            "text",
            "force",
        }:
            raise DurabilityError(f"malformed chain entry {item!r:.80}")
        scenario, text, force = item["scenario"], item["text"], item["force"]
        if (
            not isinstance(force, bool)
            or (scenario is None) == (text is None)
            or not isinstance(scenario if text is None else text, str)
        ):
            raise DurabilityError(f"malformed chain entry {item!r:.80}")
        updates.append((scenario, text, force))
    return doc["source"], updates


class ChainStore:
    """A chain's updates, kept in a data directory's chain file if any.

    :meth:`load` reads the chain at start: one ``open`` when there is
    none.  :meth:`append` rewrites the file with one more entry through
    a temporary file, fsynced, then renamed over the old one, so a crash
    leaves the old chain or the new one, and a leftover temporary file
    is never read.  Without a data directory the chain lives in memory.
    """

    def __init__(self, data_dir: str | Path | None, source: str) -> None:
        self.path = None if data_dir is None else Path(data_dir) / CHAIN_FILE
        self.source = source
        self.updates: list[Entry] = []

    def load(self) -> list[Entry]:
        """The stored updates in force for this start-up build.

        A chain from another start-up build is not applied: this build
        begins a new chain, which replaces the file at the first update.
        """
        if self.path is None:
            return []
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise DurabilityError(f"cannot read {self.path}: {exc}") from exc
        source, updates = decode_chain(blob)
        self.updates = updates if source == self.source else []
        return list(self.updates)

    def append(self, entry: Entry) -> None:
        """Durably add one good update, before it is applied anywhere."""
        updates = [*self.updates, entry]
        if self.path is None:
            self.updates = updates
            return
        tmp = self.path.with_name(CHAIN_FILE + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(encode_chain(self.source, updates))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)  # the rename itself
            finally:
                os.close(fd)
        except OSError as exc:
            raise DurabilityError(f"cannot record the update: {exc}") from exc
        self.updates = updates
