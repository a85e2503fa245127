"""Incremental build graph over the OUN compilation path.

``repro.pipeline`` models the spec lifecycle — parse → elaborate →
normalize → compile — as fingerprint-keyed stages.  Re-loading an
edited document re-runs only the stages whose *inputs* changed: node
identity comes from :mod:`repro.oun.identity` (AST fingerprints, not
machine content, because elaborated machines wrap closures), and each
stage keeps a memo table hit before any work is done.

The compile stage lives in :mod:`repro.service.registry` (each
registry's machines and dense images, reused by node and content key)
and :mod:`repro.checker.compile` (the on-disk DFA cache); both report
their reuse through :func:`record_stage` so the whole graph shares one
counter family, ``repro_pipeline_stage_{hits,misses}_total{stage=…}``.
A pipeline's memo holds only its previous successful build.

See ``docs/architecture.md`` for where the layer sits.
"""

from repro.pipeline.build import (
    DocumentBuild,
    SpecBuild,
    SpecPipeline,
    normalize_component,
    record_stage,
    stage_counts,
)

__all__ = [
    "DocumentBuild",
    "SpecBuild",
    "SpecPipeline",
    "normalize_component",
    "record_stage",
    "stage_counts",
]
