"""Incremental build-graph benchmark: cold load vs one-spec-edit reload.

Builds a three-spec OUN document where the two *unchanged* specs carry
most of the compilation weight (long ``prs`` chains, large dense state
spaces) and the edited spec is small — the shape hot reloads actually
take.  Two claims are checked on every run:

* **incrementality** — reloading the edited document re-runs exactly
  the edited spec's elaborate/normalize/compile stages; the unchanged
  specs are stage *hits* (asserted via the
  ``repro_pipeline_stage_{hits,misses}_total`` counter family);
* **speedup** — the incremental reload is at least ``MIN_SPEEDUP``×
  faster than a cold build of the same edited document (the acceptance
  gate of the build-graph work; see docs/architecture.md).

Runs under the pytest-benchmark harness *and* standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline.py -q
    PYTHONPATH=src python benchmarks/bench_pipeline.py

The standalone form persists ``BENCH_pipeline_reload.json`` when
``REPRO_BENCH_DIR`` is set (repro-bench/1 schema).
"""

from __future__ import annotations

import time

import pytest

from repro.pipeline import stage_counts
from repro.service.registry import SpecRegistry

#: Per-spec ``prs`` chain lengths: two heavy neighbours, one light spec
#: (S1) that the reload edits.
CHAINS = (60, 5, 60)
EDITED = 1

#: The acceptance gate: a one-spec edit must reload at least this many
#: times faster than a cold build of the same document.
MIN_SPEEDUP = 3.0

REPEAT = 5

EVENT = "<c,o,M(_)>"


def _spec(name: str, chain: int) -> str:
    body = " ".join([EVENT] * chain) + f" {EVENT}*"
    return (
        f"specification {name} {{\n"
        f"  objects o\n"
        f"  method M(Data)\n"
        f"  alphabet {{ {EVENT} ; }}\n"
        f'  traces prs "{body}"\n'
        f"}}"
    )


def _document(edit: int = 0) -> str:
    parts = ["object o", "object c"]
    for i, chain in enumerate(CHAINS):
        parts.append(_spec(f"S{i}", chain + (edit if i == EDITED else 0)))
    return "\n".join(parts)


OLD_DOC = _document()
NEW_DOC = _document(edit=1)


def _cold() -> float:
    """Seconds to build the edited document in a new registry."""
    t0 = time.perf_counter()
    SpecRegistry.from_text(NEW_DOC)
    return time.perf_counter() - t0


def _incremental() -> float:
    """Seconds to hot-reload the edited document over warm memos."""
    registry = SpecRegistry.from_text(OLD_DOC)
    t0 = time.perf_counter()
    report = registry.update_from_text(NEW_DOC)
    seconds = time.perf_counter() - t0
    assert report.changed == (f"S{EDITED}",), report
    return seconds


def check_incrementality() -> None:
    """Only the edited spec's stages re-run on the warm reload."""
    registry = SpecRegistry.from_text(OLD_DOC)
    before = stage_counts()
    registry.update_from_text(NEW_DOC)
    after = stage_counts()

    def delta(stage: str, kind: str) -> int:
        return after[(stage, kind)] - before[(stage, kind)]

    n_unchanged = len(CHAINS) - 1
    assert delta("parse", "miss") == 1  # the text did change
    assert delta("elaborate", "hit") == n_unchanged
    assert delta("elaborate", "miss") == 1
    assert delta("normalize", "hit") == n_unchanged
    assert delta("normalize", "miss") == 1
    assert delta("compile", "hit") == n_unchanged
    assert delta("compile", "miss") == 1


@pytest.mark.parametrize("label", ["cold", "incremental"])
def bench_pipeline_reload(benchmark, label):
    fn = _cold if label == "cold" else _incremental
    seconds = benchmark(fn)
    benchmark.extra_info["path"] = label
    if seconds:
        benchmark.extra_info["reload_ms"] = round(seconds * 1e3, 3)


def main() -> None:
    from repro.workload.results import maybe_write_bench

    check_incrementality()
    print("incrementality: only the edited spec's stages re-ran")

    cold = min(_cold() for _ in range(REPEAT))
    incremental = min(_incremental() for _ in range(REPEAT))
    speedup = cold / incremental
    print(f"cold build:         {cold * 1e3:8.2f} ms")
    print(f"incremental reload: {incremental * 1e3:8.2f} ms")
    print(f"speedup: {speedup:.1f}× (gate: {MIN_SPEEDUP}×)")
    assert speedup >= MIN_SPEEDUP, (
        f"incremental reload is only {speedup:.1f}× cold "
        f"(gate: {MIN_SPEEDUP}×)"
    )
    runs = [
        {"label": "cold", "seconds": round(cold, 6), "repeat": REPEAT},
        {
            "label": "incremental",
            "seconds": round(incremental, 6),
            "repeat": REPEAT,
        },
    ]
    path = maybe_write_bench(
        "pipeline_reload",
        {
            "chains": list(CHAINS),
            "edited_spec": f"S{EDITED}",
            "min_speedup": MIN_SPEEDUP,
            "speedup": round(speedup, 2),
        },
        runs,
    )
    if path is not None:
        print(f"→ {path}")


if __name__ == "__main__":
    main()
