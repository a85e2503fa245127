"""repro — composition and refinement for partial object specifications.

A reproduction of Johnsen & Owe, *Composition and Refinement for Partial
Object Specifications* (Univ. of Oslo research report 301 / FMPPTA 2002):
a trace-based specification formalism for objects with identity, a
refinement relation with alphabet expansion, composition with hiding, an
exact symbolic/automata-based checker, an OUN-style notation, and a
runtime simulator with online monitors.

The stable public surface lives in :mod:`repro.api` and is re-exported
here lazily (PEP 562), so ``import repro.some.submodule`` never pays for
the full checker stack::

    from repro import load, verify_refinement

    specs = load(Path("spec.oun").read_text())
    print(verify_refinement(specs["Read2"], specs["Read"]).holds)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-claim index.
"""

__version__ = "2.2.0"

#: Names resolved lazily from :mod:`repro.api` on first attribute access.
#: Kept equal to ``api.__all__`` — tests/test_api.py enforces the sync.
_API_NAMES = frozenset(
    {
        "API_VERSION",
        "Gateway",
        "Monitor",
        "check",
        "compile_spec",
        "elaborate",
        "load",
        "metrics_text",
        "parse",
        "serve",
        "serve_http",
        "update_from_text",
        "verify_refinement",
    }
)

__all__ = sorted(_API_NAMES | {"__version__"})


def __getattr__(name: str):
    if name in _API_NAMES:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _API_NAMES)
