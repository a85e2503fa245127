"""The one-ingest-core lint: only the session core decodes event inputs.

Live text and binary handlers and crash replay all feed inputs through
:class:`repro.service.session.Session`, so a live run and its replay
compute the same verdict by construction.  A second call of the input
decoders anywhere in ``repro.service`` would be a second ingest path
that can drift from the first; this test keeps it from creeping back.
"""

from __future__ import annotations

import ast
import pathlib

import repro.service

PACKAGE_DIR = pathlib.Path(repro.service.__file__).parent

#: Input decoders that only the core may call.
DECODERS = ("parse_line", "unpack_event_ids")


def _call_sites(path: pathlib.Path) -> list[tuple[str, str]]:
    """``(decoder, "file:line")`` per call of a decoder, however it is spelled."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in DECODERS:
            sites.append((name, f"{path.name}:{node.lineno}"))
    return sites


def test_each_input_decoder_has_one_call_site_in_the_core():
    sites = [
        site for path in sorted(PACKAGE_DIR.glob("*.py")) for site in _call_sites(path)
    ]
    for decoder in DECODERS:
        where = [place for name, place in sites if name == decoder]
        assert len(where) == 1, f"{decoder} called at {where}"
        assert where[0].startswith("session.py:"), where


def test_the_checker_sees_every_spelling(tmp_path):
    poisoned = tmp_path / "poisoned.py"
    poisoned.write_text(
        "from repro.runtime.tracefile import parse_line\n"
        "parse_line('x')\n"
        "tracefile.parse_line('x')\n"
        "wire.unpack_event_ids(b'')\n"
    )
    assert [name for name, _ in _call_sites(poisoned)] == [
        "parse_line",
        "parse_line",
        "unpack_event_ids",
    ]
