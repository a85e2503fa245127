"""Documentation integrity: relative links resolve, docs stay wired in.

The ``docs-check`` CI job runs this module (plus the protocol
docstring/verb-table agreement tests) so the docs tree cannot rot
silently: every relative markdown link in README.md, DESIGN.md, and
docs/ must point at a file that exists, and the normative documents
must keep referencing each other.
"""

import argparse
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Every markdown file whose links are checked.
DOCUMENTS = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", REPO / "CHANGES.md"]
    + list((REPO / "docs").glob("*.md")),
    key=lambda p: p.as_posix(),
)

#: ``[text](target)`` markdown links, excluding images' inner brackets.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(doc: Path) -> list[str]:
    targets = []
    for target in _LINK.findall(doc.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        targets.append(target)
    return targets


class TestRelativeLinks:
    def test_documents_exist(self):
        # the glob above must actually pick the docs tree up
        names = {doc.name for doc in DOCUMENTS}
        assert {
            "wire-protocol.md",
            "architecture.md",
            "cli.md",
            "http-api.md",
        } <= names

    @pytest.mark.parametrize(
        "doc", DOCUMENTS, ids=[d.relative_to(REPO).as_posix() for d in DOCUMENTS]
    )
    def test_no_dead_relative_links(self, doc):
        dead = []
        for target in _relative_links(doc):
            path = (doc.parent / target.partition("#")[0]).resolve()
            if not path.exists():
                dead.append(target)
        assert not dead, f"{doc.relative_to(REPO)}: dead links {dead}"


class TestCrossReferences:
    """The normative chain must stay intact, not just resolvable."""

    def test_readme_links_into_docs_tree(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        for target in (
            "docs/wire-protocol.md",
            "docs/architecture.md",
            "docs/cli.md",
            "docs/http-api.md",
        ):
            assert target in text, f"README no longer links {target}"

    def test_protocol_docstring_names_the_normative_spec(self):
        import repro.service.protocol as protocol
        import repro.service.wire as wire

        assert "docs/wire-protocol.md" in protocol.__doc__
        assert "docs/wire-protocol.md" in wire.__doc__

    def test_design_section_13_cross_links_wire_protocol(self):
        text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        assert "## 13." in text
        section = text.partition("## 13.")[2]
        assert "docs/wire-protocol.md" in section

    def test_design_section_16_cross_links_http_api(self):
        text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        assert "## 16." in text
        section = text.partition("## 16.")[2]
        assert "docs/http-api.md" in section

    def test_http_api_doc_covers_the_surface(self):
        text = (REPO / "docs" / "http-api.md").read_text(encoding="utf-8")
        # the anchors the gateway tests are written against
        for needle in (
            "/v1/healthz",
            "/v1/documents",
            "/v1/sessions",
            "/v1/metrics",
            '"error"',
            '"kind"',
            "409",
            "merge_prometheus",
            "repro gateway",
            "--http-port",
        ):
            assert needle in text, f"http-api.md lost {needle!r}"

    def test_gateway_module_names_the_normative_spec(self):
        import repro.gateway as gateway
        import repro.gateway.app as app

        assert "docs/http-api.md" in (gateway.__doc__ + app.__doc__)

    def test_wire_protocol_doc_covers_both_framings(self):
        text = (REPO / "docs" / "wire-protocol.md").read_text(encoding="utf-8")
        # the anchors the interop tests are written against
        for needle in (
            "proto=1",
            "proto=2",
            "LETTERS",
            "EVENTS",
            "MAX_FRAME",
            "HELLO proto=",
            "little-endian",
        ):
            assert needle in text, f"wire-protocol.md lost {needle!r}"


def _parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--flag`` of ``parser`` and of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


class TestCliReference:
    """docs/cli.md and the argument parser name the same flags."""

    def test_documented_flags_match_the_parser(self):
        from repro.cli import build_parser

        text = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
        parsed = _parser_flags(build_parser()) - {"--help"}
        assert sorted(documented - parsed) == [], "documented, not parsed"
        assert sorted(parsed - documented) == [], "parsed, not documented"
