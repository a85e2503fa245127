"""The gateway import ban: HTTP code talks to the facade, never internals.

The design invariant from docs/http-api.md: ``repro.gateway`` may import
the stdlib, ``repro.api``, ``repro.core.errors``, and itself — nothing
else from this codebase.  In particular ``repro.service.server`` and
``repro.service.wire`` stay invisible, so the wire protocol can change
without the HTTP surface noticing.
"""

from __future__ import annotations

import ast
import pathlib

import repro.gateway

PACKAGE_DIR = pathlib.Path(repro.gateway.__file__).parent

#: Absolute repro-module prefixes the gateway may import from.
ALLOWED = ("repro.api", "repro.core.errors", "repro.gateway")


def _violations(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro") and not alias.name.startswith(
                    ALLOWED
                ):
                    bad.append(f"{path.name}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import stays inside repro.gateway
                continue
            module = node.module or ""
            if not module.startswith("repro"):
                continue
            if module == "repro":
                # `from repro import X` — only the api facade is allowed
                for alias in node.names:
                    if alias.name != "api":
                        bad.append(
                            f"{path.name}: from repro import {alias.name}"
                        )
            elif not module.startswith(ALLOWED):
                bad.append(f"{path.name}: from {module} import ...")
    return bad


def test_gateway_never_imports_service_internals():
    violations = [
        v
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for v in _violations(path)
    ]
    assert not violations, "\n".join(violations)


def test_the_checker_itself_catches_a_ban(tmp_path):
    poisoned = tmp_path / "poisoned.py"
    poisoned.write_text(
        "from repro.service.server import MonitorServer\n"
        "import repro.service.wire\n"
        "from repro import serve\n"
    )
    assert len(_violations(poisoned)) == 3


#: Stdlib modules that would bring back a thread per connection.
THREADED = ("http.server", "socketserver", "threading")


def test_gateway_starts_no_threads_of_its_own():
    """The front runs on the Gateway's loop: no threaded server stack."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n in THREADED]
    assert not found, "\n".join(found)
