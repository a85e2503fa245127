"""The stable public facade: ``repro.api`` and the lazy top-level exports."""

import re
import warnings
from pathlib import Path

import pytest

import repro
import repro.api as api

DOC = """
object o, c
sort Objects = Obj \\ { o }
specification Read {
  objects o
  method R(Data)
  alphabet { <x, o, R(_)> where x : Objects; }
  traces true
}
specification Read2 {
  objects o
  method OR, CR, R(Data)
  alphabet {
    <x, o, OR>   where x : Objects;
    <x, o, CR>   where x : Objects;
    <x, o, R(_)> where x : Objects;
  }
  traces forall x : Objects . prs "[<x,o,OR> <x,o,R(_)>* <x,o,CR>]*"
}
"""


class TestSurface:
    def test_top_level_names_resolve_lazily(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_top_level_mirrors_api(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name)
        assert set(api.__all__) <= set(repro.__all__)

    def test_dir_lists_the_api(self):
        assert set(api.__all__) <= set(dir(repro))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_api_version(self):
        assert api.API_VERSION.count(".") == 2
        assert api.API_VERSION == repro.__version__
        major, minor, _patch = api.API_VERSION.split(".")
        assert (int(major), int(minor)) >= (1, 2)

    def test_package_metadata_version_matches(self):
        # A regex, not tomllib: the package supports Python 3.10.
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text(
            encoding="utf-8"
        )
        match = re.search(r'^version = "([^"]+)"$', text, re.M)
        assert match, "pyproject.toml has no version"
        assert match.group(1) == repro.__version__

    def test_lazy_names_stay_in_sync_with_api_all(self):
        # The package __init__ keeps its own frozenset of lazily
        # resolved names; adding to api.__all__ without updating it
        # would silently break `from repro import <new name>`.
        assert repro._API_NAMES == set(api.__all__)

    def test_management_surface_present(self):
        assert callable(api.update_from_text)
        assert callable(api.metrics_text)
        assert callable(api.serve_http)
        assert isinstance(api.Gateway, type)
        for name in ("Gateway", "update_from_text", "metrics_text"):
            assert getattr(api, name).__doc__

    def test_metrics_text_is_prometheus(self):
        from repro.obs.registry import use_registry

        with use_registry() as reg:
            reg.counter("repro_api_test_total", help="probe").inc(3)
            text = api.metrics_text()
        assert "# TYPE repro_api_test_total counter" in text
        assert "repro_api_test_total 3" in text

    def test_facade_imports_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro import (  # noqa: F401
                Monitor,
                check,
                compile_spec,
                elaborate,
                load,
                parse,
                serve,
                verify_refinement,
            )


class TestRoundTrip:
    def test_parse_elaborate_load(self):
        doc = repro.parse(DOC)
        specs = repro.elaborate(doc)
        assert set(specs) == {"Read", "Read2"}
        assert set(repro.load(DOC)) == {"Read", "Read2"}

    def test_verify_refinement(self):
        specs = repro.load(DOC)
        conclusion = repro.verify_refinement(specs["Read2"], specs["Read"])
        assert conclusion.holds
        assert not repro.verify_refinement(
            specs["Read"], specs["Read2"]
        ).holds

    def test_compile_spec_defaults_universe(self):
        specs = repro.load(DOC)
        dfa = repro.compile_spec(specs["Read2"])
        assert dfa.n_states > 0 and dfa.n_letters > 0

    def test_check_returns_a_monitor(self):
        specs = repro.load(DOC)
        monitor = repro.check(specs["Read2"], [])
        assert isinstance(monitor, repro.Monitor)
        assert monitor.ok


def _serve_and_ask(tmp_path, call: str, requests):
    """Run ``api.<call>`` over DOC in a child process; its HTTP replies.

    ``call`` names the document as ``{doc}`` and the free port the front
    binds as ``{port}``; each request is ``(method, path, body)`` and each reply ``(status, body)``.
    SIGINT then ends the child the way ^C ends ``repro serve``.
    """
    import http.client
    import os
    import signal
    import socket
    import subprocess
    import sys
    import time

    doc = tmp_path / "rw.oun"
    doc.write_text(DOC)
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro import api; "
         f"api.{call.format(doc='sys.argv[1]', port=port)}",
         str(doc)],
        env=env,
    )
    replies = []
    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                conn.connect()
                break
            except ConnectionRefusedError:
                assert proc.poll() is None, f"api.{call} exited"
                assert time.monotonic() < deadline, f"api.{call} never bound"
                time.sleep(0.1)
        for method, path, body in requests:
            conn.request(method, path, body=body)
            reply = conn.getresponse()
            replies.append((reply.status, reply.read()))
        conn.close()
    finally:
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
    return replies


class TestServe:
    def test_metrics_port_is_the_metrics_only_front(self, tmp_path):
        scrape, refused = _serve_and_ask(
            tmp_path,
            "serve({doc}, port=0, metrics_port={port})",
            [
                ("GET", "/metrics", None),
                ("POST", "/v1/sessions/k/events", b'{"event": "x"}'),
            ],
        )
        assert scrape[0] == 200
        assert b"\nrepro_monitor_events_total " in scrape[1]
        assert refused[0] == 404

    def test_serve_http_fronts_the_rest_gateway(self, tmp_path):
        events = b'{"spec": "Read2", "events": ["c -> o : OR", "c -> o : CR"]}'
        health, posted = _serve_and_ask(
            tmp_path,
            "serve_http({doc}, http_port={port})",
            [
                ("GET", "/v1/healthz", None),
                ("POST", "/v1/sessions/k/events", events),
            ],
        )
        assert health[0] == 200
        assert posted[0] == 200, posted
        assert b'"violation": null' in posted[1]
