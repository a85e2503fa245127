"""The stable public API of ``repro`` — one flat, documented surface.

Everything a library consumer needs, re-exported (or thinly wrapped) from
the internal layers so those layers can keep moving without breaking
callers:

* :func:`parse` — OUN text → document AST;
* :func:`elaborate` — document AST → named core specifications;
* :func:`load` — both steps in one call (text → specifications);
* :func:`compile_spec` — specification → dense DFA over a finite
  universe (derived from the spec when not given);
* :func:`check` — a recorded trace against a specification, returning
  the monitor so callers can inspect violations;
* :func:`verify_refinement` — the paper's refinement relation
  ``concrete ⊑ abstract``, returning an explainable conclusion;
* :class:`Monitor` — the online monitor (``repro.runtime.SpecMonitor``);
* :func:`serve` — run the online-monitoring TCP service over a document;
* :func:`serve_http` — the TCP service plus the HTTP/JSON gateway;
* :func:`update_from_text` — hot-swap a *running* service's compiled
  specs from OUN document text;
* :func:`metrics_text` — this process's metrics registry as Prometheus
  text;
* :class:`Gateway` — a management facade over a running service:
  register documents, open sessions, send events, query
  status/violations, fan in per-worker metrics, each as a blocking
  method and as a coroutine on the gateway's own loop.  The HTTP
  gateway (:mod:`repro.gateway`) is a thin routing layer over exactly
  this class, which is what keeps it free of service internals.

These names are also importable from the top-level package
(``from repro import verify_refinement``); the package ``__init__``
resolves them lazily so importing a single submodule stays cheap.

:data:`API_VERSION` tracks the facade's own compatibility promise
(1.2.0 added the management surface: ``Gateway``, ``serve_http``,
``update_from_text``, ``metrics_text``).  2.0.0 removed the ``shards=``
keyword of :func:`serve` and :func:`serve_http`, since the server has
one session queue; it is a major version because callers that pass the
keyword break.  2.1.0 added :attr:`Gateway.loop` and one coroutine per
:class:`Gateway` operation (``asend_events``, ``asession_status``,
``aend_session``, ``adocuments``, ``aupdate_from_text``, ``asessions``,
``ametrics_text``, ``ahealth``), which the HTTP front awaits.  2.2.0:
:class:`Gateway` asks for wire proto 3 by default (``proto=3``), so an
ended session's backend connection carries the next key's session.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path
from typing import Iterable

from repro.core.errors import (
    ReproError,
    SessionStateError,
    SpecificationError,
    UnknownSessionError,
    UnknownSpecificationError,
)
from repro.runtime.monitor import SpecMonitor as Monitor

__all__ = [
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
]

#: The facade's compatibility version (semver); the module docstring
#: says what each minor and major version changed.
API_VERSION = "2.2.0"


def parse(text: str):
    """Parse OUN document text into its AST (:class:`~repro.oun.parser.Document`)."""
    from repro.oun.parser import parse_document

    return parse_document(text)


def elaborate(doc):
    """Elaborate a parsed document into named core specifications."""
    from repro.oun.elaborate import elaborate as _elaborate

    return _elaborate(doc)


def load(text: str):
    """Parse and elaborate OUN text: ``{name: Specification}``."""
    return elaborate(parse(text))


def compile_spec(spec, universe=None, *, state_limit: int = 100_000):
    """Compile a specification's trace set to a dense DFA.

    ``universe`` defaults to the finite universe derived from the
    specification itself (its objects plus the standard environment).
    """
    from repro.checker.compile import spec_dfa
    from repro.checker.universe import FiniteUniverse

    if universe is None:
        universe = FiniteUniverse.for_specs(spec)
    return spec_dfa(spec, universe, state_limit=state_limit)


def check(spec, events: Iterable) -> Monitor:
    """Check a recorded event sequence against a specification.

    Feeds every event to a fresh :class:`Monitor` and returns it —
    ``monitor.ok`` is the verdict, ``monitor.violations`` the evidence.
    """
    monitor = Monitor(spec)
    for event in events:
        monitor.observe(event)
    return monitor


def verify_refinement(concrete, abstract, universe=None, **kwargs):
    """Decide ``concrete ⊑ abstract`` (Definition 8, alphabet expansion).

    Returns the checker's conclusion object: truthy ``.holds`` plus an
    ``explain()`` narrative.  Keyword arguments (``strategy``, ``depth``,
    …) pass through to :func:`repro.checker.refinement.check_refinement`.
    """
    from repro.checker.refinement import check_refinement

    return check_refinement(concrete, abstract, universe, **kwargs)


def serve(
    document: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 7471,
    metrics_port: int | None = None,
) -> None:
    """Run the online-monitoring TCP service over an OUN document (blocking).

    ``document`` is a path to an ``.oun`` file.  ``metrics_port`` also
    serves ``GET /metrics`` (and ``GET /v1/metrics``) over HTTP: the
    Prometheus text the ``METRICS`` verb returns, through the gateway's
    metrics-only front (:class:`~repro.gateway.MetricsServer`); ``0``
    picks a port.  Returns when interrupted.
    """
    _serve(document, host, port, host=host, metrics_port=metrics_port)


def serve_http(
    document: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    http_host: str = "127.0.0.1",
    http_port: int = 8080,
) -> None:
    """Run the TCP service *and* the HTTP/JSON gateway over it (blocking).

    The library-level equivalent of ``repro serve FILE --http-port N``:
    one :class:`~repro.service.server.MonitorServer` on ``host:port``
    (``port=0`` picks an ephemeral one) fronted by the REST gateway of
    :mod:`repro.gateway` on ``http_host:http_port``.  See
    ``docs/http-api.md`` for the endpoint reference.
    """
    _serve(document, host, port, host=http_host, http_port=http_port)


def _serve(document: str | Path, host: str, port: int, /, **fronts) -> None:
    """Serve ``document`` on ``host:port`` with ``_http_fronts(**fronts)``.

    The one body of :func:`serve` and :func:`serve_http`; blocks until
    interrupted.
    """
    import asyncio

    from repro.service import MonitorServer, SpecRegistry

    registry = SpecRegistry.from_file(document)

    async def run() -> None:
        server = MonitorServer(registry, host=host, port=port)
        await server.start()
        try:
            async with _http_fronts(host, server.port, **fronts):
                await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def _backend_host(host: str) -> str:
    """A connectable address for a service bound to ``host``."""
    return "127.0.0.1" if host in ("0.0.0.0", "::") else host


@contextlib.asynccontextmanager
async def _http_fronts(
    backend_host: str,
    backend_port: int,
    *,
    host: str,
    http_port: int | None = None,
    metrics_port: int | None = None,
    metrics_interval: float | None = None,
    metrics_targets=None,
):
    """Open a :class:`Gateway` and its HTTP fronts beside a running server.

    ``backend_host:backend_port`` is the server; the fronts bind ``host``.
    Yields ``(http, metrics)``: the started REST front on ``http_port``
    and the metrics-only front on ``metrics_port``, ``None`` where a port
    is not asked for (``0`` picks one).  With ``metrics_interval`` set,
    :meth:`Gateway.metrics_text` goes to stderr every that many seconds.
    ``metrics_targets`` is the Gateway's: ``None`` scrapes the server
    itself, unmerged.  With nothing asked for, no Gateway opens.  Every
    front and the Gateway close on exit.
    """
    import asyncio
    import sys

    from repro.gateway import GatewayServer, MetricsServer

    if http_port is None and metrics_port is None and not metrics_interval:
        yield None, None
        return
    loop = asyncio.get_running_loop()
    gateway = Gateway(
        _backend_host(backend_host),
        backend_port,
        metrics_targets=metrics_targets,
    )
    # The Gateway speaks TCP to a server this loop may run, so each of
    # its blocking calls runs off-loop.
    await loop.run_in_executor(None, gateway.open)

    async def dump() -> None:
        while True:
            await asyncio.sleep(metrics_interval)
            try:
                text = await loop.run_in_executor(None, gateway.metrics_text)
            except (ReproError, OSError) as exc:  # a worker mid-respawn
                text = f"# metrics unavailable: {exc}\n"
            sys.stderr.write(text)
            sys.stderr.flush()

    http = metrics = dumper = None
    try:
        if http_port is not None:
            http = GatewayServer(gateway, host=host, port=http_port).start()
        if metrics_port is not None:
            metrics = MetricsServer(
                gateway, host=host, port=metrics_port
            ).start()
        if metrics_interval:
            dumper = asyncio.create_task(dump())
        yield http, metrics
    finally:
        if dumper is not None:
            dumper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await dumper
        for front in (http, metrics):
            if front is not None:
                await loop.run_in_executor(None, front.close)
        await loop.run_in_executor(None, gateway.close)


def metrics_text() -> str:
    """This process's metrics registry in Prometheus text exposition format.

    A snapshot of :func:`repro.obs.registry.get_registry` — the same text
    the service's ``METRICS`` verb returns.  ``--metrics-port`` serves
    :meth:`Gateway.metrics_text`, which is that text fetched from the
    server (merged across workers at ``--procs N``).
    """
    from repro.obs.registry import get_registry

    return get_registry().format_prometheus()


def _update_summary(fields: dict) -> dict:
    """Normalise the wire's UPDATE reply fields into a typed report."""
    specs = [n for n in fields.get("specs", "").split(",") if n and n != "-"]
    return {
        "changed": int(fields.get("changed", 0)),
        "unchanged": int(fields.get("unchanged", 0)),
        "added": int(fields.get("added", 0)),
        "specs": specs,
    }


def update_from_text(
    text: str | None = None,
    *,
    scenario: str | None = None,
    host: str = "127.0.0.1",
    port: int = 7471,
    force: bool = False,
    proto: int = 1,
    retries: int = 5,
) -> dict:
    """Hot-swap the compiled specs of a *running* service (the UPDATE verb).

    Exactly one of ``text`` (an OUN document) or ``scenario`` (a built-in
    workload scenario name) selects the source.  ``text`` is validated
    locally first, so syntax and elaboration problems raise their precise
    :class:`~repro.core.errors.ReproError` subclass before anything
    touches the wire.  ``force=True`` swaps in freshly compiled machines
    even when the content is unchanged.

    Returns ``{"changed": n, "unchanged": n, "added": n, "specs":
    [names]}`` — the server-side swap report.  Bound sessions drain on
    their old machines; only a rebind sees the new ones.
    """
    import asyncio

    from repro.service.client import MonitorClient

    if (text is None) == (scenario is None):
        raise ReproError(
            "update_from_text needs exactly one of text or scenario="
        )
    if text is not None:
        load(text)

    async def run() -> dict:
        client = MonitorClient(
            host, port, connect_retries=retries, proto=proto
        )
        await client.connect()
        try:
            fields = await client.update_document(
                text=text, scenario=scenario, force=force
            )
        finally:
            await client.close()
        return _update_summary(fields)

    return asyncio.run(run())


def _timed(method):
    """Bound the :class:`Gateway` coroutine ``method`` by its ``timeout``.

    The caller gets ``asyncio.TimeoutError`` once the timeout passes
    (the HTTP front answers ``504``), while the operation runs on to its
    end, so a session is never left halfway through an exchange with the
    service.
    """

    @functools.wraps(method)
    async def timed(self, *args, **kwargs):
        return await self._within(method(self, *args, **kwargs))

    return timed


class Gateway:
    """Management facade over a running monitoring service.

    One ``Gateway`` owns a private asyncio loop on a daemon thread and a
    pool of :class:`~repro.service.client.MonitorClient` connections into
    the TCP service (plain single-process servers and ``--procs N``
    scale-out topologies alike — it only ever speaks the public client
    protocol).  Each operation is one coroutine on that loop —
    :meth:`asend_events`, :meth:`asession_status`, :meth:`aend_session`,
    :meth:`adocuments`, :meth:`aupdate_from_text`, :meth:`asessions`,
    :meth:`ametrics_text` and :meth:`ahealth` — which code running on
    :attr:`loop` awaits, as the HTTP gateway (:mod:`repro.gateway`)
    does.  Each has a plain blocking twin without the ``a`` (
    :meth:`send_events`, …) that runs the coroutine on the loop and
    waits, safe to call from any *other* thread; called on the loop it
    would deadlock, so it raises :class:`~repro.core.errors.ReproError`.
    Every operation gives up after ``timeout`` seconds with
    ``asyncio.TimeoutError`` (the built-in :class:`TimeoutError` from
    Python 3.11), awaited or blocking alike.

    Sessions are keyed by caller-chosen names: the first
    :meth:`send_events` for a key opens a session (durable when
    requested and the server has a data directory) and later calls
    reuse it, so HTTP's stateless requests still map onto the service's
    sessions.  At proto 3 (the default) a connection outlives its
    session: :meth:`end_session` puts the ended session's connection on
    a short LIFO idle list, and the next key opens on it with one
    ``HELLO`` instead of a TCP connect.  Requests for one key are
    serialised by a per-key lock, which is dropped again once no session
    and no other request needs it.  Typed errors
    (:class:`~repro.core.errors.UnknownSpecificationError`,
    :class:`~repro.core.errors.UnknownSessionError`,
    :class:`~repro.core.errors.SessionStateError`) carry enough intent
    for the HTTP layer to map them to 4xx statuses.

    ``metrics_targets`` aims :meth:`metrics_text` at per-worker direct
    ports (a ``--procs N`` topology's ``worker_ports``) — pass a list of
    ``(host, port)`` pairs or a callable returning one (re-evaluated per
    scrape, so worker respawns are picked up).  Counters and histograms
    merge across workers; gauges are labeled by worker
    (:func:`repro.obs.merge.merge_prometheus`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7471,
        *,
        proto: int = 3,
        connect_retries: int = 5,
        timeout: float = 60.0,
        metrics_targets=None,
    ) -> None:
        self.host = host
        self.port = port
        self._proto = proto
        self._retries = connect_retries
        self._timeout = timeout
        self._metrics_targets = metrics_targets
        self._loop = None
        self._thread = None
        self._clients: dict[str, object] = {}
        #: Clients whose session ended on a connection kept open, the
        #: most recent last (at most ``_IDLE_CONNECTIONS``).
        self._idle: list = []
        #: key → [lock, requests holding or waiting on it]
        self._locks: dict[str, list] = {}

    # -- lifecycle -------------------------------------------------------

    @property
    def loop(self):
        """The private event loop the coroutines run on (None when closed)."""
        return self._loop

    def open(self) -> "Gateway":
        """Start the loop thread and probe the backend (fail fast)."""
        if self._loop is not None:
            return self
        import asyncio
        import threading

        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=loop.run_forever, name="repro-gateway-loop", daemon=True
        )
        thread.start()
        self._loop, self._thread = loop, thread
        try:
            self._call(self._within(self._spec_names()))
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Close every session connection and stop the loop thread."""
        import asyncio

        loop, thread = self._loop, self._thread
        if loop is None:
            return

        async def shutdown() -> None:
            # operations still waiting on the service (a timed-out one
            # runs on) and their callers end here, not with the loop
            others = asyncio.all_tasks() - {asyncio.current_task()}
            for task in others:
                task.cancel()
            await asyncio.gather(*others, return_exceptions=True)
            for client in [*self._clients.values(), *self._idle]:
                await client.disconnect()
            self._clients.clear()
            self._idle.clear()
            self._locks.clear()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), loop).result(
                self._timeout
            )
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()
            self._loop = self._thread = None

    def __enter__(self) -> "Gateway":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------

    def _call(self, coro):
        """Run ``coro`` on the loop and wait for it (the blocking twins)."""
        import asyncio
        import threading

        if self._loop is None:
            coro.close()
            raise ReproError(
                "gateway is not open (call open() or use it as a context manager)"
            )
        if self._thread.ident == threading.get_ident():
            coro.close()
            raise ReproError(
                "a blocking Gateway call on the gateway's own loop would "
                "deadlock; await its coroutine instead"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    async def _within(self, coro):
        """Await ``coro`` for at most ``timeout`` seconds (see :func:`_timed`).

        ``coro`` runs as one task.  The caller waits on a future that the
        task's end or one timer resolves, whichever comes first, so a
        timeout leaves the task running and a cancelled caller does not
        cancel it.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        task = loop.create_task(coro)
        released = loop.create_future()

        def release(_=None) -> None:
            if not released.done():
                released.set_result(None)

        task.add_done_callback(release)
        # A caller that stops waiting leaves an outcome nobody retrieves.
        task.add_done_callback(_retrieve)
        timer = loop.call_later(self._timeout, release)
        try:
            await released
        finally:
            timer.cancel()
        if task.done():
            return task.result()
        raise asyncio.TimeoutError()

    def _new_client(self):
        from repro.service.client import MonitorClient

        return MonitorClient(
            self.host,
            self.port,
            connect_retries=self._retries,
            proto=self._proto,
        )

    async def _round(self, fn):
        """One throwaway control connection: connect, run, close."""
        async with self._new_client() as client:
            return await fn(client)

    async def _attach(self, session: str | None):
        """A client attached for ``session``, on the last idled connection if any."""
        client = self._idle.pop() if self._idle else self._new_client()
        client.session, client.spec = session, None
        try:
            await client.connect()
        except BaseException:
            await client.disconnect()
            raise
        self._count_connect(client.reused)
        return client

    async def _end(self, client):
        """End ``client``'s session; keep its connection if the list has room."""
        status = await client.close()
        if client.idle and len(self._idle) < _IDLE_CONNECTIONS:
            self._idle.append(client)
        else:
            await client.disconnect()
        return status

    @staticmethod
    def _count_connect(reused: bool) -> None:
        from repro.obs.registry import get_registry

        get_registry().counter(
            "repro_gateway_backend_connects_total",
            (("reused", "1" if reused else "0"),),
            help="Sessions the gateway attached to the service, by whether "
            "they reused an idle connection.",
        ).inc()

    def _count(self, op: str) -> None:
        from repro.obs.registry import get_registry

        get_registry().counter(
            "repro_gateway_requests_total",
            (("op", op),),
            help="Gateway management operations, by op.",
        ).inc()

    @contextlib.asynccontextmanager
    async def _locked(self, key: str):
        """Hold ``key``'s lock; drop it when the key needs it no more.

        The lock goes once this request leaves no session for ``key``
        and no other request holds or waits on it, so failing requests
        for ever-new keys leave nothing behind.  A plain session whose
        backend link died is forgotten, so the next request for ``key``
        opens it afresh; a durable one resumes inside its client.
        Everything runs on the gateway loop, so the bookkeeping cannot
        race.
        """
        import asyncio

        entry = self._locks.get(key)
        if entry is None:
            entry = self._locks[key] = [asyncio.Lock(), 0]
        entry[1] += 1
        try:
            async with entry[0]:
                try:
                    yield
                except (ConnectionError, OSError):
                    client = self._clients.get(key)
                    if client is not None and not client.durable:
                        del self._clients[key]
                        await client.disconnect()
                    raise
        finally:
            entry[1] -= 1
            if not entry[1] and key not in self._clients:
                del self._locks[key]

    # -- documents -------------------------------------------------------

    def documents(self) -> list[str]:
        """Specification names the service currently serves."""
        return self._call(self.adocuments())

    @_timed
    async def adocuments(self) -> list[str]:
        """:meth:`documents` as a coroutine on :attr:`loop`."""
        self._count("documents")
        return await self._spec_names()

    async def _spec_names(self) -> list[str]:
        async def names(client):
            return list(client.server_specs)

        return await self._round(names)

    def update_from_text(
        self,
        text: str,
        *,
        force: bool = False,
        declares: str | None = None,
    ) -> dict:
        """Register/hot-swap an OUN document on the service (UPDATE).

        Validates locally first (typed parse/elaboration errors, no wire
        round-trip); with ``declares=NAME`` also requires the document to
        declare that specification — the HTTP gateway's
        ``PUT /v1/documents/{name}`` contract.  Returns the swap report
        of :func:`update_from_text`.
        """
        return self._call(
            self.aupdate_from_text(text, force=force, declares=declares)
        )

    @_timed
    async def aupdate_from_text(
        self,
        text: str,
        *,
        force: bool = False,
        declares: str | None = None,
    ) -> dict:
        """:meth:`update_from_text` as a coroutine on :attr:`loop`.

        The local validation runs in the loop's default executor, so a
        large document does not stall other sessions' requests.
        """
        import asyncio

        self._count("update")
        specs = await asyncio.get_running_loop().run_in_executor(
            None, load, text
        )
        if declares is not None and declares not in specs:
            names = ", ".join(sorted(specs)) or "none"
            raise SpecificationError(
                f"document does not declare specification {declares!r} "
                f"(declares: {names})"
            )

        async def update(client):
            return _update_summary(
                await client.update_document(text=text, force=force)
            )

        return await self._round(update)

    # -- sessions --------------------------------------------------------

    def sessions(self) -> list[str]:
        """Keys of the sessions this gateway holds open, sorted."""
        return self._call(self.asessions())

    @_timed
    async def asessions(self) -> list[str]:
        """:meth:`sessions` as a coroutine on :attr:`loop`."""
        self._count("sessions")
        return sorted(self._clients)

    def send_events(
        self,
        key: str,
        events,
        *,
        spec: str | None = None,
        durable: bool = False,
    ) -> dict:
        """Send event line(s) to session ``key``; return its status dict.

        ``events`` is one trace line or an iterable of them.  The first
        call for a key must name a ``spec`` and opens the session
        (``durable=True`` asks the server for a durable keyed session —
        honoured when it runs with a data directory, reported in the
        returned ``"durable"``/``"applied"`` fields).  Later calls may
        repeat the same spec but cannot switch it
        (:class:`~repro.core.errors.SessionStateError`).
        """
        return self._call(
            self.asend_events(key, events, spec=spec, durable=durable)
        )

    @_timed
    async def asend_events(
        self,
        key: str,
        events,
        *,
        spec: str | None = None,
        durable: bool = False,
    ) -> dict:
        """:meth:`send_events` as a coroutine on :attr:`loop`."""
        self._count("events")
        lines = (
            [events] if isinstance(events, str) else [str(e) for e in events]
        )
        async with self._locked(key):
            client = self._clients.get(key)
            if client is None:
                client = await self._open_session(key, spec, durable)
            elif spec is not None and spec != client.spec:
                raise SessionStateError(
                    f"session {key!r} is bound to {client.spec!r}; "
                    f"end it (or pick a new key) to check {spec!r}"
                )
            await client.send_trace(lines)
            status = await client.status()
            return self._status_payload(key, status, client.durable)

    def session_status(self, key: str) -> dict:
        """STATUS of session ``key``: counters, verdict, violation."""
        return self._call(self.asession_status(key))

    @_timed
    async def asession_status(self, key: str) -> dict:
        """:meth:`session_status` as a coroutine on :attr:`loop`."""
        self._count("status")
        async with self._locked(key):
            client = self._clients.get(key)
            if client is None:
                raise UnknownSessionError(f"no open session {key!r}")
            status = await client.status()
            return self._status_payload(key, status, client.durable)

    def end_session(self, key: str) -> dict:
        """Close session ``key``; returns its final status dict."""
        return self._call(self.aend_session(key))

    @_timed
    async def aend_session(self, key: str) -> dict:
        """:meth:`end_session` as a coroutine on :attr:`loop`."""
        self._count("end")
        async with self._locked(key):
            client = self._clients.pop(key, None)
            if client is None:
                raise UnknownSessionError(f"no open session {key!r}")
            durable = client.durable
            status = await self._end(client)
        if status is None:
            raise ConnectionError(
                f"session {key!r} lost its connection to the service"
            )
        payload = self._status_payload(key, status, durable)
        payload["closed"] = True
        return payload

    async def _open_session(self, key: str, spec: str | None, durable: bool):
        if spec is None:
            known = ", ".join(sorted(self._clients)) or "none"
            raise UnknownSessionError(
                f"no open session {key!r} (open: {known}); "
                "name a spec to open one"
            )
        client = await self._attach(key if durable else None)
        if spec not in client.server_specs:
            await self._end(client)
            have = ", ".join(client.server_specs) or "none"
            raise UnknownSpecificationError(
                f"no specification named {spec!r} (have: {have})"
            )
        try:
            await client.use_spec(spec)
        except BaseException:
            await client.disconnect()
            raise
        self._clients[key] = client
        return client

    @staticmethod
    def _status_payload(key, status, durable: bool) -> dict:
        violation = None
        if status.violation_index is not None:
            violation = {
                "index": status.violation_index,
                "event": status.violation_event,
            }
        return {
            "session": key,
            "spec": status.spec,
            "ok": status.ok,
            "events": status.events,
            "skipped": status.skipped,
            "errors": status.errors,
            "violation": violation,
            "applied": status.applied,
            "durable": durable,
        }

    # -- metrics / health ------------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus text across every metrics target (fan-in + merge)."""
        return self._call(self.ametrics_text())

    def health(self) -> dict:
        """Liveness probe: reaches the backend and reports the surface."""
        return self._call(self.ahealth())

    @_timed
    async def ahealth(self) -> dict:
        """:meth:`health` as a coroutine on :attr:`loop`."""
        self._count("health")
        specs = await self._spec_names()
        return {
            "status": "ok",
            "version": API_VERSION,
            "specs": specs,
            "sessions": len(self._clients),
        }

    def _targets(self) -> list[tuple[str, int]]:
        targets = self._metrics_targets
        if callable(targets):
            targets = targets()
        if not targets:
            return [(self.host, self.port)]
        return [(host, port) for host, port in targets]

    @_timed
    async def ametrics_text(self) -> str:
        """:meth:`metrics_text` as a coroutine on :attr:`loop`."""
        import asyncio

        self._count("metrics")

        async def fetch(host: str, port: int) -> str:
            from repro.service.client import MonitorClient

            async with MonitorClient(
                host, port, connect_retries=self._retries
            ) as client:
                return await client.metrics()

        targets = self._targets()
        texts = await asyncio.gather(*(fetch(h, p) for h, p in targets))
        if len(texts) == 1:
            merged = texts[0]
        else:
            from repro.obs.merge import merge_prometheus

            merged = merge_prometheus(list(enumerate(texts)))
        # Some families live in *this* process, not the scraped backends;
        # append them unless the backend shares our registry (one process)
        # and already reported them.
        prefixes = tuple(
            prefix
            for prefix in _LOCAL_PREFIXES
            if f"# TYPE {prefix}" not in merged
        )
        if prefixes:
            merged += _families(metrics_text(), prefixes)
        return merged


#: The families of the process that runs the gateway: its own request
#: and connect counters and the ``serve --watch`` poller's reload counters.
_LOCAL_PREFIXES = ("repro_gateway_", "repro_watch_")

#: Idle backend connections one :class:`Gateway` keeps for the keys it
#: opens next; a session that ends with the list full closes its own.
_IDLE_CONNECTIONS = 8


def _retrieve(task) -> None:
    """Mark a finished task's exception retrieved (nobody awaits it)."""
    if not task.cancelled():
        task.exception()


def _families(text: str, prefixes: tuple[str, ...]) -> str:
    """Just the families of an exposition dump named with ``prefixes``."""
    lines = []
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            name = parts[2] if len(parts) > 2 else ""
        else:
            name = line.split("{", 1)[0].split(" ", 1)[0]
        if name.startswith(prefixes):
            lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""
