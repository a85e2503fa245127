"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``claims [--details] [--env-objects N]`` — replay every numbered claim
  and worked example of the paper (the PVS-replay run);
* ``parse FILE.oun`` — parse and elaborate an OUN document, listing the
  specifications it declares;
* ``check FILE.oun --refines CONCRETE ABSTRACT`` — decide a refinement
  between two specifications declared in the document;
* ``check FILE.oun --equal A B`` — decide extensional equality;
* ``check FILE.oun --compose A B`` — compose two specifications, printing
  the composability report and the observable alphabet;
* ``deadlock FILE.oun SPEC`` — quiescence/deadlock analysis of a
  specification over a finite universe;
* ``monitor FILE.oun SPEC TRACE`` — check a recorded trace (or ``-`` to
  stream events from stdin) against a specification;
* ``serve FILE.oun`` / ``serve --scenario NAME`` — run the
  online-monitoring TCP service over the document's specifications, or
  over a built-in workload scenario's (``--http-port N`` also serves
  the HTTP/JSON gateway, see docs/http-api.md);
* ``gateway`` — run the HTTP/JSON gateway standalone, in front of an
  already-running monitoring service;
* ``send TRACE`` — stream a trace to a running service and report the
  session verdict;
* ``workload list`` — list the built-in multiparty-protocol scenarios;
* ``workload run SCENARIO`` — generate seeded (optionally
  fault-injected) event streams from a scenario, drive them through the
  service, and check the observed verdicts against the generator's
  violation oracle;
* ``workload verify SCENARIO`` — discharge a scenario's
  refinement/composition claims through the obligation engine;
* ``explain FILE.oun SPEC [--compose OTHER ...]`` — show what the
  normalization pipeline does to a specification: the machine tree
  before and after, and per-pass rewrite counts;
* ``profile FILE.oun SPEC`` — run the full pipeline (elaborate →
  normalize → compile cold and warm → check) with tracing on and print
  the nested span tree with per-phase wall time.

Exit status is 0 when the query's answer is positive (refines / equal /
composable / deadlock-free; for ``claims``, full agreement; for
``monitor``/``send``, no violation; for ``workload run``, every session
agreeing with the oracle), 1 otherwise, 2 for usage or input errors.

The obligation-running commands (``claims``, ``check --refines/--equal``,
``verify``) accept ``--jobs N`` to fan independent obligations out to
worker processes and ``--cache-dir DIR`` to reuse compiled machines
across runs (``REPRO_CACHE_DIR`` sets a default; ``--no-cache`` forces
the cache off).  ``--no-normalize`` compiles raw trace sets, skipping the
normalization pipeline.  Results are independent of all three knobs — see
``repro.checker.engine`` and ``repro.passes``.  These flags live on one
shared parent parser, as does ``--obs-spans PATH`` (every subcommand):
stream every finished span of the run to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from repro.checker.engine import EngineConfig, ObligationEngine, ObligationSource
from repro.checker.universe import FiniteUniverse
from repro.core.composition import check_composable, compose
from repro.core.errors import ReproError
from repro.core.specification import Specification

__all__ = ["main", "build_parser"]


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags: every subcommand accepts these."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--obs-spans",
        default=None,
        metavar="PATH",
        help="write every finished span of this run to PATH as JSON lines",
    )
    return parent


def _engine_parent() -> argparse.ArgumentParser:
    """Shared engine flags for the obligation-running subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run obligations on N worker processes (default 1: inline)",
    )
    parent.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-obligation timeout (enforced when --jobs > 1)",
    )
    parent.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed machine cache directory "
        "(default: $REPRO_CACHE_DIR if set, else no cache)",
    )
    parent.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the machine cache even if REPRO_CACHE_DIR is set",
    )
    parent.add_argument(
        "--no-normalize",
        action="store_true",
        help="compile raw trace sets, skipping the normalization pipeline "
        "(results are identical; only work and cache keys change)",
    )
    return parent


def _engine_config(args) -> EngineConfig:
    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    if args.no_cache:
        cache_dir = None
    return EngineConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        cache_dir=cache_dir,
        normalize=not args.no_normalize,
    )


def _run_engine(source: ObligationSource, config: EngineConfig, out):
    """Run a source through the engine, printing stats when interesting."""
    run = ObligationEngine(config).run(source)
    if config.cache_dir is not None:
        m = run.metrics
        print(
            f"cache: {m.cache_hits} hits, {m.cache_misses} misses, "
            f"{m.cache_uncacheable} uncacheable "
            f"({m.cache_stores} stored; dir {config.cache_dir})",
            file=out,
        )
    if config.jobs > 1:
        print(
            f"engine: {len(run.session.outcomes)} obligations on "
            f"{run.jobs} workers in {run.wall_seconds:.2f}s",
            file=out,
        )
    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Composition and refinement for partial object "
        "specifications — checker CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs = _obs_parent()
    engine = _engine_parent()

    p_claims = sub.add_parser(
        "claims", help="replay the paper's claims", parents=[obs, engine]
    )
    p_claims.add_argument("--details", action="store_true")
    p_claims.add_argument("--env-objects", type=int, default=2)

    p_parse = sub.add_parser(
        "parse", help="parse an OUN document", parents=[obs]
    )
    p_parse.add_argument("file", type=Path)
    p_parse.add_argument(
        "--format",
        action="store_true",
        help="print the canonically formatted document instead of a summary",
    )

    p_monitor = sub.add_parser(
        "monitor",
        help="check a recorded trace file against a specification",
        parents=[obs],
    )
    p_monitor.add_argument("file", type=Path, help="OUN document")
    p_monitor.add_argument("spec", help="specification name")
    p_monitor.add_argument(
        "trace", help="trace file, or '-' to stream events from stdin"
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the online-monitoring service over an OUN document",
        parents=[obs],
    )
    p_serve.add_argument(
        "file",
        type=Path,
        nargs="?",
        help="OUN document with the specs (or use --scenario)",
    )
    p_serve.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="serve a built-in workload scenario's specifications instead "
        "of an OUN document (see 'repro workload list')",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7471, help="TCP port (0 picks one)"
    )
    p_serve.add_argument(
        "--history-limit",
        type=int,
        default=4096,
        help="bounded per-monitor event window",
    )
    p_serve.add_argument(
        "--procs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (N > 1 runs the scale-out topology behind "
        "one SO_REUSEPORT port; platforms without it refuse N > 1)",
    )
    p_serve.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        metavar="PATH",
        help="durable-session data directory: append-only event logs + "
        "monitor snapshots, replayed when a session key reconnects "
        "(survives worker crashes and restarts)",
    )
    p_serve.add_argument(
        "--watch",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="poll a document for edits and hot-swap the live registry "
        "(bare --watch follows the served FILE.oun)",
    )
    p_serve.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print the METRICS exposition to stderr every SECONDS "
        "(merged across workers with --procs > 1)",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve GET /metrics (Prometheus text) on PORT "
        "(0 picks one; with --procs > 1 merged across workers)",
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve the HTTP/JSON gateway on PORT (0 picks one); "
        "REST endpoints over the same service — see docs/http-api.md",
    )

    p_gateway = sub.add_parser(
        "gateway",
        help="HTTP/JSON gateway in front of a running monitoring service",
        parents=[obs],
    )
    p_gateway.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    p_gateway.add_argument(
        "--http-port",
        type=int,
        default=8080,
        metavar="PORT",
        help="HTTP port (0 picks one)",
    )
    p_gateway.add_argument(
        "--backend-host", default="127.0.0.1", help="monitoring service host"
    )
    p_gateway.add_argument(
        "--backend-port",
        type=int,
        default=7471,
        help="monitoring service TCP port",
    )
    p_gateway.add_argument(
        "--metrics-backend",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="aggregate GET /v1/metrics over these endpoints instead of "
        "the backend (repeat once per worker direct port)",
    )
    p_gateway.add_argument(
        "--retries",
        type=int,
        default=5,
        help="backend connect retries (with backoff)",
    )

    p_send = sub.add_parser(
        "send",
        help="stream a trace to a running monitoring service",
        parents=[obs],
    )
    p_send.add_argument("trace", help="trace file, or '-' to read stdin")
    p_send.add_argument("--spec", required=True, help="specification name")
    p_send.add_argument("--host", default="127.0.0.1")
    p_send.add_argument("--port", type=int, default=7471)
    p_send.add_argument(
        "--retries", type=int, default=5, help="connect retries (with backoff)"
    )
    p_send.add_argument(
        "--binary",
        action="store_true",
        help="request the proto=2 binary framing (text when the server "
        "grants only version 1)",
    )
    p_send.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="EVENTS ids per binary batch (default: the client's)",
    )

    p_reload = sub.add_parser(
        "reload",
        help="hot-swap the compiled specs of a running monitoring service",
        parents=[obs],
    )
    p_reload.add_argument(
        "file",
        type=Path,
        nargs="?",
        help="OUN document with the new specs (or use --scenario)",
    )
    p_reload.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="rebuild a built-in workload scenario's specs instead of "
        "sending an OUN document",
    )
    p_reload.add_argument("--host", default="127.0.0.1")
    p_reload.add_argument("--port", type=int, default=7471)
    p_reload.add_argument(
        "--retries", type=int, default=5, help="connect retries (with backoff)"
    )
    p_reload.add_argument(
        "--binary",
        action="store_true",
        help="send the update over the proto=2 binary framing",
    )
    p_reload.add_argument(
        "--force",
        action="store_true",
        help="swap in freshly compiled machines even for unchanged specs",
    )

    p_check = sub.add_parser(
        "check",
        help="check a query over an OUN document",
        parents=[obs, engine],
    )
    p_check.add_argument("file", type=Path)
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--refines", nargs=2, metavar=("CONCRETE", "ABSTRACT"))
    group.add_argument("--equal", nargs=2, metavar=("A", "B"))
    group.add_argument("--compose", nargs=2, metavar=("A", "B"))
    p_check.add_argument("--env-objects", type=int, default=2)
    p_check.add_argument("--data-values", type=int, default=1)
    p_check.add_argument(
        "--strategy", choices=("auto", "automata", "bounded"), default="auto"
    )
    p_check.add_argument("--depth", type=int, default=8)

    p_matrix = sub.add_parser(
        "matrix",
        help="pairwise refinement matrix of a document's specs",
        parents=[obs],
    )
    p_matrix.add_argument("file", type=Path)
    p_matrix.add_argument("spec", nargs="*", help="subset of specs (default all)")
    p_matrix.add_argument("--env-objects", type=int, default=2)

    p_verify = sub.add_parser(
        "verify",
        help="discharge the assertions of an OUN document",
        parents=[obs, engine],
    )
    p_verify.add_argument("file", type=Path)
    p_verify.add_argument("--env-objects", type=int, default=2)
    p_verify.add_argument("--data-values", type=int, default=1)
    p_verify.add_argument(
        "--strategy", choices=("auto", "automata", "bounded"), default="auto"
    )

    p_dead = sub.add_parser(
        "deadlock", help="quiescence analysis of a spec", parents=[obs]
    )
    p_dead.add_argument("file", type=Path)
    p_dead.add_argument("spec", nargs="+")
    p_dead.add_argument("--env-objects", type=int, default=2)

    p_explain = sub.add_parser(
        "explain",
        help="show what normalization does to a specification "
        "(before/after machine tree, per-pass rewrite counts), or diff "
        "two documents post-normalization with --diff",
        parents=[obs],
    )
    p_explain.add_argument(
        "file", type=Path, nargs="?", help="OUN document (omit with --diff)"
    )
    p_explain.add_argument(
        "spec", nargs="?", help="specification name (omit with --diff)"
    )
    p_explain.add_argument(
        "--compose",
        nargs="+",
        metavar="SPEC",
        default=(),
        help="compose the named specs onto SPEC first, then explain the "
        "composition",
    )
    p_explain.add_argument(
        "--diff",
        nargs=2,
        type=Path,
        metavar=("OLD", "NEW"),
        default=None,
        help="diff two OUN documents post-normalization: specs "
        "added/removed, machines changed by content fingerprint, "
        "alphabet deltas (exit 1 when the documents differ)",
    )

    p_workload = sub.add_parser(
        "workload",
        help="multiparty-protocol scenarios: generate fault-injected "
        "streams, drive the service, check the violation oracle",
    )
    wsub = p_workload.add_subparsers(dest="workload_command", required=True)

    wsub.add_parser(
        "list", help="list the built-in scenarios", parents=[obs]
    )

    w_run = wsub.add_parser(
        "run",
        help="drive one scenario's streams through the service and "
        "compare verdicts with the oracle",
        parents=[obs],
    )
    w_run.add_argument("scenario", help="scenario name")
    w_run.add_argument(
        "--seed", type=int, default=0, help="run seed (session i uses SEED:i)"
    )
    w_run.add_argument(
        "--faults",
        default="",
        metavar="reorder=P,dup=P,drop=P",
        help="per-event fault probabilities (default: none)",
    )
    w_run.add_argument(
        "--sessions", type=int, default=4, help="concurrent sessions"
    )
    w_run.add_argument(
        "--events",
        type=int,
        default=200,
        metavar="N",
        help="happy-path events per session (per batch with --duration)",
    )
    w_run.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep streaming batches until the deadline instead of "
        "stopping after one batch of --events",
    )
    w_run.add_argument(
        "--host", default=None, help="drive an external service (with --port)"
    )
    w_run.add_argument(
        "--port",
        type=int,
        default=None,
        help="external service port (default: a hermetic in-process server)",
    )
    w_run.add_argument(
        "--history-limit",
        type=int,
        default=4096,
        help="bounded per-monitor event window (in-process server)",
    )
    w_run.add_argument(
        "--binary",
        action="store_true",
        help="drive the streams over the proto=2 binary framing",
    )
    w_run.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="EVENTS ids per binary batch (default: the client's)",
    )
    w_run.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="N",
        help="drive a hermetic N-process scale-out server instead of the "
        "in-process one",
    )
    w_run.add_argument(
        "--data-dir",
        default=None,
        metavar="PATH",
        help="durable-session data directory for the hermetic server "
        "(default with --durable: a temporary directory)",
    )
    w_run.add_argument(
        "--durable",
        action="store_true",
        help="give every session an idempotency key so streams survive "
        "server crashes exactly-once",
    )
    w_run.add_argument(
        "--kill-at",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="SIGKILL a random worker once N total events have been sent "
        "(repeatable; needs --procs and --durable)",
    )
    w_run.add_argument(
        "--bench-out",
        default=None,
        metavar="PATH",
        help="persist a BENCH_workload_<scenario>.json (fault-free "
        "baseline plus the requested run) to PATH (file or directory)",
    )

    w_verify = wsub.add_parser(
        "verify",
        help="discharge a scenario's refinement/composition claims",
        parents=[obs, engine],
    )
    w_verify.add_argument("scenario", help="scenario name")

    p_profile = sub.add_parser(
        "profile",
        help="trace one full pipeline run (elaborate → normalize → compile "
        "cold/warm → check) and print the span tree with per-phase time",
        parents=[obs],
    )
    p_profile.add_argument("file", type=Path, help="OUN document")
    p_profile.add_argument("spec", help="specification name")
    p_profile.add_argument("--env-objects", type=int, default=2)
    p_profile.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="machine cache for the cold/warm compile pair "
        "(default: a temporary directory)",
    )
    p_profile.add_argument(
        "--no-normalize",
        action="store_true",
        help="profile with the normalization pipeline off",
    )

    return parser


def _load(path: Path) -> dict[str, Specification]:
    from repro.oun import load_specifications

    try:
        text = path.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    return load_specifications(text)


def _pick(specs: dict[str, Specification], name: str) -> Specification:
    spec = specs.get(name)
    if spec is None:
        known = ", ".join(sorted(specs))
        raise ReproError(f"no specification named {name!r} (have: {known})")
    return spec


def _cmd_claims(args, out) -> int:
    source = ObligationSource.of(
        "repro.paper.claims:build_obligations", env_objects=args.env_objects
    )
    run = _run_engine(source, _engine_config(args), out)
    session = run.session
    print(session.format_table(), file=out)
    if args.details:
        print(file=out)
        print(session.format_details(), file=out)
    print(file=out)
    if session.all_agree:
        print("all obligations agree with the paper", file=out)
        return 0
    print("DISAGREEMENTS:", file=out)
    for outcome in session.failures():
        print(
            f"  {outcome.obligation.ident}: "
            f"{outcome.error or outcome.result.explain()}",
            file=out,
        )
    return 1


def _cmd_parse(args, out) -> int:
    if args.format:
        from repro.oun import format_document, parse_document

        try:
            text = args.file.read_text()
        except OSError as exc:
            raise ReproError(f"cannot read {args.file}: {exc}") from exc
        print(format_document(parse_document(text)), file=out, end="")
        return 0
    specs = _load(args.file)
    for name, spec in sorted(specs.items()):
        objs = ", ".join(str(o) for o in sorted(spec.objects))
        methods = ", ".join(sorted(spec.alphabet.methods()))
        print(f"{name}: objects {{{objs}}}; methods {methods}", file=out)
    return 0


def _cmd_monitor(args, out) -> int:
    from repro.runtime import SpecMonitor, tracefile

    specs = _load(args.file)
    spec = _pick(specs, args.spec)
    monitor = SpecMonitor(spec)
    if args.trace == "-":
        # streaming mode: one event per stdin line, first violation wins —
        # this is the offline end of the service's wire format (pipes compose)
        events = 0
        for lineno, raw in enumerate(sys.stdin, start=1):
            event = tracefile.parse_line(raw, lineno)
            if event is None:
                continue
            events += 1
            if not monitor.observe(event):
                v = monitor.violations[0]
                print(f"line {lineno}: {v}", file=out)
                return 1
        print(
            f"{spec.name}: stream of {events} events satisfies the "
            f"specification",
            file=out,
        )
        return 0
    trace = tracefile.load(Path(args.trace))
    for event in trace:
        monitor.observe(event)
    if monitor.ok:
        print(
            f"{spec.name}: trace of {len(trace)} events satisfies the "
            f"specification",
            file=out,
        )
        return 0
    for v in monitor.violations:
        print(str(v), file=out)
    return 1


#: How often ``serve --watch`` polls the served document's stamp.
_WATCH_INTERVAL_S = 0.5


def _stamp(path: Path) -> tuple[int, int] | None:
    """A watched file's ``(mtime, size)``, or None when it cannot be read."""
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size)


async def _watch_document(
    path: Path,
    host: str,
    port: int,
    last: tuple[int, int] | None,
) -> None:
    """``serve --watch``: send each edit of ``path`` as an ``UPDATE``.

    Polls the file's stamp every :data:`_WATCH_INTERVAL_S`, starting from
    ``last``, the stamp the served build reflects.  An edit goes to the
    service's own port as ``UPDATE lines=<n>``, so it takes the path
    every update takes: at ``--procs N`` the parent applies it on every
    worker and records it in the document chain.  A failed reload (the
    classic half-saved document) counts an error and leaves the service
    on its last good build.  Each edit counts once, in this process.
    """
    import asyncio

    from repro.obs.registry import get_registry
    from repro.service import MonitorClient

    registry = get_registry()
    reloads = registry.counter(
        "repro_watch_reloads_total",
        help="Successful --watch document hot-swaps.",
    )
    failures = registry.counter(
        "repro_watch_errors_total",
        help="--watch reloads rejected (unreadable or invalid document).",
    )
    while True:
        await asyncio.sleep(_WATCH_INTERVAL_S)
        stamp = _stamp(path)
        if stamp is None or stamp == last:
            continue
        last = stamp
        try:
            text = path.read_text(encoding="utf-8")
            async with MonitorClient(host, port) as client:
                await client.update_document(text=text)
        except (OSError, ReproError):
            failures.inc()
            continue
        reloads.inc()


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.api import _backend_host, _http_fronts
    from repro.service import MonitorClient, MonitorServer, SpecRegistry

    if (args.file is None) == (args.scenario is None):
        raise ReproError(
            "serve needs exactly one of FILE.oun or --scenario NAME"
        )
    watch = args.watch
    if watch == "":
        if args.file is None:
            raise ReproError("bare --watch needs a served FILE.oun")
        watch = args.file
    # Taken before the served build is read: no edit after it is missed.
    stamp = _stamp(Path(watch)) if watch is not None else None
    if args.scenario is not None:
        from repro.workload.scenarios import get_scenario

        registry = get_scenario(args.scenario).registry(
            history_limit=args.history_limit
        )
    else:
        registry = SpecRegistry.from_file(
            args.file, history_limit=args.history_limit
        )
    if not registry.names():
        raise ReproError(f"{args.file}: no monitorable specifications")
    backend = _backend_host(args.host)

    async def run() -> None:
        if args.procs > 1:
            from repro.service.topology import ScaleOutServer

            server = ScaleOutServer(
                scenario=args.scenario,
                document=(
                    args.file.read_text(encoding="utf-8")
                    if args.scenario is None
                    else None
                ),
                procs=args.procs,
                host=args.host,
                port=args.port,
                data_dir=args.data_dir,
                history_limit=args.history_limit,
            )
            # Re-evaluated per scrape: respawned workers come back on
            # fresh direct ports.
            targets = lambda: [  # noqa: E731
                (backend, port) for port in server.worker_ports if port
            ]
            mode = f"{args.procs} procs; "
        else:
            server = MonitorServer(
                registry,
                host=args.host,
                port=args.port,
                data_dir=args.data_dir,
            )
            targets, mode = None, ""
        await server.start()
        watcher = None
        try:
            # What is served: the data directory's document chain may
            # extend the start-up document.
            async with MonitorClient(backend, server.port) as probe:
                names = ", ".join(sorted(probe.server_specs))
            if watch is not None:
                watcher = asyncio.create_task(
                    _watch_document(Path(watch), backend, server.port, stamp)
                )
            async with _http_fronts(
                args.host,
                server.port,
                host=args.host,
                http_port=args.http_port,
                metrics_port=args.metrics_port,
                metrics_interval=args.metrics_interval,
                metrics_targets=targets,
            ) as (http, metrics):
                notes = "".join(
                    f"; {what} on :{front.port}"
                    for what, front in (("http", http), ("metrics", metrics))
                    if front is not None
                )
                print(
                    f"repro service on {server.host}:{server.port} "
                    f"({mode}specs: {names}{notes})",
                    file=out,
                    flush=True,
                )
                await asyncio.Event().wait()
        finally:
            if watcher is not None:
                watcher.cancel()
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("service stopped", file=out)
    return 0


def _cmd_send(args, out) -> int:
    import asyncio

    from repro.service import MonitorClient, ServiceUnavailable

    async def run() -> int:
        extra = {}
        if args.binary:
            extra["proto"] = 2
        if args.batch is not None:
            extra["batch"] = args.batch
        client = MonitorClient(
            args.host,
            args.port,
            spec=args.spec,
            connect_retries=args.retries,
            **extra,
        )
        await client.connect()
        try:
            if args.trace == "-":
                for raw in sys.stdin:
                    if raw.strip():
                        await client.send_event(raw.strip())
            else:
                from repro.runtime import tracefile

                await client.send_trace(tracefile.load(Path(args.trace)))
        finally:
            # One exchange: the final STATUS rides with the BYE.
            status = await client.close()
        if status is None:  # the link died before the final status
            raise ServiceUnavailable(f"cannot reach {args.host}:{args.port}")
        if status.ok:
            print(
                f"{args.spec}: {status.events} events ok "
                f"({status.skipped} outside the alphabet, "
                f"{status.errors} errors)",
                file=out,
            )
            return 0
        print(
            f"{args.spec} violated at event #{status.violation_index}: "
            f"{status.violation_event}",
            file=out,
        )
        return 1

    return asyncio.run(run())


def _cmd_gateway(args, out) -> int:
    import threading

    from repro.api import Gateway
    from repro.gateway import GatewayServer

    targets = None
    if args.metrics_backend:
        targets = []
        for entry in args.metrics_backend:
            host, sep, port = entry.rpartition(":")
            if not sep or not port.isdigit():
                raise ReproError(
                    f"--metrics-backend needs HOST:PORT, got {entry!r}"
                )
            targets.append((host or "127.0.0.1", int(port)))
    gateway = Gateway(
        args.backend_host,
        args.backend_port,
        connect_retries=args.retries,
        metrics_targets=targets,
    )
    with gateway:
        front = GatewayServer(gateway, host=args.host, port=args.http_port)
        front.start()
        print(
            f"repro gateway on {front.host}:{front.port} -> "
            f"{args.backend_host}:{args.backend_port}",
            file=out,
            flush=True,
        )
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("gateway stopped", file=out)
        finally:
            front.close()
    return 0


def _cmd_reload(args, out) -> int:
    from repro.api import update_from_text

    if (args.file is None) == (args.scenario is None):
        raise ReproError(
            "reload needs exactly one of FILE.oun or --scenario NAME"
        )
    report = update_from_text(
        (
            args.file.read_text(encoding="utf-8")
            if args.file is not None
            else None
        ),
        scenario=args.scenario,
        host=args.host,
        port=args.port,
        force=args.force,
        proto=2 if args.binary else 1,
        retries=args.retries,
    )
    print(
        f"swapped {report['changed']} changed, "
        f"{report['unchanged']} unchanged, "
        f"{report['added']} added (specs: {','.join(report['specs']) or '-'})",
        file=out,
    )
    return 0


def _cmd_workload(args, out) -> int:
    from repro import workload

    if args.workload_command == "list":
        for sc in workload.all_scenarios():
            print(f"{sc.name}: {sc.title}", file=out)
            print(f"  monitored spec: {sc.monitored}", file=out)
            print(f"  {sc.description}", file=out)
        return 0

    if args.workload_command == "verify":
        source = ObligationSource.of(
            "repro.workload.scenarios:scenario_obligations",
            scenario=args.scenario,
        )
        run = _run_engine(source, _engine_config(args), out)
        session = run.session
        print(session.format_table(), file=out)
        print(file=out)
        if session.all_agree:
            print(
                f"all {args.scenario} claims agree with the corpus", file=out
            )
            return 0
        print("DISAGREEMENTS:", file=out)
        for outcome in session.failures():
            print(
                f"  {outcome.obligation.ident}: "
                f"{outcome.error or outcome.result.explain()}",
                file=out,
            )
        return 1

    faults = (
        workload.FaultSpec.parse(args.faults)
        if args.faults
        else workload.FaultSpec()
    )
    if (args.host is not None) and (args.port is None):
        raise ReproError("--host needs --port (an external service address)")
    kill_at = tuple(args.kill_at or ())
    if kill_at and not (args.procs and args.durable):
        raise ReproError("--kill-at needs --procs and --durable")
    knobs = dict(
        sessions=args.sessions,
        events=args.events,
        duration=args.duration,
        host=args.host,
        port=args.port,
        history_limit=args.history_limit,
        binary=args.binary,
        batch=args.batch,
        procs=args.procs,
        data_dir=args.data_dir,
        durable=args.durable,
        kill_at=kill_at,
    )
    report = workload.run_workload(
        args.scenario, seed=args.seed, faults=faults, **knobs
    )
    print(report.describe(), file=out)
    ok = report.all_agree
    if args.bench_out:
        runs = []
        if faults.active or kill_at:
            baseline = workload.run_workload(
                args.scenario,
                seed=args.seed,
                **{**knobs, "kill_at": ()},
            )
            ok = ok and baseline.all_agree
            runs.append(baseline.run_record("fault-free"))
        runs.append(
            report.run_record(
                "faulted" if (faults.active or kill_at) else "fault-free"
            )
        )
        path = workload.write_bench_json(
            args.bench_out,
            f"workload_{args.scenario}",
            {
                "scenario": args.scenario,
                "seed": args.seed,
                "faults": faults.as_dict(),
                "sessions": args.sessions,
                "events": args.events,
                "duration": args.duration,
                "mode": "external" if args.port is not None else "in-process",
                "wire": "binary" if args.binary else "text",
                "batch": args.batch,
                "procs": args.procs,
                "durable": args.durable,
                "kill_at": list(kill_at),
            },
            runs,
        )
        print(f"bench results written to {path}", file=out)
    if not ok:
        print("ORACLE DISAGREEMENT (see sessions above)", file=out)
    return 0 if ok else 1


def _cmd_check(args, out) -> int:
    if args.refines or args.equal:
        # Both single-query forms run through the obligation engine so
        # --jobs/--cache-dir apply; jobs=1 without a cache is the plain
        # inline check it always was.
        kind, (left, right) = (
            ("refines", args.refines) if args.refines else ("equal", args.equal)
        )
        try:
            text = args.file.read_text()
        except OSError as exc:
            raise ReproError(f"cannot read {args.file}: {exc}") from exc
        source = ObligationSource.of(
            "repro.oun.verify:query_obligations",
            text=text,
            queries=((kind, left, right),),
            env_objects=args.env_objects,
            data_values=args.data_values,
            strategy=args.strategy,
            depth=args.depth,
        )
        run = _run_engine(source, _engine_config(args), out)
        outcome = run.session.outcomes[0]
        if outcome.error is not None:
            raise ReproError(outcome.error)
        result = outcome.result
        symbol = "⊑" if kind == "refines" else "≡"
        print(f"{left} {symbol} {right}: {result.explain()}", file=out)
        return 0 if result.holds else 1
    specs = _load(args.file)
    a = _pick(specs, args.compose[0])
    b = _pick(specs, args.compose[1])
    report = check_composable(a, b)
    print(f"composability: {report.explain()}", file=out)
    if not report.composable:
        return 1
    comp = compose(a, b)
    print(f"{comp.name}: objects {{{', '.join(map(str, sorted(comp.objects)))}}}", file=out)
    print(f"observable alphabet: {comp.alphabet}", file=out)
    return 0


def _cmd_matrix(args, out) -> int:
    from repro.checker.report import refinement_matrix
    from repro.checker.universe import FiniteUniverse

    specs = _load(args.file)
    if args.spec:
        chosen = [_pick(specs, name) for name in args.spec]
    else:
        chosen = [specs[name] for name in sorted(specs)]
    if len(chosen) < 2:
        raise ReproError("matrix needs at least two specifications")
    universe = FiniteUniverse.for_specs(*chosen, env_objects=args.env_objects)
    matrix = refinement_matrix(chosen, universe)
    print(matrix.format_table(), file=out)
    print(f"\nHasse edges (concrete → abstract): {matrix.hasse_edges()}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    from repro.oun.parser import parse_document
    from repro.oun.verify import AssertionOutcome

    try:
        text = args.file.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read {args.file}: {exc}") from exc
    assertions = parse_document(text).assertions
    if not assertions:
        print("document declares no assertions", file=out)
        return 0
    source = ObligationSource.of(
        "repro.oun.verify:assertion_obligations",
        text=text,
        env_objects=args.env_objects,
        data_values=args.data_values,
        strategy=args.strategy,
    )
    run = _run_engine(source, _engine_config(args), out)
    # assertion_obligations yields obligations in document order, so the
    # engine's outcomes zip positionally with the parsed assertions.
    failed = 0
    for a, outcome in zip(assertions, run.session.outcomes):
        if outcome.error is not None:
            failed += 1
            neg = "not " if a.negated else ""
            print(
                f"assert {neg}{a.left} {a.kind} {a.right} "
                f"(line {a.line}): ERROR — {outcome.error}",
                file=out,
            )
            continue
        passed = outcome.result.holds != a.negated
        failed += 0 if passed else 1
        print(
            AssertionOutcome(a, outcome.result, passed).describe(), file=out
        )
    n = len(run.session.outcomes)
    print(f"\n{n - failed}/{n} assertions hold", file=out)
    return 0 if failed == 0 else 1


def _cmd_explain(args, out) -> int:
    from repro.passes import explain_spec, use_normalization

    if args.diff is not None:
        from repro.passes import diff_specifications, format_spec_diff

        if args.file is not None or args.spec is not None or args.compose:
            raise ReproError(
                "explain --diff takes no FILE/SPEC/--compose arguments"
            )
        old_path, new_path = args.diff
        diff = diff_specifications(_load(old_path), _load(new_path))
        print(format_spec_diff(diff), file=out)
        return 1 if diff.differs else 0
    if args.file is None or args.spec is None:
        raise ReproError("explain needs FILE and SPEC (or --diff OLD NEW)")
    # Elaborate with normalization off so the "before" tree is the raw
    # shape the document spelled, not what oun.elaborate already fused.
    with use_normalization(False):
        specs = _load(args.file)
        spec = _pick(specs, args.spec)
        for name in args.compose:
            spec = compose(spec, _pick(specs, name))
    print(explain_spec(spec), file=out)
    return 0


def _phase_rows(records) -> list[tuple[str, str]]:
    """Aggregate span records into per-phase wall-time rows.

    A record's phase is the first dotted segment of its span name
    (``compile.traceset_dfa`` → ``compile``); nested spans of the same
    phase are not double-counted because their enclosing span already
    covers their time.
    """
    by_id = {r.span_id: r for r in records}
    totals: dict[str, float] = {}
    first_start: dict[str, float] = {}
    for r in records:
        phase = r.name.split(".", 1)[0]
        first_start[phase] = min(first_start.get(phase, r.start), r.start)
        parent = by_id.get(r.parent_id)
        if parent is not None and parent.name.split(".", 1)[0] == phase:
            continue
        totals[phase] = totals.get(phase, 0.0) + r.seconds
    return [
        (phase, f"{totals[phase] * 1e3:9.2f} ms")
        for phase in sorted(totals, key=first_start.__getitem__)
    ]


def _cmd_profile(args, out) -> int:
    import tempfile

    from repro.checker.cache import MachineCache, use_cache
    from repro.checker.compile import traceset_dfa
    from repro.checker.refinement import check_refinement
    from repro.obs.export import InMemoryCollector, format_columns
    from repro.obs.trace import span, use_sink
    from repro.passes import use_normalization

    collector = InMemoryCollector()
    with contextlib.ExitStack() as stack:
        stack.enter_context(use_sink(collector))
        stack.enter_context(use_normalization(not args.no_normalize))
        cache_dir = args.cache_dir
        if cache_dir is None:
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-profile-")
            )
        profile_span = stack.enter_context(
            span("profile", spec=args.spec, file=str(args.file))
        )
        specs = _load(args.file)  # the elaborate span nests here
        spec = _pick(specs, args.spec)
        universe = FiniteUniverse.for_specs(
            spec, env_objects=args.env_objects
        )
        # Compile twice through one cache: the first populates it (the
        # span is annotated cache=miss), the second returns the stored
        # DFA (cache=hit) — both shapes show up in the printed tree.
        stack.enter_context(use_cache(MachineCache(cache_dir)))
        traceset_dfa(spec.traces, universe)
        traceset_dfa(spec.traces, universe)
        with span("check", query=f"{spec.name} refines {spec.name}") as sp:
            conclusion = check_refinement(spec, spec, universe)
            sp.set(holds=conclusion.holds)
        profile_span.set(universe=len(universe.values))
    print(f"profile of {args.spec} ({args.file}):", file=out)
    print(file=out)
    print(collector.format_tree(), file=out)
    print(file=out)
    print("per-phase wall time:", file=out)
    rows = [
        r for r in _phase_rows(collector.records) if r[0] != "profile"
    ]
    print(format_columns(rows, indent="  "), file=out)
    return 0


def _cmd_deadlock(args, out) -> int:
    from repro.liveness import quiescence_analysis

    specs = _load(args.file)
    targets = [_pick(specs, n) for n in args.spec]
    spec = targets[0]
    for other in targets[1:]:
        spec = compose(spec, other)
    universe = FiniteUniverse.for_specs(
        *targets, env_objects=args.env_objects
    )
    report = quiescence_analysis(spec, universe)
    print(f"{spec.name}: {report.explain()}", file=out)
    return 0 if report.deadlock_free else 1


_COMMANDS = {
    "claims": _cmd_claims,
    "parse": _cmd_parse,
    "monitor": _cmd_monitor,
    "serve": _cmd_serve,
    "gateway": _cmd_gateway,
    "send": _cmd_send,
    "reload": _cmd_reload,
    "workload": _cmd_workload,
    "check": _cmd_check,
    "matrix": _cmd_matrix,
    "verify": _cmd_verify,
    "deadlock": _cmd_deadlock,
    "explain": _cmd_explain,
    "profile": _cmd_profile,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS.get(args.command)
    if command is None:  # pragma: no cover - argparse rejects unknown verbs
        raise AssertionError(f"unhandled command {args.command!r}")
    exporter = None
    try:
        if getattr(args, "obs_spans", None):
            from repro.obs.export import JsonLinesExporter
            from repro.obs.trace import add_sink, remove_sink

            exporter = JsonLinesExporter(args.obs_spans)
            add_sink(exporter)
        try:
            return command(args, out)
        finally:
            if exporter is not None:
                remove_sink(exporter)
                exporter.close()
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
