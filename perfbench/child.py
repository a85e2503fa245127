"""Server child: the monitored stack the benchmark drives, in its own process.

Runs what ``repro serve --scenario two_phase_dynamic`` runs (with
``--http-port 0 --data-dir DIR`` for the HTTP workload) —
:class:`~repro.service.server.MonitorServer` over the scenario
registry, plus :class:`~repro.api.Gateway` and
:class:`~repro.gateway.GatewayServer` for the HTTP workload — assembled
through the public API so the benchmark can time the steps::

    python perfbench/child.py --workload text-stream [--trace] [--data-dir DIR]

Protocol with the load generator (``run.py``), one line each:

* stdout ``READY {json}`` once every listener is up: ports plus the
  monotonic clock at interpreter start, import and compile seconds;
* stdin ``mark`` → stdout ``{json}``: process CPU ns (all threads),
  peak RSS (``VmHWM``) and, with ``--trace``, every traced target's
  counters (see ``layers.py``);
* stdin ``quit`` or end of file stops the stack and exits.
"""

from __future__ import annotations

import time

START = time.monotonic()  # before any heavy import: spawn → here is spawn_s

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = "two_phase_dynamic"


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _hwm_kib() -> int:
    """Peak resident set size of this process, in KiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


async def serve(workload: str, tracer, data_dir: str | None, import_s: float):
    from repro.api import Gateway
    from repro.gateway import GatewayServer
    from repro.service import MonitorServer
    from repro.workload.scenarios import get_scenario

    loop = asyncio.get_running_loop()
    began = time.monotonic()
    registry = get_scenario(SCENARIO).registry()
    compile_s = time.monotonic() - began
    server = MonitorServer(registry, data_dir=data_dir)
    await server.start()
    gateway = front = None
    try:
        if workload == "http-faulted":
            gateway = Gateway("127.0.0.1", server.port)
            await loop.run_in_executor(None, gateway.open)
            front = GatewayServer(gateway, host="127.0.0.1", port=0).start()
        ready = {
            "port": server.port,
            "http_port": front.port if front is not None else None,
            "start": START,
            "import_s": import_s,
            "compile_s": compile_s,
        }
        _emit("READY " + json.dumps(ready))
        commands = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
        )
        while True:
            command = (await commands.readline()).strip()
            if command == b"mark":
                mark = {
                    "cpu_ns": time.process_time_ns(),
                    "hwm_kib": _hwm_kib(),
                    "stats": tracer.snapshot() if tracer is not None else None,
                }
                _emit(json.dumps(mark))
            else:
                break  # quit, or the load generator went away
    finally:
        if front is not None:
            await loop.run_in_executor(None, front.close)
        if gateway is not None:
            await loop.run_in_executor(None, gateway.close)
        await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--data-dir")
    args = parser.parse_args()
    began = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.api  # noqa: F401  (the import cost is part of set-up)
    import repro.gateway  # noqa: F401
    import repro.service  # noqa: F401

    import_s = time.monotonic() - began
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer().install()
    asyncio.run(serve(args.workload, tracer, args.data_dir, import_s))


if __name__ == "__main__":
    main()
