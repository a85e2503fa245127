"""The repository benchmark: verdicts over text and durable HTTP sessions.

Run from the root of a checkout::

    python3 perfbench/run.py --workload text-stream --seed 1 --seconds 40 --trace 0

The load generator (this process) builds every request from ``--seed``,
then spawns server children (``child.py``) on the CPU it runs on and
measures set-up as spawn → first ``HELLO`` answered (fifteen spawns,
median).  An untraced run drives five of those children in turn, each
for a fifth of ``--seconds`` on one closed-loop connection, and reports
each metric's median over the five windows.  Every verdict is compared
with the dense oracle of :mod:`repro.workload.generator`.

Every end-to-end time is given at the **reference speed**: the window is
cut into slices of 0.1 s, after each slice the load generator times a
fixed pure-Python loop on the CPU it shares with the server
(:func:`loadgen.calibrate`), and each slice's times are scaled by
``REFERENCE_S`` over that loop's time.  A shared host runs the same code
up to three times slower for minutes at a time; the scaled figures are
what the program does on a CPU whose loop takes ``REFERENCE_S``.  Per
window: acknowledged events over the window's scaled length without the
time the hypervisor took the CPU away, the nearest-rank p50 and p90 of
the scaled round trips of the slices it did not (:func:`clean_slices`),
and the server's scaled CPU per event.  The unscaled figures, the p99
and the host's steal time are printed as context.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
the window untraced and half with per-layer wrappers installed in the
server (``layers.py``) and prints the per-layer metrics.  Human-readable
lines (host record, sample counts, ``failed_ops_ratio``) come first; the
last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit status is non-zero when any verdict
disagrees with the oracle or any request failed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import select
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA_ROOT = ROOT / ".perfbench-data"

#: End-to-end metrics of an untraced run, with units.
END_TO_END = (
    ("events_per_s", "events/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("server_cpu_us_per_event", "us"),
    ("server_rss_mib", "MiB"),
    ("setup_s", "s"),
)

WINDOWS = 5  # server children per untraced run, each measured in turn
SETUPS = 2  # spawns only timed before each measured child (setup_s: all 15)
TIMEOUT = 120.0  # longest wait for one reply from the server child
#: Time of one :func:`loadgen.calibrate` loop on the reference CPU; every
#: end-to-end time is scaled to a CPU that runs the loop this fast.
REFERENCE_S = 200e-6


def bench_cpu() -> set | None:
    """The one CPU the load generator and every server child run on.

    One closed-loop connection leaves nothing to run in parallel, and on
    one CPU a round trip needs no wake-up of another virtual CPU, whose
    latency on a shared host varies from run to run.  It also makes the
    load generator's calibration time the server's CPU.  Unpinned, the
    server's threads (HTTP handler, gateway loop, monitor loop) also
    handed the interpreter lock across CPUs, and ``http-faulted`` runs
    fell into a fast and a slow mode (20 against 35 µs of server CPU per
    event).  None where the platform cannot pin.
    """
    try:
        return {max(os.sched_getaffinity(0))}
    except AttributeError:  # no affinity interface on this platform
        return None


class Child:
    """One server child process: spawned, timed to its first HELLO, stopped.

    ``cpus`` pins the child (None: wherever the scheduler puts it).
    ``calibration`` is the mean :func:`loadgen.calibrate` time just before
    the spawn and just after the HELLO.
    """

    def __init__(self, workload: str, trace: bool, cpus: set | None) -> None:
        from loadgen import calibrate

        self.data_dir = None
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload]
        if trace:
            cmd.append("--trace")
        if workload == "http-faulted":
            DATA_ROOT.mkdir(exist_ok=True)
            self.data_dir = tempfile.mkdtemp(dir=DATA_ROOT)
            cmd += ["--data-dir", self.data_dir]
        calibration = calibrate()
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT
        )
        try:
            if cpus is not None:  # before the child starts any thread
                os.sched_setaffinity(self.proc.pid, cpus)
            line = self._readline()
            if not line.startswith(b"READY "):
                raise RuntimeError(f"server child did not start: {line!r}")
            self.ready = json.loads(line[len(b"READY "):])
            self.port = self.ready["port"]
            with socket.create_connection(("127.0.0.1", self.port), TIMEOUT) as sock:
                sock.sendall(b"HELLO\n")
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            if not reply.startswith(b"OK "):
                raise RuntimeError(f"HELLO refused: {reply!r}")
            self.setup_s = time.monotonic() - spawned
            self.spawn_s = self.ready["start"] - spawned
            self.calibration = (calibration + calibrate()) / 2
        except BaseException:
            self.stop()
            raise

    def _readline(self) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT)
        if not ready:
            raise RuntimeError("server child stopped answering")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server child exited")
        return line

    def mark(self) -> dict:
        """The child's CPU, peak RSS and (traced) layer counters, now."""
        self.proc.stdin.write(b"mark\n")
        self.proc.stdin.flush()
        return json.loads(self._readline())

    def stop(self) -> None:
        try:
            self.proc.stdin.write(b"quit\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            try:
                DATA_ROOT.rmdir()
            except OSError:
                pass  # another run still uses it


def reference_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this host is now.

    Shared hosts change speed by up to 2× for minutes; recording this next
    to every result tells a slow run on a busy host from a slow commit.
    """
    times = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for j in range(100_000):
            total += j * j
        times.append((time.perf_counter() - began) * 1e3)
    return statistics.median(times)


def host_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "reference_loop_ms": reference_ms(),
    }


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Window:
    """One timed window against one server child.

    ``seconds`` is the window's length, calibrations included; ``busy_s``
    the closed-loop time of its slices, ``stolen_s`` the part of it the
    hypervisor gave the CPU to other guests, and ``reference_s`` the rest
    scaled to the reference speed, slice by slice.
    """

    def __init__(self, tally, seconds, before, after, loadgen_cpu_s):
        self.tally = tally
        self.seconds = seconds
        self.before = before
        self.after = after
        self.loadgen_cpu_s = loadgen_cpu_s
        self.busy_s = self.stolen_s = self.reference_s = self.scaled_s = 0.0
        for piece in tally.slices:
            factor = REFERENCE_S / piece.calibration
            self.busy_s += piece.seconds
            self.stolen_s += piece.stolen
            self.scaled_s += piece.seconds * factor
            self.reference_s += (piece.seconds - piece.stolen) * factor
        scaled = []
        for piece in clean_slices(tally.slices):
            factor = REFERENCE_S / piece.calibration
            scaled.extend(x * factor for x in tally.samples[piece.first:piece.end])
        self.ordered = sorted(scaled)
        self.raw_ordered = sorted(tally.samples)

    @property
    def server_cpu_ns(self) -> int:
        return self.after["cpu_ns"] - self.before["cpu_ns"]

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the CPU ran, time-weighted."""
        return self.busy_s / self.scaled_s if self.scaled_s else 1.0

    @property
    def events_per_s(self) -> float:
        return self.tally.events / self.reference_s if self.reference_s else 0.0

    def verdict_ms(self, q: float) -> float:
        return percentile(self.ordered, q) * 1e3 if self.ordered else 0.0


def clean_slices(slices: list) -> list:
    """The slices whose round trips the verdict percentiles are taken from.

    A round trip during which the hypervisor ran another guest waits for
    that guest, so the percentiles leave out every slice with stolen time
    — unless those hold less than half the round trips, then the half of
    the slices with the least stolen time (by share of the slice).
    """
    clean = [piece for piece in slices if piece.stolen == 0]
    total = sum(piece.end - piece.first for piece in slices)
    if 2 * sum(piece.end - piece.first for piece in clean) >= total:
        return clean
    ranked = sorted(slices, key=lambda piece: piece.stolen / piece.seconds)
    return ranked[: max(1, len(ranked) // 2)]


async def _measure(child, workload, plans, seed, seconds, cpu) -> Window:
    from loadgen import drive, open_connections

    spec, per_connection = plans
    port = child.ready["http_port"] or child.port
    conns = await open_connections(workload, port, spec, per_connection, seed)
    try:
        await drive(conns, min(1.0, 0.1 * seconds), cpu)  # warm-up, not counted
        before = child.mark()
        began = time.process_time()
        tally, elapsed = await drive(conns, seconds, cpu)
        loadgen_cpu_s = time.process_time() - began
        after = child.mark()
    finally:
        for conn in conns:
            await conn.close()
    return Window(tally, elapsed, before, after, loadgen_cpu_s)


def measure(child, workload, plans, seed, seconds, cpu=None) -> Window:
    return asyncio.run(_measure(child, workload, plans, seed, seconds, cpu))


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} {value:.6g} {unit}{note}")


def figures(window: Window) -> tuple[dict, dict]:
    """(gated figures, context figures) of one untraced window."""
    events, n = window.tally.events, len(window.ordered)
    cpu_us = window.server_cpu_ns / max(events, 1) / 1e3
    raw = window.raw_ordered or [0.0]
    gated = {
        "events_per_s": window.events_per_s,
        "verdict_p50_ms": window.verdict_ms(0.50),
        "verdict_p90_ms": window.verdict_ms(0.90),
        "server_cpu_us_per_event": cpu_us / window.slowdown,
        "server_rss_mib": window.after["hwm_kib"] / 1024,
    }
    context = {
        "events": events,
        "percentile_samples": n,
        "round_trips": len(window.raw_ordered),
        "verdict_p99_ms": window.verdict_ms(0.99),
        "host_slowdown": window.slowdown,
        "host_steal_frac": window.stolen_s / max(window.busy_s, 1e-9),
        "events_per_s_with_steal": events / max(window.scaled_s, 1e-9),
        "unscaled_events_per_s": events / max(window.busy_s, 1e-9),
        "unscaled_verdict_p50_ms": percentile(raw, 0.5) * 1e3,
        "unscaled_verdict_p90_ms": percentile(raw, 0.9) * 1e3,
        "unscaled_server_cpu_us_per_event": cpu_us,
    }
    return gated, context


def end_to_end(windows: list, children: list) -> dict:
    """Print and return the end-to-end metrics: medians over the windows."""
    per_window = [figures(window) for window in windows]
    setups = [c.setup_s * REFERENCE_S / c.calibration for c in children]
    values = {
        name: statistics.median(gated[name] for gated, _context in per_window)
        for name, _unit in END_TO_END
        if name != "setup_s"
    }
    values["setup_s"] = statistics.median(setups)

    def each(key: str, fmt: str = ".4g") -> str:
        row = [
            gated[key] if key in gated else context[key]
            for gated, context in per_window
        ]
        return " ".join(f"{value:{fmt}}" for value in row)

    notes = {name: f" (windows: {each(name)})" for name in values if name != "setup_s"}
    notes["setup_s"] = (
        f" (median of {len(setups)} spawns: "
        + " ".join(f"{s:.3f}" for s in setups) + ")"
    )
    for name, unit in END_TO_END:
        _line(name, values[name], unit, notes[name])
    print("context only, not in the result, per window:")
    for key in per_window[0][1]:
        print(f"{key} {each(key)}")
    _line("unscaled_setup_s", statistics.median(c.setup_s for c in children), "s")
    print(f"reference_calibration_us {REFERENCE_S * 1e6:.0f}")
    return values


def per_layer(plain: Window, traced: Window, children: list):
    from layers import PER_LAYER, layer_metrics

    tally = traced.tally
    values = layer_metrics(
        traced.before["stats"],
        traced.after["stats"],
        events=max(tally.events, 1),
        server_cpu_ns=traced.server_cpu_ns,
        post_rtt_ms=statistics.fmean(tally.samples) * 1e3
        if tally.samples
        else 0.0,
    )
    values.update(
        {
            "setup.import_s": statistics.median(c.ready["import_s"] for c in children),
            "setup.compile_s": statistics.median(
                c.ready["compile_s"] for c in children
            ),
            "setup.spawn_s": statistics.median(c.spawn_s for c in children),
            "server.cpu_frac": plain.server_cpu_ns / 1e9 / plain.seconds,
            "loadgen.cpu_frac": plain.loadgen_cpu_s / plain.seconds,
            "trace.overhead_ratio": plain.events_per_s / traced.events_per_s
            if traced.events_per_s
            else 0.0,
        }
    )
    for name, unit in PER_LAYER:
        _line(name, values[name], unit)
    return {name: values[name] for name, _unit in PER_LAYER}, dict(PER_LAYER)


def time_setups(workload: str, count: int, children: list, cpus) -> None:
    """Spawn and stop ``count`` server children only to time their set-up."""
    for _ in range(count):
        child = Child(workload, False, cpus)
        children.append(child)
        child.stop()


def run(workload: str, seed: int, seconds: float, trace: bool, cpus=None) -> int:
    """One run; ``cpus`` pins the server children (see :func:`bench_cpu`)."""
    cpu = min(cpus) if cpus else None
    from loadgen import WORKLOADS, build_plans

    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    print("host " + json.dumps(host_record(workload, seed, seconds, trace)))
    plans = build_plans(workload, seed)
    windows, children = [], []
    if trace:
        phases = [(False, seconds / 2), (True, seconds / 2)]
    else:
        phases = [(False, seconds / WINDOWS)] * WINDOWS
    for traced, length in phases:
        time_setups(workload, 0 if trace else SETUPS, children, cpus)
        child = Child(workload, traced, cpus)
        children.append(child)
        try:
            windows.append(measure(child, workload, plans, seed, length, cpu))
        finally:
            child.stop()
    attempted = sum(w.tally.ops for w in windows)
    failed = sum(w.tally.failed for w in windows)
    disagreements = sum(w.tally.disagreements for w in windows)
    for w in windows:
        for note in w.tally.notes:
            print(f"failure: {note}")
    if trace:
        metrics, units = per_layer(windows[0], windows[1], children)
    else:
        metrics = end_to_end(windows, children)
        units = dict(END_TO_END)
    _line("failed_ops_ratio", failed / max(attempted, 1), "ratio",
          f" ({failed}/{attempted})")
    print(f"oracle_disagreements {disagreements}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)  # spawns must not time bytecode builds
    cpus = bench_cpu()
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), cpus)


if __name__ == "__main__":
    sys.exit(main())
