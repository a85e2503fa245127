"""Sharded monitor workers: per-callee FIFO queues on one event loop.

Events are routed to one of ``n`` workers by a *stable* hash of the
callee :class:`~repro.core.values.ObjectId` (CRC-32 of the name — Python's
``hash`` is salted per process and would re-shard on restart).  Each
worker drains its own FIFO queue, so:

* all events with the same callee are checked in arrival order (the
  paper's per-object projection ``h/o`` is order-preserving), while
* events on distinct callees interleave freely, exactly as ``Γ‖Δ``
  composes trace sets over interleaved streams.

The pool is workload-agnostic: it executes submitted thunks. Sessions
submit "feed event to my monitor for this shard" closures and use
:meth:`ShardPool.flush` as a barrier before reporting status.

A :class:`ShardRouter` memoises the callee → shard mapping for one event
stream: the key formatting and CRC run once per *distinct* callee instead
of once per event, which matters on the server's hot path where a session
streams thousands of events at a handful of objects.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.obs.registry import get_registry

__all__ = ["shard_index", "BatchTask", "ShardPool", "ShardRouter"]

DEFAULT_QUEUE_SIZE = 1024


def shard_index(callee_name: str, shards: int) -> int:
    """Stable shard of a callee name: identical across runs and processes."""
    if shards < 1:
        raise ValueError("shard count must be positive")
    if shards == 1:
        return 0
    return zlib.crc32(callee_name.encode("utf-8")) % shards


@dataclass(slots=True)
class _Flush:
    """Queue sentinel: resolves its future once the worker reaches it."""

    future: asyncio.Future


@dataclass(slots=True)
class BatchTask:
    """One queue unit carrying a whole batch of ``size`` events.

    The binary protocol's ``EVENTS`` verb submits one of these per frame
    instead of one thunk per event, so queue traffic (put/get, task_done,
    backpressure checks) is paid once per batch.  Workers account the
    carried event count separately from the task count — the ratio of
    ``repro_shard_batched_events_total`` to ``repro_shard_tasks_total``
    is the realised amortisation factor.
    """

    thunk: Callable[[], None]
    size: int


class ShardPool:
    """``n`` single-consumer FIFO workers keyed by callee hash."""

    def __init__(self, shards: int, *, queue_size: int = DEFAULT_QUEUE_SIZE) -> None:
        if shards < 1:
            raise ValueError("shard count must be positive")
        self.shards = shards
        self._queues: list[asyncio.Queue] = [
            asyncio.Queue(maxsize=queue_size) for _ in range(shards)
        ]
        self._workers: list[asyncio.Task] = []
        self.tasks_run = 0
        self.task_errors = 0
        registry = get_registry()
        self._c_tasks = registry.counter(
            "repro_shard_tasks_total", help="Thunks executed by shard workers."
        )
        self._c_errors = registry.counter(
            "repro_shard_task_errors_total",
            help="Shard thunks that raised (the worker survives).",
        )
        self._c_batched = registry.counter(
            "repro_shard_batched_events_total",
            help="Events carried by BatchTask queue units.",
        )

    def shard_of(self, callee_name: str) -> int:
        return shard_index(callee_name, self.shards)

    async def start(self) -> None:
        if self._workers:
            return
        self._workers = [
            asyncio.create_task(self._run(q), name=f"repro-shard-{i}")
            for i, q in enumerate(self._queues)
        ]

    async def _run(self, queue: asyncio.Queue) -> None:
        while True:
            item = await queue.get()
            try:
                if item is None:
                    return
                if isinstance(item, _Flush):
                    if not item.future.done():
                        item.future.set_result(None)
                    continue
                if isinstance(item, BatchTask):
                    self._c_batched.inc(item.size)
                    item = item.thunk
                self.tasks_run += 1
                self._c_tasks.inc()
                try:
                    item()
                except Exception:
                    # a failing thunk must not kill the shard; sessions
                    # account their own errors inside the thunk
                    self.task_errors += 1
                    self._c_errors.inc()
            finally:
                queue.task_done()

    async def submit(self, callee_name: str, thunk: Callable[[], None]) -> int:
        """Enqueue a thunk on the callee's shard; returns the shard index.

        ``await`` blocks when the shard queue is full — natural
        backpressure toward the submitting session.
        """
        shard = self.shard_of(callee_name)
        await self.submit_to(shard, thunk)
        return shard

    async def submit_to(self, shard: int, thunk: Callable[[], None]) -> None:
        """Enqueue a thunk on an already-resolved shard (same backpressure)."""
        await self._queues[shard].put(thunk)

    def router(self, prefix: str = "") -> "ShardRouter":
        """A memoising router over this pool namespaced by ``prefix``."""
        return ShardRouter(self, prefix)

    async def flush(self, shard_ids: Iterable[int] | None = None) -> None:
        """Barrier: resolves once every prior item on the shards is done."""
        ids = range(self.shards) if shard_ids is None else sorted(set(shard_ids))
        flushes = []
        for i in ids:
            loop = asyncio.get_running_loop()
            sentinel = _Flush(loop.create_future())
            await self._queues[i].put(sentinel)
            flushes.append(sentinel.future)
        if flushes:
            await asyncio.gather(*flushes)

    async def stop(self) -> None:
        """Drain every queue and stop the workers."""
        if not self._workers:
            return
        for q in self._queues:
            await q.put(None)
        await asyncio.gather(*self._workers)
        self._workers = []

    def __repr__(self) -> str:
        return f"ShardPool(shards={self.shards}, run={self.tasks_run})"


class ShardRouter:
    """Memoised callee → shard routing for one event stream.

    ``prefix`` is the stream's namespace (the server uses the session
    sequence number): independent sessions spread across the workers even
    when every session's spec talks to the same object names, while the
    mapping for one stream stays stable across the stream's lifetime.
    """

    __slots__ = ("pool", "prefix", "_shards", "_c_routed")

    def __init__(self, pool: ShardPool, prefix: str = "") -> None:
        self.pool = pool
        self.prefix = prefix
        self._shards: dict[str, int] = {}
        self._c_routed = get_registry().counter(
            "repro_shard_routed_callees_total",
            help="Distinct callees resolved to a shard (router cache fills).",
        )

    def shard_of(self, callee_name: str) -> int:
        shard = self._shards.get(callee_name)
        if shard is None:
            shard = self._shards[callee_name] = shard_index(
                self.prefix + callee_name, self.pool.shards
            )
            self._c_routed.inc()
        return shard

    async def submit(self, callee_name: str, thunk: Callable[[], None]) -> int:
        """Enqueue on the callee's shard; returns the shard index."""
        shard = self.shard_of(callee_name)
        await self.pool.submit_to(shard, thunk)
        return shard

    def __repr__(self) -> str:
        return (
            f"ShardRouter(prefix={self.prefix!r}, "
            f"callees={len(self._shards)})"
        )
