"""Session queues: ``n`` FIFO workers on one event loop.

The server gives each session one shard (round-robin over its session
sequence number) and submits "step my monitor" thunks to it, so one
session's inputs are checked in arrival order while sessions spread
over the queues.  The workers are tasks on the server's loop, not
threads: they add no parallelism, which comes from ``--procs``.

The pool is workload-agnostic: it executes submitted thunks. Sessions
use :meth:`ShardPool.flush` as a barrier before reporting status.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.obs.registry import get_registry

__all__ = ["ShardPool"]

DEFAULT_QUEUE_SIZE = 1024


@dataclass(slots=True)
class _Flush:
    """Queue sentinel: resolves its future once the worker reaches it."""

    future: asyncio.Future


class ShardPool:
    """``n`` single-consumer FIFO workers."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shard count must be positive")
        self.shards = shards
        self._queues: list[asyncio.Queue] = [
            asyncio.Queue(maxsize=DEFAULT_QUEUE_SIZE) for _ in range(shards)
        ]
        self._workers: list[asyncio.Task] = []
        registry = get_registry()
        self._c_tasks = registry.counter(
            "repro_shard_tasks_total", help="Thunks executed by shard workers."
        )
        self._c_errors = registry.counter(
            "repro_shard_task_errors_total",
            help="Shard thunks that raised (the worker survives).",
        )

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
                self._c_tasks.inc()
                try:
                    item()
                except Exception:
                    # a failing thunk must not kill the shard; sessions
                    # account their own errors inside the thunk
                    self._c_errors.inc()
            finally:
                queue.task_done()

    async def submit_to(self, shard: int, thunk: Callable[[], None]) -> None:
        """Enqueue a thunk on ``shard``.

        ``await`` blocks when the shard queue is full — natural
        backpressure toward the submitting session.
        """
        await self._queues[shard].put(thunk)

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
        return f"ShardPool(shards={self.shards})"
