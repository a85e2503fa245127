"""The session queue: one FIFO worker on the server's event loop.

The server submits "step my monitor" thunks here, so every session's
inputs are checked in arrival order.  The worker is a task on the
server's loop, not a thread: it adds no parallelism, which comes from
``--procs``.

The pool is workload-agnostic: it executes submitted thunks. Sessions
use :meth:`ShardPool.flush` as a barrier before reporting status.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable

from repro.obs.registry import get_registry

__all__ = ["ShardPool"]

DEFAULT_QUEUE_SIZE = 1024


@dataclass(slots=True)
class _Flush:
    """Queue sentinel: resolves its future once the worker reaches it."""

    future: asyncio.Future


class ShardPool:
    """One single-consumer FIFO worker."""

    def __init__(self) -> None:
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=DEFAULT_QUEUE_SIZE)
        self._worker: asyncio.Task | None = None
        registry = get_registry()
        self._c_tasks = registry.counter(
            "repro_shard_tasks_total", help="Thunks executed by the queue worker."
        )
        self._c_errors = registry.counter(
            "repro_shard_task_errors_total",
            help="Queue thunks that raised (the worker survives).",
        )

    async def start(self) -> None:
        if self._worker is None:
            self._worker = asyncio.create_task(self._run(), name="repro-shard")

    async def _run(self) -> None:
        queue = self._queue
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
                    # a failing thunk must not kill the worker; sessions
                    # account their own errors inside the thunk
                    self._c_errors.inc()
            finally:
                queue.task_done()

    async def submit_to(self, thunk: Callable[[], None]) -> None:
        """Enqueue a thunk.

        ``await`` blocks when the queue is full — natural backpressure
        toward the submitting session.
        """
        await self._queue.put(thunk)

    async def flush(self) -> None:
        """Barrier: resolves once every prior item on the queue is done."""
        sentinel = _Flush(asyncio.get_running_loop().create_future())
        await self._queue.put(sentinel)
        await sentinel.future

    async def stop(self) -> None:
        """Drain the queue and stop the worker."""
        if self._worker is None:
            return
        await self._queue.put(None)
        await self._worker
        self._worker = None
