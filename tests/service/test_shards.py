"""Tests for the session queue: FIFO order, barriers, a surviving worker."""

import asyncio

from repro.obs.registry import use_registry
from repro.service.shards import ShardPool


class TestPool:
    def test_per_key_order_preserved(self):
        async def run():
            pool = ShardPool()
            await pool.start()
            seen: list[int] = []
            for i in range(200):
                await pool.submit_to(lambda i=i: seen.append(i))
            await pool.flush()
            await pool.stop()
            return seen

        assert asyncio.run(run()) == list(range(200))

    def test_flush_is_a_barrier(self):
        async def run():
            pool = ShardPool()
            await pool.start()
            done = []
            for i in range(50):
                await pool.submit_to(lambda i=i: done.append(i))
            await pool.flush()
            count_at_barrier = len(done)
            await pool.submit_to(lambda: done.append(50))
            await pool.stop()
            return count_at_barrier, len(done)

        assert asyncio.run(run()) == (50, 51)

    def test_failing_thunk_keeps_worker_alive(self):
        async def run():
            pool = ShardPool()
            await pool.start()

            def boom():
                raise RuntimeError("thunk failed")

            ok = []
            await pool.submit_to(boom)
            await pool.submit_to(lambda: ok.append(1))
            await pool.flush()
            await pool.stop()
            return ok

        with use_registry() as registry:
            ok = asyncio.run(run())
        assert ok == [1]
        assert registry.counter("repro_shard_task_errors_total").value == 1
        assert registry.counter("repro_shard_tasks_total").value == 2
