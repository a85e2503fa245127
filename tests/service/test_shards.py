"""Tests for the shard pool: per-shard FIFO, barriers, surviving workers."""

import asyncio

import pytest

from repro.obs.registry import use_registry
from repro.service.shards import ShardPool


class TestPool:
    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            ShardPool(0)

    def test_per_key_order_preserved(self):
        async def run():
            pool = ShardPool(4)
            await pool.start()
            seen: dict[int, list[int]] = {}
            for i in range(200):
                shard = i % pool.shards

                def record(shard=shard, i=i):
                    seen.setdefault(shard, []).append(i)

                await pool.submit_to(shard, record)
            await pool.flush()
            await pool.stop()
            return seen

        seen = asyncio.run(run())
        assert sum(len(v) for v in seen.values()) == 200
        for order in seen.values():
            assert order == sorted(order)

    def test_flush_is_a_barrier(self):
        async def run():
            pool = ShardPool(2)
            await pool.start()
            done = []
            for i in range(50):
                await pool.submit_to(i % 2, lambda i=i: done.append(i))
            await pool.flush()
            count_at_barrier = len(done)
            await pool.stop()
            return count_at_barrier

        assert asyncio.run(run()) == 50

    def test_failing_thunk_keeps_worker_alive(self):
        async def run():
            pool = ShardPool(1)
            await pool.start()

            def boom():
                raise RuntimeError("thunk failed")

            ok = []
            await pool.submit_to(0, boom)
            await pool.submit_to(0, lambda: ok.append(1))
            await pool.flush()
            await pool.stop()
            return ok

        with use_registry() as registry:
            ok = asyncio.run(run())
        assert ok == [1]
        assert registry.counter("repro_shard_task_errors_total").value == 1
        assert registry.counter("repro_shard_tasks_total").value == 2

    def test_flush_subset_of_shards(self):
        async def run():
            pool = ShardPool(4)
            await pool.start()
            hit = []
            await pool.submit_to(2, lambda: hit.append(1))
            await pool.flush({2})
            assert hit == [1]
            await pool.stop()

        asyncio.run(run())
