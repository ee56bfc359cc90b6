"""Tests for the shard pool: key placement and the per-call dispatch.

The ring mechanics over arbitrary node names are pinned by
``tests/fabric/test_ring.py``; here the pool's use of that ring is
checked as the server sees it (integer shard indices, including the
multi-digit ``"shard-10"`` labels, and a change of shard count across
a restart), together with the affinity and concurrency of its
executors.
"""

import asyncio
import hashlib
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.ring import HashRing
from repro.serve import ShardPool


def _keys(n: int) -> list[str]:
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]


def _fail(message: str) -> None:
    raise KeyError(message)


def _thread_name() -> str:
    return threading.current_thread().name


@pytest.fixture
def make_pool():
    pools = []

    def make(num_shards: int) -> ShardPool:
        pools.append(ShardPool(num_shards, mode="thread"))
        return pools[-1]

    yield make
    for pool in pools:
        pool.shutdown()


class TestPlacement:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_shard_for_is_the_ring_over_shard_labels(self, make_pool, num_shards):
        pool = make_pool(num_shards)
        ring = HashRing(f"shard-{i}" for i in range(num_shards))
        for key in _keys(500):
            assert f"shard-{pool.shard_for(key)}" == ring.route(key)

    def test_placement_is_unchanged_across_releases(self, make_pool):
        """Fixed placements: a label change would cool every shard's memos."""
        keys = _keys(16)
        assert [make_pool(4).shard_for(k) for k in keys] == [
            0, 1, 1, 0, 3, 3, 2, 1, 0, 0, 1, 3, 0, 0, 2, 1]
        assert [make_pool(3).shard_for(k) for k in keys] == [
            0, 1, 1, 0, 1, 1, 2, 1, 0, 0, 1, 0, 0, 0, 2, 1]

    def test_deterministic_across_instances(self, make_pool):
        a, b = make_pool(4), make_pool(4)
        assert [a.shard_for(k) for k in _keys(200)] == [b.shard_for(k) for k in _keys(200)]

    def test_single_shard_takes_every_key(self, make_pool):
        pool = make_pool(1)
        assert {pool.shard_for(k) for k in _keys(100)} == {0}

    def test_every_shard_index_is_reachable(self, make_pool):
        """Twelve shards: the two-digit labels parse to indices 10 and 11."""
        pool = make_pool(12)
        assert {pool.shard_for(k) for k in _keys(4000)} == set(range(12))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ShardPool(0, mode="thread")
        with pytest.raises(ValueError):
            ShardPool(1, mode="fiber")


class TestShardCountChange:
    """A restart with a different shard count keeps most keys' memos warm."""

    @settings(max_examples=25, deadline=None)
    @given(num_shards=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_growing_moves_about_one_share_onto_the_new_shard(self, num_shards, seed):
        before = ShardPool(num_shards, mode="thread")
        after = ShardPool(num_shards + 1, mode="thread")
        try:
            keys = [hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()
                    for i in range(1500)]
            moved = [k for k in keys if before.shard_for(k) != after.shard_for(k)]
            assert all(after.shard_for(k) == num_shards for k in moved)
            # 2x slack over the ideal share for virtual-point variance.
            assert len(moved) / len(keys) <= 2.0 / (num_shards + 1)
        finally:
            before.shutdown()
            after.shutdown()

    @settings(max_examples=25, deadline=None)
    @given(num_shards=st.integers(min_value=2, max_value=12),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_shrinking_moves_only_the_dropped_shards_keys(self, num_shards, seed):
        before = ShardPool(num_shards, mode="thread")
        after = ShardPool(num_shards - 1, mode="thread")
        try:
            dropped = num_shards - 1
            for i in range(1000):
                key = hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()
                if before.shard_for(key) != dropped:
                    assert after.shard_for(key) == before.shard_for(key)
        finally:
            before.shutdown()
            after.shutdown()


class TestDispatch:
    def test_run_on_shard_returns_the_value(self, make_pool):
        pool = make_pool(2)
        assert asyncio.run(pool.run_on_shard(1, dict, {"a": 1})) == {"a": 1}

    def test_each_shard_always_runs_on_its_own_worker(self, make_pool):
        """Same shard, same thread: its memos are still there next call."""
        pool = make_pool(3)

        async def names():
            return [await pool.run_on_shard(s, _thread_name, {})
                    for s in (0, 1, 2, 0, 1, 2)]

        first = asyncio.run(names())
        assert first[:3] == first[3:]
        assert len(set(first[:3])) == 3
        assert all(name.startswith(f"shard-{s}_")
                   for s, name in zip((0, 1, 2), first))

    def test_different_shards_run_concurrently(self, make_pool):
        """Two calls that each wait for the other complete only in parallel."""
        pool = make_pool(2)
        barrier = threading.Barrier(2, timeout=5.0)

        async def both():
            return await asyncio.gather(
                pool.run_on_shard(0, barrier.wait, {}),
                pool.run_on_shard(1, barrier.wait, {}))

        assert sorted(asyncio.run(both())) == [0, 1]

    def test_calls_on_one_shard_never_overlap(self, make_pool):
        pool = make_pool(1)
        lock = threading.Lock()
        active, peak = [0], [0]

        def work(i: int) -> int:
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            threading.Event().wait(0.01)
            with lock:
                active[0] -= 1
            return i

        async def many():
            return await asyncio.gather(
                *(pool.run_on_shard(0, work, {"i": i}) for i in range(6)))

        assert asyncio.run(many()) == list(range(6))
        assert peak[0] == 1

    def test_shutdown_waits_for_in_flight_calls(self):
        pool = ShardPool(1, mode="thread")
        started, done = threading.Event(), threading.Event()

        def slow() -> None:
            started.set()
            threading.Event().wait(0.1)
            done.set()

        async def submit_then_shutdown():
            call = asyncio.ensure_future(pool.run_on_shard(0, slow, {}))
            await asyncio.get_running_loop().run_in_executor(None, started.wait, 5.0)
            pool.shutdown()
            assert done.is_set()
            await call

        asyncio.run(submit_then_shutdown())


def test_run_on_shard_propagates_the_worker_exception(make_pool):
    pool = make_pool(1)
    with pytest.raises(KeyError, match="boom"):
        asyncio.run(pool.run_on_shard(0, _fail, {"message": "boom"}))
