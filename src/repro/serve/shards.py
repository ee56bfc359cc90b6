"""The shard pool: one single-worker executor per shard.

A *shard* is one worker with its own warm state.  Keys are placed on
shards by a consistent-hash ring (:class:`repro.fabric.ring.HashRing`
over the nodes ``"shard-0" .. "shard-{N-1}"``), and every shard has a
dedicated single-worker executor rather than one N-worker pool, so a
key always runs on the same OS process/thread and the per-process
memos built computing it (e.g. the per-(provider, layer) weight tensors
of :func:`repro.experiments.common.layer_weights`) stay resident for
the next request that hashes to it.  It also keeps each shard process's
memory bounded by the keys it owns.

Two modes:

* ``"process"`` — one :class:`~concurrent.futures.ProcessPoolExecutor`
  per shard.  True parallelism; endpoint functions and kwargs must
  pickle.  The production default.
* ``"thread"`` — one :class:`~concurrent.futures.ThreadPoolExecutor`
  per shard.  No spawn cost and shared memos across shards; right for
  tests, demos, and workloads dominated by GIL-releasing numpy kernels.
"""

from __future__ import annotations

import asyncio
import signal
from collections.abc import Callable, Mapping
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial

from repro.fabric.ring import HashRing

#: Accepted shard pool modes.
MODES = ("process", "thread")


def _ignore_sigint() -> None:
    """Process-shard initializer: Ctrl-C belongs to the server process.

    A foreground Ctrl-C is delivered to the whole process group; without
    this, every shard worker dies mid-call with a KeyboardInterrupt
    traceback instead of letting the pool shut down cleanly.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class ShardPool:
    """A fixed set of single-worker executors, one per shard.

    Args:
        num_shards: shard count (>= 1).
        mode: ``"process"`` or ``"thread"`` (see module docstring).
    """

    def __init__(self, num_shards: int, mode: str = "process"):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.num_shards = num_shards
        self.mode = mode
        self._ring = HashRing(f"shard-{i}" for i in range(num_shards))
        self._executors: list[Executor] = [
            ProcessPoolExecutor(max_workers=1, initializer=_ignore_sigint)
            if mode == "process"
            else ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"shard-{i}")
            for i in range(num_shards)
        ]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (deterministic across instances)."""
        return int(self._ring.route(key).removeprefix("shard-"))

    async def run_on_shard(self, shard: int, fn: Callable, kwargs: Mapping) -> object:
        """Run ``fn(**kwargs)`` on one shard; the worker's exception propagates."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executors[shard], partial(fn, **kwargs))

    def shutdown(self) -> None:
        """Stop every shard executor (waits for in-flight calls)."""
        for executor in self._executors:
            executor.shutdown(wait=True)
