"""Async JSON-over-TCP server on top of the runtime cache.

Request lifecycle (see ``docs/architecture.md`` for the full diagram)::

    client line -> decode -> resolve endpoint -> cache key
        cache hit  -> respond immediately (no worker touched)
        in flight  -> await the existing computation (single-flight)
        cache miss -> consistent-hash shard -> fn(**kwargs) on its worker
                      -> cache.put -> respond

Sockets, pipelining, HMAC and the request envelope come from
:class:`repro.serve.lineserver.LineServer`; this module adds only the
cache fast path and the shard dispatch behind :meth:`Server.dispatch`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial

from repro.fabric.tls import TLSConfig
from repro.runtime.cache import MISS, ResultCache, fn_identity
from repro.runtime.tiers import TieredCache
from repro.serve import endpoints as endpoints_mod
from repro.serve.lineserver import LineServer, LineStats, LoopHandle
from repro.serve.protocol import to_jsonable
from repro.serve.shards import MODES, ShardPool


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`Server` needs to start.

    Attributes:
        host: bind address.
        port: bind port; 0 asks the OS for an ephemeral port (the bound
            port is on ``Server.port`` / ``ServerHandle.port``).
        workers: shard count — one single-worker executor per shard.
        mode: ``"process"`` or ``"thread"`` shard workers.
        cache_dir: result-cache directory (``None`` = the default cache
            resolution of :func:`repro.runtime.cache.default_cache_dir`).
        cache_enabled: disable to force every request through a worker.
        cache_max_bytes: LRU byte budget for the cache (``None`` =
            unbounded).
        remote_cache: cache-peer URL to tier behind the local cache
            (``None`` = local-only).  Remote failures degrade to local
            misses; they never surface to clients.
        remote_timeout: per-operation timeout for the remote tier, in
            seconds — bounds how long a local miss can stall on a sick
            peer before falling through to compute.
        auth_secret: shared fabric secret (:mod:`repro.fabric.auth`).
            When set, every request must carry a valid HMAC ``auth``
            field — checked before the endpoint is even resolved.
            ``None`` keeps the server open (the pre-fabric behaviour).
        prewarm_programs: before binding the socket, pull the fleet's
            compiled-program artifacts (from ``remote_cache`` when set,
            else the local artifact dir) and seed the engine program
            cache, then leave the artifact tier installed so later
            compiles are shared back.  A cold node that prewarms serves
            its first ``network_forward`` with zero compilations.  The
            warm cache lives in the serving process: ``"thread"`` shard
            workers share it directly; ``"process"`` shards keep
            per-process program caches (they inherit the warm cache on
            fork-start platforms, and the pulled artifact files are on
            disk either way).
        tls: TLS identity (:class:`repro.fabric.tls.TLSConfig`) for the
            listening socket *and* the remote-cache client; ``None``
            falls back to the ``REPRO_FABRIC_TLS_*`` environment, and
            with neither the server speaks cleartext.
    """

    host: str = "127.0.0.1"
    port: int = 8537
    workers: int = 2
    mode: str = "process"
    cache_dir: str | None = None
    cache_enabled: bool = True
    cache_max_bytes: int | None = None
    remote_cache: str | None = None
    remote_timeout: float = 2.0
    auth_secret: str | None = None
    prewarm_programs: bool = False
    tls: TLSConfig | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class ServeStats(LineStats):
    """Liveness counters, exposed via the ``_stats`` meta endpoint."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    batches: int = 0  # shard dispatches: one per computed miss
    per_shard: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        """Plain-dict copy (including derived hit rate) for the wire."""
        served = self.hits + self.misses + self.coalesced
        return {**super().snapshot(), "hit_rate": self.hits / served if served else 0.0}


class Server(LineServer):
    """The asyncio serving loop: cache fast path and shard dispatch.

    Args:
        config: see :class:`ServeConfig`.
        cache: inject a pre-built :class:`ResultCache` (tests use this);
            by default one is constructed from the config.

    Use :meth:`start` + :meth:`serve_forever` from an event loop, or
    :class:`ServerHandle` to run the whole loop on a background thread.
    """

    def __init__(self, config: ServeConfig | None = None, cache: ResultCache | None = None):
        super().__init__(config or ServeConfig(), ServeStats())
        self._owns_cache = cache is None
        if cache is not None:
            self.cache = cache
        elif not self.config.cache_enabled:
            self.cache = None
        elif self.config.remote_cache:
            self.cache = TieredCache(
                remote=self.config.remote_cache, root=self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
                remote_timeout=self.config.remote_timeout,
                tls=self.config.tls)
        else:
            self.cache = ResultCache(
                root=self.config.cache_dir, max_bytes=self.config.cache_max_bytes)
        self.pool = ShardPool(self.config.workers, mode=self.config.mode)
        self.programs_prewarmed: dict | None = None
        # Optional callable merged into stats_snapshot(): a wrapper
        # (e.g. a fabric WorkerNode) exposes its own gauges over the
        # wire ``_stats`` endpoint without the server knowing about it.
        self.extra_stats = None
        self._program_tier = None
        self._inflight: dict[str, asyncio.Task] = {}
        # Strong references: the loop only weakly references tasks, so
        # an un-retained shard task could be garbage-collected mid-call
        # and leave its requester and coalesced twins unanswered.
        self._shard_tasks: set[asyncio.Task] = set()

    def stats_snapshot(self) -> dict:
        """The server counters, plus the ``tier`` sub-dict when tiered.

        The one source for both the ``_stats`` wire endpoint and
        :meth:`ServerHandle.stats`.
        """
        snapshot = self.stats.snapshot()
        if isinstance(self.cache, TieredCache):
            snapshot["tier"] = self.cache.tier_stats()
        from repro.engine.program import program_cache_info
        programs = program_cache_info()
        if self.programs_prewarmed is not None:
            programs["prewarm"] = self.programs_prewarmed
        snapshot["programs"] = programs
        if self.extra_stats is not None:
            try:
                snapshot.update(self.extra_stats())
            except Exception:
                pass  # a broken gauge must not break _stats
        return snapshot

    def _prewarm_programs(self) -> dict:
        """Pull fleet program artifacts and install the artifact tier.

        Runs in an executor before the socket binds (so traffic never
        races the warm-up).  Best-effort end to end: a down peer or a
        stale artifact shrinks the installed count, never blocks
        serving.
        """
        from repro.engine.artifacts import ProgramArtifactTier, ProgramStore
        from repro.engine.program import set_artifact_tier
        from repro.runtime.tiers import HTTPPeerTier
        remote = self.config.remote_cache
        if isinstance(remote, str) and remote:
            remote = HTTPPeerTier.for_bulk(
                remote, timeout=max(self.config.remote_timeout, 10.0),
                tls=self.config.tls)
        store = ProgramStore(root=self.config.cache_dir, remote=remote)
        report = store.prewarm()
        self._program_tier = ProgramArtifactTier(store)
        set_artifact_tier(self._program_tier)
        return report

    async def start(self) -> None:
        """Bind the listening socket; fills in :attr:`port`.

        When :attr:`ServeConfig.prewarm_programs` is set, the program
        pre-warm (pull artifacts, seed the engine cache, install the
        write-back tier) completes *before* the bind — a client that
        can connect is a client that gets warm programs.
        """
        if self.config.prewarm_programs:
            loop = asyncio.get_running_loop()
            self.programs_prewarmed = await loop.run_in_executor(
                None, self._prewarm_programs)
        await super().start()

    async def aclose(self) -> None:
        """Stop accepting, drop open connections, finish in-flight misses, stop the pool."""
        await super().aclose()
        if self._shard_tasks:
            await asyncio.gather(*self._shard_tasks, return_exceptions=True)
        self.pool.shutdown()
        if self._owns_cache and isinstance(self.cache, TieredCache):
            # Drain pending write-backs off the loop (close blocks on
            # the write-back worker, which may be mid-HTTP-push).
            await asyncio.get_running_loop().run_in_executor(None, self.cache.close)
        if self._program_tier is not None:
            # Detach the process-global artifact tier only if it is
            # still ours (another server may have installed its own),
            # then flush its pending write-backs off the loop.
            from repro.engine.program import get_artifact_tier, set_artifact_tier
            if get_artifact_tier() is self._program_tier:
                set_artifact_tier(None)
            await asyncio.get_running_loop().run_in_executor(
                None, self._program_tier.close)
            self._program_tier = None

    async def dispatch(self, rid: int, name: str, kwargs: dict, message: dict,
                       started: float) -> dict:
        """Resolve ``name`` to an endpoint and serve it through the cache."""
        if name == "_endpoints":
            return self._ok(rid, list(endpoints_mod.endpoint_names()), started)
        fn = endpoints_mod.resolve(name)
        return await self._serve_point(rid, name, fn, kwargs, started)

    async def _serve_point(self, rid: int, name: str, fn, kwargs: dict,
                           started: float) -> dict:
        key = None
        if self.cache is not None:
            key = self.cache.key_for(fn, kwargs)
            if isinstance(self.cache, TieredCache):
                # Local probe on-loop (one small pickle beats a thread
                # handoff — the warm steady state must stay cheap); only
                # the remote leg, which can block on HTTP for up to
                # remote_timeout, goes through the executor.  2s of
                # frozen event loop would be 2s of frozen *server*.
                value = self.cache.get_local(key)
                if value is MISS:
                    value = await asyncio.get_running_loop().run_in_executor(
                        None, self.cache.get_remote, key)
            else:
                value = self.cache.get(key)
            if value is not MISS:
                self.stats.hits += 1
                return self._ok(rid, to_jsonable(value), started, cached=True)
            existing = self._inflight.get(key)
            if existing is not None:
                value = await asyncio.shield(existing)
                self.stats.coalesced += 1
                return self._ok(rid, to_jsonable(value), started, coalesced=True)
        shard = self.pool.shard_for(key or repr((name, sorted(kwargs.items()))))
        self.stats.misses += 1
        self.stats.batches += 1
        self.stats.per_shard[shard] = self.stats.per_shard.get(shard, 0) + 1
        task = asyncio.ensure_future(self._compute(shard, key, fn, kwargs))
        self._shard_tasks.add(task)
        if key is not None:
            # The entry lives until the computation resolves — NOT until
            # this requester stops waiting: if the requester disconnects
            # mid-compute, later identical requests must still coalesce
            # onto the running computation instead of launching a twin.
            self._inflight[key] = task
        task.add_done_callback(self._shard_task_done(key))
        # Shielded: if this requester disconnects mid-compute, its task
        # cancellation must not cancel the shared task that coalesced
        # requests are awaiting.
        value = await asyncio.shield(task)
        return self._ok(rid, to_jsonable(value), started, shard=shard)

    async def _compute(self, shard: int, key: str | None, fn, kwargs: dict):
        """Run one miss on its shard, then write the cache, then return."""
        value = await self.pool.run_on_shard(shard, fn, kwargs)
        if key is not None:
            # The write-back runs off the loop (disk I/O, and possibly an
            # LRU eviction sweep) *before* the value returns, so an
            # immediate repeat request is a guaranteed hit.  A failure is
            # tolerated: the cache is a memo, not the source of truth.
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, partial(self.cache.put, key, value, fn=fn_identity(fn)))
            except Exception:
                pass
        return value

    def _shard_task_done(self, key: str | None):
        """Done-callback releasing a shard task and its in-flight entry."""
        def _done(task: asyncio.Task) -> None:
            self._shard_tasks.discard(task)
            if key is not None and self._inflight.get(key) is task:
                del self._inflight[key]
            if not task.cancelled():
                # Mark a failure retrieved even when every requester has
                # hung up (waiters read their own shield-copies), so the
                # loop doesn't log "exception was never retrieved".
                task.exception()
        return _done

    def _ok(self, rid: int, value, started: float, cached: bool = False,
            coalesced: bool = False, shard: int | None = None) -> dict:
        return {
            "id": rid, "ok": True, "value": value, "cached": cached,
            "coalesced": coalesced, "shard": shard,
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }


class ServerHandle(LoopHandle):
    """Runs a :class:`Server` event loop on a daemon thread.

    The synchronous entry point examples, tests, and ``repro
    bench-serve`` use::

        with ServerHandle(ServeConfig(port=0, mode="thread")) as handle:
            client = ServeClient("127.0.0.1", handle.port)
            ...

    Attributes:
        port: the bound port, available once :meth:`start` returns.
    """

    def __init__(self, config: ServeConfig | None = None, cache: ResultCache | None = None):
        self.config = config or ServeConfig()
        self.server = Server(self.config, cache=cache)
        super().__init__(self.server)
