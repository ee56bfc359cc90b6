"""End-to-end serving tests: parity, caching, coalescing, robustness.

These run a real TCP server (thread-mode shards, ephemeral port) and
talk to it with the real clients, so they cover the wire protocol, the
shard dispatch, single-flight, and the cache fast path together.
"""

import json
import time

import pytest

from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServerHandle,
    default_mix,
    register,
    resolve,
    run_load,
)
from repro.serve.protocol import to_jsonable


@register("slow_echo")
def slow_echo(value: float = 1.0, seconds: float = 0.05) -> float:
    """Test endpoint: sleep, then echo (exercises single-flight)."""
    time.sleep(seconds)
    return value


@register("bad_payload")
def bad_payload() -> bytes:
    """Test endpoint returning something JSON cannot encode."""
    return b"\x00raw bytes"


def make_config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(port=0, workers=2, mode="thread",
                    cache_dir=str(tmp_path / "cache"))
    defaults.update(overrides)
    return ServeConfig(**defaults)


def direct_value(endpoint: str, kwargs: dict):
    """What the server should answer: direct call, JSON round-tripped."""
    value = resolve(endpoint)(**kwargs)
    return json.loads(json.dumps(to_jsonable(value)))


@pytest.fixture
def server(tmp_path):
    with ServerHandle(make_config(tmp_path)) as handle:
        yield handle


class TestBasics:
    def test_ping(self, server):
        with ServeClient(port=server.port) as client:
            assert client.value("ping", payload=42) == {"pong": 42}

    def test_unknown_endpoint_is_an_error_not_a_hangup(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeError, match="unknown endpoint"):
                client.request("no_such_endpoint")
            # The connection survives the error.
            assert client.value("ping") == {"pong": None}

    def test_endpoint_exception_reported(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeError, match="unknown design"):
                client.request("simulate", design="tpu")

    def test_unencodable_return_value_is_an_error_response(self, server):
        """A bad custom endpoint must not leave its request unanswered."""
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeError, match="not JSON-serializable"):
                client.request("bad_payload")
            assert client.value("ping") == {"pong": None}

    def test_cache_write_failure_does_not_hang_clients(self, tmp_path):
        """put() failing (full disk, bad perms) must still resolve requests."""
        from repro.runtime import ResultCache

        class BrokenPutCache(ResultCache):
            def put(self, key, value, fn="", label=""):
                raise OSError("disk full")

        config = make_config(tmp_path)
        broken = BrokenPutCache(root=tmp_path / "cache")
        with ServerHandle(config, cache=broken) as handle:
            with ServeClient(port=handle.port, timeout=10.0) as client:
                kwargs = {"network": "lenet", "group_size": 2, "density": 0.55}
                response = client.request("runtime_point", **kwargs)
        assert response.ok and not response.cached
        assert response.value == direct_value("runtime_point", kwargs)

    def test_meta_endpoints(self, server):
        with ServeClient(port=server.port) as client:
            names = client.value("_endpoints")
            assert "runtime_point" in names and "simulate" in names
            stats = client.stats()
            assert stats["requests"] >= 1


class TestParity:
    """Acceptance: served responses bit-identical to direct execution."""

    def test_runtime_point_matches_direct(self, server):
        kwargs = {"network": "lenet", "layer_index": 1, "group_size": 2, "density": 0.6}
        with ServeClient(port=server.port) as client:
            response = client.request("runtime_point", **kwargs)
        assert response.value == direct_value("runtime_point", kwargs)
        assert isinstance(response.value, float)

    def test_factorize_dict_matches_direct(self, server):
        kwargs = {"k": 4, "c": 8, "u": 5, "group_size": 2, "density": 0.7}
        with ServeClient(port=server.port) as client:
            value = client.value("factorize", **kwargs)
        assert value == direct_value("factorize", kwargs)
        assert value["engine"]["parity"] is True

    def test_engine_forward_matches_direct_and_dense(self, server):
        kwargs = {"k": 4, "c": 8, "u": 5, "group_size": 2, "size": 6}
        with ServeClient(port=server.port) as client:
            value = client.value("engine_forward", **kwargs)
        assert value == direct_value("engine_forward", kwargs)
        assert value["parity"] is True

    def test_cached_hit_returns_identical_value(self, server):
        kwargs = {"network": "lenet", "group_size": 4, "density": 0.3}
        with ServeClient(port=server.port) as client:
            first = client.request("runtime_point", **kwargs)
            second = client.request("runtime_point", **kwargs)
        assert not first.cached and second.cached
        assert first.value == second.value == direct_value("runtime_point", kwargs)
        assert second.shard is None  # hits never touch a worker

    def test_mixed_load_full_parity(self, server):
        mix = default_mix(30)
        result = run_load("127.0.0.1", server.port, mix, concurrency=4)
        assert result.stats.errors == 0
        for (endpoint, kwargs), record in zip(mix, result.records):
            assert record.value == direct_value(endpoint, kwargs), endpoint


class TestDurationLoad:
    def test_duration_mode_cycles_the_mix_until_the_deadline(self, server):
        """``duration=`` turns the fixed list into a sustained closed
        loop: the mix repeats until time is up, every issued request is
        answered, and records map back to mix slots by index order."""
        mix = default_mix(5)
        result = run_load("127.0.0.1", server.port, mix, concurrency=4,
                          duration=1.0)
        assert result.stats.errors == 0
        assert result.stats.requests > len(mix)  # it cycled
        for i, record in enumerate(result.records):
            endpoint, kwargs = mix[i % len(mix)]
            assert record.value == direct_value(endpoint, kwargs)

    def test_duration_zero_issues_nothing(self, server):
        result = run_load("127.0.0.1", server.port, default_mix(5),
                          concurrency=4, duration=0.0)
        assert result.stats.requests == 0

    def test_empty_mix_is_rejected(self, server):
        with pytest.raises(ValueError):
            run_load("127.0.0.1", server.port, [], duration=1.0)


class TestCacheBehaviour:
    def test_warm_pass_is_all_hits(self, server):
        mix = default_mix(20)
        run_load("127.0.0.1", server.port, mix, concurrency=4)
        warm = run_load("127.0.0.1", server.port, mix, concurrency=4)
        assert warm.stats.hit_rate == 1.0
        assert warm.stats.errors == 0

    def test_cache_survives_server_restart(self, tmp_path):
        kwargs = {"network": "lenet", "group_size": 2, "density": 0.5}
        with ServerHandle(make_config(tmp_path)) as first:
            with ServeClient(port=first.port) as client:
                cold = client.request("runtime_point", **kwargs)
        with ServerHandle(make_config(tmp_path)) as second:
            with ServeClient(port=second.port) as client:
                warm = client.request("runtime_point", **kwargs)
        assert not cold.cached and warm.cached
        assert warm.value == cold.value

    def test_no_cache_mode_always_computes(self, tmp_path):
        config = make_config(tmp_path, cache_enabled=False)
        kwargs = {"network": "lenet", "group_size": 1, "density": 0.4}
        with ServerHandle(config) as handle:
            with ServeClient(port=handle.port) as client:
                first = client.request("runtime_point", **kwargs)
                second = client.request("runtime_point", **kwargs)
        assert not first.cached and not second.cached
        assert first.value == second.value

    def test_concurrent_misses_on_one_shard_fail_independently(self, tmp_path):
        """One failing miss must not fail another running on the same shard."""
        import asyncio

        from repro.serve import AsyncServeClient

        config = make_config(tmp_path, workers=1)

        async def scenario(port):
            good_client = await AsyncServeClient.connect(port=port)
            bad_client = await AsyncServeClient.connect(port=port)
            try:
                good_task = asyncio.ensure_future(
                    good_client.request("slow_echo", value=3.0, seconds=0.01))
                bad_task = asyncio.ensure_future(
                    bad_client.request("simulate", design="tpu"))
                good = await asyncio.wait_for(good_task, timeout=10.0)
                with pytest.raises(ServeError, match="unknown design"):
                    await asyncio.wait_for(bad_task, timeout=10.0)
                return good
            finally:
                await good_client.aclose()
                await bad_client.aclose()

        with ServerHandle(config) as handle:
            good = asyncio.run(scenario(handle.port))
        assert good.ok and good.value == 3.0

    def test_coalesced_request_survives_owner_disconnect(self, tmp_path):
        """The first requester hanging up must not starve coalesced twins."""
        import asyncio

        from repro.serve import AsyncServeClient

        config = make_config(tmp_path, workers=1)

        async def scenario(port):
            owner = await AsyncServeClient.connect(port=port)
            kwargs = {"value": 11.0, "seconds": 0.4}
            owner_task = asyncio.ensure_future(owner.request("slow_echo", **kwargs))
            await asyncio.sleep(0.1)
            twin = await AsyncServeClient.connect(port=port)
            twin_task = asyncio.ensure_future(twin.request("slow_echo", **kwargs))
            await asyncio.sleep(0.1)
            owner_task.cancel()
            await owner.aclose()  # owner hangs up mid-compute
            try:
                response = await asyncio.wait_for(twin_task, timeout=5.0)
            finally:
                await twin.aclose()
            return response

        with ServerHandle(config) as handle:
            response = asyncio.run(scenario(handle.port))
        assert response.ok and response.value == 11.0

    def test_single_flight_coalesces_identical_misses(self, tmp_path):
        """Concurrent identical cold requests compute once, not N times."""
        config = make_config(tmp_path, workers=1)
        mix = [("slow_echo", {"value": 7.0, "seconds": 0.2})] * 6
        with ServerHandle(config) as handle:
            result = run_load("127.0.0.1", handle.port, mix, concurrency=6)
            stats = handle.stats()
        assert result.stats.errors == 0
        assert all(r.value == 7.0 for r in result.records)
        # One request computed; the rest either coalesced onto it or hit
        # the cache after it landed — never a second worker execution.
        assert stats["misses"] == 1
        assert stats["coalesced"] + stats["hits"] == 5


    def test_stop_finishes_an_in_flight_miss_and_its_cache_write(self, tmp_path):
        """Shutdown awaits a running miss, so its result is cached for the restart."""
        import asyncio

        from repro.serve import AsyncServeClient

        kwargs = {"value": 5.0, "seconds": 0.3}
        first = ServerHandle(make_config(tmp_path, workers=1))
        first.start()

        async def send_then_stop(port):
            client = await AsyncServeClient.connect(port=port)
            request = asyncio.ensure_future(client.request("slow_echo", **kwargs))
            try:
                while first.stats()["misses"] < 1:
                    await asyncio.sleep(0.01)
                await asyncio.get_running_loop().run_in_executor(None, first.stop)
            finally:
                request.cancel()
                await asyncio.gather(request, return_exceptions=True)
                await client.aclose()

        asyncio.run(send_then_stop(first.port))
        with ServerHandle(make_config(tmp_path, workers=1)) as second:
            with ServeClient(port=second.port) as client:
                warm = client.request("slow_echo", **kwargs)
            stats = second.stats()
        assert warm.cached and warm.value == 5.0
        assert stats["misses"] == 0

    def test_miss_reply_names_the_shard_that_computed_it(self, tmp_path):
        with ServerHandle(make_config(tmp_path, workers=4)) as handle:
            with ServeClient(port=handle.port) as client:
                cold = client.request("slow_echo", value=2.0, seconds=0.0)
                warm = client.request("slow_echo", value=2.0, seconds=0.0)
            stats = handle.stats()
        assert cold.shard in range(4) and warm.shard is None
        assert {int(k): v for k, v in stats["per_shard"].items()} == {cold.shard: 1}


class TestStats:
    def test_counters_add_up(self, server):
        mix = default_mix(25)
        run_load("127.0.0.1", server.port, mix, concurrency=4)
        stats = server.stats()
        assert stats["requests"] == 25
        assert stats["hits"] + stats["misses"] + stats["coalesced"] == 25
        assert stats["misses"] >= 1
        assert sum(stats["per_shard"].values()) == stats["misses"]
        # Every computed miss is exactly one shard dispatch.
        assert stats["batches"] == stats["misses"]


class TestProgramPrewarm:
    def test_prewarmed_server_serves_with_zero_compiles(self, tmp_path):
        """Warm-start proof at the serve layer: pull artifacts, 0 misses."""
        from repro.engine import clear_program_cache
        from repro.engine.artifacts import ProgramArtifactTier, ProgramStore
        from repro.engine.program import set_artifact_tier
        from repro.serve.endpoints import network_forward

        # "Node A": compile into the artifact dir via the tier.
        store = ProgramStore(root=tmp_path / "cache")
        tier = ProgramArtifactTier(store)
        previous = set_artifact_tier(tier)
        try:
            clear_program_cache()
            ref = network_forward(seed=21, batch=2)
            tier.drain()
        finally:
            set_artifact_tier(previous)
            tier.close()
        clear_program_cache()

        # "Node B": same artifact dir, fresh program cache, prewarm on.
        config = make_config(tmp_path, workers=1, prewarm_programs=True)
        with ServerHandle(config) as handle:
            with ServeClient(port=handle.port) as client:
                response = client.send("network_forward", {"seed": 21, "batch": 2})
            stats = handle.stats()
        assert response.ok, response.error
        assert response.value["out_checksum"] == ref["out_checksum"]
        programs = stats["programs"]
        assert programs["prewarm"]["installed"] >= 2
        assert programs["misses"] == 0, f"prewarmed server compiled: {programs}"

    def test_stats_always_carry_programs_block(self, server):
        stats = server.stats()
        assert "programs" in stats
        assert set(stats["programs"]) >= {"entries", "hits", "misses", "artifact_hits"}
