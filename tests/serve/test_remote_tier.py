"""End-to-end: serve nodes sharing results through a cache peer.

Real TCP serve nodes (thread shards, ephemeral ports) with *distinct*
cache directories — two "machines" — plus a real HTTP cache peer
between them.  Covers the fleet story: node B's first request for a
point node A computed is a peer hit (no shard touched), the remote
tier's counters surface through ``_stats``, and the peer dying
mid-stream degrades to local compute without a single client-visible
error.
"""

import pytest

from repro.runtime import CachePeer
from repro.serve import ServeClient, ServeConfig, ServerHandle, default_mix, run_load
from repro.serve.server import Server


def make_config(tmp_path, node: str, peer_url: str, **overrides) -> ServeConfig:
    defaults = dict(port=0, workers=2, mode="thread",
                    cache_dir=str(tmp_path / f"cache-{node}"),
                    remote_cache=peer_url, remote_timeout=0.3)
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture
def peer(tmp_path):
    with CachePeer(root=tmp_path / "peer") as running:
        yield running


class TestPeerSharing:
    def test_second_nodes_first_request_is_a_peer_hit(self, tmp_path, peer):
        kwargs = {"network": "lenet", "group_size": 2, "density": 0.35}
        with ServerHandle(make_config(tmp_path, "a", peer.url)) as node_a:
            with ServeClient(port=node_a.port) as client:
                cold = client.request("runtime_point", **kwargs)
            node_a.server.cache.drain()  # push-on-put lands on the peer
        assert not cold.cached

        with ServerHandle(make_config(tmp_path, "b", peer.url)) as node_b:
            with ServeClient(port=node_b.port) as client:
                warm = client.request("runtime_point", **kwargs)
                stats = client.stats()
        # Node B never computed: its very first request was a cache hit
        # served from the peer (no shard involved), bit-identical to A's.
        assert warm.cached and warm.shard is None
        assert warm.value == cold.value
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["tier"]["remote_hits"] == 1
        assert peer.stats_payload()["hits"] >= 1

    def test_mixed_load_across_two_nodes_no_recompute(self, tmp_path, peer):
        mix = default_mix(16)
        with ServerHandle(make_config(tmp_path, "a", peer.url)) as node_a:
            first = run_load("127.0.0.1", node_a.port, mix, concurrency=4)
            node_a.server.cache.drain()
        assert first.stats.errors == 0

        with ServerHandle(make_config(tmp_path, "b", peer.url)) as node_b:
            second = run_load("127.0.0.1", node_b.port, mix, concurrency=4)
            stats = node_b.stats()
        assert second.stats.errors == 0
        assert second.stats.hit_rate == 1.0  # all peer/local hits
        assert stats["misses"] == 0          # zero design points recomputed
        for a, b in zip(first.records, second.records):
            assert a.value == b.value

    def test_tier_stats_absent_without_remote_cache(self, tmp_path):
        config = ServeConfig(port=0, workers=1, mode="thread",
                             cache_dir=str(tmp_path / "plain"))
        with ServerHandle(config) as handle:
            with ServeClient(port=handle.port) as client:
                stats = client.stats()
        assert "tier" not in stats


class TestPeerDeathMidStream:
    def test_requests_keep_succeeding_after_peer_dies(self, tmp_path):
        peer = CachePeer(root=tmp_path / "peer")
        peer.start()
        kwargs_warm = {"network": "lenet", "group_size": 2, "density": 0.61}
        with ServerHandle(make_config(tmp_path, "a", peer.url)) as node_a:
            with ServeClient(port=node_a.port) as client:
                expected = client.request("runtime_point", **kwargs_warm)
            node_a.server.cache.drain()

        with ServerHandle(make_config(tmp_path, "b", peer.url)) as node_b:
            with ServeClient(port=node_b.port, timeout=30.0) as client:
                # First request rides the live peer ...
                warm = client.request("runtime_point", **kwargs_warm)
                assert warm.cached and warm.value == expected.value
                # ... then the peer dies mid-stream.
                peer.stop()
                # Never-seen points now fall through to local compute —
                # same connection, no client-visible error.
                fresh = client.request(
                    "runtime_point", network="lenet", group_size=4, density=0.15)
                assert fresh.ok and not fresh.cached
                # And a repeat is a *local* hit (promotion made B durable).
                repeat = client.request("runtime_point", **kwargs_warm)
                assert repeat.ok and repeat.cached
                stats = client.stats()
        assert stats["errors"] == 0
        assert stats["tier"]["remote_hits"] >= 1
        tier_errors = stats["tier"]["remote"]["errors"]
        assert tier_errors >= 1  # the dead peer was noticed, and contained

    def test_event_loop_stays_responsive_while_peer_hangs(self, tmp_path):
        """A hung peer may stall one request, never the whole server."""
        import socket
        import threading
        import time

        # A socket that listens but never accepts: the tier's connect
        # succeeds (kernel backlog) and the read hangs until timeout.
        gate = socket.socket()
        gate.bind(("127.0.0.1", 0))
        gate.listen(1)
        url = f"http://127.0.0.1:{gate.getsockname()[1]}"
        try:
            config = make_config(tmp_path, "slow", url,
                                 workers=1, remote_timeout=2.0)
            with ServerHandle(config) as handle:
                stalled = {}

                def stalled_request():
                    with ServeClient(port=handle.port, timeout=30.0) as c:
                        stalled["response"] = c.request(
                            "runtime_point", network="lenet",
                            group_size=2, density=0.27)

                thread = threading.Thread(target=stalled_request)
                thread.start()
                time.sleep(0.4)  # request is now waiting on the hung peer
                started = time.perf_counter()
                with ServeClient(port=handle.port, timeout=10.0) as c:
                    assert c.value("ping") == {"pong": None}
                ping_latency = time.perf_counter() - started
                thread.join()
            # The remote fetch ran off the loop: ping answered while the
            # other request sat out its 2s remote timeout.
            assert ping_latency < 1.0
            assert stalled["response"].ok and not stalled["response"].cached
        finally:
            gate.close()

    def test_node_with_never_alive_peer_still_serves(self, tmp_path):
        with CachePeer(root=tmp_path / "ghost") as ghost:
            unreachable = ghost.url  # bound, then immediately freed
        config = make_config(tmp_path, "solo", unreachable)
        mix = default_mix(10)
        with ServerHandle(config) as handle:
            cold = run_load("127.0.0.1", handle.port, mix, concurrency=4)
            warm = run_load("127.0.0.1", handle.port, mix, concurrency=4)
        assert cold.stats.errors == 0 and warm.stats.errors == 0
        assert warm.stats.hit_rate == 1.0  # local cache fully effective


class TestOwnedCacheLifecycle:
    def test_server_closes_its_tiered_cache_on_stop(self, tmp_path, peer):
        handle = ServerHandle(make_config(tmp_path, "a", peer.url))
        handle.start()
        with ServeClient(port=handle.port) as client:
            client.request("runtime_point", network="lenet",
                           group_size=2, density=0.8)
        handle.stop()
        # close() ran: the write-back executor is gone and the push landed.
        assert handle.server.cache._writeback._shutdown
        assert peer.stats_payload()["puts"] == 1

    def test_injected_cache_is_not_closed(self, tmp_path, peer):
        from repro.runtime import TieredCache

        cache = TieredCache(remote=peer.url, root=tmp_path / "inj")
        config = ServeConfig(port=0, workers=1, mode="thread")
        server = Server(config, cache=cache)
        assert not server._owns_cache
        cache.close()
