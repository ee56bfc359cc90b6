"""End-to-end fabric tests: the ISSUE acceptance criteria, in-process.

One FrontendHandle plus WorkerNodes (thread-mode servers) on
localhost exercise the real wire path: auth -> admission -> ring
routing -> forward -> serve endpoint.  Worker "kills" here stop the
serve socket and the membership agent without sending ``_leave`` —
the TCP-level signature of a SIGKILL.  (Real subprocess SIGKILLs run
in CI's cluster-smoke job and ``benchmarks/bench_cluster.py``.)
"""

import json
import threading
import time

import pytest

from repro.fabric import FrontendConfig, FrontendHandle, WorkerNode
from repro.serve import ServeClient, ServeConfig, register
from repro.serve.endpoints import network_forward, runtime_point
from repro.serve.protocol import to_jsonable

SECRET = "fabric-e2e-secret"


@register("fabric_sleep")
def fabric_sleep(seconds: float = 0.1, tag: int = 0) -> int:
    """Test endpoint: hold an admission slot for a while."""
    time.sleep(seconds)
    return tag


def worker_config(tmp_path, name: str, **overrides) -> ServeConfig:
    defaults = dict(port=0, workers=2, mode="thread",
                    cache_dir=str(tmp_path / name / "cache"), auth_secret=SECRET)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def kill_worker(worker: WorkerNode) -> None:
    """Die like SIGKILL: no ``_leave``, heartbeats just stop."""
    worker._stop.set()
    if worker._agent is not None:
        worker._agent.join()
        worker._agent = None
    worker.handle.stop()


@pytest.fixture
def cluster(tmp_path):
    """1 front-end + 2 workers sharing a secret; yields (fe, workers)."""
    fe = FrontendHandle(FrontendConfig(
        port=0, heartbeat_timeout=0.6, auth_secret=SECRET))
    fe.start()
    workers = []
    try:
        for i in range(2):
            worker = WorkerNode(worker_config(tmp_path, f"w{i}"),
                                "127.0.0.1", fe.port, worker_id=f"w{i}")
            workers.append(worker.start())
        yield fe, workers
    finally:
        for worker in workers:
            try:
                worker.stop()
            except Exception:
                pass
        fe.stop()


def wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    pytest.fail(message)


class TestParity:
    def test_forwarded_answers_match_direct_calls(self, cluster):
        """Routing through the fabric must not change a single bit."""
        fe, _ = cluster
        cases = [
            ("runtime_point", dict(network="lenet", layer_index=0,
                                   group_size=2, density=0.5, num_unique=17)),
            ("runtime_point", dict(network="lenet", layer_index=1,
                                   group_size=4, density=0.25, num_unique=33)),
            ("network_forward", dict(c=4, size=8, k1=4, k2=4, classes=6,
                                     u=9, batch=2, seed=3)),
        ]
        direct = {runtime_point.__name__: runtime_point,
                  network_forward.__name__: network_forward}
        with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
            for name, kwargs in cases:
                response = client.send(name, kwargs)
                assert response.ok, response.error
                assert response.worker in ("w0", "w1")
                expected = json.loads(json.dumps(to_jsonable(direct[name](**kwargs))))
                assert response.value == expected

    def test_same_key_sticks_to_one_worker_and_hits_its_cache(self, cluster):
        fe, _ = cluster
        kwargs = dict(network="lenet", layer_index=0, group_size=2,
                      density=0.5, num_unique=17)
        with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
            first = client.send("runtime_point", kwargs)
            second = client.send("runtime_point", kwargs)
        assert first.ok and second.ok
        assert first.worker == second.worker
        assert second.cached and second.value == first.value

    def test_control_plane_visible_to_clients(self, cluster):
        fe, _ = cluster
        with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
            members = client.send("_members", {})
            assert sorted(w["worker_id"] for w in members.value["workers"]) == ["w0", "w1"]
            stats = client.send("_stats", {})
            assert stats.value["membership"]["ring_nodes"] == ["w0", "w1"]
            assert client.send("ping", {"payload": "hi"}).value == {"pong": "hi"}


class TestFailover:
    def test_kill_reroutes_within_a_heartbeat_and_loses_no_acked_request(
            self, cluster):
        """The headline guarantee: a SIGKILL mid-load is invisible to
        clients — every request that gets an ack got a real answer."""
        fe, workers = cluster
        results: list = []
        errors: list = []

        def drive(n: int = 40) -> None:
            with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
                for i in range(n):
                    response = client.send("runtime_point", dict(
                        network="lenet", layer_index=i % 3, group_size=2,
                        density=0.5, num_unique=17 + i))
                    (results if response.ok else errors).append(response)
                    time.sleep(0.01)

        driver = threading.Thread(target=drive)
        driver.start()
        time.sleep(0.15)  # let load reach both workers
        killed_at = time.monotonic()
        kill_worker(workers[0])
        # Reroute within one heartbeat interval: the very next forward
        # to the dead worker eagerly evicts and retries, so the fabric
        # heals as fast as traffic arrives — well inside the timeout.
        wait_until(lambda: fe.frontend.membership.get("w0") is None,
                   timeout=fe.config.heartbeat_timeout,
                   message="dead worker not evicted within one heartbeat timeout")
        assert time.monotonic() - killed_at <= fe.config.heartbeat_timeout
        driver.join()
        # Zero lost acked requests: every single response was ok, and
        # every response carried a real value from a live worker.
        assert not errors, [r.error for r in errors]
        assert len(results) == 40
        assert all(r.value is not None for r in results)
        # Post-kill traffic all landed on the survivor.
        stats = fe.stats()
        assert stats["membership"]["ring_nodes"] == ["w1"]
        assert stats["forward_errors"] >= 1  # the eager eviction happened

    def test_silently_dead_worker_is_reaped_without_traffic(self, cluster):
        """No requests in flight: the heartbeat reaper must notice."""
        fe, workers = cluster
        kill_worker(workers[1])
        wait_until(lambda: fe.frontend.membership.get("w1") is None,
                   timeout=3 * fe.config.heartbeat_timeout,
                   message="reaper never evicted the silent worker")
        assert fe.stats()["membership"]["eviction_reasons"] == {"heartbeat": 1}

    def test_all_workers_dead_is_a_clean_503(self, cluster):
        fe, workers = cluster
        for worker in workers:
            kill_worker(worker)
        wait_until(lambda: len(fe.frontend.membership) == 0,
                   timeout=3 * fe.config.heartbeat_timeout,
                   message="fleet never drained")
        with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
            response = client.send("runtime_point", dict(network="lenet"))
        assert not response.ok and response.status == 503
        assert "no live workers" in response.error


class TestShedding:
    def test_overload_sheds_low_before_high(self, tmp_path):
        """Saturate a small front-end with slow work: low-priority is
        refused while high-priority still gets slots and answers."""
        fe = FrontendHandle(FrontendConfig(
            port=0, heartbeat_timeout=0.6, max_inflight=4, auth_secret=SECRET))
        fe.start()
        worker = WorkerNode(
            worker_config(tmp_path, "w0", cache_enabled=False, workers=8),
            "127.0.0.1", fe.port, worker_id="w0")
        worker.start()
        try:
            hold_results: list = []

            def hold(tag: int) -> None:
                with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
                    hold_results.append(client.send(
                        "fabric_sleep", {"seconds": 1.0, "tag": tag},
                        priority="high"))

            holders = [threading.Thread(target=hold, args=(i,)) for i in range(3)]
            for t in holders:
                t.start()
            # 3 in flight: past the low ladder rung (50% of 4 = 2) but
            # under both the normal rung (3) and the high ceiling (4).
            wait_until(lambda: fe.frontend.admission.inflight == 3,
                       timeout=5.0, message="holders never got in flight")
            with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
                low = client.send("fabric_sleep", {"seconds": 0.01, "tag": 90},
                                  priority="low")
                assert low.shed and low.status == 503 and not low.ok
                assert "shed" in low.error and "low" in low.error
                high = client.send("fabric_sleep", {"seconds": 0.01, "tag": 91},
                                   priority="high")
                assert high.ok and not high.shed and high.value == 91
            for t in holders:
                t.join()
            assert all(r.ok for r in hold_results)
            snap = fe.frontend.admission.snapshot()
            assert snap["shed"]["low"] == 1 and snap["shed"]["high"] == 0
        finally:
            worker.stop()
            fe.stop()

    def test_priority_typo_is_rejected_client_side(self, cluster):
        """A misspelled priority never silently downgrades to best-effort."""
        fe, _ = cluster
        with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
            with pytest.raises(ValueError):
                client.send("runtime_point", dict(network="lenet"), priority="hihg")


class TestAuth:
    def test_wrong_secret_rejected_at_the_front_door(self, cluster):
        fe, _ = cluster
        before = fe.stats()["requests"]
        with ServeClient("127.0.0.1", fe.port, secret="wrong") as client:
            response = client.send("runtime_point", dict(network="lenet"))
        assert not response.ok and response.status == 401
        assert "unauthenticated" in response.error
        stats = fe.stats()
        assert stats["auth_rejected"] >= 1
        # Rejected before admission or routing ever saw it.
        assert stats["admission"]["shed_total"] == 0
        assert stats["forwarded"] == 0 or stats["requests"] > before

    def test_unsigned_join_cannot_poison_membership(self, cluster):
        fe, _ = cluster
        with ServeClient("127.0.0.1", fe.port, secret="wrong") as client:
            response = client.send("_join", {
                "worker_id": "evil", "host": "203.0.113.1", "port": 9})
        assert not response.ok and response.status == 401
        assert fe.frontend.membership.get("evil") is None

    def test_worker_socket_also_requires_the_secret(self, cluster):
        """Defense in depth: dialing a worker directly, around the
        front-end, hits the same HMAC wall."""
        _, workers = cluster
        with ServeClient("127.0.0.1", workers[0].port, secret="wrong") as client:
            response = client.send("runtime_point", dict(network="lenet"))
        assert not response.ok and response.status == 401

    def test_worker_with_wrong_secret_cannot_join(self, tmp_path):
        fe = FrontendHandle(FrontendConfig(
            port=0, heartbeat_timeout=0.6, auth_secret=SECRET))
        fe.start()
        try:
            worker = WorkerNode(
                worker_config(tmp_path, "bad", auth_secret="wrong"),
                "127.0.0.1", fe.port, worker_id="bad")
            with pytest.raises(ConnectionError, match="refused join"):
                worker.start()
            assert len(fe.frontend.membership) == 0
        finally:
            fe.stop()

    def test_open_fleet_needs_no_secret(self, tmp_path):
        fe = FrontendHandle(FrontendConfig(port=0, heartbeat_timeout=0.6))
        fe.start()
        worker = WorkerNode(
            worker_config(tmp_path, "open", auth_secret=None),
            "127.0.0.1", fe.port, worker_id="open")
        worker.start()
        try:
            with ServeClient("127.0.0.1", fe.port) as client:
                response = client.send("fabric_sleep", {"seconds": 0.0, "tag": 5})
            assert response.ok and response.value == 5 and response.worker == "open"
        finally:
            worker.stop()
            fe.stop()


class TestGracefulLeave:
    def test_stop_sends_leave_and_moves_the_range_cleanly(self, cluster):
        fe, workers = cluster
        workers[0].stop()
        # _leave is synchronous inside stop(): no reaper wait needed.
        assert fe.frontend.membership.get("w0") is None
        assert fe.stats()["membership"]["leaves"] == 1
        with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
            response = client.send("runtime_point", dict(
                network="lenet", layer_index=0, group_size=2,
                density=0.5, num_unique=17))
        assert response.ok and response.worker == "w1"
        assert fe.stats()["forward_errors"] == 0
