"""Bench: the multi-node fabric — steady state, SIGKILL, overload.

One in-process front-end routes over two **real subprocess workers**
(``python -m repro.cli worker``) sharing an HMAC secret, with
``replication=2`` so each key range lists both workers in its
preference order — the production replicated-routing shape.  Three
closed-loop passes tell the fabric story end to end:

* **steady** — a mixed high/normal ``runtime_point`` workload across
  both workers: zero sheds, zero errors, parity against direct calls;
* **failover** — an uncached ``network_forward`` pass during which
  worker 0 is SIGKILLed: every acked request still carries a real
  answer (zero lost acks), and the ring drains to the survivor;
* **overload** — low-priority traffic through a deliberately tight
  token bucket alongside high-priority traffic: only ``low`` sheds,
  ``high`` rides through untouched.

Tables land under ``benchmarks/results/``; when
``REPRO_BENCH_CLUSTER_JSON`` is set (nightly CI) the raw pass stats are
written there as the ``BENCH_cluster.json`` artifact.
``REPRO_BENCH_SMOKE=1`` shrinks every pass.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from conftest import run_once, smoke_mode, write_bench_json

import repro
from repro.fabric import FrontendConfig, FrontendHandle
from repro.serve.loadgen import percentile, run_load
from repro.serve.protocol import to_jsonable

SECRET = "bench-cluster-secret"
#: Deliberately tight low-priority budget: 2 tokens burst, 2/s refill.
LOW_RATE = 2.0


def _spawn_worker(index: int, base: Path, fe_port: int) -> subprocess.Popen:
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro.cli", "worker",
        "--join", f"127.0.0.1:{fe_port}", "--port", "0",
        "--workers", "2", "--mode", "thread",
        "--cache-dir", str(base / f"w{index}" / "cache"),
        "--worker-id", f"bench-w{index}", "--secret", SECRET,
    ]
    return subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)


def _wait_for_fleet(fe: FrontendHandle, count: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(fe.frontend.membership) == count:
            return
        time.sleep(0.05)
    raise TimeoutError(f"fleet never reached {count} workers")


def _point_mix(n: int, priorities: tuple[str, ...]) -> list[tuple]:
    mix = []
    for i in range(n):
        kwargs = {"network": "lenet", "layer_index": i % 3, "group_size": 2,
                  "density": 0.5, "num_unique": 17 + (i % 10)}
        mix.append(("runtime_point", kwargs, priorities[i % len(priorities)]))
    return mix


def _forward_mix(n: int) -> list[tuple]:
    # Distinct seeds: every request is an uncached real computation, so
    # the pass is long enough for a mid-run SIGKILL to land mid-run.
    return [("network_forward",
             {"c": 4, "size": 8, "k1": 4, "k2": 4, "classes": 6, "u": 9,
              "batch": 2, "seed": i},
             ("high", "normal")[i % 2])
            for i in range(n)]


def _per_priority(records) -> dict:
    out = {}
    for priority in ("high", "normal", "low"):
        latencies = sorted(r.latency_ms for r in records
                           if r.priority == priority and not r.shed)
        shed = sum(1 for r in records if r.priority == priority and r.shed)
        if latencies or shed:
            out[priority] = {
                "requests": sum(1 for r in records if r.priority == priority),
                "shed": shed,
                "p50_ms": percentile(latencies, 50),
                "p99_ms": percentile(latencies, 99),
            }
    return out


def _cluster_passes(smoke: bool) -> dict:
    base = Path(tempfile.mkdtemp(prefix="repro-bench-cluster-"))
    fe = FrontendHandle(FrontendConfig(
        port=0, heartbeat_timeout=1.0, rates={"low": LOW_RATE},
        auth_secret=SECRET, replication=2))
    fe.start()
    procs = [_spawn_worker(i, base, fe.port) for i in range(2)]
    try:
        _wait_for_fleet(fe, 2)

        steady_mix = _point_mix(40 if smoke else 160, ("high", "normal"))
        steady = run_load("127.0.0.1", fe.port, steady_mix,
                          concurrency=8, secret=SECRET)

        failover_mix = _forward_mix(12 if smoke else 32)
        killer = threading.Timer(0.5, procs[0].kill)  # SIGKILL, mid-pass
        killer.start()
        failover = run_load("127.0.0.1", fe.port, failover_mix,
                            concurrency=4, secret=SECRET)
        killer.join()
        procs[0].wait()
        _wait_for_fleet(fe, 1, timeout=10 * fe.config.heartbeat_timeout)

        overload_mix = _point_mix(40 if smoke else 120, ("low", "low", "high"))
        overload = run_load("127.0.0.1", fe.port, overload_mix,
                            concurrency=8, secret=SECRET)

        return {
            "steady": {"mix": steady_mix, "result": steady},
            "failover": {"mix": failover_mix, "result": failover},
            "overload": {"mix": overload_mix, "result": overload},
            "frontend": fe.stats(),
        }
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
        fe.stop()


def test_bench_cluster(benchmark, record_result):
    smoke = smoke_mode()
    passes = run_once(benchmark, _cluster_passes, smoke)
    frontend = passes["frontend"]

    rows, data = [], {"smoke": smoke, "workers": 2, "replication": 2,
                      "frontend": frontend}
    for name in ("steady", "failover", "overload"):
        result = passes[name]["result"]
        s = result.stats
        rows.append((name, s.requests, s.requests - s.shed - s.errors, s.shed,
                     s.errors, f"{s.throughput_rps:.0f}", f"{s.p50_ms:.2f}",
                     f"{s.p99_ms:.2f}"))
        data[name] = {"stats": dataclasses.asdict(s),
                      "per_priority": _per_priority(result.records)}
    record_result(
        "cluster",
        ("pass", "requests", "acked", "shed", "errors", "rps", "p50 ms", "p99 ms"),
        rows,
        data=data,
    )
    write_bench_json("REPRO_BENCH_CLUSTER_JSON", "cluster", data)

    steady, failover, overload = (
        passes["steady"]["result"], passes["failover"]["result"],
        passes["overload"]["result"])

    # Steady state: nothing shed, nothing lost, answers parity-correct.
    assert steady.stats.errors == 0 and steady.stats.shed == 0
    from repro.serve.endpoints import runtime_point
    expected_cache = {}
    for record, (_, kwargs, _priority) in zip(steady.records, passes["steady"]["mix"]):
        key = json.dumps(kwargs, sort_keys=True)
        if key not in expected_cache:
            expected_cache[key] = json.loads(
                json.dumps(to_jsonable(runtime_point(**kwargs))))
        assert record.ok and record.value == expected_cache[key]

    # Failover: the SIGKILL cost zero acked requests — every record ok.
    assert failover.stats.errors == 0 and failover.stats.shed == 0
    assert all(r.ok for r in failover.records)
    assert frontend["membership"]["ring_nodes"] == ["bench-w1"]

    # Overload: the tight low bucket shed — and ONLY low was shed.
    assert overload.stats.errors == 0
    assert overload.stats.shed > 0
    assert all(r.priority == "low" for r in overload.records if r.shed)
    high = [r for r in overload.records if r.priority == "high"]
    assert high and all(r.ok and not r.shed for r in high)
