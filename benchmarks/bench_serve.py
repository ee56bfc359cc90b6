"""Bench: serving layer throughput/latency, cold vs warm cache.

Runs the ``repro bench-serve`` machinery in process: an ephemeral
server, one cold and one warm closed-loop pass of the default mixed
workload, recorded under ``benchmarks/results/``.  The warm pass is the
serving acceptance story — every response comes straight from the
content-addressed cache, so throughput should sit far above the cold
pass (>= 5x is the tracked floor at full scale).

A third **sustained** pass re-runs the warm mix as a duration-bounded
closed loop (the ``repro bench-serve --duration`` machinery): workers
cycle the mix until the deadline instead of draining a fixed list, so
the recorded throughput/p99 reflect steady state rather than ramp
effects.  Its stats land in the JSON envelope under ``sustained``,
which ``repro regress --trend`` gates once history carries it.

``REPRO_BENCH_SMOKE=1`` shrinks the workload and relaxes the floor
(CI containers have noisy timers and tiny core counts).  When
``REPRO_BENCH_SERVE_JSON`` is set (nightly CI), the full pass stats —
including the shed/error counters the load generator now tracks — are
written there as the ``BENCH_serve.json`` artifact.
"""

import dataclasses
import tempfile

from conftest import run_once, smoke_mode, write_bench_json

from repro.serve import ServeConfig, ServerHandle, default_mix, run_load


def _serve_passes(requests: int, scale: str, duration: float) -> dict:
    config = ServeConfig(
        port=0, workers=2, mode="thread",
        cache_dir=tempfile.mkdtemp(prefix="repro-bench-serve-"))
    mix = default_mix(requests, scale=scale)
    with ServerHandle(config) as handle:
        cold = run_load("127.0.0.1", handle.port, mix, concurrency=8)
        warm = run_load("127.0.0.1", handle.port, mix, concurrency=8)
        sustained = run_load(
            "127.0.0.1", handle.port, mix, concurrency=8, duration=duration)
    return {"cold": cold.stats, "warm": warm.stats, "sustained": sustained.stats}


def test_bench_serve_cold_vs_warm(benchmark, record_result):
    smoke = smoke_mode()
    requests = 40 if smoke else 200
    scale = "smoke" if smoke else "full"
    duration = 1.0 if smoke else 3.0
    passes = run_once(benchmark, _serve_passes, requests, scale, duration)
    cold, warm, sustained = passes["cold"], passes["warm"], passes["sustained"]
    speedup = warm.throughput_rps / cold.throughput_rps
    rows = [
        (name, s.requests, f"{s.throughput_rps:.0f}", f"{s.p50_ms:.2f}",
         f"{s.p99_ms:.2f}", f"{s.hit_rate:.0%}", s.shed, s.errors)
        for name, s in (("cold", cold), ("warm", warm), ("sustained", sustained))
    ]
    rows.append(("warm/cold", "", f"{speedup:.1f}x", "", "", "", "", ""))
    record_result(
        "serve_cold_vs_warm",
        ("pass", "requests", "rps", "p50 ms", "p99 ms", "hit rate", "shed", "errors"),
        rows,
        data=passes,
    )
    write_bench_json(
        "REPRO_BENCH_SERVE_JSON", "serve",
        {name: dataclasses.asdict(s) for name, s in passes.items()})
    assert cold.shed == 0 and warm.shed == 0 and sustained.shed == 0
    assert cold.errors == 0 and warm.errors == 0 and sustained.errors == 0
    assert warm.hit_rate == 1.0
    # The sustained pass cycles the already-warm mix, so it is all hits
    # and must hold warm-class throughput at steady state.
    assert sustained.hit_rate == 1.0
    assert sustained.requests > requests
    # Warm throughput must clear the floor: 5x at full scale, 2x under
    # smoke (tiny workloads leave less cold work to amortize).
    assert speedup >= (2.0 if smoke else 5.0)
