"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.stats import Outcomes, percentile, quartile_spread, tail, tail_rank
from perfbench.trace import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, rank", [
    (50_000, 99.0), (1_000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0), (8, 50.0),
])
def test_tail_rank_is_highest_percentile_with_ten_beyond(n, rank):
    assert tail_rank(n) == rank
    if rank != 50.0:
        assert round(n * (100 - rank) / 100, 6) >= 10


def test_tail_states_rank_count_and_samples_beyond():
    values = list(range(1, 1001))  # 1..1000 ms
    t = tail(values)
    assert (t.rank, t.samples) == (99.0, 1000)
    assert t.value == pytest.approx(percentile(values, 99.0))
    assert t.beyond == 10
    assert t.label() == "p99 of 1000 (10 beyond)"


def test_small_samples_fall_back_to_the_median():
    t = tail([5.0, 1.0, 3.0])
    assert (t.rank, t.value, t.beyond) == (50.0, 3.0, 1)


def test_percentile_interpolates_like_numpy():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=333).tolist()
    for q in (0, 25, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


# -- fail_ratio accounting ----------------------------------------------------


def test_every_failure_kind_counts_against_attempted():
    o = Outcomes()
    for kind in ["ok"] * 6 + ["wrong", "error", "shed", "timeout"]:
        o.record(kind)
    assert o.attempted == 10
    assert (o.wrong, o.errors, o.shed, o.timeouts) == (1, 1, 1, 1)
    assert o.failed == 4
    assert o.fail_ratio == pytest.approx(0.4)
    total = Outcomes()
    total.merge(o)
    total.merge(o)
    assert (total.attempted, total.failed, total.shed) == (20, 8, 2)


def test_unknown_outcome_is_a_programming_error():
    o = Outcomes()
    with pytest.raises(ValueError):
        o.record("lost")
    assert o.attempted == 0
    assert Outcomes().fail_ratio == 0.0


def test_serve_replies_are_classified():
    from perfbench.serving import Request, classify
    from repro.serve.protocol import Response

    hot = Request("factorize", {"seed": 1}, 0)
    forward = Request("network_forward", {"seed": 9}, None)
    expected = {0: {"x": 1}}
    assert classify(hot, Response(id=1, ok=True, value={"x": 1}), expected) == "ok"
    assert classify(hot, Response(id=1, ok=True, value={"x": 2}), expected) == "wrong"
    assert classify(hot, Response(id=1, ok=False, error="boom"), expected) == "error"
    assert classify(hot, Response(id=1, ok=False, shed=True, status=503), expected) == "shed"
    assert classify(forward, Response(id=1, ok=True, value={"parity": True}), {}) == "ok"
    assert classify(forward, Response(id=1, ok=True, value={"parity": False}), {}) == "wrong"
    assert classify(forward, Response(id=1, ok=True, value=None), {}) == "wrong"
    assert classify(hot, Response(id=1, ok=True, value={"x": 2}), None) == "ok"  # warm-up


# -- span self time -------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),    # overlaps a: union of a and b is 1..6
        Span(4, 1, "c", 8.0, 12.0),   # runs past the parent: clipped to 8..10
        Span(5, 2, "a.child", 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 5 - 2)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(4)
    assert own[5] == pytest.approx(1)


def test_tracer_nests_spans_per_thread_and_can_be_switched_off(tmp_path):
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("skipped", on=False):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    off = Tracer(enabled=False)
    with off.span("x"):
        pass
    assert off.spans == []
    tracer.dump(tmp_path / "spans.json")
    assert [s["name"] for s in json.loads((tmp_path / "spans.json").read_text())] == ["outer", "inner"]


# -- the workload sanity guard -------------------------------------------------


def test_guard_refuses_an_overflowing_workload_and_all_zero_outputs():
    from perfbench.lenet import WorkloadRefused, dense_activations, guard
    from repro.nn.layers import ConvLayer
    from repro.nn.network import Network
    from repro.nn.tensor import ConvShape, TensorShape

    conv = ConvLayer(ConvShape(name="c", w=2, h=2, c=1, k=1, r=1, s=1),
                     np.full((1, 1, 1, 1), 2**40, dtype=np.int64))
    net = Network("tiny", TensorShape(1, 2, 2), [conv])
    batch = np.full((1, 1, 2, 2), 2**20, dtype=np.int64)
    with pytest.raises(WorkloadRefused, match="2\\*\\*63"):
        guard(net, [dense_activations(net, batch)])
    zeros = np.zeros_like(batch)
    with pytest.raises(WorkloadRefused, match="zero"):
        guard(net, [dense_activations(net, zeros)])
    guard(net, [dense_activations(net, np.ones_like(batch))])


def test_both_lenet_workloads_pass_the_guard():
    from perfbench.lenet import build_network, dense_activations, guard, make_batches

    for workload in ("lenet-u17", "lenet-u3"):
        net = build_network(workload, seed=5)
        guard(net, [dense_activations(net, make_batches(5)[0][:2])])


# -- a tiny end-to-end pass of every workload -----------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["lenet-u17", "lenet-u3", "serve-mix", "fabric-mix"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_checks_and_reports_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())  # never 0


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lenet-u3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
