"""The ``lenet-u17`` and ``lenet-u3`` workloads: fused engine against dense on LeNet.

Each timed iteration runs one batch of signed images through
``compile_network`` + ``execute_network(threads=1, sparse="auto")`` and
the same batch through ``Network.forward`` image by image (the dense
int64 baseline), and requires the two outputs to be equal bit for bit.

The traced run adds a per-layer breakdown: every layer is lowered alone
as a one-layer ``Network`` and executed on the activations captured from
the dense forward, and every conv layer is also run through
``execute_program`` (the per-layer engine path) and ``conv2d_im2col``
(the dense reference).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench.stats import Outcomes, tail
from perfbench.trace import self_times

#: Images per batch.
BATCH = 8
#: Distinct input batches generated per run; the timed loop cycles them.
POOL = 4
#: Timed iterations run even when ``--seconds`` is shorter.
MIN_ITERATIONS = 3
#: A layer whose |output| bound reaches this (within 16x of 2**63) is refused.
OVERFLOW_LIMIT = 2**59

SCHEMES = {
    # The paper's headline weights: INQ-structured, U <= 17, 90% dense.
    "lenet-u17": ("inq", 17, 0.9),
    # The paper's synthetic construction at U = 3 (zero and +-1), 50% dense.
    "lenet-u3": ("uniform", 3, 0.5),
}


class WorkloadRefused(RuntimeError):
    """The generated workload cannot be checked (overflow risk or all-zero outputs)."""


def build_network(workload: str, seed: int):
    """LeNet (``lenet_cifar10``) with the workload's weights, drawn from ``seed``."""
    from repro.nn.layers import ConvLayer, FullyConnectedLayer
    from repro.nn.zoo import lenet_cifar10
    from repro.quant.distributions import inq_like_weights, uniform_unique_weights

    kind, num_unique, density = SCHEMES[workload]
    rng = np.random.default_rng([seed, num_unique])
    net = lenet_cifar10()
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            shape = layer.shape.weight_shape
        elif isinstance(layer, FullyConnectedLayer):
            shape = (layer.out_features, layer.in_features)
        else:
            continue
        if kind == "inq":
            weights = inq_like_weights(shape, density=density, rng=rng)
        else:
            weights = uniform_unique_weights(shape, num_unique, density=density, rng=rng)
        layer.set_weights(weights.values.astype(np.int64))
    return net


def make_batches(seed: int) -> np.ndarray:
    """``(POOL, BATCH, 3, 32, 32)`` signed int64 images in [-16, 16]."""
    rng = np.random.default_rng([seed, 1])
    return rng.integers(-16, 17, size=(POOL, BATCH, 3, 32, 32), dtype=np.int64)


def dense_activations(net, batch: np.ndarray) -> list[np.ndarray]:
    """Input and every layer's output for ``batch``, through each layer's dense ``forward``."""
    acts = [batch]
    for layer in net.layers:
        acts.append(np.stack([layer.forward(x) for x in acts[-1]]))
    return acts


def guard(net, activations: list[list[np.ndarray]]) -> None:
    """Refuse a workload whose int64 arithmetic could wrap, or whose outputs are all zero.

    Parity cannot see wraparound: engine and dense wrap alike.  For each
    conv/FC layer, ``max|input| * max_k sum|w_k|`` bounds |output|.  The
    input is the exact activation of the previous layer as long as no
    earlier layer wrapped, so checking every layer in order proves none did.
    """
    from repro.nn.layers import ConvLayer, FullyConnectedLayer

    for acts in activations:
        for i, layer in enumerate(net.layers):
            if not isinstance(layer, (ConvLayer, FullyConnectedLayer)):
                continue
            w = np.abs(layer.weights.astype(np.int64)).reshape(layer.weights.shape[0], -1)
            bound = int(np.abs(acts[i]).max()) * int(w.sum(axis=1).max())
            if bound >= OVERFLOW_LIMIT:
                raise WorkloadRefused(
                    f"layer {layer.name}: |output| bound {bound} is within 16x of 2**63")
    if not any(np.any(acts[-1]) for acts in activations):
        raise WorkloadRefused("every output of every generated batch is zero")


def _rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _program_counts(program, net) -> dict:
    """Static counts of the fused program: entries, segments, MACs per image."""
    from repro.engine.fusion import ConvStep, DenseStep

    entries = segments = singletons = engine_macs = 0
    gathered_bytes = 0
    per_conv = {}
    for step in program.steps:
        if isinstance(step, ConvStep):
            seg = single = macs = 0
            for spec in step.shards:
                prog = spec.program
                for p in prog.passes:
                    lengths = np.diff(np.append(p.seg_starts, prog.num_entries))
                    seg += p.num_segments
                    single += int(np.count_nonzero(lengths == 1))
                    macs += int(p.mac_mask.sum())
            per_conv[step.name] = {"entries": step.entries, "segments": seg, "singletons": single}
            entries += step.entries
            segments += seg
            singletons += single
            engine_macs += macs * step.windows
            gathered_bytes += step.entries * step.windows * 8
        elif isinstance(step, DenseStep):
            engine_macs += int(step.weights.size)
    return {
        "entries": entries,
        "segments": segments,
        "singletons": singletons,
        "engine_macs": engine_macs,
        "dense_macs": net.total_macs(),
        "gathered_mb": gathered_bytes / 1e6,
        "per_conv": per_conv,
    }


def run(workload: str, seed: int, seconds: float, tracer) -> dict:
    """Run one lenet workload; returns outcomes, metrics and report lines."""
    from repro.engine import compile_network, execute_network
    from repro.engine.program import clear_program_cache, program_cache_info

    net = build_network(workload, seed)
    batches = make_batches(seed)
    activations = [dense_activations(net, b) for b in batches]
    guard(net, activations)

    compile_network(net)  # first calls pay one-time costs; set-up is timed from here on
    outcomes = Outcomes()
    setup, fused, dense, traced_flags = [], [], [], []  # s per compile, per batch, per image
    hits = lookups = 0  # program-cache lookups of the engine legs
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() < deadline:
        batch = batches[i % POOL]
        # Tracing alternates by iteration so the traced run measures its own overhead.
        traced = i % 2 == 0
        with tracer.span("bench.iteration", on=traced):
            # One cold compile per iteration, so set-up is sampled across the
            # whole run like the batches are, not in one burst at its start.
            clear_program_cache()
            t0 = time.perf_counter()
            with tracer.span("engine.program.compile_network", on=traced):
                compile_network(net)
            setup.append(time.perf_counter() - t0)
            for leg in ("engine", "dense") if i % 2 == 0 else ("dense", "engine"):
                if leg == "engine":
                    before = program_cache_info()
                    t0 = time.perf_counter()
                    with tracer.span("engine.fusion.execute_network", on=traced):
                        out = execute_network(compile_network(net), batch, threads=1, sparse="auto")
                    fused.append(time.perf_counter() - t0)
                    after = program_cache_info()
                    hits += after["hits"] - before["hits"]
                    lookups += (after["hits"] + after["misses"]) - (before["hits"] + before["misses"])
                    continue
                images = []
                for x in batch:
                    t0 = time.perf_counter()
                    with tracer.span("nn.network.forward", on=traced):
                        images.append(net.forward(x))
                    dense.append(time.perf_counter() - t0)
                ref = np.stack(images)
            outcomes.record("ok" if np.array_equal(out, ref) else "wrong")
        traced_flags.append(traced)
        i += 1

    fused_ms = [t * 1e3 for t in fused]
    t = tail(fused_ms)
    metrics = {
        "throughput_per_s": BATCH / statistics.median(fused),
        "dense_images_per_s": 1.0 / statistics.median(dense),
        "latency_p50_ms": statistics.median(fused_ms),
        "latency_tail_ms": t.value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _rss_mb(),
    }
    counts = _program_counts(compile_network(net), net)
    layers = {
        "engine.program.compile_ms": statistics.median(setup) * 1e3,
        "engine.program.entries": counts["entries"],
        "engine.program.segments": counts["segments"],
        "engine.program.singleton_segment_ratio": counts["singletons"] / counts["segments"],
        "engine.program.macs": counts["engine_macs"],
        "engine.program.mult_savings": counts["dense_macs"] / counts["engine_macs"],
        "engine.program.cache_hit_ratio": hits / lookups,
        "engine.fusion.gathered_mb_per_image": counts["gathered_mb"],
        "nn.network.forward_ms": statistics.median(dense) * 1e3,
    }
    report = [
        f"{workload}: {len(fused)} batches of {BATCH} images, threads=1, sparse=auto",
        f"  engine {metrics['throughput_per_s']:.2f} img/s   dense {metrics['dense_images_per_s']:.2f} img/s"
        f"   engine/dense time {metrics['dense_images_per_s'] / metrics['throughput_per_s']:.2f}x",
        f"  batch latency p50 {metrics['latency_p50_ms']:.1f} ms, tail {t.value:.1f} ms ({t.label()})",
        f"  cold compile_network median of {len(setup)}: {metrics['setup_s'] * 1e3:.1f} ms",
    ]
    if tracer.enabled:
        on = [f for f, flag in zip(fused, traced_flags) if flag]
        off = [f for f, flag in zip(fused, traced_flags) if not flag]
        layers["trace.overhead_pct"] = (statistics.median(on) / statistics.median(off) - 1) * 100
        layers.update(_breakdown(net, activations, seconds, tracer, outcomes, counts, report))
    return {"outcomes": outcomes, "metrics": metrics, "layers": layers, "report": report}


def _breakdown(net, activations, seconds, tracer, outcomes, counts, report) -> dict:
    """Traced per-layer breakdown on the captured activations (per-image ms)."""
    from repro.engine import compile_network, compiled_layer_for, execute_network, execute_program
    from repro.nn.layers import AvgPoolLayer, ConvLayer, FullyConnectedLayer, MaxPoolLayer
    from repro.nn.network import Network
    from repro.nn.reference import conv2d_im2col, im2col

    program = compile_network(net)
    subs = [
        compile_network(Network(f"step-{layer.name}", net.layer_input_shape(i), [layer]))
        for i, layer in enumerate(net.layers)
    ]
    convs = [(i, layer) for i, layer in enumerate(net.layers) if isinstance(layer, ConvLayer)]
    layer_programs = {
        layer.name: compiled_layer_for(layer.weights, group_size=layer.engine_group_size).program
        for _, layer in convs
    }

    def check(got, want):
        outcomes.record("ok" if np.array_equal(got, want) else "wrong")

    deadline = time.perf_counter() + seconds
    b = 0
    while b < 2 or (time.perf_counter() < deadline and b < 4 * POOL):
        acts = activations[b % POOL]
        with tracer.span("bench.breakdown"):
            with tracer.span("engine.fusion.network"):
                out = execute_network(program, acts[0], threads=1, sparse="auto")
            check(out, acts[-1])
            for i, layer in enumerate(net.layers):
                with tracer.span(f"engine.fusion.{layer.name}"):
                    out = execute_network(subs[i], acts[i], threads=1, sparse="auto")
                check(out, acts[i + 1])
            for i, layer in convs:
                sh = layer.shape
                windows = np.concatenate(
                    [im2col(x, sh.r, sh.s, sh.stride, sh.padding) for x in acts[i]], axis=1).T
                with tracer.span(f"engine.executor.{layer.name}"):
                    res = execute_program(layer_programs[layer.name], windows)
                k, oh, ow = acts[i + 1].shape[1:]
                check(res.reshape(k, -1, oh, ow).transpose(1, 0, 2, 3), acts[i + 1])
                with tracer.span(f"nn.reference.{layer.name}"):
                    ref = np.stack([conv2d_im2col(x, layer.weights, sh.stride, sh.padding)
                                    for x in acts[i]])
                check(ref, acts[i + 1])
            with tracer.span("nn.network.forward_batch"):
                out = net.forward_batch(acts[0])
            check(out, acts[-1])
        b += 1

    def ms(name):
        return statistics.median(tracer.durations(name)) / BATCH * 1e3

    steps = {layer.name: ms(f"engine.fusion.{layer.name}") for layer in net.layers}
    whole = ms("engine.fusion.network")
    kinds = {"conv": [], "pool": [], "fc": [], "other": []}
    for layer in net.layers:
        kind = ("conv" if isinstance(layer, ConvLayer)
                else "pool" if isinstance(layer, (MaxPoolLayer, AvgPoolLayer))
                else "fc" if isinstance(layer, FullyConnectedLayer) else "other")
        kinds[kind].append(steps[layer.name])
    layers = {
        "engine.fusion.pool_ms": sum(kinds["pool"]),
        "engine.fusion.fc_ms": sum(kinds["fc"]),
        "engine.fusion.other_ms": sum(kinds["other"]),
        "engine.fusion.unattributed_ms": whole - sum(steps.values()),
        "nn.network.forward_batch_ms": ms("nn.network.forward_batch"),
    }
    rows = []
    for i, layer in convs:
        name = layer.name
        fused, execd, ref = steps[name], ms(f"engine.executor.{name}"), ms(f"nn.reference.{name}")
        layers[f"engine.fusion.{name}_ms"] = fused
        layers[f"engine.fusion.{name}_dense_ratio"] = fused / ref
        layers[f"engine.executor.{name}_ms"] = execd
        layers[f"nn.reference.{name}_ms"] = ref
        if i > 0:
            zeros = statistics.mean(float(np.mean(acts[i] == 0)) for acts in activations)
            layers[f"engine.fusion.{name}_input_zero_ratio"] = zeros
        c = counts["per_conv"][name]
        rows.append((name, fused, execd, ref, c["entries"], c["segments"],
                     c["singletons"] / c["segments"], fused / ref))

    own = self_times(tracer.spans)
    bench_self = [own[s.id] for s in tracer.spans if s.name == "bench.breakdown"]
    report.append(f"  per-layer breakdown over {b} batches (ms per image; engine.fusion = one-layer "
                  "sub-network on captured activations):")
    report.append("    layer   fusion  executor  reference  entries  segments  singleton  engine/dense")
    for name, fused, execd, ref, entries, segs, single, ratio in rows:
        report.append(f"    {name:<6} {fused:8.2f} {execd:9.2f} {ref:10.2f} {entries:8d} {segs:9d}"
                      f" {single:10.1%} {ratio:12.2f}x")
    report.append(
        f"    whole network {whole:.2f} = conv {sum(kinds['conv']):.2f} + pool "
        f"{layers['engine.fusion.pool_ms']:.2f} + fc {layers['engine.fusion.fc_ms']:.2f} + other "
        f"{layers['engine.fusion.other_ms']:.2f} + unattributed "
        f"{layers['engine.fusion.unattributed_ms']:.2f}")
    report.append(f"    gathered stream {counts['gathered_mb']:.2f} MB/image (entries x windows x 8 B, "
                  "from program sizes, before sparse compression); benchmark self time "
                  f"{statistics.median(bench_self) * 1e3:.1f} ms per breakdown batch")
    return layers
