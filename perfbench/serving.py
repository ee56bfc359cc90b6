"""The ``serve-mix`` and ``fabric-mix`` workloads: closed-loop traffic against real processes.

``serve-mix`` spawns ``repro serve`` (CLI defaults, an ephemeral port and a
fresh cache dir).  ``fabric-mix`` spawns ``repro frontend`` and one
``repro worker`` (replication 1) sharing an HMAC secret.  Both are driven
from this process over :data:`CONNECTIONS` connections, closed loop,
because RPC callers wait for their replies.

The request stream, drawn per connection from the seed:

* 90% pick Zipf-like (s = 1) from :data:`HOT_KEYS` keys warmed during
  set-up.  Rank r always maps to the same endpoint (``network_forward``,
  ``factorize``, ``network_forward``, ``runtime_point``, repeating), so
  the seed changes the arguments but not the cost mix (``runtime_point``
  takes no seed, so its 16 design points are fixed);
* 10% are ``network_forward`` calls with a fresh seed, which always miss.

Every reply is checked: a ``network_forward`` reply must carry
``parity: true``, every hot-key reply must equal the value served at
warm-up, and a sample of served values must equal direct in-process calls.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from perfbench.stats import Outcomes, tail

HOT_KEYS = 64
MISS_SHARE = 0.10
CONNECTIONS = 2
#: Spawns per run; ``setup_s`` is their median and the last one serves the run.
SETUP_REPEATS = 5
#: The timed phase alternates this many load slices with direct-baseline slices.
SLICES = 5
#: Each direct in-process baseline slice lasts this share of a load slice.
DIRECT_SHARE = 0.1
CLIENT_TIMEOUT = 30.0
#: Hot keys whose served value is also recomputed in process during set-up.
VERIFY_HOT = 8
#: Replies of connection 0 kept for the protocol and cache probes (its
#: misses are all kept, for the direct baseline to replay).
RECORDED = 512
_PATTERN = ("network_forward", "factorize", "network_forward", "runtime_point")
_ADDRESS = re.compile(r" on ([0-9.]+):(\d+)")


@dataclass(frozen=True)
class Request:
    endpoint: str
    kwargs: dict
    hot: int | None  # hot-key rank, or None for a miss


def hot_keys(seed: int) -> list[Request]:
    """The :data:`HOT_KEYS` warm keys, Zipf rank order."""
    rng = np.random.default_rng([seed, 64])
    keys = []
    for rank in range(HOT_KEYS):
        endpoint = _PATTERN[rank % len(_PATTERN)]
        if endpoint == "runtime_point":
            # No seed argument: the same 16 design points every run, so the
            # shard each lands on (and the memory it grows) does not vary.
            j = rank // 4
            kwargs = {"network": "lenet", "layer_index": j % 3, "group_size": (1, 2, 4)[(j // 3) % 3],
                      "density": (0.5, 0.9)[j // 9]}
        else:
            kwargs = {"seed": int(rng.integers(1, 2**31))}
        keys.append(Request(endpoint, kwargs, rank))
    return keys


def request_stream(seed: int, connection: int, keys: list[Request]):
    """Endless request sequence of one connection."""
    rng = np.random.default_rng([seed, 100 + connection])
    weights = 1.0 / np.arange(1, len(keys) + 1)
    cdf = np.cumsum(weights / weights.sum())
    while True:
        if rng.random() < MISS_SHARE:
            yield Request("network_forward", {"seed": int(rng.integers(2**31, 2**53))}, None)
        else:
            yield keys[min(int(np.searchsorted(cdf, rng.random())), len(keys) - 1)]


def classify(request: Request, response, expected: dict | None) -> str:
    """Outcome of one reply: ``ok``, ``wrong``, ``error`` or ``shed``.

    ``expected`` maps hot-key ranks to their served values; ``None`` (during
    warm-up, before there is one) skips that comparison.
    """
    if response.shed:
        return "shed"
    if not response.ok:
        return "error"
    if request.endpoint == "network_forward" and not (
            isinstance(response.value, dict) and response.value.get("parity") is True):
        return "wrong"
    if request.hot is not None and expected is not None and response.value != expected[request.hot]:
        return "wrong"
    return "ok"


def direct_value(request: Request):
    """The endpoint called in process, mapped to what the wire would carry."""
    from repro.serve.endpoints import resolve
    from repro.serve.protocol import to_jsonable

    return json.loads(json.dumps(to_jsonable(resolve(request.endpoint)(**request.kwargs))))


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Service:
    """One ``repro`` CLI process in its own session, stopped with its children."""

    def __init__(self, args: list[str], env: dict, log_path):
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args], stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log, env=env, text=True,
            start_new_session=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def address(self, timeout: float = 60.0) -> tuple[str, int]:
        """Host and port from the process's start-up line."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"{self.proc.args[3]}: no start-up line in {timeout}s") from None
            if line is None:
                raise RuntimeError(f"{self.proc.args[3]} exited with {self.proc.wait()}; "
                                   f"see {self._log.name}")
            match = _ADDRESS.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the process and its children."""
        return sum(_vm_hwm_mb(pid) for pid in _group_members(self.proc.pid))

    def stop(self) -> None:
        """Interrupt (a clean shutdown), then kill whatever is left of the session."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.proc.wait(timeout=20)
        deadline = time.monotonic() + 10
        while _group_members(self.proc.pid) and time.monotonic() < deadline:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            time.sleep(0.05)
        self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


class Deployment:
    """The processes of one workload instance and the address clients dial."""

    def __init__(self, workload: str, tag: str, out_dir, src_dir, secret: str | None):
        self.secret = secret
        self.services: list[Service] = []
        self.cache_dir = cache_dir = out_dir / f"cache-{tag}"
        shutil.rmtree(cache_dir, ignore_errors=True)  # every deployment starts cold
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(src_dir), PYTHONUNBUFFERED="1", REPRO_CACHE_DIR=str(cache_dir))
        if secret is not None:
            env["REPRO_FABRIC_SECRET"] = secret
        try:
            if workload == "serve-mix":
                server = self._spawn(["serve", "--port", "0", "--cache-dir", str(cache_dir)],
                                     env, out_dir / f"log-{tag}-serve.txt")
                self.address = self.server_address = server.address()
            else:
                frontend = self._spawn(["frontend", "--port", "0"], env,
                                       out_dir / f"log-{tag}-frontend.txt")
                self.address = frontend.address()
                worker = self._spawn(
                    ["worker", "--join", "%s:%d" % self.address, "--port", "0",
                     "--cache-dir", str(cache_dir)], env, out_dir / f"log-{tag}-worker.txt")
                self.server_address = worker.address()
        except BaseException:
            self.stop()
            raise

    def _spawn(self, args, env, log_path) -> Service:
        service = Service(args, env, log_path)
        self.services.append(service)
        return service

    def client(self, address=None):
        from repro.serve.client import ServeClient

        host, port = address or self.address
        return ServeClient(host, port, timeout=CLIENT_TIMEOUT, secret=self.secret)

    def stats(self) -> dict:
        """``_stats`` of the dialled address and, on the fabric, of the worker."""
        with self.client() as c:
            front = c.request("_stats").value
        if self.server_address == self.address:
            return {"server": front}
        with self.client(self.server_address) as c:
            return {"server": c.request("_stats").value, "frontend": front}

    def peak_rss_mb(self) -> float:
        return sum(s.peak_rss_mb() for s in self.services)

    def stop(self) -> None:
        # Worker first, so it leaves the fleet while the front-end still listens.
        for service in reversed(self.services):
            service.stop()
        self.services = []
        shutil.rmtree(self.cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


@dataclass
class Record:
    done: float  # perf_counter() when the reply arrived
    latency_ms: float
    elapsed_ms: float
    cached: bool
    coalesced: bool
    miss: bool
    ok: bool
    traced: bool


def _drive(deployment, stream, deadline, tracer, expected, records, outcomes, recorded):
    """One closed-loop connection: send, wait for the reply, check it, repeat.

    A timeout or a broken connection counts as failed and the next request
    dials again.
    """
    client = None
    n = 0
    try:
        while time.perf_counter() < deadline:
            request = next(stream)
            traced = n % 2 == 0  # alternate, so the traced run measures its own overhead
            n += 1
            t0 = time.perf_counter()
            response = None
            try:
                if client is None:
                    client = deployment.client()
                with tracer.span("serve.client.request", on=traced):
                    response = client.send(request.endpoint, request.kwargs)
                kind = classify(request, response, expected)
            except TimeoutError:
                kind = "timeout"
            except (ConnectionError, OSError, ValueError):
                kind = "error"
            done = time.perf_counter()
            outcomes.record(kind)
            if response is None and client is not None:
                client.close()
                client = None
            ok = kind == "ok"
            records.append(Record(
                done=done, latency_ms=(done - t0) * 1e3 if ok else CLIENT_TIMEOUT * 1e3,
                elapsed_ms=response.elapsed_ms if response is not None else 0.0,
                cached=bool(response and response.cached),
                coalesced=bool(response and response.coalesced),
                miss=request.hot is None, ok=ok, traced=traced and tracer.enabled))
            if recorded is not None and (request.hot is None or len(recorded) < RECORDED):
                recorded.append((request, response.value if ok else None, response))
    finally:
        if client is not None:
            client.close()


class _Load:
    """Closed-loop traffic over :data:`CONNECTIONS` connections, run in slices.

    Streams, records and tallies carry over from one slice to the next.
    """

    def __init__(self, deployment, seed, keys, expected, tracer):
        self.deployment = deployment
        self.expected = expected
        self.tracer = tracer
        self.streams = [request_stream(seed, c, keys) for c in range(CONNECTIONS)]
        self.records: list[list[Record]] = [[] for _ in range(CONNECTIONS)]
        self.outcomes = [Outcomes() for _ in range(CONNECTIONS)]
        self.recorded: list = []  # (request, served value, response) of connection 0
        self.slices: list[tuple[int, float]] = []  # (replies checked ok, seconds) per slice

    def run(self, seconds: float) -> None:
        """Drive every connection for ``seconds``."""
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=_drive, args=(
                self.deployment, self.streams[c], deadline, self.tracer, self.expected,
                self.records[c], self.outcomes[c], self.recorded if c == 0 else None))
            for c in range(CONNECTIONS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + CLIENT_TIMEOUT + 30)
            if t.is_alive():
                raise RuntimeError("a load connection did not finish")
        wall = time.perf_counter() - start
        self.slices.append((sum(r.ok for recs in self.records for r in recs if r.done >= start), wall))

    def throughput(self) -> float:
        """Replies checked ok per second of load."""
        return sum(n for n, _ in self.slices) / sum(t for _, t in self.slices)

    def all_records(self) -> list[Record]:
        return [r for recs in self.records for r in recs]

    def all_outcomes(self) -> Outcomes:
        total = Outcomes()
        for o in self.outcomes:
            total.merge(o)
        return total


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def _setup(workload, seed, out_dir, src_dir, secret, outcomes):
    """Spawn :data:`SETUP_REPEATS` deployments; time each to its first routed answer."""
    times = []
    deployment = None
    for i in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.stop()
        t0 = time.perf_counter()
        deployment = Deployment(workload, f"{workload}-s{seed}-{i}", out_dir, src_dir, secret)
        try:
            first = Request("network_forward", {"seed": 7 + i}, None)
            with deployment.client() as c:
                outcomes.record(classify(first, c.send(first.endpoint, first.kwargs), None))
        except BaseException:
            deployment.stop()
            raise
        times.append(time.perf_counter() - t0)
    return deployment, times


def _warm(deployment, keys, outcomes) -> dict:
    """Send every hot key once; the served values are what later hits must equal."""
    expected = {}
    with deployment.client() as c:
        for key in keys:
            response = c.send(key.endpoint, key.kwargs)
            outcomes.record(classify(key, response, None))
            expected[key.hot] = response.value
    for key in keys[:VERIFY_HOT]:
        outcomes.record("ok" if direct_value(key) == expected[key.hot] else "wrong")
    return expected


class _Direct:
    """Direct in-process calls, each checked against the value the service returned.

    The baseline replays connection 0's fresh-seed ``network_forward``
    misses: the compute one miss needs, with no server and no cache.  It
    runs in slices between the load slices, so it sees the same host
    conditions as the load.
    """

    def __init__(self, tracer, outcomes):
        self.tracer = tracer
        self.outcomes = outcomes
        self.per_endpoint: dict[str, list[float]] = {}
        self.replayed = 0  # misses of the recorded replies replayed so far

    def call(self, request: Request, served) -> None:
        t0 = time.perf_counter()
        with self.tracer.span(f"serve.endpoints.{request.endpoint}"):
            value = direct_value(request)
        self.per_endpoint.setdefault(request.endpoint, []).append(time.perf_counter() - t0)
        self.outcomes.record("ok" if value == served else "wrong")

    def replay(self, recorded, seconds: float) -> None:
        """Replay not-yet-replayed recorded misses for ``seconds`` (at least two)."""
        misses = [(req, served) for req, served, _ in recorded
                  if req.hot is None and served is not None][self.replayed:]
        deadline = time.perf_counter() + seconds
        for n, (request, served) in enumerate(misses):
            if n >= 2 and time.perf_counter() >= deadline:
                break
            self.call(request, served)
            self.replayed += 1

    def ms(self) -> dict[str, float]:
        """Median direct time per endpoint, in milliseconds."""
        return {ep: statistics.median(v) * 1e3 for ep, v in self.per_endpoint.items()}


def _micro(recorded, out_dir, seed, secret, tracer) -> dict:
    """Traced in-process timings of the protocol, cache and auth layers (microseconds)."""
    from repro.fabric.auth import sign_message, verify_message
    from repro.runtime.cache import ResultCache
    from repro.serve.endpoints import resolve
    from repro.serve.protocol import decode_message, encode_message

    sample = [(req, resp) for req, _, resp in recorded[:512] if resp is not None]
    for i, (req, resp) in enumerate(sample):
        line = encode_message({"id": i, "endpoint": req.endpoint, "kwargs": req.kwargs})
        with tracer.span("serve.protocol.decode"):
            decode_message(line)
        payload = {"id": i, "ok": resp.ok, "value": resp.value, "cached": resp.cached,
                   "coalesced": resp.coalesced, "shard": resp.shard, "elapsed_ms": resp.elapsed_ms}
        with tracer.span("serve.protocol.encode"):
            encode_message(payload)
        if secret is not None:
            message = {"id": i, "endpoint": req.endpoint, "kwargs": req.kwargs}
            with tracer.span("fabric.auth.sign"):
                sign_message(secret, message)
            with tracer.span("fabric.auth.verify"):
                verify_message(secret, message)
    probe_dir = out_dir / f"cache-probe-s{seed}"
    shutil.rmtree(probe_dir, ignore_errors=True)
    cache = ResultCache(root=probe_dir)
    for req, resp in sample[:256]:
        fn = resolve(req.endpoint)
        with tracer.span("runtime.cache.key"):
            key = cache.key_for(fn, req.kwargs)
        with tracer.span("runtime.cache.put"):
            cache.put(key, resp.value)
        with tracer.span("runtime.cache.get"):
            cache.get(key)
    shutil.rmtree(probe_dir, ignore_errors=True)

    def us(name):
        values = tracer.durations(name)
        return statistics.median(values) * 1e6 if values else None

    out = {f"{layer}_us": us(layer) for layer in (
        "serve.protocol.encode", "serve.protocol.decode", "runtime.cache.key",
        "runtime.cache.get", "runtime.cache.put", "fabric.auth.sign", "fabric.auth.verify")}
    return {k: v for k, v in out.items() if v is not None}


def run(workload: str, seed: int, seconds: float, tracer) -> dict:
    """Run serve-mix or fabric-mix; returns outcomes, metrics and report lines."""
    from perfbench.run import OUT_DIR, ROOT

    secret = f"bench-secret-{seed}" if workload == "fabric-mix" else None
    keys = hot_keys(seed)
    outcomes = Outcomes()
    deployment, setup = _setup(workload, seed, OUT_DIR, ROOT / "src", secret, outcomes)
    direct = _Direct(tracer, outcomes)
    try:
        expected = _warm(deployment, keys, outcomes)
        load = _Load(deployment, seed, keys, expected, tracer)
        before = deployment.stats()
        for _ in range(SLICES):
            load.run(seconds / SLICES)
            direct.replay(load.recorded, DIRECT_SHARE * seconds / SLICES)
        after = deployment.stats()
        rss = deployment.peak_rss_mb()
    finally:
        deployment.stop()
    if tracer.enabled:  # a direct timing for every endpoint of the mix
        for key in keys[:VERIFY_HOT]:
            direct.call(key, expected[key.hot])
    outcomes.merge(load.all_outcomes())
    records = load.all_records()
    direct_ms = direct.ms()

    latencies = [r.latency_ms for r in records]
    t = tail(latencies)
    ok = [r for r in records if r.ok]
    metrics = {
        "throughput_per_s": load.throughput(),
        "direct_misses_per_s": 1e3 / direct_ms["network_forward"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": t.value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }

    def delta(side, name):
        return after[side][name] - before[side][name]

    served = delta("server", "hits") + delta("server", "misses") + delta("server", "coalesced")
    layers = {
        "serve.server.hit_ratio": delta("server", "hits") / served if served else 0.0,
        "serve.server.coalesced": delta("server", "coalesced"),
        "serve.server.errors": delta("server", "errors"),
        "serve.batcher.mean_batch": (delta("server", "misses") / delta("server", "batches")
                                     if delta("server", "batches") else 0.0),
        "serve.client.wire_ms": statistics.median(r.latency_ms - r.elapsed_ms for r in ok),
    }
    for ep, ms in direct_ms.items():
        layers[f"serve.endpoints.{ep}_ms"] = ms
    fabric = {}
    if "frontend" in after:
        front_a, front_b = after["frontend"], before["frontend"]
        fabric = {
            "fabric.frontend.elapsed_ms": statistics.median(r.elapsed_ms for r in ok),
            "fabric.membership.evictions": front_a["membership"]["evictions"],
        }
        for name in ("forwarded", "retries", "spills", "no_workers"):
            fabric[f"fabric.frontend.{name}"] = front_a[name] - front_b[name]
        layers.update(fabric)
    else:
        hits = [r.elapsed_ms for r in ok if r.cached]
        misses = [r.elapsed_ms for r in ok if r.miss and not r.cached and not r.coalesced]
        layers["serve.server.hit_elapsed_ms"] = statistics.median(hits)
        layers["serve.server.miss_elapsed_ms"] = statistics.median(misses)
        layers["serve.server.queue_ms"] = (layers["serve.server.miss_elapsed_ms"]
                                           - direct_ms["network_forward"])

    n_miss = sum(r.miss for r in records)
    report = [
        f"{workload}: {len(records)} requests over {SLICES} slices of {seconds / SLICES:g}s, "
        f"{CONNECTIONS} closed-loop "
        f"connections, {n_miss} fresh-seed misses ({n_miss / len(records):.1%})",
        f"  served {metrics['throughput_per_s']:.1f} req/s   direct in-process "
        f"{metrics['direct_misses_per_s']:.1f} misses/s (the same fresh network_forward calls, "
        "no server, no cache)",
        "  per load slice: " + ", ".join(f"{n / t:.0f}" for n, t in load.slices) + " req/s",
        f"  latency p50 {metrics['latency_p50_ms']:.3f} ms, tail {t.value:.3f} ms ({t.label()})",
        f"  setup (spawn to first routed answer) median of {SETUP_REPEATS}: "
        + ", ".join(f"{s:.2f}s" for s in setup),
        f"  peak RSS {rss:.1f} MB (VmHWM summed over the spawned processes)",
        f"  server: hit ratio {layers['serve.server.hit_ratio']:.3f}, mean batch "
        f"{layers['serve.batcher.mean_batch']:.2f}, {layers['serve.server.coalesced']} coalesced, "
        f"{layers['serve.server.errors']} errors",
    ]
    if fabric:
        report.append(
            f"  fabric: {fabric['fabric.frontend.forwarded']} forwarded, "
            f"{fabric['fabric.frontend.retries']} retries, {fabric['fabric.frontend.spills']} spills, "
            f"{fabric['fabric.frontend.no_workers']} no_workers, "
            f"{fabric['fabric.membership.evictions']} evictions")
    if tracer.enabled:
        on = [r.latency_ms for r in ok if r.traced]
        off = [r.latency_ms for r in ok if not r.traced]
        layers["trace.overhead_pct"] = (statistics.median(on) / statistics.median(off) - 1) * 100
        layers.update(_micro(load.recorded, OUT_DIR, seed, secret, tracer))
        elapsed = "fabric.frontend.elapsed_ms" if fabric else "serve.server.hit_elapsed_ms"
        report.append(
            f"  p50 {metrics['latency_p50_ms']:.3f} ms vs {elapsed} {layers[elapsed]:.3f} + "
            f"serve.client.wire_ms {layers['serve.client.wire_ms']:.3f} = "
            f"{layers[elapsed] + layers['serve.client.wire_ms']:.3f} ms")
    return {"outcomes": outcomes, "metrics": metrics, "layers": layers, "report": report}
