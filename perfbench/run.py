"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lenet-u17 --seed 1 --seconds 10 --trace 0

The metric names, units and workloads are read from ``BENCHMARK.json``
at the checkout root.  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` runs the same workload with spans recorded around each
layer call and prints every per-layer metric (one this workload does
not measure reads 0).  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a full result record (seed
included) are written under ``.bench_out/``.

Exit codes: 0 on a checked run, 1 when an output check failed, 2 when
the checkout has no ``src/repro`` to measure, 3 when the generated
workload is refused by the sanity guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Environment that would change what the spawned servers and clients do.
_AMBIENT_ENV = ("REPRO_FABRIC_SECRET", "REPRO_FABRIC_TLS_CERT", "REPRO_FABRIC_TLS_KEY",
                "REPRO_FABRIC_TLS_CA", "REPRO_FABRIC_TLS_CHECK_HOSTNAME")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, tracer) -> dict:
    if workload.startswith("lenet-"):
        from perfbench import lenet

        return lenet.run(workload, seed, seconds, tracer)
    from perfbench import serving

    return serving.run(workload, seed, seconds, tracer)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT_DIR.mkdir(exist_ok=True)
    for name in _AMBIENT_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(OUT_DIR / "cache")

    from perfbench.lenet import WorkloadRefused
    from perfbench.trace import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, tracer)
    except WorkloadRefused as exc:
        print(f"{args.workload} seed {args.seed}: workload refused: {exc}", file=sys.stderr)
        return 3

    outcomes = result["outcomes"]
    section = "per_layer" if args.trace else "end_to_end"
    source = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": source.get(m["name"], 0), "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in result["report"]:
        print(line)
    print(f"  outcomes: {outcomes.attempted} attempted, {outcomes.failed} failed "
          f"(wrong {outcomes.wrong}, errors {outcomes.errors}, shed {outcomes.shed}, "
          f"timeouts {outcomes.timeouts}); fail_ratio {outcomes.fail_ratio:.6f}")
    for name, m in metrics.items():
        shown = f"{m['value']:.6g}" if name in source else "-  (not measured on this workload)"
        print(f"  {name:<44} {shown} {m['unit'] if name in source else ''}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "report": result["report"],
              "outcomes": vars(outcomes), "end_to_end": result["metrics"],
              "layers": result["layers"]}
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.dump(OUT_DIR / f"spans-{stem}.json")

    correct = outcomes.wrong == 0
    print(json.dumps({"correct": correct, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
