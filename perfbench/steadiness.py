"""Run the benchmark several times per workload and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 [--workload serve-mix ...] [--first-seed 1]

Each run uses another seed.  For every end-to-end metric the spread is the
distance between the first and third quartile of its values (as
``statistics.quantiles(values, n=4)`` gives them) as a share of their
median; it is printed next to a third of the metric's bound.  On
fabric-mix, front-end evictions and no-worker refusals are listed per run
and must all be 0.  The JSON summary goes to
``.bench_out/steadiness-<first seed>.json``; the exit code is 1 when a
spread (``setup_s`` excepted) reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402

#: Fabric counters that must stay 0 in every fabric-mix run.
FABRIC_COUNTERS = ("fabric.membership.evictions", "fabric.frontend.no_workers")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    summary = {}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        fabric = {name: [] for name in FABRIC_COUNTERS}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = run_once(workload, seed, args.seconds, 0)
            if not out["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: output check failed")
            failed += out["failed"]
            attempted += out["attempted"]
            for name, m in out["metrics"].items():
                values[name].append(m["value"])
            record = json.loads((ROOT / ".bench_out" / f"result-{workload}-s{seed}-t0.json").read_text())
            for name in FABRIC_COUNTERS:
                if name in record["layers"]:
                    fabric[name].append(record["layers"][name])
            print(f"{workload} seed {args.first_seed + i}: "
                  + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            spread = quartile_spread(v) if len(v) >= 2 else 0.0
            ok = spread < m["bound"] / 3 or m["name"] == "setup_s"
            steady &= ok
            rows[m["name"]] = {"median": statistics.median(v), "spread": spread,
                               "bound": m["bound"], "values": v}
            print(f"  {m['name']:<18} median {statistics.median(v):12.5g} {m['unit']:<5} "
                  f"spread {spread:7.2%}  (bound/3 {m['bound'] / 3:6.2%}){'' if ok else '  UNSTEADY'}")
        print(f"  {attempted} attempted, {failed} failed", flush=True)
        summary[workload] = {"seeds": [args.first_seed + i for i in range(args.runs)],
                             "attempted": attempted, "failed": failed, "metrics": rows}
        if any(fabric.values()):
            print("  " + ", ".join(f"{k} per run {v}" for k, v in fabric.items()), flush=True)
            summary[workload]["fabric"] = fabric
            steady &= not any(sum(v) for v in fabric.values())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steadiness-{args.first_seed}.json").write_text(json.dumps(summary, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
