"""Record one point of the performance trajectory.

Usage, from the repository root:

    python3 perfbench/record.py --out perfbench/points/<name>.json

For every workload it makes SEEDS untraced runs and TRACED_SEEDS traced
runs of run_seconds each, with seeds 1, 2, ..., through the same code as
run.py.  The point file holds, per workload:
  end_to_end  median, quartiles, sample count and spread ((q3 - q1) / median)
              over the runs of each run's reported value,
  per_layer   the median over the traced runs,
  case_wall_s the median untraced wall time of each case,
  cases       each case's reference stdout sha256, which every run matched.
It exits 1 if a case failed, a count (calls, misses, coeff_ops) differs
between traced runs, a tracer target is missing or bypassed, or a target was
called in no workload at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import Counter
from pathlib import Path

from run import REFERENCE, WORKLOADS, load_spec, quartiles, run_workload

SEEDS = 10  # untraced runs per workload, with seeds 1, 2, ...
TRACED_SEEDS = 2  # traced runs per workload; their counts must agree
# per-layer metrics that must repeat exactly from run to run
COUNTS = (".calls", ".misses", ".coeff_ops")


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def record_workload(workload: str, spec: dict, reference: dict) -> tuple[dict, list[str], Counter]:
    problems: list[str] = []
    seconds = spec["run_seconds"]
    plain = [run_workload(workload, s, seconds, False) for s in range(1, SEEDS + 1)]
    traced = [run_workload(workload, s, seconds, True) for s in range(1, TRACED_SEEDS + 1)]
    for seed, r in enumerate(plain, 1):
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{m['name']} {statistics.median(r['samples'][m['name']]):.4f}"
            for m in spec["end_to_end"]), flush=True)
    for r in plain + traced:
        problems += [f"{workload}: {p}" for p in r["problems"] + r["findings"]]

    end_to_end = {}
    for m in spec["end_to_end"]:
        end_to_end[m["name"]] = summarize(
            [statistics.median(r["samples"][m["name"]]) for r in plain])
        end_to_end[m["name"]].update(unit=m["unit"], bound=m["bound"])
    per_layer = {}
    for m in spec["per_layer"]:
        values = [statistics.median(r["samples"][m["name"]]) for r in traced]
        if m["name"].endswith(COUNTS) and len(set(values)) > 1:
            problems.append(f"{workload}: {m['name']} differs between traced runs: {values}")
        per_layer[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    calls: Counter = Counter()
    for r in traced:
        calls.update(r["calls"])
    case_walls = {c: statistics.median(r["case_wall_s"][c] for r in plain)
                  for c in sorted(WORKLOADS[workload])}
    point = {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "case_wall_s": case_walls,
        "cases": {c: reference[c]["sha256"] for c in sorted(WORKLOADS[workload])},
    }
    return point, problems, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = load_spec()
    reference = json.loads(REFERENCE.read_text())
    point = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "traced_seeds": TRACED_SEEDS,
        "workloads": {},
    }
    problems: list[str] = []
    calls: Counter = Counter()
    for workload in WORKLOADS:
        point["workloads"][workload], found, seen = record_workload(workload, spec, reference)
        problems += found
        calls.update(seen)
    point["never_called"] = sorted(t for t, n in calls.items() if not n)
    problems += [f"tracer target called in no workload: {t}" for t in point["never_called"]]
    point["problems"] = problems

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    for workload, data in point["workloads"].items():
        for name, s in data["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  spread above bound/3"
            print(f"{workload:8s} {name:12s} median {s['median']:10.4f} {s['unit']:3s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} n={s['n']} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}")
    for p in problems:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
