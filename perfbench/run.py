"""End-to-end and per-layer benchmark of the uqchar command-line program.

Usage, from the repository root:

    python3 perfbench/run.py --workload labels --seed 1 --seconds 40 --trace 0

Each case is one fresh `python -m uqchar.cli ...` process, run one after
another from this script: a closed loop with one client.  A run makes whole
passes over the workload's cases, at least one, as many as fit in --seconds,
and reports medians over the passes.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines above it
give each metric with its quartiles and sample count.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       seconds for one pass over the cases,
  cpu_s        user+sys CPU seconds of the children in that pass,
  peak_rss_mb  the largest max-RSS of any child in the pass,
  setup_s      median time for a fresh interpreter to `import uqchar.cli`,
               after an untimed warm-up import that compiles the bytecode;
               the samples are taken between cases, spread over the run in
               step with the clock, so that they see the same host as the
               passes and not one moment of it.
--trace 1 runs untraced passes for the first half of --seconds and passes
under perfbench/tracer.py for the rest, and reports the per-layer metrics of
BENCHMARK.json plus trace.overhead_s (traced minus untraced wall_s).  A
tracer target that is missing or called around its wrapper, or a metric with
no samples, makes the run incorrect: its metric would read as a silent 0.

The workload seed sets PYTHONHASHSEED in the children and the order of the
cases; the case lists are fixed.  Every case, traced or not, must exit 0
with stdout whose sha256 equals perfbench/reference.json, and a verify case
must print no FAIL: line; error_rate = failed / attempted counts the cases
that do not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracer import TRACE_MARKER

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
PROGRAM = ROOT / "src" / "uqchar" / "cli.py"

# Each workload stresses other layers, so that a change to one layer moves
# one workload and leaves another alone.
WORKLOADS = {
    # Label enumeration, the reality test, hook degrees, closed-form
    # indicators and large JSON label lists; no cyclotomic arithmetic.
    "labels": (
        "census --q 3 --n 9",
        "census --q 5 --n 6",
        "degrees --q 3 --n 7",
        "fs --q 3 --n 6 --family semisimple",
        "selfdual --q 5 --n 8",
    ),
    # The write side of tables: rows built through char_row in cyclotomic
    # arithmetic and serialized, at field degrees phi = 96, 32 and 24.
    "tables": (
        "chartable --q 4 --n 3 --max-cells 100000",
        "chartable --q 9 --n 2 --max-cells 100000",
        "chartable --q 3 --n 3 --format tsv",
    ),
    # The read side: verify's orthogonality loop over CharTable.value, class
    # data and class squaring for brute-force indicators.
    "checks": (
        "verify --q 3 --max-n 3 --max-cells 100000",
        "fs --q 3 --n 4",
    ),
}
SETUP_SAMPLES = 31
# self time of these targets is the CLI's serialization
SERIALIZE = ("cli._json", "cli._tsv", "cli._emit", "symfunc.CharTable.to_json")


def child_env(seed: int) -> dict:
    return dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=str(seed % 2**32))


def run_case(case: str, env: dict, traced: bool, reference: dict) -> dict:
    """Run one CLI invocation; time it and check its output."""
    entry = [str(TRACER)] if traced else ["-m", "uqchar.cli"]
    cmd = [sys.executable, *entry, *case.split()]
    err = []
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        # wait4, not wait: it also returns the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = perf_counter() - t0

    expect = reference[case]
    problems = []
    if proc.returncode != expect["exit"]:
        problems.append(f"exit code {proc.returncode}, expected {expect['exit']}")
    if hashlib.sha256(out).hexdigest() != expect["sha256"]:
        problems.append("stdout sha256 differs from the reference")
    if case.startswith("verify") and any(
            line.startswith(b"FAIL:") for line in out.splitlines()):
        problems.append("verify printed a FAIL: line")
    trace = None
    if traced:
        lines = err[0].decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(TRACE_MARKER):
            trace = json.loads(lines[-1][len(TRACE_MARKER):])
        else:
            problems.append("no trace record on stderr")
    return {
        "case": case,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "out_bytes": len(out),
        "problems": problems,
        "trace": trace,
    }


def run_pass(cases: list[str], env: dict, traced: bool, reference: dict,
             after_case=None) -> dict:
    results = []
    for case in cases:
        results.append(run_case(case, env, traced, reference))
        if after_case is not None:
            after_case()
    return {
        "wall_s": sum(r["wall"] for r in results),
        "cpu_s": sum(r["cpu"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "cases": results,
    }


def import_times(env: dict, count: int) -> list[float]:
    """Wall time of `count` fresh interpreters importing the CLI module."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import uqchar.cli"], cwd=ROOT, env=env, check=True)
        times.append(perf_counter() - t0)
    return times


def merge_traces(results: list[dict]) -> dict:
    """Sum the per-target counters of every case of one traced pass."""
    targets: dict[str, dict] = {}
    degree = 0
    for r in results:
        if r["trace"] is None:
            continue
        degree = max(degree, r["trace"]["field_degree"])
        for name, stat in r["trace"]["targets"].items():
            acc = targets.setdefault(name, dict.fromkeys(stat, 0))
            for k, v in stat.items():
                acc[k] += v
    return {"targets": targets, "field_degree": degree}


def layer_values(traced_pass: dict) -> dict[str, float]:
    """Every per-layer value one traced pass yields, by metric name."""
    merged = merge_traces(traced_pass["cases"])
    out = {
        "cyclotomic.field_degree": merged["field_degree"],
        "cli.out_bytes": sum(r["out_bytes"] for r in traced_pass["cases"]),
        "cli.serialize_s": sum(
            merged["targets"].get(t, {}).get("self_s", 0.0) for t in SERIALIZE),
    }
    for name, stat in merged["targets"].items():
        for field in ("calls", "self_s", "coeff_ops"):
            out[f"{name}.{field}"] = stat[field]
        if "misses" in stat:
            looked_up = stat["hits"] + stat["misses"]
            out[f"{name}.misses"] = stat["misses"]
            out[f"{name}.hit_ratio"] = stat["hits"] / looked_up if looked_up else 0.0
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return q1, med, q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; return samples by metric and the checks' findings."""
    reference = json.loads(REFERENCE.read_text())
    env = child_env(seed)
    rng = random.Random(seed)
    cases = list(WORKLOADS[workload])

    def one_pass(traced: bool) -> dict:
        rng.shuffle(cases)
        return run_pass(cases, env, traced, reference,
                        None if trace else sample_setup)

    samples: dict[str, list[float]] = {}
    plain, traced = [], []
    import_times(env, 1)  # warm-up, untimed: compiles the bytecode
    setup: list[float] = []
    start = perf_counter()

    def sample_setup() -> None:
        # the host's speed drifts over tens of seconds: keep the set-up
        # samples in step with the clock, so that they span the whole run
        due = math.ceil(SETUP_SAMPLES * min(1.0, (perf_counter() - start) / seconds))
        setup.extend(import_times(env, due - len(setup)))

    def fill(passes: list, traced_pass: bool, until: float) -> None:
        # whole passes only, and none that the last one says would overrun
        while not passes or perf_counter() - start + passes[-1]["wall_s"] <= until:
            passes.append(one_pass(traced_pass))

    fill(plain, False, seconds / 2 if trace else seconds)
    if trace:
        fill(traced, True, seconds)
    else:
        samples["setup_s"] = setup + import_times(env, SETUP_SAMPLES - len(setup))

    for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[metric] = [p[metric] for p in plain]
    findings = []
    missing, bypassed = set(), set()
    if traced:
        per_pass = [layer_values(p) for p in traced]
        for name in per_pass[0]:
            samples[name] = [v[name] for v in per_pass]
        samples["trace.overhead_s"] = [
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain)]
        for r in (r for p in traced for r in p["cases"] if r["trace"] is not None):
            missing.update(r["trace"]["missing"])
            bypassed.update(r["trace"]["bypassed"])
        findings += [f"tracer target missing (renamed or removed?): {t}" for t in sorted(missing)]
        findings += [f"tracer target called around its wrapper: {t}" for t in sorted(bypassed)]

    results = [r for p in plain + traced for r in p["cases"]]
    case_walls: dict[str, list[float]] = {}
    for p in plain:
        for r in p["cases"]:
            case_walls.setdefault(r["case"], []).append(r["wall"])
    return {
        "samples": samples,
        "attempted": len(results),
        "failed": sum(1 for r in results if r["problems"]),
        "problems": [f"{r['case']}: {p}" for r in results for p in r["problems"]],
        "findings": findings,
        "case_wall_s": {c: statistics.median(w) for c, w in sorted(case_walls.items())},
        "calls": {
            name: stat["calls"]
            for name, stat in merge_traces(traced[0]["cases"])["targets"].items()
        } if traced else {},
    }


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="time budget of the run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for path in (PROGRAM, REFERENCE, SPEC):
        if not path.is_file():
            print(f"perfbench: {path.relative_to(ROOT)} not found; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 1

    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        res = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: set-up command failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(WORKLOADS[args.workload])} cases per pass")
    for case, wall in res["case_wall_s"].items():
        print(f"  case {wall:9.4f} s  {case}")
    out = {}
    for m in metrics:
        values = res["samples"].get(m["name"])
        if values is None:  # its tracer target is gone; fails the run below
            res["findings"].append(f"no samples for {m['name']}; reported as 0")
            values = [0]
        q1, med, q3 = quartiles(values)
        print(f"{m['name']:48s} {med:>16.6f} {m['unit']:6s} "
              f"(q1 {q1:.6f}, q3 {q3:.6f}, n={len(values)})")
        out[m["name"]] = {"value": med, "unit": m["unit"]}
    if args.trace:
        print("targets not called in this workload: "
              + ", ".join(t for t, calls in sorted(res["calls"].items()) if not calls))
    print(f"error_rate {res['failed'] / res['attempted']:.6f} "
          f"({res['failed']} of {res['attempted']} cases failed)")
    for line in res["problems"] + res["findings"]:
        print(f"  {line}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["findings"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
