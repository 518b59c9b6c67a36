#!/usr/bin/env python3
"""Steadiness tool: run one workload N times and summarise every metric.

Run it from the root of a checkout:

    python3 perfbench/steady.py --workload nozzle-small --runs 10
    python3 perfbench/steady.py --workload cube-paper --runs 10 --compare perfbench/out/steady-cube-paper-A.json

Each run uses another seed (--seed0, --seed0+1, ...). For every end-to-end
metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3-Q1)/median
and the metric's bound from BENCHMARK.json, plus the host canary
(host.canary_ms, read from each run's report). The exact counts must be
identical in every run; the tool exits non-zero when they are not, when a
run fails, or when a spread (setup_s excepted) exceeds its bound. With
--compare it also prints the shift of each median against an earlier set
and fails when a metric got worse by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXACT = ["makespan_mctl_tu", "makespan_scoc_tu", "edge_cut_mctl", "edge_cut_scoc", "level_imbalance_mctl"]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.time() - t0
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"run {workload} seed {seed} failed with exit code {p.returncode}")
    res = json.loads(lines[-1])
    report_path = os.path.join("perfbench", "out", f"report-{workload}-seed{seed}-trace{'true' if trace else 'false'}.json")
    canary = None
    if os.path.exists(report_path):
        with open(report_path) as f:
            canary = json.load(f)["samples"].get("host.canary_ms", {}).get("median")
    return res, canary, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--compare", help="summary JSON of an earlier set to compare medians against")
    ap.add_argument("--out", help="where to write this set's summary JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values, canaries, fail_shares = {}, [], set()
    for i in range(args.runs):
        seed = args.seed0 + i
        res, canary, wall = run_once(args.workload, seed, seconds, 0)
        if not res["correct"]:
            raise SystemExit(f"seed {seed}: outputs incorrect")
        fail_shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if canary is not None:
            canaries.append(canary)
        print(f"  run {i + 1}/{args.runs} seed {seed}: {wall:.1f} s wall, attempted {res['attempted']}, failed {res['failed']}",
              file=sys.stderr, flush=True)

    ok = True
    summary = {"workload": args.workload, "runs": args.runs, "seed0": args.seed0, "seconds": seconds,
               "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "metrics": {}}
    prev = None
    if args.compare:
        with open(args.compare) as f:
            prev = json.load(f)["metrics"]
    print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'shift':>8}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        b = bounds.get(name, {})
        bound = b.get("bound", 0.0)
        shift = ""
        if prev and name in prev:
            pm = prev[name]["median"]
            worse = (med - pm) / pm if b.get("better") == "lower" else (pm - med) / pm
            shift = f"{worse:+.3f}"
            if worse > bound:
                ok = False
                shift += "!"
        flag = ""
        if name != "setup_s" and spread > bound:
            ok, flag = False, " SPREAD>BOUND"
        elif name != "setup_s" and spread > bound / 3:
            flag = " spread>bound/3"
        if name in EXACT and len(set(v)) != 1:
            ok, flag = False, " NOT EXACT"
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
        print(f"{name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound:6.3f} {shift:>8}{flag}")
    if canaries:
        c = statistics.quantiles(canaries, n=4) if len(canaries) > 1 else [canaries[0]] * 3
        summary["host.canary_ms"] = {"median": c[1], "q1": c[0], "q3": c[2], "values": canaries}
        print(f"{'host.canary_ms':24} {c[1]:14.6g} {c[0]:14.6g} {c[2]:14.6g}")
    if len(fail_shares) != 1:
        ok = False
        print(f"failed share differs between runs: {sorted(fail_shares)}")
    out = args.out or os.path.join("perfbench", "out", f"steady-{args.workload}-{int(time.time())}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"summary written to {out}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
