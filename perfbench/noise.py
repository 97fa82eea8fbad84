#!/usr/bin/env python3
"""Noise record for the repository benchmark.

Runs the command in BENCHMARK.json once per seed for each workload,
back to back, and prints each metric's median, quartiles and spread
(inter-quartile range as a share of the median, as
`statistics.quantiles(values, n=4)` gives the quartiles). Modelled
metrics and the modelled-result fingerprint must read the same in every
run; a difference is reported and fails the script.

    python3 perfbench/noise.py --workloads fig10_scaled service_corpus \
        --seeds 1 2 3 4 5

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Modelled (simulated) metrics: exact, so any difference between runs is
# a determinism failure, not noise. `ok_pct` depends on the seed (which
# failing requests get resubmitted) but repeats for a given seed.
EXACT = {"sim_cycles", "ipc_gain_pct"}


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t = time.time()
    p = subprocess.run(args, capture_output=True, text=True)
    took = time.time() - t
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    info = dict(l.split(": ", 1) for l in p.stderr.splitlines()
                if ": " in l and not l.startswith(("panic", " ")))
    return result, took, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads:
        rows = []
        fingerprints = set()
        for s in a.seeds:
            r, took, info = run(bench["command"], w, s, bench["run_seconds"])
            rows.append(r)
            fingerprints.add(info.get("fingerprint"))
            print(f"{w} seed {s}: {took:.1f}s correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"ref_loop_ms={info.get('reference_loop_ms', '?')}",
                  flush=True)
            ok &= r["correct"]
        if len(fingerprints) > 1:
            print(f"{w}: modelled-result fingerprints differ between runs: {fingerprints}")
            ok = False
        print(f"\n{w}: {len(rows)} runs")
        print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
        for name in rows[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if name in EXACT and len(set(vals)) > 1:
                flag = "  NOT EXACT"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
