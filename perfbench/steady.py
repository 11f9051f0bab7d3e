#!/usr/bin/env python3
"""Steadiness check: two independent sets of benchmark runs of one commit.

Run from the repository root:

    python3 perfbench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads daemon_ingest

Set k runs every workload once per seed k*100+1 .. k*100+runs, through the
command and run length in BENCHMARK.json. For each end-to-end metric it
prints each set's median and its spread (first to third quartile as a
share of the median, statistics.quantiles(n=4)), the drift of the second
median against the first (signed: positive is worse), and the bound. A
metric passes when each set's spread is within the bound and the two
medians differ by no more than the bound in either direction; every
metric is held to this, setup_s included. The failed share of operations
must be identical across sets. Raw results go to .bench_build/steady/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    results = {}  # (set, workload) -> list of results
    for s in range(1, args.sets + 1):
        for w in workloads:
            for i in range(1, args.runs + 1):
                seed = s * 100 + i
                t0 = time.time()
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                print(f"set {s} {w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']} ({time.time() - t0:.0f} s)", flush=True)
                results.setdefault((s, w), []).append(res)
    os.makedirs(".bench_build/steady", exist_ok=True)
    path = time.strftime(".bench_build/steady/%Y%m%d-%H%M%S.json")
    json.dump({f"{s}/{w}": r for (s, w), r in results.items()}, open(path, "w"), indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<22}{'median 1':>12}{'spread 1':>10}{'median 2':>12}{'spread 2':>10}{'drift':>9}{'bound':>7}")
        shares = set()
        for s in range(1, args.sets + 1):
            for r in results[(s, w)]:
                ok = ok and r["correct"]
                shares.add(r["failed"] / r["attempted"])
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, sprs = [], []
            for s in range(1, args.sets + 1):
                xs = [r["metrics"][name]["value"] for r in results[(s, w)]]
                meds.append(statistics.median(xs))
                sprs.append(spread(xs) if len(xs) > 1 else 0.0)
            drift = 0.0
            if len(meds) > 1:
                drift = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    drift = -drift
            good = abs(drift) <= bound and max(sprs) <= bound
            ok = ok and good
            cols = "".join(f"{meds[k]:>12.4g}{sprs[k]:>10.3f}" for k in range(len(meds)))
            print(f"  {name:<22}{cols}{drift:>+9.3f}{bound:>7.2f}  {'ok' if good else 'FAIL'}")
        if len(shares) != 1:
            ok = False
        print(f"  failed share of operations: {sorted(shares)}")
    print(f"\nraw results: {path}\n{'STEADY' if ok else 'NOT STEADY'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
