#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Runs each workload --runs times through perfbench/run.py, each run
with its own seed, at BENCHMARK.json's run_seconds.  For every metric
it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median.  An end-to-end metric whose spread
exceeds its bound is flagged "OVER"; one above a third of its bound
is flagged "wide".  setup_s is printed but never flagged: its bound
guards the median between commits, not the spread.  --trace 1 checks
the per-layer metrics instead (nothing is flagged; they have no
bound).  --out writes every run's result line as JSON.  Exits 1 when
a run fails, reports failed operations, or a metric is OVER.

--compare reads two --out files of the same code and prints, per
workload and end-to-end metric, how far the second set's median moved
in the worse direction, as a share of the first; it flags a move
beyond the bound and a failed-operation share that differs.

Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def compare(first_path, second_path, bench):
    """Median shift between two sets of runs; True when within bounds."""
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    ok = True
    for wl in first:
        a, b = first[wl], second.get(wl, [])
        if not a or not b:
            continue
        share = lambda rs: sorted({r["failed"] / r["attempted"] for r in rs})
        if share(a) != share(b):
            print("%s: failed share differs: %s vs %s"
                  % (wl, share(a), share(b)))
            ok = False
        print("\n%s" % wl)
        for m in bench["end_to_end"]:
            name = m["name"]
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "OVER" if worse > m["bound"] else ""
            ok = ok and not flag
            print("  %-22s %12.6g -> %12.6g  worse by %+7.4f  bound %.2f %s"
                  % (name, ma, mb, worse, m["bound"], flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        return 0 if compare(args.compare[0], args.compare[1], bench) else 1
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    record = {}
    for wl in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(wl, seed, bench["run_seconds"], args.trace)
            if res is None:
                print("%s seed %d: run failed" % (wl, seed))
                ok = False
                continue
            if res["failed"] or not res["correct"]:
                print("%s seed %d: %d of %d operations failed"
                      % (wl, seed, res["failed"], res["attempted"]))
                ok = False
            results.append(res)
        record[wl] = results
        if len(results) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, failed share %s"
              % (wl, len(results), ", ".join("%.6g" % s for s in shares)))
        print("  %-34s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "OVER"
                    ok = False
                elif spread > bound / 3:
                    flag = "wide"
            print("  %-34s %12.6g %12.6g %12.6g %8.4f %6s %s %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, unit, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
