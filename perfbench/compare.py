#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them, as the benchmark
writes them to .bench_build/run/results/ (one JSON document per run, with
the host fingerprint). Copy the base commit's results aside before running
the new commit, since both write to the same place.

For every workload and end-to-end metric of BENCHMARK.json the medians of
the two sets are compared against the metric's bound. Where the base runs
spread (quartile distance / median) wider than the bound, the medians
cannot resolve a change of that size: the metric is then a regression if
every new run is worse than every base run, better if every new run is
better, and unresolved otherwise. Per-layer metrics of traced runs are
listed for information; they have no bound.

Results from hosts with different fingerprints (cores, CPU model, ISA,
kernel, output filesystem, compiler, build type) are refused: a number
measured on another kind of host says nothing about this change.

Exit status: 0 no regression and every metric resolved, 1 at least one
regression, 3 refused, 4 no regression but at least one metric unresolved.
"""
import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if "workload" in doc and "metrics" in doc and "host" in doc:
            runs.append(doc)
    if not runs:
        sys.exit("compare: no result files in " + path)
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)

    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + new}
    if len(hosts) > 1:
        fields = sorted({k for h in hosts for k, v in json.loads(h).items()
                         if any(json.loads(o).get(k) != v for o in hosts)})
        print("host fingerprints differ in: " + ", ".join(fields))
        for h in sorted(hosts):
            print("  " + h)
        print("REFUSED: results from different kinds of host are not compared")
        return 3
    print("host " + next(iter(hosts)))

    regressions = unresolved = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            b = [r for r in base if r["workload"] == wl and r["trace"] == trace]
            n = [r for r in new if r["workload"] == wl and r["trace"] == trace]
            if not b or not n:
                continue
            print("%s (%s; runs base %d, new %d)" % (
                wl, "end-to-end" if trace == 0 else "per-layer", len(b), len(n)))
            for m in metrics:
                bv = [r["metrics"][m["name"]]["value"] for r in b if m["name"] in r["metrics"]]
                nv = [r["metrics"][m["name"]]["value"] for r in n if m["name"] in r["metrics"]]
                if not bv or not nv:
                    continue
                bm, nm = statistics.median(bv), statistics.median(nv)
                change = (nm - bm) / abs(bm) if bm else 0.0
                worse = -change if m["better"] == "higher" else change
                verdict = ""
                if "bound" in m:
                    if spread(bv) > m["bound"]:
                        lo, hi = (bv, nv) if m["better"] == "higher" else (nv, bv)
                        if max(lo) < min(hi):
                            verdict = "better"
                        elif max(hi) < min(lo):
                            verdict = "REGRESSION"
                            regressions += 1
                        else:
                            verdict = "unresolved"
                            unresolved += 1
                    elif worse > m["bound"]:
                        verdict = "REGRESSION"
                        regressions += 1
                    else:
                        verdict = "ok"
                    verdict += " (bound %.0f%%)" % (100 * m["bound"])
                print("  %-30s %14.6g -> %-14.6g %-10s %+7.2f%% %s" % (
                    m["name"], bm, nm, m["unit"], 100 * change, verdict))
    return 1 if regressions else 4 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
