#!/usr/bin/env python3
"""Compares two sets of saved benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the untraced result files run.py saves
(.bench_build/perfbench-results/<workload>-seed<N>-trace0.json), copied
aside after running the same seeds on each commit.  The comparison refuses
(exit 2) when any result comes from a non-Release build or when the host
fingerprints (nproc, CPU model and MHz, compiler, build type, LTO) differ.
For each workload and end-to-end metric it prints both medians, each side's
quartile spread as a share of its median, and a verdict against the bound in
BENCHMARK.json:

  regression   the new median is worse than the base median by more than
               the bound
  unresolved   a side's spread is wider than the bound, and not every new
               run beats every base run
  ok           otherwise

It exits 1 if any pairing is a regression.
"""

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def load(directory):
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            result = json.load(f)
        result["path"] = path
        results.append(result)
    if not results:
        raise SystemExit("compare: no *-trace0.json results in " + directory)
    return results


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = run.load_spec()
    base, new = load(argv[0]), load(argv[1])
    reference = base[0]["fingerprint"]
    for result in base + new:
        fp = result["fingerprint"]
        if fp.get("build_type") != "Release":
            print("compare: refusing %s: build type %r, not Release"
                  % (result["path"], fp.get("build_type")))
            return 2
        if fp != reference:
            print("compare: refusing %s: fingerprint %s differs from %s"
                  % (result["path"], json.dumps(fp, sort_keys=True),
                     json.dumps(reference, sort_keys=True)))
            return 2
    regressions = 0
    print("%-20s %-24s %14s %14s %8s %8s  %s"
          % ("workload", "metric", "base median", "new median", "base iqr", "new iqr", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            n = [r["metrics"][name]["value"] for r in new if r["workload"] == workload]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            higher = metric["better"] == "higher"
            worse = (mb - mn) / mb if higher else (mn - mb) / mb
            all_better = min(n) > max(b) if higher else max(n) < min(b)
            if worse > bound:
                verdict = "regression"
                regressions += 1
            elif max(spread(b), spread(n)) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-20s %-24s %14.6g %14.6g %8.3f %8.3f  %s (%+.1f%%, bound %.0f%%)"
                  % (workload, name, mb, mn, spread(b), spread(n), verdict,
                     -100 * worse, 100 * bound))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
