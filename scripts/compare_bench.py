#!/usr/bin/env python3
"""The perf-gate comparison behind bench/run_benches.sh --compare.

Usage: scripts/compare_bench.py <baseline.json> <fresh.json> [bench-binary]

Compares per-benchmark real_time between a committed BENCH_<suite>.json
baseline and a fresh --compare pass, failing (exit 1) on a regression.
Kept as a standalone script — not a heredoc inside run_benches.sh — so
scripts/ci.sh can unit-test the gate's failure messages against synthetic
suite files without running any benchmark binary.

Fails on a >15% real_time regression *beyond the suite-wide drift*.  On a
shared box the whole suite swings together with tenant load and frequency
scaling (uniform 1.3x drifts observed between recording and comparing), so
per-benchmark ratios are judged against the suite's median ratio: a real
engine regression moves its benchmarks away from the pack, while host
drift moves the pack as one.  The median itself is capped at MAX_DRIFT so
a change that slows *everything* down (e.g. dropping LTO) cannot hide
inside the normalization.

Every refusal names the offending row and the evidence: the debug-build
refusal reports both sides' build types, the drift-cap refusal reports
both suite medians plus the worst-moving row, and the regression verdict
lists each offending row with its baseline and fresh times.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

THRESHOLD = 0.15
MAX_DRIFT = 0.50

# Rows still over the bar after drift normalization are re-measured (the
# flagged rows only, same min-of-repetitions protocol) up to RETRIES more
# times, folding each row's new minimum in before the verdict.  Identical
# binaries on a noisy box swing single rows 1.5x between passes, so any
# single-shot verdict flags a different random row each run; a real
# regression reproduces in every pass, while noise eventually loses to its
# own best sample.
RETRIES = 2

# Suites gated on a subset of their rows.  bench_observe exists to price
# observers, and its pricing rows run small-n workloads to *silence*, where
# per-seed convergence variance swings single rows 1.5x between identical
# binaries — only the telemetry rows (budget-bound workloads; the <=2%
# probe-overhead bar for src/telemetry) are stable enough to gate.
# bench_service is likewise gated only on its wire-dispatch rows: the
# registry rows time worker-pool wakeups and thread hand-offs, which swing
# with host scheduler latency rather than code changes.  bench_adaptive's
# n = 2^22+ rows are the EXPERIMENTS.md scaling table — full epidemics,
# seconds per iteration, too few repetitions to gate — so only the 2^20
# rows are judged.
GATE_ONLY_SUBSTRINGS = {"bench_observe": ("Telemetry",),
                        "bench_service": ("Wire",),
                        "bench_adaptive": ("/20",)}


def build_type(data):
    """The binary's build type.  "popproto_build_type" (bench_util.h's
    POPPROTO_BENCHMARK_MAIN, from NDEBUG) is authoritative; the library's
    own "library_build_type" is the fallback for baselines recorded before
    that key existed — misleadingly "debug" wherever the distro ships a
    debug libbenchmark, which is why the custom key wins."""
    ctx = data.get("context", {})
    return ctx.get("popproto_build_type", ctx.get("library_build_type", "unknown"))


def load(path):
    """Parsed JSON plus per-benchmark best real_time (min over repetitions,
    noise-robust)."""
    with open(path) as f:
        data = json.load(f)
    best = {}
    for b in data["benchmarks"]:
        if b.get("run_type", "iteration") == "aggregate":
            continue
        name = b["name"]
        best[name] = min(best.get(name, float("inf")), b["real_time"])
    return data, best


def main():
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    baseline_path, fresh_path = sys.argv[1], sys.argv[2]
    bench_bin = sys.argv[3] if len(sys.argv) > 3 else None
    gate_only = next((subs for suite, subs in GATE_ONLY_SUBSTRINGS.items()
                      if suite in baseline_path), None)

    baseline_data, baseline = load(baseline_path)
    fresh_data, fresh = load(fresh_path)

    # Refuse non-release numbers up front: a debug-vs-release diff is
    # meaningless in both directions (stale debug baselines mask real
    # regressions).  Name both sides so the fix — re-record whichever side
    # is wrong — is unambiguous.
    sides = [("committed baseline", baseline_path, build_type(baseline_data)),
             ("fresh run", fresh_path, build_type(fresh_data))]
    for index, (side, path, bt) in enumerate(sides):
        if bt != "release":
            other_side, other_path, other_bt = sides[1 - index]
            print(f"error: the {side} {path} was recorded from a '{bt}' build\n"
                  f"(the {other_side} {other_path} is '{other_bt}'); the perf\n"
                  f"gate only accepts release numbers.  Re-record it from a\n"
                  f"-DCMAKE_BUILD_TYPE=Release build with the\n"
                  f"min-of-repetitions protocol in bench/run_benches.sh's\n"
                  f"header comment.", file=sys.stderr)
            sys.exit(1)

    def is_exempt(name):
        return gate_only is not None and not any(sub in name for sub in gate_only)

    def evaluate(fresh):
        """Ratios, slowdown-normalized drift, and the gated rows over the bar."""
        ratios = {name: fresh[name] / base_time
                  for name, base_time in baseline.items() if name in fresh}
        raw = statistics.median(ratios.values()) if ratios else 1.0
        # Only normalize by *slowdowns*: a uniformly faster host must not
        # raise the bar for individual benchmarks.
        drift = max(raw, 1.0)
        flagged = [name for name, ratio in ratios.items()
                   if not is_exempt(name) and ratio > drift * (1 + THRESHOLD)]
        return ratios, raw, drift, flagged

    ratios, raw_drift, drift, flagged = evaluate(fresh)
    if raw_drift > 1 + MAX_DRIFT:
        shared = [name for name in baseline if name in fresh]
        base_median = statistics.median(baseline[name] for name in shared)
        fresh_median = statistics.median(fresh[name] for name in shared)
        worst = max(shared, key=lambda name: ratios[name])
        print(f"\nFAIL: suite-wide median ratio {raw_drift:.2f} exceeds the "
              f"{1 + MAX_DRIFT:.2f} drift cap — this is not host noise, the "
              f"whole suite got slower\n"
              f"  suite median real_time: baseline {base_median:.1f}, "
              f"fresh {fresh_median:.1f}\n"
              f"  worst row: {worst}: {baseline[worst]:.1f} -> "
              f"{fresh[worst]:.1f} ({ratios[worst]:.2f}x)", file=sys.stderr)
        sys.exit(1)

    retried = set()
    for _ in range(RETRIES):
        if not flagged or bench_bin is None:
            break
        retried.update(flagged)
        pattern = "^(" + "|".join(re.escape(name) for name in flagged) + ")$"
        fd, retry_path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        try:
            subprocess.run(
                [bench_bin, f"--benchmark_filter={pattern}",
                 "--benchmark_min_time=0.05", "--benchmark_repetitions=5",
                 "--benchmark_format=json", f"--benchmark_out={retry_path}",
                 "--benchmark_out_format=json"],
                check=True, stdout=subprocess.DEVNULL)
            for name, best in load(retry_path)[1].items():
                fresh[name] = min(fresh.get(name, float("inf")), best)
        finally:
            os.unlink(retry_path)
        ratios, raw_drift, drift, flagged = evaluate(fresh)

    regressions = []
    width = max(map(len, baseline), default=4)
    print(f"suite-wide median ratio (host drift): {drift:.2f}")
    if retried:
        print(f"re-measured {len(retried)} flagged row(s), keeping each row's "
              f"best time across passes")
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  {'ratio':>6}")
    for name, base_time in sorted(baseline.items()):
        if name not in fresh:
            print(f"{name:<{width}}  {base_time:>12.1f}  {'MISSING':>12}")
            regressions.append((name, None))
            continue
        ratio = ratios[name]
        exempt = is_exempt(name)
        bad = not exempt and ratio > drift * (1 + THRESHOLD)
        flag = "  <-- REGRESSION" if bad else ("  (not gated)" if exempt else "")
        print(f"{name:<{width}}  {base_time:>12.1f}  {fresh[name]:>12.1f}  {ratio:>6.2f}{flag}")
        if bad:
            regressions.append((name, ratio))

    if regressions:
        shared = [name for name in baseline if name in fresh]
        base_median = statistics.median(baseline[name] for name in shared)
        fresh_median = statistics.median(fresh[name] for name in shared)
        lines = []
        for name, ratio in regressions:
            if ratio is None:
                lines.append(f"  {name}: present in the baseline but MISSING "
                             f"from the fresh run")
            else:
                lines.append(f"  {name}: {baseline[name]:.1f} -> "
                             f"{fresh[name]:.1f} ({ratio:.2f}x, bar "
                             f"{drift * (1 + THRESHOLD):.2f}x)")
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed by more "
              f"than {THRESHOLD:.0%} beyond the {drift:.2f} suite drift "
              f"against {baseline_path}\n" + "\n".join(lines) + "\n"
              f"  suite median real_time: baseline {base_median:.1f}, "
              f"fresh {fresh_median:.1f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nOK: all benchmarks within {THRESHOLD:.0%} of the committed baseline "
          f"(after {drift:.2f} drift normalization)")


if __name__ == "__main__":
    main()
