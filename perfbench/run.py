#!/usr/bin/env python3
"""The repository benchmark: builds popbench from source, runs one workload,
checks every output, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or "all".  Run it from the
repository root.  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 runs an untraced pass and then a traced pass over the same inputs
and reports the per-layer metrics, with a "where the time goes" table from
the spans (kept in .bench_build/perfbench-results/).  The last line of
stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Any wrong answer makes the command exit 3 (after printing the result); a
build or run failure exits 1 without a result.  Each result is also saved,
with the host fingerprint, for perfbench/compare.py.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "perfbench-results")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
POPBENCH = os.path.join(BUILD_DIR, "popbench")
DAEMON = os.path.join(BUILD_DIR, "popproto", "examples", "serve_popproto")
RUN_TIMEOUT_S = 170
# The traced pass must attribute at least this share of its wall time to
# layer spans (the root's own self time is the benchmark's glue).
MIN_ATTRIBUTED_SHARE = 0.95
# The hi open-loop rate must be sustainable: tiny-session p99 under this.
HI_P99_LIMIT_MS = 50.0


class BenchError(Exception):
    pass


def load_spec():
    """BENCHMARK.json, found next to the benchmark directory."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds popbench and serve_popproto from source."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "perfbench-build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    generated = [os.path.join(BUILD_DIR, name) for name in ("Makefile", "build.ninja")]
    if not any(os.path.exists(path) for path in generated):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "popbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed (%s):\n%s" % (" ".join(step), tail))


def fingerprint(build_info):
    """Host and build facts that must match before two results compare."""
    model, mhz = "unknown", 0.0
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "cpu MHz" and mhz == 0.0:
                    mhz = float(value)
    except OSError:
        pass
    # The current clock wanders on hosts with frequency scaling; prefer the
    # rated maximum, else round to 100 MHz, so one host keeps one fingerprint.
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq") as f:
            mhz = int(f.read()) / 1000.0
    except (OSError, ValueError):
        mhz = round(mhz, -2)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_mhz": round(mhz),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "lto": build_info["lto"],
    }


def run_popbench(workload, seed, seconds, trace, tiny=False, inject_wrong=False):
    """Runs one popbench pass and returns its parsed result line."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    spans = os.path.join(RESULTS_DIR, "%s-seed%d.spans.jsonl" % (workload, seed))
    cmd = [POPBENCH, workload, "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--daemon", DAEMON, "--work-dir", WORK_DIR]
    if trace:
        cmd += ["--spans", spans]
    if tiny:
        cmd.append("--tiny")
    if inject_wrong:
        cmd.append("--inject-wrong")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("popbench %s exited with code %d" % (workload, proc.returncode))
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("popbench %s printed no result" % workload)
    result = json.loads(lines[-1])
    if trace:
        result["spans_file"] = spans
    return result


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def union_length(intervals):
    total, end = 0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def analyse_spans(spans):
    """Checks the span tree and returns (self_ns by name, root wall ns).

    Every span but the root needs an existing parent; lane-0 spans (the
    driving thread) must nest inside their parent.  A lane-0 span's self
    time is its duration minus the union of its lane-0 children, so the
    lane-0 self times sum exactly to the root's wall time.  Async lanes
    (service sessions and wire requests) overlap one another and are
    checked for parents only.
    """
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] == 0]
    if len(roots) != 1 or roots[0]["lane"] != 0:
        raise BenchError("traced pass: expected one lane-0 root span, found %d" % len(roots))
    children = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            raise BenchError("span %s ends before it starts" % s["name"])
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            raise BenchError("span %s has a missing parent %d" % (s["name"], s["parent"]))
        if s["lane"] == 0:
            if parent["lane"] != 0 or s["start_ns"] < parent["start_ns"] or \
                    s["end_ns"] > parent["end_ns"]:
                raise BenchError("span %s is not nested in its parent %s"
                                 % (s["name"], parent["name"]))
            children.setdefault(parent["id"], []).append((s["start_ns"], s["end_ns"]))
    self_ns = {}
    total = 0
    for s in spans:
        if s["lane"] != 0:
            continue
        own = (s["end_ns"] - s["start_ns"]) - union_length(children.get(s["id"], []))
        self_ns[s["name"]] = self_ns.get(s["name"], 0) + own
        total += own
    root = roots[0]
    wall = root["end_ns"] - root["start_ns"]
    if abs(total - wall) > max(1, wall * 1e-9):
        raise BenchError("lane-0 self times sum to %d ns, wall is %d ns" % (total, wall))
    return self_ns, wall


def check_metrics(result, spec, trace):
    """The emitted metrics must be exactly the ones BENCHMARK.json names."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(wanted) & set(got) if wanted[n] != got[n])
        raise BenchError("%s: metrics differ from BENCHMARK.json (missing %s, extra %s, "
                         "unit mismatch %s)" % (result["workload"], missing, extra, units))


def run_workload(workload, seed, seconds, trace, spec, tiny=False, inject_wrong=False):
    """One workload: run, attribute spans (traced), print the report."""
    result = run_popbench(workload, seed, seconds, trace, tiny, inject_wrong)
    if trace:
        self_ns, wall = analyse_spans(load_spans(result["spans_file"]))
        share = 1.0 - self_ns.get("pass", 0) / wall if wall else 0.0
        result["metrics"]["bench.attributed_share"] = {"value": share, "unit": "ratio"}
        print("%s: where the time goes (traced pass, %.3f s wall, lane-0 self time)"
              % (workload, wall / 1e9))
        for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
            print("  %-40s %10.3f ms  %6.2f%%" % (name, ns / 1e6, 100.0 * ns / wall))
        if share < MIN_ATTRIBUTED_SHARE:
            print("warning: layer spans cover only %.1f%% of the traced wall time"
                  % (100 * share))
    check_metrics(result, spec, trace)
    attempted, failed = result["attempted"], result["failed"]
    result["fingerprint"] = fingerprint(result["build"])
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    print("%s seed %d: %d checked outputs, %d wrong" % (workload, seed, attempted, failed))
    for failure in result["failures"]:
        print("  WRONG: " + failure)
    named = dict(result["report"])
    named["failed_ratio"] = {"value": failed / attempted if attempted else 1.0, "unit": "ratio"}
    for title, metrics in (("workload metrics", named), ("benchmark metrics", result["metrics"])):
        if trace and title == "workload metrics":
            continue
        print("%s %s:" % (workload, title))
        for name, m in metrics.items():
            print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    if workload == "service_mix" and not trace:
        p99 = result["report"]["svc.hi.p99_ms"]["value"]
        if p99 > HI_P99_LIMIT_MS:
            print("warning: svc.hi.p99_ms %.1f ms exceeds the %.0f ms validity limit; the hi "
                  "rate is not sustainable on this host" % (p99, HI_P99_LIMIT_MS))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    saved = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(saved, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def main(argv):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="self-test: flip one expected answer")
    args = parser.parse_args(argv)
    try:
        build()
        workloads = names if args.workload == "all" else [args.workload]
        results = [run_workload(w, args.seed, args.seconds, args.trace, spec,
                                args.tiny, args.inject_wrong) for w in workloads]
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], name): m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
