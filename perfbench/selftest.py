#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks, through the real command line:
  * every metric named in BENCHMARK.json is emitted with its unit, in both
    the untraced (end-to-end) and the traced (per-layer) mode;
  * an injected wrong expected answer is caught: the result says
    correct = false with failed >= 1, and the command exits nonzero;
  * the traced spans have valid parents, their lane-0 self times sum to the
    traced wall time, and layer spans cover >= 95% of it.
It also feeds the span checker broken trees, which it must reject.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def expect(condition, message, failures):
    if not condition:
        failures.append(message)
        print("FAIL " + message)


def check_result(workload, trace, code, result, spec, failures):
    where = "%s trace=%d" % (workload, trace)
    expect(code == 0, "%s: exit code %d" % (where, code), failures)
    if result is None:
        failures.append(where + ": no result line")
        return
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           "%s: result keys %s" % (where, sorted(result)), failures)
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           "%s: not a clean correct run" % where, failures)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, unit in wanted.items():
        metric = result["metrics"].get(name)
        expect(metric is not None and metric.get("unit") == unit,
               "%s: metric %s missing or without unit %s" % (where, name, unit), failures)
        if metric is not None:
            value = metric.get("value")
            expect(isinstance(value, (int, float)) and math.isfinite(value),
                   "%s: metric %s is not a finite number" % (where, name), failures)
    expect(set(result["metrics"]) == set(wanted),
           "%s: extra metrics %s" % (where, sorted(set(result["metrics"]) - set(wanted))),
           failures)
    if not trace:
        for name in ("setup_s", "runs_per_s", "unit_ms"):
            expect(result["metrics"][name]["value"] > 0, "%s: %s is 0" % (where, name), failures)


def check_spans(workload, failures):
    path = os.path.join(run.RESULTS_DIR, "%s-seed7.spans.jsonl" % workload)
    try:
        spans = run.load_spans(path)
        self_ns, wall = run.analyse_spans(spans)
    except (OSError, run.BenchError) as error:
        failures.append("%s: spans: %s" % (workload, error))
        print("FAIL %s: spans: %s" % (workload, error))
        return
    expect(sum(self_ns.values()) == wall, "%s: self times do not sum to wall" % workload,
           failures)
    share = 1.0 - self_ns.get("pass", 0) / wall
    expect(share >= run.MIN_ATTRIBUTED_SHARE,
           "%s: layer spans cover %.1f%% of wall" % (workload, 100 * share), failures)
    ids = {s["id"] for s in spans}
    expect(all(s["parent"] in ids for s in spans if s["parent"] != 0),
           "%s: a span has a dangling parent" % workload, failures)


def check_span_checker(failures):
    root = {"name": "pass", "id": 1, "parent": 0, "lane": 0, "start_ns": 0, "end_ns": 100,
            "run": ""}
    child = {"name": "a", "id": 2, "parent": 1, "lane": 0, "start_ns": 10, "end_ns": 60,
             "run": ""}
    nested = {"name": "b", "id": 3, "parent": 2, "lane": 0, "start_ns": 20, "end_ns": 30,
              "run": ""}
    self_ns, wall = run.analyse_spans([root, child, nested])
    expect(self_ns == {"pass": 50, "a": 40, "b": 10} and wall == 100,
           "span checker: wrong self times %s" % self_ns, failures)
    broken = [
        ("dangling parent", [root, dict(child, parent=9)]),
        ("child outside parent", [root, dict(child, end_ns=150)]),
        ("two roots", [root, dict(child, parent=0)]),
    ]
    for label, spans in broken:
        try:
            run.analyse_spans(spans)
            expect(False, "span checker accepted a tree with a " + label, failures)
        except run.BenchError:
            pass


def main():
    spec = run.load_spec()
    failures = []
    check_span_checker(failures)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, stderr = bench(workload, trace)
            check_result(workload, trace, code, result, spec, failures)
            if code != 0:
                print(stderr[-2000:])
            if trace:
                check_spans(workload, failures)
        code, result, _ = bench(workload, 0, "--inject-wrong")
        expect(code == 3 and result is not None and result["correct"] is False and
               result["failed"] >= 1,
               "%s: injected wrong answer not caught (exit %d, result %s)"
               % (workload, code, result and {k: result[k] for k in ("correct", "failed")}),
               failures)
        print("%s: %s" % (workload, "ok" if not failures else "see failures above"))
    if failures:
        print("%d self-test failure(s)" % len(failures))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
