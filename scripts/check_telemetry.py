#!/usr/bin/env python3
"""Validates the two `trace_run --profile` artifacts.

Usage: scripts/check_telemetry.py <base>.trace.json <base>.prom [<run>.jsonl]

Holds the Chrome trace-event JSON and the Prometheus text exposition to the
schema documented in DESIGN.md "Export schemas" — the CI smoke stage
(scripts/ci.sh) runs a short serial collapsed profile and feeds both
files through here, so an exporter regression fails the gate instead of
producing a file Perfetto silently refuses to load.

Checks (exit 1 with a message on the first violation):

  Chrome trace: parses as JSON; has displayTimeUnit, otherData with
  schema_version (== SCHEMA_VERSION)/engine/population, and a non-empty
  traceEvents array;
  every event is a complete ("X", with ts/dur/name/tid) or metadata ("M")
  event; per tid, complete events nest properly (no half-overlaps — that
  is what makes the flame graph render as a stack).  ts and dur are read
  as exact decimals, so span ends compare exactly: a float ts + dur can
  round one ulp past its parent's end and read as a half-overlap.

  Prometheus: every line is a comment or `name{labels} value` with a
  finite float value; every # TYPE names a popproto_* family that then
  appears; the run-info and per-phase families are present, plus the
  super-step families a collapsed profile emits.

  JSONL (optional third argument; the trace_run stdout of an *adaptive*
  run): every engine_switch event is well-formed (monotone t, switch_index
  counting from 1, from != to, consecutive switches chaining from -> to,
  signal on the firing side of its threshold); the telemetry event's
  engine_segments agree with the switch events (count, engine chain) and
  attribute every interaction of the final stop event to exactly one
  segment; and the Prometheus exposition carries the per-engine families
  (popproto_engine_switches_total, popproto_engine_segment_*).
"""

import json
import math
import re
import sys
from decimal import Decimal

# RunTelemetry::kSchemaVersion (src/telemetry/telemetry.h).
SCHEMA_VERSION = 2


def fail(message: str) -> None:
    print(f"check_telemetry: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str) -> None:
    with open(path) as f:
        try:
            trace = json.load(f, parse_float=Decimal)
        except json.JSONDecodeError as error:
            fail(f"{path} is not valid JSON: {error}")

    for key in ("displayTimeUnit", "otherData", "traceEvents"):
        if key not in trace:
            fail(f"{path}: missing top-level key {key!r}")
    for key in ("schema_version", "engine", "population"):
        if key not in trace["otherData"]:
            fail(f"{path}: otherData missing {key!r}")
    if trace["otherData"]["schema_version"] != SCHEMA_VERSION:
        fail(f"{path}: schema_version {trace['otherData']['schema_version']}, "
             f"expected {SCHEMA_VERSION}")

    events = trace["traceEvents"]
    if not events:
        fail(f"{path}: traceEvents is empty")

    spans_by_tid = {}
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") != "thread_name":
                fail(f"{path}: unexpected metadata event {event}")
            continue
        if ph != "X":
            fail(f"{path}: unexpected event phase {ph!r} in {event}")
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in event:
                fail(f"{path}: complete event missing {key!r}: {event}")
        if event["dur"] < 0:
            fail(f"{path}: negative duration in {event}")
        spans_by_tid.setdefault(event["tid"], []).append(
            (event["ts"], event["ts"] + event["dur"], event["name"]))

    if not spans_by_tid:
        fail(f"{path}: no complete ('X') events")

    # Proper nesting per thread: sweep spans in (start, -end) order and
    # keep a stack; a span must close inside whatever span contains it.
    for tid, spans in spans_by_tid.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for begin, end, name in spans:
            while stack and stack[-1][1] <= begin:
                stack.pop()
            if stack and end > stack[-1][1]:
                fail(f"{path}: tid {tid}: span {name!r} [{begin}, {end}) "
                     f"half-overlaps {stack[-1][2]!r} "
                     f"[{stack[-1][0]}, {stack[-1][1]})")
            stack.append((begin, end, name))

    print(f"check_telemetry: {path}: "
          f"{sum(len(s) for s in spans_by_tid.values())} spans over "
          f"{len(spans_by_tid)} threads, properly nested")


LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)$")
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$')

REQUIRED_FAMILIES = (
    "popproto_run_info",
    "popproto_run_wall_seconds",
    "popproto_run_interactions_total",
    "popproto_phase_seconds_total",
    "popproto_phase_calls_total",
)

# Every run of the collapsed engine emits these (the adaptive profile's
# families are checked instead when the JSONL argument is given).
SUPER_STEP_FAMILIES = (
    "popproto_super_steps_total",
    "popproto_super_step_pairs_total",
    "popproto_super_step_pairs_log2",
)


ADAPTIVE_FAMILIES = (
    "popproto_engine_switches_total",
    "popproto_engine_segment_seconds_total",
    "popproto_engine_segment_interactions_total",
)


def check_prometheus(path: str, adaptive: bool = False) -> None:
    with open(path) as f:
        text = f.read()
    if not text.endswith("\n"):
        fail(f"{path}: exposition must end with a newline")

    typed = set()
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        match = LINE_RE.match(line)
        if match is None:
            fail(f"{path}:{lineno}: not `name{{labels}} value`: {line!r}")
        labels = match.group("labels")
        if labels:
            for label in labels.split(","):
                if not LABEL_RE.match(label):
                    fail(f"{path}:{lineno}: bad label {label!r}")
        try:
            value = float(match.group("value"))
        except ValueError:
            fail(f"{path}:{lineno}: non-numeric value: {line!r}")
        if math.isnan(value):
            fail(f"{path}:{lineno}: NaN value: {line!r}")
        seen.add(match.group("name"))

    required = REQUIRED_FAMILIES + (ADAPTIVE_FAMILIES if adaptive
                                    else SUPER_STEP_FAMILIES)
    for family in required:
        # Histogram samples append _bucket/_sum/_count to the family name.
        if not any(name == family or name.startswith(family + "_") for name in seen):
            fail(f"{path}: required metric family {family!r} missing")
    for family in typed:
        if not any(name == family or name.startswith(family + "_") for name in seen):
            fail(f"{path}: # TYPE {family} declared but no sample emitted")

    print(f"check_telemetry: {path}: {len(seen)} metric names, "
          f"{len(typed)} typed families, all well-formed")


SWITCH_KEYS = ("t", "from", "to", "signal", "enter_threshold",
               "exit_threshold", "switch_index")


def check_adaptive_jsonl(path: str) -> None:
    """Validates the engine_switch events and per-engine attribution of an
    adaptive trace_run JSONL stream (requires --profile, for the telemetry
    event)."""
    switches = []
    telemetry = None
    stop = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"{path}:{lineno}: not valid JSON: {error}")
            kind = event.get("event")
            if kind == "engine_switch":
                for key in SWITCH_KEYS:
                    if key not in event:
                        fail(f"{path}:{lineno}: engine_switch missing {key!r}")
                switches.append(event)
            elif kind == "telemetry":
                telemetry = event
            elif kind == "stop":
                stop = event

    if not switches:
        fail(f"{path}: no engine_switch events — the smoke workload is "
             f"expected to cross both thresholds")
    if stop is None:
        fail(f"{path}: no stop event")
    for index, switch in enumerate(switches):
        where = f"{path}: engine_switch #{index + 1}"
        if switch["switch_index"] != index + 1:
            fail(f"{where}: switch_index {switch['switch_index']}, "
                 f"expected {index + 1}")
        if switch["from"] == switch["to"]:
            fail(f"{where}: degenerate switch {switch['from']} -> {switch['to']}")
        if index > 0:
            if switch["t"] <= switches[index - 1]["t"]:
                fail(f"{where}: t {switch['t']} not after previous switch at "
                     f"{switches[index - 1]['t']}")
            if switch["from"] != switches[index - 1]["to"]:
                fail(f"{where}: from {switch['from']!r} does not chain with "
                     f"previous switch to {switches[index - 1]['to']!r}")
        # The signal must sit on the firing side of its hysteresis bound.
        if switch["to"] == "collapsed" and switch["signal"] < switch["enter_threshold"]:
            fail(f"{where}: entered collapsed at signal {switch['signal']} "
                 f"below enter_threshold {switch['enter_threshold']}")
        if switch["to"] == "count_batch" and switch["signal"] > switch["exit_threshold"]:
            fail(f"{where}: exited collapsed at signal {switch['signal']} "
                 f"above exit_threshold {switch['exit_threshold']}")

    if telemetry is None:
        fail(f"{path}: no telemetry event (run trace_run with --profile)")
    segments = telemetry.get("engine_segments")
    if not segments:
        fail(f"{path}: telemetry event has no engine_segments")
    if telemetry.get("engine_switches") != len(switches):
        fail(f"{path}: telemetry engine_switches "
             f"{telemetry.get('engine_switches')} != {len(switches)} "
             f"engine_switch events")
    if len(segments) != len(switches) + 1:
        fail(f"{path}: {len(segments)} engine_segments for {len(switches)} "
             f"switches (want switches + 1)")
    for index, switch in enumerate(switches):
        if segments[index]["engine"] != switch["from"]:
            fail(f"{path}: segment {index} ran {segments[index]['engine']!r} "
                 f"but switch #{index + 1} left {switch['from']!r}")
        if segments[index + 1]["engine"] != switch["to"]:
            fail(f"{path}: segment {index + 1} ran "
                 f"{segments[index + 1]['engine']!r} but switch #{index + 1} "
                 f"entered {switch['to']!r}")
    attributed = sum(segment["interactions"] for segment in segments)
    if attributed != stop["interactions"]:
        fail(f"{path}: engine_segments attribute {attributed} interactions, "
             f"stop event reports {stop['interactions']}")

    print(f"check_telemetry: {path}: {len(switches)} engine switches, "
          f"{len(segments)} segments, every interaction attributed")


def main() -> None:
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_trace(sys.argv[1])
    check_prometheus(sys.argv[2], adaptive=len(sys.argv) == 4)
    if len(sys.argv) == 4:
        check_adaptive_jsonl(sys.argv[3])
    print("check_telemetry: OK")


if __name__ == "__main__":
    main()
