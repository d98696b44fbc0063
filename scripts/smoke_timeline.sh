#!/usr/bin/env bash
# Smoke test for the causal timeline profiler: run a small sasimi flow
# with -timeline, validate the exported file is well-formed Chrome
# trace-event JSON (the format Perfetto and chrome://tracing load), and
# check the end-of-run span summary includes the serial-fraction line the
# EXPERIMENTS.md analysis is built on. CI runs this after the unit suites
# and uploads the trace as an artifact; it is also a quick local check:
# ./scripts/smoke_timeline.sh
set -euo pipefail

TRACE="${TRACE:-/tmp/smoke_timeline.json}"
LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

go build -o /tmp/alsrun ./cmd/alsrun
/tmp/alsrun -circuit c880 -threshold 0.03 -m 2048 -verify 2 -workers 4 \
    -timeline "$TRACE" | tee "$LOG"

grep -q "wrote $TRACE" "$LOG" || { echo "alsrun never wrote the trace"; exit 1; }
grep -q "parallel fraction" "$LOG" || { echo "summary is missing the parallel-fraction line"; exit 1; }

# Validate the trace-event JSON: top-level shape, complete events with
# non-negative microsecond timestamps, thread_name metadata for the
# driver lane and at least one worker lane, dispatch causality (worker
# events referencing a parent span), the verify fan-out (at -workers 4,
# sasimi.verify_topk must appear on worker lanes as causally-parented
# child spans, not only as a driver span) and the driver lane's nesting
# inside its phase spans.
python3 - "$TRACE" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

assert doc["displayTimeUnit"] == "ns", doc.get("displayTimeUnit")
events = doc["traceEvents"]
assert events, "empty traceEvents"

threads, complete, parented = {}, 0, 0
spans = []
for ev in events:
    assert ev["ph"] in ("X", "M"), f"unexpected event phase {ev['ph']!r}"
    assert ev["pid"] == 1
    if ev["ph"] == "M":
        assert ev["name"] == "thread_name"
        threads[ev["tid"]] = ev["args"]["name"]
    else:
        complete += 1
        assert ev["ts"] >= 0 and ev.get("dur", 0) >= 0, ev
        assert "span_id" in ev["args"], ev
        if "parent" in ev["args"]:
            parented += 1
        spans.append(ev)

assert "driver" in threads.values(), threads
assert any(n.startswith("worker") for n in threads.values()), threads
assert complete > 0, "no complete (X) events"
assert parented > 0, "no span carries a parent (causality lost)"

verify_children = [
    ev for ev in spans
    if ev["name"] == "sasimi.verify_topk"
    and threads.get(ev["tid"], "").startswith("worker")
    and "parent" in ev["args"]
]
assert verify_children, "verify_topk never fanned out to worker lanes"

# Phase timing has one source: the driver lane carries the phase:,
# iteration and accept spans, and each phase: span, recorded with its true
# start, encloses every other driver-lane event that overlaps it. The
# iteration span crosses phases and the accept marker follows its phase,
# so neither is checked for nesting. EPS absorbs the float rounding of
# nanosecond stamps written as microseconds.
EPS = 1e-3
def end(ev):
    return ev["ts"] + ev.get("dur", 0)
driver = [ev for ev in spans if threads.get(ev["tid"]) == "driver"]
phases = [ev for ev in driver if ev["name"].startswith("phase:")]
names = {ev["name"] for ev in driver}
assert phases, "no phase: spans on the driver lane"
for want in ("iteration", "accept"):
    assert want in names, f"no {want} span on the driver lane"
nested = [ev for ev in driver
          if not ev["name"].startswith("phase:") and ev["name"] not in ("iteration", "accept")]
outside = [c for c in nested if any(
    c["ts"] < end(p) and p["ts"] < end(c)
    and (c["ts"] < p["ts"] - EPS or end(c) > end(p) + EPS) for p in phases)]
assert not outside, (f"{len(outside)} of {len(nested)} driver-lane events stick out of "
                     f"a phase: span, first {outside[0]['name']} at ts {outside[0]['ts']}")

print(f"smoke_timeline: {complete} spans across {len(threads)} lanes, "
      f"{parented} causally parented, {len(verify_children)} parallel verify spans, "
      f"{len(nested)} driver spans inside {len(phases)} phase spans")
EOF

echo "smoke_timeline: OK"
