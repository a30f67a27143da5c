#!/usr/bin/env bash
# Runs the whole suite twice with one seed and checks that the two sets
# of runs agree: every end-to-end metric within its bound from
# BENCHMARK.json, msgs_per_op of the single-client workloads identical
# (on the --trace 0 runs and the --trace 1 runs alike), msgs_per_op of
# mixed_contended and wire_bytes_per_op within 2 %, every run correct.
# remote_rt_durable, which BENCHMARK.json does not list because its times
# are the host disk's, is held to its bills and to correctness only.
#
# The box is shared, and for a minute or two at a time it runs everything
# 40-50 % slower. So where the two --trace 0 runs of a workload disagree
# on a time, that workload is run a third time: if the third run agrees
# with one of the two, the other is reported as disturbed and the check
# passes; if it agrees with neither, the check fails.
#
#   benchmark/check_repeat.sh [--quick] [--seed N]
#
# --quick runs 3-second phases and skips the bounds: it smoke-tests the
# harness and says nothing about the numbers.
set -euo pipefail

cd "$(dirname "$0")/.."
seed=12648430 # 0xC0FFEE
quick=0
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) quick=1 ;;
        --seed) seed="$2"; shift ;;
        *) echo "usage: $0 [--quick] [--seed N]" >&2; exit 2 ;;
    esac
    shift
done

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
[ "$quick" = 1 ] && seconds=3

out="${CARGO_TARGET_DIR:-benchmark/target}/check_repeat"
mkdir -p "$out"
for pass in first second; do
    echo "== $pass pass: seed $seed, $seconds s per phase" >&2
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed "$seed" --seconds "$seconds" >"$out/$pass.txt"
done

QUICK=$quick SEED=$seed SECONDS_PER_PHASE=$seconds python3 - "$out/first.txt" "$out/second.txt" <<'PY'
import json, os, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
quick = os.environ["QUICK"] == "1"
# The message bill is fixed by construction where one client runs alone.
exact = {"local_hot", "remote_rt", "remote_rt_durable", "stream_pipelined"}
# The issue's bound on the two bills that BENCHMARK.json cannot hold
# (both are 0 on local_hot), where the bill is not exact.
BILL_BOUND = 0.02

def results(path):
    runs, bills = {}, {}
    for line in open(path):
        if line.startswith("RESULT "):
            _, workload, trace, payload = line.split(" ", 3)
            runs[workload, trace] = json.loads(payload)
        elif line.startswith("INFO "):
            _, workload, trace, name, value = line.split()[:5]
            bills[workload, trace, name] = float(value)
    return runs, bills

def third_run(workload):
    """One more --trace 0 run of `workload`: its metrics, or None if it failed."""
    print(f"== third run of {workload}", file=sys.stderr)
    done = subprocess.run(
        ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path",
         "benchmark/Cargo.toml", "--", "--workload", workload, "--trace", "0",
         "--seed", os.environ["SEED"], "--seconds", os.environ["SECONDS_PER_PHASE"]],
        capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
    return result["metrics"] if result and result["correct"] else None

def apart(x, y):
    return abs(x - y) / min(x, y) if min(x, y) > 0 else float(x != y)

def agree(a, b):
    """Whether two runs' end-to-end metrics are all within their bounds."""
    return all(apart(a[name]["value"], b[name]["value"]) <= bound for name, bound in bounds.items())

(first, first_bills), (second, second_bills) = results(sys.argv[1]), results(sys.argv[2])
listed = {w["name"] for w in spec["workloads"]}
wanted = {(w, t) for w in listed | {"remote_rt_durable"} for t in "01"}
problems = [f"{w} trace={t}: no result in a pass"
            for w, t in sorted(wanted - (first.keys() & second.keys()))]

def compare(workload, name, x, y, bound):
    """One row of the report. Returns whether the two passes are within `bound`."""
    held = x == y if bound == 0 else apart(x, y) <= bound
    limit = "exact" if bound == 0 else f"{bound:.0%}"
    print(f"{workload:18} {name:18} {x:16.4f} {y:16.4f}  {apart(x, y):6.1%} of {limit}"
          + ("" if held else "  <-- beyond the bound"))
    return held

for key in sorted(first.keys() & second.keys()):
    workload, trace = key
    a, b = first[key], second[key]
    for name, run in (("first", a), ("second", b)):
        if not run["correct"]:
            problems.append(f"{workload} trace={trace}: {name} pass failed {run['failed']} of {run['attempted']}")
    if trace == "1" and workload in exact:
        x, y = (r["metrics"]["simnet.msgs_per_op"]["value"] for r in (a, b))
        if not compare(workload, "simnet.msgs_per_op", x, y, 0):
            problems.append(f"{workload}: simnet.msgs_per_op {x} then {y}, must be identical")
    if trace == "0":
        beyond = [name for name, bound in bounds.items()
                  if not compare(workload, name, a["metrics"][name]["value"], b["metrics"][name]["value"], bound)]
        for name in ("msgs_per_op", "wire_bytes_per_op"):
            x, y = first_bills[workload, trace, name], second_bills[workload, trace, name]
            bound = 0 if workload in exact and name == "msgs_per_op" else BILL_BOUND
            if not compare(workload, name, x, y, bound) and (bound == 0 or not quick):
                problems.append(f"{workload}: {name} {x} then {y}, bound {bound:.0%}")
        if beyond and workload not in listed:
            print(f"{workload:18} not listed in BENCHMARK.json: its times are the host disk's and are not held to the bounds")
        elif beyond and not quick:
            third = third_run(workload)
            sides = [name for name, run in (("first", a), ("second", b))
                     if third and agree(third, run["metrics"])]
            if len(sides) == 2:
                print(f"{workload:18} third run lies between the two passes, within the bounds of both")
            elif sides:
                disturbed = "second" if sides == ["first"] else "first"
                print(f"{workload:18} third run agrees with the {sides[0]} pass on every metric:"
                      f" the {disturbed} pass was disturbed on {', '.join(beyond)}")
            else:
                problems.append(f"{workload}: {', '.join(beyond)} beyond the bound, and a third run agrees with neither pass")
for p in problems:
    print("FAIL:", p)
if quick:
    print("quick mode: only the exact bills were checked, no bound")
sys.exit(1 if problems else 0)
PY
