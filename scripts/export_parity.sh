#!/usr/bin/env bash
# Export parity: check that the working tree reproduces a base revision's
# seeded exports byte for byte.
#
#   scripts/export_parity.sh <base-rev>
#
# Builds oddci_runner (Release) twice: for <base-rev>, exported with
# `git archive` into build-parity/base-src, and for the working tree, which
# is built from scratch on every run (an object compiled from a header
# edited mid-build would otherwise link into a mixed runner). Then runs
# the same 18 seeded scenarios on both and compares, per run, the
# metrics JSON, the series CSV and the Chrome trace with `cmp`, plus stdout
# without its `scenario:` line (the path differs). Each side runs its own
# scenario files, so a change to a scenario shows up as a difference.
#
# Every run sets a flight-recorder ring (`trace_capacity`) large enough for
# its whole trace, so the trace comparison covers the run from its first
# event. A run whose ring filled up on either side may have overwritten
# its start; the script names it and fails.
#
# Prints every file that differs and, for each differing metrics JSON, the
# differing cells: kind, name and, for a series, how many points differ
# and the first one. Exit status: 0 when all match, 1 when any differs or
# a ring filled up, 2 on a usage or build error. Everything it writes lives in build-parity/
# (git-ignored); delete that directory when done.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi

root=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$root" rev-parse --verify "$1^{commit}") || exit 2
work="$root/build-parity"
jobs=$(nproc 2>/dev/null || echo 2)

build_runner() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
    -DODDCI_BUILD_TESTS=OFF -DODDCI_BUILD_BENCH=OFF \
    -DODDCI_BUILD_EXAMPLES=ON >/dev/null
  cmake --build "$2" -j "$jobs" --target oddci_runner >/dev/null
}

echo "building base ${base_rev:0:12} and the working tree"
rm -rf "$work/base-src" "$work/head-build" "$work/out"
mkdir -p "$work/base-src"
git -C "$root" archive "$base_rev" | tar -x -C "$work/base-src"
build_runner "$work/base-src" "$work/base-build" || exit 2
build_runner "$root" "$work/head-build" || exit 2

# CI's combined fault matrix (fault-smoke job), run from an empty scenario
# file: the only runs here with fixed-time plan events (a Controller crash
# at 150 s, a Backend crash at 250 s).
fault_matrix="receivers=1000 aggregators=4 instance_size=100 tasks=500 \
task_seconds=10 overshoot=1.3 fault=true fault_loss=0.02 \
fault_duplication=0.02 fault_latency_spike_p=0.01 fault_partitions_ph=30 \
fault_aggregator_crash_ph=20 fault_failover_s=30 \
fault_controller_crash_s=150 fault_backend_crash_s=250 fault_pna_crash_ph=40 \
fault_pna_hang_ph=20 fault_corrupt_ph=10"

# name | scenario | overrides; scenario "-" is the empty file. Sizes are
# cut down from the scenario files where those take minutes; the profiler
# stays off so stdout carries no wall-clock figures. Each ring holds at
# least 1.25 times the most events one shard of the run records (K=1 /
# K>1: paper_baseline 43k / 17k, faulty_region 65k / 18k, lossy_evening
# 89k / 46k, iptv_aggregated 30k / 13k, byzantine_10pct 419k / 87k,
# profiled_churny 132k / 21k, constrained_return 521k / 134k,
# delta_paced 43k, fault_matrix 20k / 9k, relay 18k).
runs=(
  "paper_baseline_k1|paper_baseline|shards=1 trace_capacity=65536"
  "paper_baseline_k4|paper_baseline|shards=4 trace_capacity=32768"
  "faulty_region_k1|faulty_region|shards=1 trace_capacity=131072"
  "faulty_region_k4|faulty_region|shards=4 trace_capacity=32768"
  "lossy_evening_k1|lossy_evening|shards=1 trace_capacity=131072"
  "lossy_evening_k2|lossy_evening|shards=2 trace_capacity=65536"
  "iptv_aggregated_k1|iptv_aggregated|shards=1 trace_capacity=65536"
  "iptv_aggregated_k4|iptv_aggregated|shards=4 trace_capacity=32768"
  "byzantine_10pct_k1|byzantine_10pct|shards=1 receivers=20000 trace_capacity=1048576"
  "byzantine_10pct_k4|byzantine_10pct|shards=4 receivers=20000 trace_capacity=131072"
  "profiled_churny_k1|profiled_churny_k8|shards=1 receivers=8000 progress=false profile_json= trace_capacity=262144"
  "profiled_churny_k8|profiled_churny_k8|shards=8 receivers=8000 progress=false profile_json= trace_capacity=32768"
  "constrained_return_k1|constrained_return_1m|shards=1 receivers=50000 instance_size=1000 tasks=2000 progress=false trace_capacity=1048576"
  "constrained_return_k4|constrained_return_1m|shards=4 receivers=50000 instance_size=1000 tasks=2000 progress=false trace_capacity=262144"
  "delta_paced_k1|paper_baseline|shards=1 aggregators=8 heartbeat_mode=delta heartbeat_paced=true tree_fanin=4 trace_capacity=65536"
  "fault_matrix_k1|-|shards=1 $fault_matrix trace_capacity=32768"
  "fault_matrix_k4|-|shards=4 $fault_matrix trace_capacity=16384"
  "relay_k4|paper_baseline|shards=4 aggregators=16 heartbeat_mode=delta tree_fanin=8 trace_capacity=32768"
)

run_side() {  # <side> <runner> <source dir> <name> <scenario> <overrides>
  local out="$work/out/$1" status=0 cfg="$3/examples/scenarios/$5.cfg"
  [[ $5 == - ]] && cfg=/dev/null
  mkdir -p "$out"
  # Relative export paths, so the runner's "wrote ..." lines match.
  # shellcheck disable=SC2086
  (cd "$out" && "$2" "$cfg" $6 \
    "metrics_json=$4.metrics.json" "series_csv=$4.series.csv" \
    "trace_json=$4.trace.json" >"$4.stdout" 2>"$4.stderr") || status=$?
  # The exit status is part of the compared output.
  { grep -v '^scenario: ' "$out/$4.stdout" || true
    echo "exit status: $status"; } >"$out/$4.stdout.cmp"
}

# Prints the shards whose ring in a Chrome trace is full: recorder s of K
# allocates span ids s + 1 + n * K, and a ring that holds `capacity`
# events may have overwritten older ones.
full_rings() {  # <trace json> <shards> <capacity>
  python3 - "$1" "$2" "$3" <<'PY'
import collections, json, sys

k, capacity = int(sys.argv[2]), int(sys.argv[3])
counts = collections.Counter(
    (int(e["args"]["span"]) - 1) % k
    for e in json.load(open(sys.argv[1]))["traceEvents"] if e["ph"] == "X")
print(" ".join(str(s) for s, n in sorted(counts.items()) if n >= capacity))
PY
}

# Lists the cells in which two oddci.metrics.v1 files differ.
diff_metrics() {  # <base json> <head json>
  python3 - "$1" "$2" <<'PY'
import json, sys

base, head = (json.load(open(p)) for p in sys.argv[1:3])
out = []
for kind in ("counters", "gauges"):
    a, b = base.get(kind, {}), head.get(kind, {})
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            out.append(f"{kind[:-1]} {name}: {a.get(name)} -> {b.get(name)}")
for kind in ("histograms", "series"):
    a = {m["name"]: m for m in base.get(kind, [])}
    b = {m["name"]: m for m in head.get(kind, [])}
    for name in sorted(set(a) | set(b)):
        x, y = a.get(name), b.get(name)
        if x == y:
            continue
        if x is None or y is None:
            out.append(f"{kind[:-1]} {name}: only in {'head' if x is None else 'base'}")
        elif kind == "series":
            px = list(zip(x["times"], x["values"]))
            py = list(zip(y["times"], y["values"]))
            bad = [i for i in range(max(len(px), len(py)))
                   if i >= len(px) or i >= len(py) or px[i] != py[i]]
            if not bad:
                out.append(f"series {name}: dropped {x['dropped']} -> {y['dropped']}")
                continue
            i = bad[0]
            first = (f"(t={px[i][0]}, {px[i][1]})" if i < len(px) else "none") + \
                " -> " + (f"(t={py[i][0]}, {py[i][1]})" if i < len(py) else "none")
            out.append(f"series {name}: {len(bad)} of {max(len(px), len(py))} "
                       f"points differ, first #{i} {first}")
        else:
            fields = [k for k in x if x.get(k) != y.get(k)]
            out.append(f"{kind[:-1]} {name}: " + ", ".join(
                f"{k} differ" if isinstance(x[k], list)
                else f"{k} {x[k]} -> {y.get(k)}"
                for k in fields))
a, b = base.get("spans", []), head.get("spans", [])
bad = [i for i in range(max(len(a), len(b)))
       if i >= len(a) or i >= len(b) or a[i] != b[i]]
if bad:
    i = bad[0]
    out.append(f"spans: {len(bad)} of {max(len(a), len(b))} differ, first #{i} "
               f"{a[i] if i < len(a) else 'none'} -> {b[i] if i < len(b) else 'none'}")
if base.get("taken_at_seconds") != head.get("taken_at_seconds"):
    out.append(f"taken_at_seconds: {base.get('taken_at_seconds')} -> "
               f"{head.get('taken_at_seconds')}")
print("\n".join("    " + line for line in out))
PY
}

differ=()
wrapped=()
for run in "${runs[@]}"; do
  IFS='|' read -r name scenario overrides <<<"$run"
  echo "run $name"
  run_side base "$work/base-build/examples/oddci_runner" "$work/base-src" \
    "$name" "$scenario" "$overrides"
  run_side head "$work/head-build/examples/oddci_runner" "$root" \
    "$name" "$scenario" "$overrides"
  shards=$(grep -o 'shards=[0-9]*' <<<"$overrides" | cut -d= -f2)
  capacity=$(grep -o 'trace_capacity=[0-9]*' <<<"$overrides" | cut -d= -f2)
  for side in base head; do
    trace="$work/out/$side/$name.trace.json"
    [[ -e $trace ]] || continue
    full=$(full_rings "$trace" "$shards" "$capacity")
    if [[ -n $full ]]; then
      wrapped+=("$name ($side side, shard(s) $full at trace_capacity=$capacity)")
    fi
  done
  for f in metrics.json series.csv trace.json stdout.cmp; do
    a="$work/out/base/$name.$f"
    b="$work/out/head/$name.$f"
    if [[ ! -e "$a" && ! -e "$b" ]]; then
      continue
    fi
    if ! cmp -s "$a" "$b"; then
      differ+=("$name.$f")
    fi
  done
done

if [[ ${#wrapped[@]} -gt 0 ]]; then
  echo "export parity FAILED: a trace ring filled up, raise its trace_capacity:"
  for w in "${wrapped[@]}"; do echo "  $w"; done
fi
if [[ ${#differ[@]} -gt 0 ]]; then
  echo "export parity FAILED: ${#differ[@]} file(s) differ from ${base_rev:0:12}:"
  for f in "${differ[@]}"; do
    echo "  $f"
    if [[ $f == *.metrics.json && -e $work/out/base/$f && -e $work/out/head/$f ]]; then
      diff_metrics "$work/out/base/$f" "$work/out/head/$f"
    fi
  done
fi
if [[ ${#differ[@]} -gt 0 || ${#wrapped[@]} -gt 0 ]]; then
  echo "(outputs under $work/out/{base,head})"
  exit 1
fi
echo "export parity OK: ${#runs[@]} runs byte-identical to ${base_rev:0:12}"
