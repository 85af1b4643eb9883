#!/usr/bin/env bash
# Export parity: check that the working tree reproduces a base revision's
# seeded exports byte for byte.
#
#   scripts/export_parity.sh <base-rev>
#
# Builds oddci_runner (Release) twice: for <base-rev>, exported with
# `git archive` into build-parity/base-src, and for the working tree. Then
# runs the same 16 seeded scenarios on both and compares, per run, the
# metrics JSON, the series CSV and the Chrome trace with `cmp`, plus stdout
# without its `scenario:` line (the path differs). Each side runs its own
# scenario files, so a change to a scenario shows up as a difference.
#
# Prints every file that differs. Exit status: 0 when all match, 1 when
# any differs, 2 on a usage or build error. Everything it writes lives in
# build-parity/ (git-ignored); delete that directory when done.
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
rm -rf "$work/base-src" "$work/out"
mkdir -p "$work/base-src"
git -C "$root" archive "$base_rev" | tar -x -C "$work/base-src"
build_runner "$work/base-src" "$work/base-build" || exit 2
build_runner "$root" "$work/head-build" || exit 2

# name | scenario | overrides. Sizes are cut down from the scenario files
# where those take minutes; the profiler stays off so stdout carries no
# wall-clock figures.
runs=(
  "paper_baseline_k1|paper_baseline|shards=1"
  "paper_baseline_k4|paper_baseline|shards=4"
  "faulty_region_k1|faulty_region|shards=1"
  "faulty_region_k4|faulty_region|shards=4"
  "lossy_evening_k1|lossy_evening|shards=1"
  "lossy_evening_k2|lossy_evening|shards=2"
  "iptv_aggregated_k1|iptv_aggregated|shards=1"
  "byzantine_10pct_k1|byzantine_10pct|shards=1 receivers=20000"
  "byzantine_10pct_k4|byzantine_10pct|shards=4 receivers=20000"
  "profiled_churny_k1|profiled_churny_k8|shards=1 receivers=8000 progress=false profile_json="
  "profiled_churny_k8|profiled_churny_k8|shards=8 receivers=8000 progress=false profile_json="
  "constrained_return_k1|constrained_return_1m|shards=1 receivers=50000 instance_size=1000 tasks=2000 progress=false"
  "constrained_return_k4|constrained_return_1m|shards=4 receivers=50000 instance_size=1000 tasks=2000 progress=false"
  "fast_path_off_k1|faulty_region|shards=1 fanout_fast_path=false"
  "fast_path_off_k4|faulty_region|shards=4 fanout_fast_path=false"
  "delta_paced_k1|paper_baseline|shards=1 aggregators=8 heartbeat_mode=delta heartbeat_paced=true tree_fanin=4"
)

run_side() {  # <side> <runner> <source dir> <name> <scenario> <overrides>
  local out="$work/out/$1" status=0
  mkdir -p "$out"
  # Relative export paths, so the runner's "wrote ..." lines match.
  # shellcheck disable=SC2086
  (cd "$out" && "$2" "$3/examples/scenarios/$5.cfg" $6 \
    "metrics_json=$4.metrics.json" "series_csv=$4.series.csv" \
    "trace_json=$4.trace.json" >"$4.stdout" 2>"$4.stderr") || status=$?
  # The exit status is part of the compared output.
  { grep -v '^scenario: ' "$out/$4.stdout" || true
    echo "exit status: $status"; } >"$out/$4.stdout.cmp"
}

differ=()
for run in "${runs[@]}"; do
  IFS='|' read -r name scenario overrides <<<"$run"
  echo "run $name"
  run_side base "$work/base-build/examples/oddci_runner" "$work/base-src" \
    "$name" "$scenario" "$overrides"
  run_side head "$work/head-build/examples/oddci_runner" "$root" \
    "$name" "$scenario" "$overrides"
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

if [[ ${#differ[@]} -gt 0 ]]; then
  echo "export parity FAILED: ${#differ[@]} file(s) differ from ${base_rev:0:12}:"
  printf '  %s\n' "${differ[@]}"
  echo "(outputs under $work/out/{base,head})"
  exit 1
fi
echo "export parity OK: ${#runs[@]} runs byte-identical to ${base_rev:0:12}"
