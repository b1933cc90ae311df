#!/usr/bin/env bash
# Builds the benchmark from source and runs it on one workload, or on every
# workload in turn with --workload all. Arguments go to the benchmark:
#
#   bash lmcbench/run.sh --workload explore-paxos6 --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under the build directory,
# $CARGO_TARGET_DIR when set and .bench_build at the repository root
# otherwise.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd lmcbench && go build -o "$build/lmcbench" .)

workloads=()
args=()
while (($#)); do
	if [[ "$1" == --workload && "${2:-}" == all ]]; then
		workloads=(explore-paxos6 sweep-paxos4 find-paxos-live)
		shift 2
	else
		args+=("$1")
		shift
	fi
done
if ((${#workloads[@]} == 0)); then
	exec "$build/lmcbench" --spans-dir "$build/spans" "${args[@]}"
fi
status=0
for w in "${workloads[@]}"; do
	"$build/lmcbench" --spans-dir "$build/spans" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
