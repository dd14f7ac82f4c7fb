#!/usr/bin/env bash
# Runs the locmapd end-to-end benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds cmd/locmapd from the checkout and the benchmark's own module
# (perfbench/go.mod) into .bench_build, with the Go build cache, temp
# files and tool config kept there too, then runs the load generator.
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/locmapd" ]; then
	echo "perfbench: run from the root of a locmap checkout (no go.mod or cmd/locmapd here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

trace=0
prev=
for a in "$@"; do
	case "$a" in
	--trace=* | -trace=*) trace=${a#*=} ;;
	esac
	if [ "$prev" = --trace ] || [ "$prev" = -trace ]; then
		trace=$a
	fi
	prev=$a
done

# The checkout may not be a git repository: identify the code under test
# by a digest of its Go sources instead.
PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null ||
	(cd "$root" && find cmd internal -name '*.go' | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12 | sed 's/^/tree-/'))
export PERFBENCH_COMMIT

(cd "$root" && go build -o "$out/bin/locmapd" ./cmd/locmapd) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench-load" ./load) >&2
extra=()
if [ "$trace" = 1 ]; then
	(cd "$root/perfbench" && go build -o "$out/bin/perfbench-trace" ./trace) >&2
	extra=(-tracer "$out/bin/perfbench-trace")
fi

exec "$out/bin/perfbench-load" -locmapd "$out/bin/locmapd" -workdir "$out" "${extra[@]}" "$@"
