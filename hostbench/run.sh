#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash hostbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and run artefact stays under .bench_build/
# in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd hostbench && go build -o "$out/bin/hostbench" .) >&2
exec "$out/bin/hostbench" "$@"
