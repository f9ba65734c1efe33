#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload exact-wall --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and any toolchain state stay inside
# .bench_build/, so a run reads and writes nothing outside the checkout
# except the Go toolchain it reads.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
  XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
