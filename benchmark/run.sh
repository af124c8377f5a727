#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# flags. Run from the root of a checkout: `bash benchmark/run.sh ...`.
# Everything the build and the run write stays inside the checkout:
# the Go build cache, temporary files, the go command's own
# configuration and the binary under .bench_build/, the data files
# under .bench_build/data-*, traces under benchmark/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/nblb-benchmark" .)
exec "$build/nblb-benchmark" "$@"
