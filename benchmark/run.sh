#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; every argument
# passes through (see README.md). Build outputs and the Go build cache stay in
# $CARGO_TARGET_DIR (default .bench_build at the repository root), so the run
# writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

cd "$here"
go build -trimpath -o "$build/ccube-benchmark" .
exec "$build/ccube-benchmark" "$@"
