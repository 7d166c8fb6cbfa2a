#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout root. Everything the build and the runs leave behind (the
# binary, the Go toolchain's build cache and its own state, the traced
# runs' Perfetto files) lives in .bench_build/, which .gitignore names.
# Without the repository around it (bench/ imports its internal/ packages
# through the replace in go.mod) the build fails and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath"
	export GOTOOLCHAIN=local GOPROXY=off
	go build -o "$out/paraxperf" .
)
cd "$root"
exec "$out/paraxperf" "$@"
