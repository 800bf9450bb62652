#!/bin/sh
# Builds the benchmark from the checkout's source and runs it with the
# driver's arguments. Everything the Go toolchain writes (build cache,
# temporary files, its own state under $HOME) is kept inside the checkout,
# under .bench_build/, as is everything the benchmark itself writes.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false
go build -o "$build/debar-bench" ./bench
exec "$build/debar-bench" "$@"
