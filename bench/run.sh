#!/bin/sh
# BENCHMARK.json's command: build ./bench once per checkout into
# .bench_build/ (module root = current directory) and run it with the
# arguments given. The Go build cache lives there too, so the benchmark
# reads and writes only inside its checkout.
set -eu
out=.bench_build
mkdir -p "$out"
GOCACHE="$PWD/$out/gocache"
export GOCACHE
# Without a home directory the toolchain has nowhere to put GOPATH.
[ -n "${HOME:-}" ] || export GOPATH="$PWD/$out/gopath"
go build -o "$out/flexbench" ./bench
exec "$out/flexbench" "$@"
