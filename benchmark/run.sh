#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the harness from source inside
# the checkout and runs it. Every cache the Go toolchain writes is pointed
# into benchmark/out, so a run reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/bin
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$PWD/out/config"
go build -o out/bin/harness . >&2
exec out/bin/harness "$@"
