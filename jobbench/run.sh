#!/usr/bin/env bash
# Builds trid and the job benchmark from this checkout, then runs one
# benchmark workload. Run from the root of the checkout:
#
#   bash jobbench/run.sh --workload cold-ingest --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, including Go's build cache.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/spool"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/trid" ./cmd/trid
(cd jobbench && go build -o "$out/bin/jobbench" .)
exec "$out/bin/jobbench" -trid "$out/bin/trid" -spool "$out/spool" -fixtures internal/ingest/testdata "$@"
