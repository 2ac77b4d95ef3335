#!/usr/bin/env bash
# reachability.sh lists the functions and methods declared in the
# non-test files of trilist/internal/... that no command under cmd/
# reaches, minus the entries of scripts/reachability.allow. It prints
# one symbol a line and exits 1 when anything is left.
# internal/testkit is left out: it is test support, and no command may
# import it.
#
# Each command is linked with inlining off (-gcflags=all=-l, so an
# inlined callee keeps its own symbol) and -ldflags=-dumpdep, which
# prints every edge the linker's dead-code pass follows. A declared
# function whose symbol appears in no command's edge list is
# unreachable from every command. Generic instantiations carry a
# [go.shape.…] suffix; it is stripped so the generic declaration
# matches.
#
# Run from the repository root: bash scripts/reachability.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Reached symbols, normalised to pkg.Func or pkg.Type.Method.
for cmd in $(go list ./cmd/...); do
	go build -gcflags=all=-l -ldflags=-dumpdep -o "$tmp/bin" "$cmd" 2>>"$tmp/deps"
done
sed 's/ -> /\n/' <"$tmp/deps" |
	grep '^trilist/internal/' |
	sed -E ':a; s/\[[^][]*\]//; ta; s/\(\*?([A-Za-z0-9_]+)\)/\1/' |
	sort -u >"$tmp/reached"

# Declared functions and methods of the non-test files, same form.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	grep -v '^trilist/internal/testkit ' |
	while read -r pkg file; do
		sed -nE 's/^func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1\2/p' "$file" |
			sed -E 's/^\([A-Za-z0-9_]* ?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) /\1./' |
			awk -v p="$pkg" '$0 != "init" { print p "." $0 }'
	done | sort -u >"$tmp/declared"

awk '$1 !~ /^(#|$)/ { print $1 }' scripts/reachability.allow | sort -u >"$tmp/allow"
comm -23 "$tmp/declared" "$tmp/reached" | comm -23 - "$tmp/allow" >"$tmp/unreached"
if [ -s "$tmp/unreached" ]; then
	echo "declared in non-test files but reached by no command:"
	cat "$tmp/unreached"
	exit 1
fi
