#!/bin/sh
# Non-test Go lines (wc -l of every .go file not named *_test.go) per package
# directory and in total — the number ROADMAP tracks and every simplicity PR
# quotes before and after. With arguments, counts only those directories or
# files:
#
#   scripts/loc.sh
#   scripts/loc.sh internal/core internal/consensus internal/protocols commit/commit.go
set -e
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- .
find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/.*' -exec wc -l {} + |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
		lines[dir] += $1; total += $1
	}
	END {
		for (dir in lines) printf "%7d  %s\n", lines[dir], dir | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
