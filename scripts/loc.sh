#!/usr/bin/env bash
# loc.sh — the repository's Go line counts, benchmark/ excluded.
#
#   scripts/loc.sh
#
# Prints the raw line counts (wc -l, comments and blank lines included)
# of the non-test and the test Go files under the repository root,
# leaving out the benchmark module (benchmark/, a module of its own) and
# anything under .git. These are the two counts the ROADMAP's "least
# code" aim tracks from one round to the next.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)

# count PREDICATE...: the summed line count of the Go files find selects.
count() {
	find "$root" \( -path "$root/.git" -o -path "$root/benchmark" \) -prune -o \
		-type f -name '*.go' "$@" -print0 | xargs -0 cat | wc -l
}

printf 'non-test Go %d\n' "$(count ! -name '*_test.go')"
printf 'test Go     %d\n' "$(count -name '*_test.go')"
