#!/usr/bin/env bash
# loc.sh — the code-line counts every simplicity PR quotes in CHANGES.md,
# from one command: non-test .go files, // comments and blank lines
# stripped. Prints a markdown table (CI's lint job appends it to the job
# summary): the two package sets ROADMAP's targets are stated over, then
# internal/netrun file by file.
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
	cat "$@" | sed 's://.*$::' | grep -v '^\s*$' | wc -l
}

src() {
	for d in "$@"; do
		ls "$d"/*.go | grep -v _test
	done
}

echo "| scope | code lines |"
echo "|---|---:|"
echo "| internal/netrun + dcindex | $(count $(src internal/netrun dcindex)) |"
echo "| internal/netrun + dcindex + internal/core + internal/index | $(count $(src internal/netrun dcindex internal/core internal/index)) |"
for f in $(src internal/netrun); do
	echo "| $f | $(count "$f") |"
done
