#!/usr/bin/env bash
# loc.sh — the code-line counts every simplicity PR quotes in CHANGES.md,
# from one command: non-test .go files, // comments and blank lines
# stripped. Prints a markdown table (CI's lint job appends it to the job
# summary): the two package sets ROADMAP's targets are stated over, then
# internal/netrun and internal/core file by file, then the search
# kernel of internal/index (array, delta) and its durable layer (wal,
# store, durable), then cmd/dcq/main.go, the
# workload driver of both engines. internal/paper (the
# simulators that lived in internal/core until PR 17) counts inside the
# four-package row, so that a move between the two never reads as a
# deletion.
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
echo "| internal/netrun + dcindex + internal/core (+ internal/paper) + internal/index | $(count $(src internal/netrun dcindex internal/core internal/paper internal/index)) |"
echo "| internal/paper | $(count $(src internal/paper)) |"
for f in $(src internal/netrun internal/core) internal/index/{array,delta,wal,store,durable}.go; do
	echo "| $f | $(count "$f") |"
done
echo "| cmd/dcq/main.go | $(count cmd/dcq/main.go) |"
