#!/usr/bin/env bash
# lint.sh — the static-analysis gate, runnable locally and from CI's
# lint job (both run exactly this script, so a green local run means a
# green CI lint job).
#
# Fails on any tracked .go file gofmt would rewrite and on a simulator
# package in internal/core's import graph, then builds the in-repo
# dclint multichecker (lockguard, noalloc, framepair, snappin,
# knobdoc — see internal/analyzers) and runs it over every package via
# `go vet -vettool`. Any unannotated diagnostic fails the script;
# //dc:ignore suppressions are counted and printed so reviewers see what
# was waived and why it can't rot silently. staticcheck and govulncheck
# run too when installed (CI installs pinned versions; offline dev boxes
# may not have them).
set -euo pipefail

cd "$(dirname "$0")/.."

# Formatting first: any tracked .go file gofmt would rewrite fails the
# gate (analyzer fixtures under testdata/ are exempt).
UNFORMATTED="$(git ls-files -z '*.go' | grep -zv '/testdata/' | xargs -0 gofmt -l)"
if [[ -n "$UNFORMATTED" ]]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$UNFORMATTED" | sed 's/^/  /' >&2
	exit 1
fi
echo "gofmt: clean"

# The import graph is a gate too: internal/core is the serving engine,
# and the paper's trace-driven simulators (internal/paper) and the
# packages only they need must not drift back into what it links.
SIMDEPS="$(go list -deps ./internal/core | grep -E '^repro/internal/(des|netsim|memsim|arch|stats|tab|paper)$' || true)"
if [[ -n "$SIMDEPS" ]]; then
	echo "imports: internal/core must not depend on the simulator packages:" >&2
	echo "$SIMDEPS" | sed 's/^/  /' >&2
	exit 1
fi
PAPERDEPS="$(go list -deps ./internal/paper | grep -E '^repro/(internal/netrun|dcindex)$' || true)"
if [[ -n "$PAPERDEPS" ]]; then
	echo "imports: internal/paper must not depend on the deployment packages:" >&2
	echo "$PAPERDEPS" | sed 's/^/  /' >&2
	exit 1
fi
echo "imports: internal/core links no simulator, internal/paper no deployment package"

mkdir -p bin
go build -o bin/dclint ./cmd/dclint

# Fold a fresh salt into dclint's -V=full fingerprint: go vet caches
# successful package results keyed on that fingerprint, and a cached
# package skips the tool entirely — which would under-count //dc:ignore
# suppressions in the report below.
DCLINT_CACHE_SALT="$(date +%s%N)"
export DCLINT_CACHE_SALT

SUPPRESS="$(mktemp)"
trap 'rm -f "$SUPPRESS"' EXIT
export DCLINT_SUPPRESS_REPORT="$SUPPRESS"

echo "dclint: checking ./..."
go vet -vettool="$PWD/bin/dclint" ./...

# A package is vetted once per build variant (library + test), so dedupe
# before counting.
if [[ -s "$SUPPRESS" ]]; then
	sort -u "$SUPPRESS" >"$SUPPRESS.uniq"
	echo "dclint: $(wc -l <"$SUPPRESS.uniq") finding(s) suppressed by //dc:ignore:"
	sed 's/^/  /' "$SUPPRESS.uniq"
	rm -f "$SUPPRESS.uniq"
else
	echo "dclint: no //dc:ignore suppressions exercised"
fi

if command -v staticcheck >/dev/null 2>&1; then
	echo "staticcheck: checking ./..."
	staticcheck ./...
else
	echo "staticcheck: not installed, skipping (CI runs the pinned version)"
fi

if command -v govulncheck >/dev/null 2>&1; then
	echo "govulncheck: checking ./..."
	govulncheck ./...
else
	echo "govulncheck: not installed, skipping (CI runs the pinned version)"
fi
