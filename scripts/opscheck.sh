#!/usr/bin/env bash
# opscheck.sh — end-to-end smoke of the operations plane: start a real
# 2-partition dcnode pair with HTTP admin endpoints, drive a short dcq
# load through them (which records the per-op latency histograms), then
# scrape /metrics, /stats, /health, and /indexes and assert every series
# an operator dashboard depends on is present, and that /debug/pprof/
# answers. Run by CI's ops job and
# fine to run locally; it needs only loopback sockets.
set -euo pipefail

cd "$(dirname "$0")/.."

N=40000
A1=127.0.0.1:19731
A2=127.0.0.1:19732
M1=127.0.0.1:19741
M2=127.0.0.1:19742

go build -o /tmp/opscheck-dcnode ./cmd/dcnode
go build -o /tmp/opscheck-dcq ./cmd/dcq

cleanup() {
	kill "${PIDS[@]}" 2>/dev/null || true
	wait "${PIDS[@]}" 2>/dev/null || true
}
PIDS=()
trap cleanup EXIT

/tmp/opscheck-dcnode -n "$N" -parts 2 -part 0 -listen "$A1" -admin "$M1" &
PIDS+=($!)
/tmp/opscheck-dcnode -n "$N" -parts 2 -part 1 -listen "$A2" -admin "$M2" &
PIDS+=($!)

# Wait for both admin endpoints to come up (the nodes build their index
# first), then for readiness.
for at in "$M1" "$M2"; do
	for i in $(seq 1 100); do
		if curl -sf "http://$at/health" > /dev/null 2>&1; then
			break
		fi
		[ "$i" -eq 100 ] && { echo "opscheck: $at never became healthy" >&2; exit 1; }
		sleep 0.2
	done
done

# Drive a real load through the pair so the op histograms have samples.
/tmp/opscheck-dcq -n "$N" -q 200000 -connect "$A1,$A2" -batch 4096 >&2

fail=0
require() { # require <what> <haystack-file> <needle>...
	local what="$1" file="$2"
	shift 2
	for needle in "$@"; do
		if ! grep -q -- "$needle" "$file"; then
			echo "opscheck: $what is missing '$needle'" >&2
			fail=1
		fi
	done
}

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"; cleanup' EXIT

curl -sf "http://$M1/metrics" > "$TMP/metrics"
# The node-side op histograms (one per wire op the load exercised), the
# identity gauges the BeforeScrape hook refreshes, and the histogram
# render shape itself (cumulative buckets + count + sum).
require "/metrics" "$TMP/metrics" \
	'dc_node_op_ns' \
	'op="lookup"' \
	'dc_node_keys' \
	'dc_node_rank_base' \
	'dc_node_assigned' \
	'_bucket{' \
	'_count' \
	'_sum'

curl -sf "http://$M1/stats" > "$TMP/stats"
require "/stats" "$TMP/stats" '"schema_version"' '"keys"' '"rank_base"' '"assigned": true'

curl -sf "http://$M1/health" > "$TMP/health"
require "/health" "$TMP/health" '"ok": true'

curl -sf "http://$M1/indexes" > "$TMP/indexes"
require "/indexes" "$TMP/indexes" '"partition": 0' '"mode"'

# A plain dcnode has no membership authority: the verbs must answer 501,
# not 404 (the route exists, the capability does not).
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$M1/membership/add-replica" -d '{"partition":0,"addr":"127.0.0.1:1"}')"
if [ "$code" != "501" ]; then
	echo "opscheck: POST /membership/add-replica on a node returned $code, want 501" >&2
	fail=1
fi

# The profiling endpoints ride the same listener: the index page must
# answer (a profile on demand is what it lists).
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$M1/debug/pprof/")"
if [ "$code" != "200" ]; then
	echo "opscheck: GET /debug/pprof/ returned $code, want 200" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "opscheck: FAILED" >&2
	exit 1
fi
echo "opscheck: ok — metrics, stats, health, indexes, membership-501 and the pprof index all answered correctly" >&2
