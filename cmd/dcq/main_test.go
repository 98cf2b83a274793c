package main

import (
	"fmt"
	"net"
	"testing"

	"repro/dcindex"
	"repro/internal/core"
	"repro/internal/netrun"
)

// TestDriveEnginesAgree runs every op, and rank with writes, through the
// one driver against the in-process C-3 index and against a
// two-partition loopback cluster, one caller each: both must give the
// same checksum, units and inserts, and the checksums dcq prints for this
// workload (multiget's half hits make its checksum non-zero).
func TestDriveEnginesAgree(t *testing.T) {
	const n, seed, batch = 6000, 1, 512
	keys := dcindex.GenerateKeys(n, seed)
	queries := dcindex.GenerateQueries(50000, seed+1)
	for _, tc := range []struct {
		op   string
		rate float64
		want uint32
	}{
		{"rank", 0, 0x2b214eba},
		{"rank", 0.05, 0x11b9d666},
		{"count", 0, 0x92ee4b82},
		{"scan", 0, 0x5425f806},
		{"topk", 0, 0x8ff3a416},
		{"multiget", 0, 0xf1385658},
	} {
		t.Run(fmt.Sprintf("%s/%g", tc.op, tc.rate), func(t *testing.T) {
			w := workload{op: tc.op, keys: keys, queries: queries, batch: batch, masters: 1, insertRate: tc.rate, seed: seed}
			idx, err := dcindex.Open(keys, dcindex.Options{Method: dcindex.MethodC3, BatchKeys: batch})
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			local, err := drive(libIndex{idx}, w)
			if err != nil {
				t.Fatalf("in process: %v", err)
			}
			remote, err := drive(loopback(t, keys, 2, batch), w)
			if err != nil {
				t.Fatalf("over TCP: %v", err)
			}
			if local.sum != remote.sum || local.units != remote.units || local.inserted != remote.inserted {
				t.Fatalf("in process: checksum %08x, %d units, %d inserts; over TCP: checksum %08x, %d units, %d inserts",
					local.sum, local.units, local.inserted, remote.sum, remote.units, remote.inserted)
			}
			if local.sum != tc.want {
				t.Fatalf("checksum %08x, want %08x", local.sum, tc.want)
			}
			if tc.rate > 0 && local.inserted == 0 {
				t.Fatal("no key inserted")
			}
		})
	}
}

// loopback serves keys from parts fresh partition nodes on 127.0.0.1 and
// dials them; the cleanup closes the client, then the nodes.
func loopback(t *testing.T, keys []dcindex.Key, parts, batch int) *dcindex.TCPCluster {
	t.Helper()
	p, err := core.NewPartitioning(keys, parts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, parts)
	for i := range parts {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node := netrun.NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
		addrs[i] = lis.Addr().String()
		go node.Serve(lis)
		t.Cleanup(node.Close)
	}
	c, err := dcindex.DialClusterOptions(addrs, keys, dcindex.TCPOptions{BatchKeys: batch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}
