package netrun

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/workload"
)

// TestReplyBytesMatchWordPath holds the node's reply sink to the path it
// replaced: for every read op, the frame the node encodes straight from
// its kernel's or scan's output must equal, byte for byte, the frame made
// by first narrowing that output to words and then encoding the words.
// The key set is random with duplicates and buffered inserts, the rank
// base sits high in the 32-bit range, and the requests are random.
func TestReplyBytesMatchWordPath(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	keys := make([]workload.Key, 20000)
	for i := range keys {
		keys[i] = workload.Key(rng.Uint32() >> uint(rng.Intn(4)))
	}
	slices.Sort(keys)
	const rankBase = 1<<31 + 12345
	node := NewPartitionNode(keys, rankBase)
	defer node.Close()
	extra := make([]workload.Key, 300)
	for i := range extra {
		extra[i] = keys[rng.Intn(len(keys))] + workload.Key(rng.Intn(3))
	}
	node.upd.InsertBatch(extra)
	u := node.upd

	randKeys := func(n int, sorted bool) []workload.Key {
		ks := make([]workload.Key, n)
		for i := range ks {
			if i%2 == 0 {
				ks[i] = keys[rng.Intn(len(keys))]
			} else {
				ks[i] = workload.Key(rng.Uint32())
			}
		}
		if sorted {
			slices.Sort(ks)
		}
		return ks
	}
	words := func(ks []workload.Key) []uint32 {
		w := make([]uint32, len(ks))
		for i, k := range ks {
			w[i] = uint32(k)
		}
		return w
	}
	narrow := func(ints []int) []uint32 {
		w := make([]uint32, len(ints))
		for i, v := range ints {
			w[i] = uint32(v)
		}
		return w
	}
	// wordPath is the replaced reply path: the elements as words, then
	// the frame.
	wordPath := func(op uint8, reqID uint32, vals []uint32) string {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Op: op, ReqID: reqID, Payload: vals}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	type exchange struct {
		req  Frame
		want string
	}
	cases := map[uint8]func(reqID uint32) exchange{
		OpLookup: func(id uint32) exchange {
			// Half the frames ascend, which the node answers by the sorted
			// kernel.
			qs := randKeys(1+rng.Intn(5000), rng.Intn(2) == 0)
			ints := make([]int, len(qs))
			u.RankBatch(qs, ints, rankBase)
			return exchange{onWire(t, Frame{Op: OpLookup, ReqID: id, Payload: words(qs)}), wordPath(OpRanks, id, narrow(ints))}
		},
		OpCountRange: func(id uint32) exchange {
			pairs := make([]uint32, 2*(1+rng.Intn(500)))
			for i := range pairs {
				pairs[i] = rng.Uint32()
				if rng.Intn(8) == 0 {
					pairs[i] = 0
				}
			}
			var ks []workload.Key
			var is []int
			counts := index.CountPairs(u, pairs, &ks, &is)
			return exchange{onWire(t, Frame{Op: OpCountRange, ReqID: id, Payload: pairs}), wordPath(OpCounts, id, narrow(counts))}
		},
		OpScanRange: func(id uint32) exchange {
			lo, hi := rng.Uint32(), rng.Uint32()
			if lo > hi {
				lo, hi = hi, lo
			}
			limit := uint32(rng.Intn(3000))
			max := int(limit)
			if max == 0 {
				max = -1
			}
			run := u.ScanRange(workload.Key(lo), workload.Key(hi), max, nil)
			return exchange{onWire(t, Frame{Op: OpScanRange, ReqID: id, Payload: []uint32{lo, hi, limit}}), wordPath(OpKeysDelta, id, words(run))}
		},
		OpTopK: func(id uint32) exchange {
			k := uint32(rng.Intn(3000))
			run := u.TopK(int(k), nil)
			slices.Reverse(run)
			return exchange{onWire(t, Frame{Op: OpTopK, ReqID: id, Payload: []uint32{k}}), wordPath(OpKeysDelta, id, words(run))}
		},
		OpMultiGet: func(id uint32) exchange {
			qs := randKeys(1+rng.Intn(5000), true)
			n := len(qs)
			ints := make([]int, 2*n)
			u.CountKeys(qs, ints[:n], ints[n:])
			return exchange{onWire(t, Frame{Op: OpMultiGet, ReqID: id, Payload: words(qs)}), wordPath(OpCounts, id, narrow(ints[:n]))}
		},
	}
	for op := range opTable {
		if row := &opTable[op]; row.pendingKind() && row.onLoss == lossRedispatch && cases[uint8(op)] == nil {
			t.Fatalf("read op %s has no case here", row.name)
		}
	}
	var sent bytes.Buffer
	s := serveOn(node, nil, &sent)
	for op, mk := range cases {
		for trial := range 40 {
			x := mk(uint32(1000*int(op) + trial))
			sent.Reset()
			if !s.serve(x.req) {
				t.Fatalf("%s: the node dropped the connection", opTable[op].name)
			}
			if got := sent.String(); got != x.want {
				t.Fatalf("%s trial %d: reply frame differs from the word path's (%d bytes, want %d)", opTable[op].name, trial, len(got), len(x.want))
			}
		}
	}
}

// TestRanksCountMismatchWritesNothing: an OpRanks reply whose word count
// differs from its request's is a violation caught before any element
// reaches out. The caller's slots keep what they held, and the call
// returns at all only because the violation left its pending registered
// for the failover sweep, which settles it with the violation as the
// root cause (the one replica is gone).
func TestRanksCountMismatchWritesNothing(t *testing.T) {
	keys := workload.SortedKeys(1000, 6)
	qs := workload.UniformQueries(100, 7)
	for _, skew := range []int{-1, 3, -100} {
		t.Run(fmt.Sprintf("%+d", skew), func(t *testing.T) {
			addr := scriptNode(t, keys, func(req Frame) []Frame {
				if req.Op == OpHello {
					return nil
				}
				ranks := make([]uint32, len(req.Raw)/4+skew)
				for i := range ranks {
					ranks[i] = 7
				}
				return []Frame{{Op: OpRanks, ReqID: req.ReqID, Payload: ranks}}
			})
			c, err := Dial([]string{addr}, keys, DialOptions{BatchKeys: 4096, OpTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			out := make([]int, len(qs))
			for i := range out {
				out[i] = -1
			}
			err = c.LookupBatchInto(qs, out)
			if want := fmt.Sprintf("sent %d reply elements for the %d request words", len(qs)+skew, len(qs)); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
			for i, v := range out {
				if v != -1 {
					t.Fatalf("out[%d] = %d: a rejected reply reached the caller's slice", i, v)
				}
			}
		})
	}
}
