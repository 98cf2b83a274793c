package main

import (
	"fmt"
	"math"
)

// buildCallers returns w's closed-loop callers over the system s. fx is
// nil for an untraced run; otherwise each op replays its inputs through
// the probes. oracle is the mixed workloads' running key multiset.
func buildCallers(w workloadSpec, in *inputs, s *sut, fx *fixtures, oracle *mixedOracle) []*caller {
	callers := make([]*caller, w.callers)
	for c := range callers {
		// Callers start at different places in the pool, so two callers
		// never send the same batch at the same time.
		first := c * poolBatches / w.callers
		switch w.kind {
		case kindRank:
			callers[c] = &caller{ops: []op{rankOp(in, s, fx, first, nil)}}
		case kindMixed:
			callers[c] = &caller{ops: []op{insertOp(in, s, fx, oracle), rankOp(in, s, fx, first, oracle)}}
		case kindOps:
			callers[c] = &caller{ops: opsCycle(in, s, fx, first)}
		}
	}
	return callers
}

// rankOp is one rank call of readBatch keys. On a read-only workload the
// answer's checksum must equal the precomputed one. On a mixed workload
// (oracle set) the index grows and those checksums no longer hold, so
// one call in verifyEvery is compared rank by rank with the oracle.
func rankOp(in *inputs, s *sut, fx *fixtures, first int, oracle *mixedOracle) op {
	n := len(in.batches[0])
	out := make([]int, n)
	batch := func(i int) int { return (first + i) % len(in.batches) }
	o := op{
		name:  "dcindex.rank",
		call:  func(i int) (int, error) { return n, s.LookupBatchInto(in.batches[batch(i)], out) },
		check: func(i int) bool { return checksum(out) == in.sums[batch(i)] },
		spoil: func() { out[0]++ },
	}
	if oracle != nil {
		spoiled := false // a spoiled answer is always checked
		o.spoil = func() { out[0]++; spoiled = true }
		o.check = func(i int) bool {
			return (i%verifyEvery != 0 && !spoiled) || oracle.check(in.batches[batch(i)], out)
		}
	}
	if fx != nil {
		o.before = fx.beforeRank
		o.probe = func(i int, callNs int64) []component { return fx.probeRank(in.batches[batch(i)], callNs) }
	}
	return o
}

func insertOp(in *inputs, s *sut, fx *fixtures, oracle *mixedOracle) op {
	chunk := func(i int) []Key { return in.inserts[i*insertBatch : (i+1)*insertBatch] }
	o := op{
		name:  "dcindex.insert",
		write: true,
		call: func(i int) (int, error) {
			if i >= insertChunks {
				// Wrapping around would insert duplicates and so change the
				// workload with the speed of the host: fail instead.
				return 0, fmt.Errorf("insert pool of %d chunks is used up", insertChunks)
			}
			return insertBatch, s.InsertBatch(chunk(i))
		},
		// An acknowledged insert is checked by the reads that follow it.
		check: func(i int) bool { oracle.insert(chunk(i)); return true },
	}
	if fx != nil {
		o.probe = func(i int, callNs int64) []component { return fx.probeInsert(chunk(i)) }
	}
	return o
}

func opsCycle(in *inputs, s *sut, fx *fixtures, first int) []op {
	counts := make([]int, max(countRanges, multiGetKeys))
	var buf []Key
	b := func(i int) int { return (first + i) % poolBatches }
	ops := []op{
		{
			name: "dcindex.count_range",
			call: func(i int) (int, error) {
				return countRanges, s.CountRangeBatch(in.ranges[b(i)], counts)
			},
			check: func(i int) bool { return checksum(counts[:countRanges]) == in.rangeSums[b(i)] },
			spoil: func() { counts[0]++ },
		},
		{
			name: "dcindex.multi_get",
			call: func(i int) (int, error) {
				return multiGetKeys, s.MultiGetInto(in.gets[b(i)], counts)
			},
			check: func(i int) bool { return checksum(counts[:multiGetKeys]) == in.getSums[b(i)] },
			spoil: func() { counts[0]++ },
		},
		{
			name: "dcindex.scan_range",
			call: func(i int) (int, error) {
				var err error
				buf, err = s.ScanRange(in.scanLo[b(i)], math.MaxUint32, scanLimit, buf[:0])
				return len(buf), err
			},
			check: func(i int) bool { return len(buf) == in.scanUnits[b(i)] && checksum(buf) == in.scanSums[b(i)] },
			spoil: func() { buf[0]++ },
		},
		{
			name: "dcindex.top_k",
			call: func(i int) (int, error) {
				var err error
				buf, err = s.TopK(topK, buf[:0])
				return len(buf), err
			},
			check: func(i int) bool { return len(buf) == topK && checksum(buf) == in.topSum },
			spoil: func() { buf[0]++ },
		},
	}
	if fx != nil {
		ops[0].probe = func(i int, callNs int64) []component { return fx.probeCount(in.ranges[b(i)]) }
		ops[2].probe = func(i int, callNs int64) []component { return fx.probeScan(in.scanLo[b(i)]) }
	}
	return ops
}
