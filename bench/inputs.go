package main

import (
	"fmt"
	"slices"
	"sync"

	"repro/dcindex"
	"repro/internal/core"
	"repro/internal/workload"
)

// inputs is everything a workload feeds the program, generated from the
// seed before any clock starts, together with the answers the oracle
// expects. The program only ever sees the plain slices.
type inputs struct {
	// Rank calls: a pool of batches and the checksum of each batch's
	// correct ranks over the base keys.
	batches [][]Key
	sums    []uint64

	// Mixed workloads: the keys InsertBatch draws from, in order.
	inserts []Key

	// ops_tcp: one pool per op, with checksums and, where the result
	// length varies, the expected result units.
	ranges    [][]core.KeyRange
	rangeSums []uint64
	gets      [][]Key
	getSums   []uint64
	scanLo    []Key
	scanSums  []uint64
	scanUnits []int
	topSum    uint64
}

// upperBound returns the number of keys <= q: the rank the index must
// answer. This is the oracle; it shares no code with the program.
func upperBound(keys []Key, q Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checksum folds a result slice into one word, weighting each element by
// its position so that a swapped pair changes the sum.
func checksum[T int | Key](v []T) uint64 {
	var h uint64
	for i, x := range v {
		h += (uint64(x) ^ 0x9e3779b97f4a7c15) * (2*uint64(i) + 1)
	}
	return h
}

// largeKeySet returns n distinct ascending keys spread over the whole
// key space, drawn as seeded gaps. dcindex.GenerateKeys takes 6 s for
// 2^24 keys on this host, which the run budget cannot pay per run.
func largeKeySet(n int, seed uint64) ([]Key, error) {
	rng := workload.NewRNG(seed)
	gap := uint64(1<<32) / uint64(n) * 2 // mean gap just under 2^32/n
	keys := make([]Key, n)
	var k uint64
	for i := range keys {
		k += 1 + rng.Uint64()%(gap-2)
		keys[i] = Key(k)
	}
	if k >= 1<<32 {
		return nil, fmt.Errorf("large key set overflowed the key space (seed %d)", seed)
	}
	return keys, nil
}

func generateKeys(w workloadSpec, seed uint64) ([]Key, error) {
	if w.keys > baseKeys {
		return largeKeySet(w.keys, seed)
	}
	return dcindex.GenerateKeys(w.keys, seed), nil
}

// eachBatch runs fn(i) for i in [0, n) on two goroutines; oracle work
// for a 2^24-key index is a second of binary searches otherwise.
func eachBatch(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// generateInputs builds the call pools of w and their expected answers.
func generateInputs(w workloadSpec, keys []Key, seed uint64) *inputs {
	in := &inputs{}
	switch w.kind {
	case kindRank, kindMixed:
		n := w.readKeys()
		all := dcindex.GenerateQueries(poolBatches*n, seed+1)
		in.batches = workload.Batches(all, n)
		in.sums = make([]uint64, len(in.batches))
		ranks := [2][]int{make([]int, n), make([]int, n)}
		eachBatch(len(in.batches), func(i int) {
			if w.sorted {
				slices.Sort(in.batches[i])
			}
			r := ranks[i%2]
			for j, q := range in.batches[i] {
				r[j] = upperBound(keys, q)
			}
			in.sums[i] = checksum(r)
		})
		if w.kind == kindMixed {
			in.inserts = dcindex.GenerateQueries(insertChunks*insertBatch, seed+2)
		}
	case kindOps:
		in.generateOps(keys, seed)
	}
	return in
}

func (in *inputs) generateOps(keys []Key, seed uint64) {
	rng := workload.NewRNG(seed + 3)
	const span = 1 << 32 / 1000 // each counted range covers 1/1000 of the key space
	in.ranges = make([][]core.KeyRange, poolBatches)
	in.rangeSums = make([]uint64, poolBatches)
	in.gets = make([][]Key, poolBatches)
	in.getSums = make([]uint64, poolBatches)
	in.scanLo = make([]Key, poolBatches)
	in.scanSums = make([]uint64, poolBatches)
	in.scanUnits = make([]int, poolBatches)
	counts := make([]int, max(countRanges, multiGetKeys))
	for b := 0; b < poolBatches; b++ {
		rs := make([]core.KeyRange, countRanges)
		for i := range rs {
			lo := rng.Uint64() % (1<<32 - span)
			rs[i] = core.KeyRange{Lo: Key(lo), Hi: Key(lo + span)}
			counts[i] = upperBound(keys, rs[i].Hi) - lowerBound(keys, rs[i].Lo)
		}
		in.ranges[b], in.rangeSums[b] = rs, checksum(counts[:countRanges])

		// Half the looked-up keys are indexed (multiplicity 1: the base
		// keys are distinct), half are random and almost surely absent.
		gs := make([]Key, multiGetKeys)
		for i := range gs {
			if i%2 == 0 {
				gs[i] = keys[rng.Intn(len(keys))]
			} else {
				gs[i] = rng.Key()
			}
			counts[i] = upperBound(keys, gs[i]) - lowerBound(keys, gs[i])
		}
		in.gets[b], in.getSums[b] = gs, checksum(counts[:multiGetKeys])

		lo := rng.Key()
		from := lowerBound(keys, lo)
		res := keys[from:min(from+scanLimit, len(keys))]
		in.scanLo[b], in.scanSums[b], in.scanUnits[b] = lo, checksum(res), len(res)
	}
	top := slices.Clone(keys[len(keys)-topK:])
	slices.Reverse(top)
	in.topSum = checksum(top)
}

// lowerBound returns the number of keys < q.
func lowerBound(keys []Key, q Key) int {
	if q == 0 {
		return 0
	}
	return upperBound(keys, q-1)
}

// mixedOracle is the key multiset a mixed workload's index must hold:
// the base keys plus every acknowledged insert. Inserted keys wait in
// pending until a check needs them, then one merge folds them in; the
// two buffers alternate so a merge allocates nothing once they have
// grown.
type mixedOracle struct {
	keys, spare []Key
	pending     []Key
	acked       int
}

func newMixedOracle(base []Key) *mixedOracle {
	return &mixedOracle{keys: slices.Clone(base)}
}

func (o *mixedOracle) insert(ks []Key) {
	o.pending = append(o.pending, ks...)
	o.acked += len(ks)
}

// settle folds the pending inserts into the sorted multiset.
func (o *mixedOracle) settle() {
	if len(o.pending) == 0 {
		return
	}
	slices.Sort(o.pending)
	out := o.spare[:0]
	if need := len(o.keys) + len(o.pending); cap(out) < need {
		out = make([]Key, 0, 2*need) // the multiset only grows: double, so that few merges allocate
	}
	a, b := o.keys, o.pending
	for len(a) > 0 && len(b) > 0 {
		if a[0] <= b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(append(out, a...), b...)
	o.keys, o.spare, o.pending = out, o.keys, o.pending[:0]
}

// check reports whether ranks are the ranks of qs over base + acked
// inserts.
func (o *mixedOracle) check(qs []Key, ranks []int) bool {
	o.settle()
	for i, q := range qs {
		if ranks[i] != upperBound(o.keys, q) {
			return false
		}
	}
	return true
}
