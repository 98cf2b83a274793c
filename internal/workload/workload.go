// Package workload generates the key sets and query streams used by every
// experiment in the paper. Both the keys that build the index and the
// search keys are "randomly generated" (Section 4); we use a seeded
// splitmix64 generator so every experiment is reproducible bit-for-bit
// across runs and hosts.
//
// The package also provides a Zipf-distributed query stream. The paper's
// queries are uniform, but skewed streams are the interesting ablation
// for a range-partitioned index (they concentrate load on one slave), and
// the examples use them to demonstrate the master's load visibility.
package workload

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Key is a 4-byte search key, the unit the paper indexes (Table 1:
// "Search Key Size: 4 bytes"). The full key space [0, 2^32) plays the
// role of the paper's [0.0, 1.0] index range.
type Key uint32

// KeyBytes is the wire size of one key.
const KeyBytes = 4

// RNG is a splitmix64 pseudo-random generator. It is deliberately tiny:
// the simulators create one per node so that per-node streams are
// independent yet reproducible, and value receivers make snapshotting
// trivial in tests.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit value (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Key returns the next uniformly distributed key.
func (r *RNG) Key() Key {
	return Key(r.Uint64() >> 32)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Intn(%d) with non-positive bound", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// SortedKeys returns n distinct keys in strictly increasing order,
// suitable for building an index. Distinctness keeps rank semantics
// unambiguous across the five index implementations. It panics if n
// exceeds the key space.
func SortedKeys(n int, seed uint64) []Key {
	if n < 0 {
		panic(fmt.Sprintf("workload: SortedKeys(%d) with negative count", n))
	}
	if uint64(n) > 1<<32 {
		panic(fmt.Sprintf("workload: SortedKeys(%d) exceeds the 2^32 key space", n))
	}
	// The keys are the distinct values of the stream's first draws that
	// hold n of them. Draw n, drop the copies, and draw as many more as
	// are missing until none is: a top-up of d draws reaches n only if
	// every one of them is new, so the last draw taken is the one that
	// completes the set, and no draw past it is.
	r := NewRNG(seed)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = r.Key()
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for m := len(keys); m < n; m = len(keys) {
		more := make([]Key, n-m)
		for i := range more {
			more[i] = r.Key()
		}
		slices.Sort(more)
		// Merge the draws in from the back, into the room the copies
		// left, then drop the copies again.
		keys = keys[:n]
		for i, j, w := m-1, len(more)-1, n-1; j >= 0; w-- {
			if i >= 0 && keys[i] > more[j] {
				keys[w], i = keys[i], i-1
			} else {
				keys[w], j = more[j], j-1
			}
		}
		keys = slices.Compact(keys)
	}
	return keys
}

// EvenKeys returns n keys evenly spaced over the key space. Evenly
// spaced index keys make partition sizes exactly equal, which is the
// regime the paper's equal-size-partition assumption (Section 3.2)
// describes; tests use it when they need exact arithmetic.
func EvenKeys(n int) []Key {
	if n <= 0 {
		return nil
	}
	keys := make([]Key, n)
	step := float64(1<<32) / float64(n)
	for i := range keys {
		v := uint64(float64(i)*step + step/2)
		if v > math.MaxUint32 {
			v = math.MaxUint32
		}
		keys[i] = Key(v)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] { // guard against rounding collisions
			keys[i] = keys[i-1] + 1
		}
	}
	return keys
}

// UniformQueries returns q uniformly random search keys (the paper's
// query stream: "8 million (2^23) random search keys").
func UniformQueries(q int, seed uint64) []Key {
	if q < 0 {
		panic(fmt.Sprintf("workload: UniformQueries(%d) with negative count", q))
	}
	r := NewRNG(seed)
	out := make([]Key, q)
	for i := range out {
		out[i] = r.Key()
	}
	return out
}

// ZipfQueries returns q search keys drawn with Zipf-like skew over the
// index keys: rank r of the index is chosen with probability
// proportional to 1/(r+1)^s, and the query is a key that routes to that
// index entry. s=0 degenerates to uniform over entries. The generator
// uses rejection-free inverse-CDF sampling over a precomputed table, so
// it is deterministic for a given seed.
func ZipfQueries(q int, indexKeys []Key, s float64, seed uint64) []Key {
	if q < 0 {
		panic(fmt.Sprintf("workload: ZipfQueries(%d) with negative count", q))
	}
	if len(indexKeys) == 0 {
		panic("workload: ZipfQueries with empty index")
	}
	if s < 0 {
		panic(fmt.Sprintf("workload: ZipfQueries with negative skew %v", s))
	}
	// Cumulative distribution over index ranks.
	cdf := make([]float64, len(indexKeys))
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	r := NewRNG(seed)
	out := make([]Key, q)
	for i := range out {
		u := r.Float64()
		rank := sort.SearchFloat64s(cdf, u)
		if rank >= len(indexKeys) {
			rank = len(indexKeys) - 1
		}
		out[i] = indexKeys[rank]
	}
	return out
}

// Batches cuts queries into consecutive batches of batchKeys keys each
// (the last batch may be short). batchKeys <= 0 yields a single batch.
// The slices alias the input; callers must not mutate them.
func Batches(queries []Key, batchKeys int) [][]Key {
	if batchKeys <= 0 || batchKeys >= len(queries) {
		if len(queries) == 0 {
			return nil
		}
		return [][]Key{queries}
	}
	n := (len(queries) + batchKeys - 1) / batchKeys
	out := make([][]Key, 0, n)
	for start := 0; start < len(queries); start += batchKeys {
		end := start + batchKeys
		if end > len(queries) {
			end = len(queries)
		}
		out = append(out, queries[start:end])
	}
	return out
}

// BatchKeysForBytes converts a batch size expressed in bytes (the x-axis
// of Figure 3) into a key count. It rounds down but never below 1.
func BatchKeysForBytes(batchBytes int) int {
	n := batchBytes / KeyBytes
	if n < 1 {
		n = 1
	}
	return n
}

// Figure3BatchBytes returns the exact batch-size sweep of Figure 3:
// 8 KB, 16 KB, ..., 4 MB (powers of two).
func Figure3BatchBytes() []int {
	sizes := make([]int, 0, 10)
	for b := 8 << 10; b <= 4<<20; b <<= 1 {
		sizes = append(sizes, b)
	}
	return sizes
}

// ReferenceRank returns the number of index keys <= k, computed by
// binary search over the sorted key slice. Every index structure in
// internal/index must agree with this definition; tests and the engines
// use it as the ground truth.
func ReferenceRank(keys []Key, k Key) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > k })
}
