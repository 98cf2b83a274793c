package paper

import (
	"repro/internal/buffering"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Virtual address map for a simulated node. Regions are spaced far apart
// so structures never alias; addresses are free (nothing is allocated).
const (
	treeBase    memsim.Addr = 0x1000_0000 // index structure arena
	batchBase   memsim.Addr = 0x9000_0000 // incoming batch/message slots
	bufBase     memsim.Addr = 1 << 40     // buffered-access key buffers
	bucketShift             = 26          // 64 MB of virtual space per buffer
	bucketSize              = 1 << bucketShift
)

// simLocal runs Methods A and B: one node processes the whole query
// stream against a replicated index; the report divides by the node
// count (the paper's normalization, which credits A and B with perfect,
// free load balancing across the cluster).
func simLocal(cfg SimConfig) (SimReport, error) {
	tree := index.NewNaryTree(cfg.IndexKeys, treeBase)
	h := memsim.NewHierarchy(cfg.P)

	batchKeys := cfg.batchKeys()
	sim := sampleSize(cfg, 4)
	// Steady state: the first quarter warms the caches and TLB and is
	// excluded from the per-key averages. For Method B the warm window
	// rounds down to whole batches (and vanishes if the sample is a
	// single batch) so at least one full batch is always measured.
	warm := sim / 4
	if cfg.Method == core.MethodB {
		warm = warm / batchKeys * batchKeys
	}

	var measuredNs float64
	var measuredKeys int
	var snap memsim.Counters
	turnaround := stats.NewHistogram(1, 1e12, 480)

	next := cfg.querySource(sim)
	switch cfg.Method {
	case core.MethodA:
		trace := make([]memsim.Addr, 0, tree.Levels())
		for i := 0; i < sim; i++ {
			if i == warm {
				snap = h.C
			}
			k := next()
			var ns float64
			trace = trace[:0]
			_, trace = tree.RankTrace(k, trace)
			for _, a := range trace {
				ns += h.Touch(a)
			}
			ns += float64(len(trace)) * cfg.P.CompCostNodeNs
			// Read the key from the input buffer, write the result to
			// the output buffer: 8 sequential bytes (Section A.2.1).
			ns += h.Stream(2 * workload.KeyBytes)
			if i >= warm {
				measuredNs += ns
				turnaround.Add(ns)
			}
		}
		measuredKeys = sim - warm

	case core.MethodB:
		plan := buffering.NewPlan(tree, cfg.P.L2Size/2)
		cursors := make([]int64, tree.NodeCount())
		var ns float64
		hooks := buffering.Hooks{
			TouchNode: func(id int32) {
				ns += cfg.P.CompCostNodeNs + h.Touch(tree.NodeAddr(id))
			},
			BufferWrite: func(bucket int32, n int) {
				// Each subtree buffer is its own streaming region;
				// the write allocates lines at the buffer's tail and
				// pollutes the cache exactly as a real write buffer
				// would.
				addr := bufBase + memsim.Addr(uint64(bucket)<<bucketShift) +
					memsim.Addr(cursors[bucket]&(bucketSize-1))
				cursors[bucket] += int64(n)
				ns += h.StreamInstall(addr, n)
			},
			BufferRead: func(_ int32, n int) {
				ns += h.Stream(n)
			},
		}

		keys := make([]workload.Key, batchKeys)
		out := make([]int, batchKeys)
		done := 0
		slot := 0
		for done < sim {
			n := batchKeys
			if sim-done < n {
				n = sim - done
			}
			for j := 0; j < n; j++ {
				keys[j] = next()
			}
			if done >= warm && measuredKeys == 0 {
				snap = h.C
			}
			ns = 0
			// The arriving batch is read into (and occupies) the
			// cache before the buffered traversal begins.
			ns += h.StreamInstall(batchSlotAddr(slot), n*workload.KeyBytes)
			slot = 1 - slot
			plan.RankBatch(keys[:n], out[:n], 0, hooks)
			// Results stream out.
			ns += h.Stream(n * workload.KeyBytes)

			if done >= warm {
				measuredNs += ns
				measuredKeys += n
				// One batch's turnaround: collect-then-process means
				// every key in the batch waits for the whole batch.
				turnaround.Add(ns)
			}
			done += n
		}
	}

	if measuredKeys == 0 {
		// Degenerate tiny workloads: measure everything.
		measuredKeys = sim
	}
	perKey := measuredNs / float64(measuredKeys)
	raw := perKey * float64(cfg.TotalQueries) / 1e9
	delta := counterDelta(h.C, snap)

	r := SimReport{
		Method:           cfg.Method,
		BatchBytes:       cfg.BatchBytes,
		Nodes:            cfg.nodes(),
		TotalQueries:     cfg.TotalQueries,
		SimulatedQueries: sim,
		RawSec:           raw,
		NormalizedSec:    raw / float64(cfg.nodes()),
		L1MissesPerKey:   float64(delta.L1Misses) / float64(measuredKeys),
		L2MissesPerKey:   float64(delta.L2Misses) / float64(measuredKeys),
		TLBMissesPerKey:  float64(delta.TLBMisses) / float64(measuredKeys),
		TurnaroundP50Ns:  turnaround.Quantile(0.50),
		TurnaroundP99Ns:  turnaround.Quantile(0.99),
	}
	r.PerKeyNs = r.NormalizedSec / float64(cfg.TotalQueries) * 1e9
	return r, nil
}

// batchSlotAddr returns the address of one of the two alternating
// incoming-batch slots (double buffering).
func batchSlotAddr(slot int) memsim.Addr {
	return batchBase + memsim.Addr(slot)*(64<<20)
}

// sampleSize picks how many queries to simulate: the configured cap, or
// an automatic default that guarantees at least minBatches full batches
// so steady-state extrapolation is sound.
func sampleSize(cfg SimConfig, minBatches int) int {
	sim := cfg.SampleQueries
	if sim == 0 {
		sim = 262144
		if need := cfg.batchKeys() * minBatches; need > sim {
			sim = need
		}
	}
	if sim > cfg.TotalQueries {
		sim = cfg.TotalQueries
	}
	if sim < 1 {
		sim = 1
	}
	return sim
}

func counterDelta(now, snap memsim.Counters) memsim.Counters {
	return memsim.Counters{
		Accesses:    now.Accesses - snap.Accesses,
		L1Hits:      now.L1Hits - snap.L1Hits,
		L1Misses:    now.L1Misses - snap.L1Misses,
		L2Hits:      now.L2Hits - snap.L2Hits,
		L2Misses:    now.L2Misses - snap.L2Misses,
		TLBMisses:   now.TLBMisses - snap.TLBMisses,
		StreamBytes: now.StreamBytes - snap.StreamBytes,
	}
}
