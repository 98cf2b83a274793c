// Package paper is the paper's reproduction: the five methods of
// Section 3 executed against the trace-driven cache simulator
// (internal/memsim), the network model (internal/netsim) and the
// discrete-event scheduler (internal/des), producing the
// virtual-nanosecond timings behind Figure 3 and Tables 2-3
// (cmd/figure3, cmd/table3, dcindex.Simulate/Sweep). simLocal runs
// Methods A and B on one simulated node, simCluster runs the Method C
// variants on a simulated master/slave cluster; Run picks between them.
//
// It stands beside the serving engine, internal/core, and imports it
// only for the vocabulary the two share — Method, Partition,
// NewPartitioning — never the other way round, and it knows nothing of
// the TCP deployment (internal/netrun, dcindex). Its tests are
// internal/core's sim_test.go and extensions_test.go, an external test
// package there.
package paper

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// SimConfig describes one simulated experiment: a method, the Table 1
// index, a query workload, a batch size, and the cluster shape.
type SimConfig struct {
	// P is the architecture parameter set (Table 2 by default).
	P arch.Params
	// Method selects the strategy under test.
	Method core.Method
	// IndexKeys is the sorted key set the index is built over.
	IndexKeys []workload.Key
	// TotalQueries is the workload size the report extrapolates to
	// (the paper: 2^23). QuerySeed makes the stream reproducible.
	TotalQueries int
	QuerySeed    uint64
	// BatchBytes is the batch size (Figure 3's x-axis): the number of
	// query bytes accumulated before processing (A/B) or before the
	// master splits and dispatches them to the slaves (C).
	BatchBytes int
	// Masters and Slaves shape the Method C cluster. Methods A and B
	// run on Masters+Slaves independent nodes; their measured time is
	// divided by that count, the paper's normalization.
	Masters int
	Slaves  int
	// SampleQueries caps how many queries are actually simulated; the
	// report scales to TotalQueries assuming steady state. Zero picks
	// an automatic cap (enough batches for steady state); use
	// TotalQueries for an exact full-workload simulation.
	SampleQueries int
	// Skew, when positive, draws query keys Zipf-distributed over the
	// index (exponent = Skew) instead of uniformly, concentrating load
	// on the slaves owning popular ranges. The paper assumes uniform
	// keys; this is the ablation for its load-balancing discussion.
	Skew float64
}

// Validate reports the first problem with the configuration.
func (c SimConfig) Validate() error {
	if !c.Method.Valid() {
		return fmt.Errorf("paper: invalid method %d", int(c.Method))
	}
	if len(c.IndexKeys) == 0 {
		return fmt.Errorf("paper: empty index")
	}
	if c.TotalQueries <= 0 {
		return fmt.Errorf("paper: TotalQueries = %d", c.TotalQueries)
	}
	if c.BatchBytes < workload.KeyBytes {
		return fmt.Errorf("paper: BatchBytes = %d, below one key", c.BatchBytes)
	}
	if c.Masters <= 0 || c.Slaves <= 0 {
		return fmt.Errorf("paper: need masters and slaves, got %d/%d", c.Masters, c.Slaves)
	}
	if len(c.IndexKeys) < c.Slaves {
		return fmt.Errorf("paper: %d keys cannot be partitioned over %d slaves", len(c.IndexKeys), c.Slaves)
	}
	if c.SampleQueries < 0 {
		return fmt.Errorf("paper: SampleQueries = %d", c.SampleQueries)
	}
	if c.Skew < 0 {
		return fmt.Errorf("paper: Skew = %v", c.Skew)
	}
	return c.P.Validate()
}

// querySource yields the (deterministic) query stream for the config:
// uniform keys straight from the RNG, or a pregenerated Zipf-skewed
// stream when Skew > 0.
func (c SimConfig) querySource(n int) func() workload.Key {
	if c.Skew <= 0 {
		rng := workload.NewRNG(c.QuerySeed)
		return rng.Key
	}
	qs := workload.ZipfQueries(n, c.IndexKeys, c.Skew, c.QuerySeed)
	i := 0
	return func() workload.Key {
		k := qs[i]
		i++
		if i == len(qs) {
			i = 0
		}
		return k
	}
}

// nodes returns the cluster size used for Method A/B normalization.
func (c SimConfig) nodes() int { return c.Masters + c.Slaves }

// batchKeys converts BatchBytes to a key count.
func (c SimConfig) batchKeys() int { return workload.BatchKeysForBytes(c.BatchBytes) }

// SimReport is the outcome of one simulated experiment.
type SimReport struct {
	Method     core.Method
	BatchBytes int
	Nodes      int

	// TotalQueries is the workload the times refer to;
	// SimulatedQueries is how many the simulator actually executed
	// before extrapolating.
	TotalQueries     int
	SimulatedQueries int

	// NormalizedSec is Figure 3's y-axis: the search time for the full
	// workload, with Method A/B divided by the node count. RawSec is
	// the unnormalized time. PerKeyNs = NormalizedSec/TotalQueries.
	NormalizedSec float64
	RawSec        float64
	PerKeyNs      float64

	// SlaveIdleFrac is the mean idle fraction across slaves (Method C
	// only; Section 4.1 reports 50% at 8 KB and 20% at 4 MB).
	// MasterBusyFrac is the master's busy share of the run.
	SlaveIdleFrac  float64
	MasterBusyFrac float64

	// Messages and BytesOnWire count Method C's network traffic
	// (request + reply).
	Messages    uint64
	BytesOnWire uint64

	// Cache behaviour per query key, from the processing node(s).
	L1MissesPerKey  float64
	L2MissesPerKey  float64
	TLBMissesPerKey float64

	// Turnaround is the response-time criterion of Figure 3's
	// discussion: the virtual time from a query's batch being formed to
	// its results being delivered. For Method A it is a single lookup's
	// cost; for Method B one batch's processing time; for Method C the
	// batch round trip (master routing + wire + slave queueing and
	// processing + reply).
	TurnaroundP50Ns float64
	TurnaroundP99Ns float64

	// LoadImbalance is max/mean keys across slaves (1.0 = perfectly
	// even; meaningful for Method C, especially under Skew).
	LoadImbalance float64
}

// String renders a compact one-line summary.
func (r SimReport) String() string {
	return fmt.Sprintf("method %-3s batch %7s: %.4fs (%.1f ns/key, idle %.0f%%, L2miss/key %.2f)",
		r.Method, fmtBytes(r.BatchBytes), r.NormalizedSec, r.PerKeyNs,
		r.SlaveIdleFrac*100, r.L2MissesPerKey)
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Run executes the simulated experiment for cfg and returns its report.
func Run(cfg SimConfig) (SimReport, error) {
	if err := cfg.Validate(); err != nil {
		return SimReport{}, err
	}
	switch cfg.Method {
	case core.MethodA, core.MethodB:
		return simLocal(cfg)
	default:
		return simCluster(cfg)
	}
}
