package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/workload"
)

// Key is the program's 4-byte search key.
type Key = workload.Key

// Sizes of the calls, fixed so that numbers compare across commits.
const (
	baseKeys    = 327680  // the paper's Table 1 index
	largeKeys   = 1 << 24 // 64 MiB: 8 MiB per partition, far outside L2
	readBatch   = 65536   // keys per rank call on a read-only workload
	poolBatches = 64      // pre-generated calls a caller cycles through
	// A mixed workload's calls are a quarter the size: at 65,536 keys a
	// read of one TCP partition takes 10 ms on this host and a measured
	// phase would hold fewer than the 1,000 read calls a p99 needs.
	mixedReadBatch = readBatch / 4
	insertBatch    = 819 // 5 % of mixedReadBatch
	// Pre-generated insert chunks, none inserted twice into one index.
	// A round uses warmCycles + roundCycles of them; the traced run goes
	// on for two stretches of four seconds on the last round's index,
	// some 3,000 cycles on this host.
	insertChunks = 8192
	countRanges  = 4096
	multiGetKeys = 16384
	scanLimit    = 4096
	topK         = 1024
	verifyEvery  = 16 // mixed workloads verify one read call in this many
)

type kind int

const (
	kindRank  kind = iota // one rank call per cycle
	kindMixed             // InsertBatch then one rank call
	kindOps               // CountRangeBatch, MultiGetInto, ScanRange, TopK
)

// workloadSpec is one named workload. parts == 0 runs the library in
// process; otherwise parts x replicas nodes serve over loopback TCP.
type workloadSpec struct {
	name            string
	kind            kind
	keys            int
	parts, replicas int
	durable         bool
	sorted          bool
	callers         int // closed loop: each caller waits for its reply
	// roundCycles is how many cycles each caller makes in one timed
	// round: a third to half a second of work on this host, long enough
	// on the mixed workloads to hold several merges and segment flushes
	// per partition.
	roundCycles int
}

func (w workloadSpec) tcp() bool { return w.parts > 0 }

// readKeys is the size of one rank call.
func (w workloadSpec) readKeys() int {
	if w.kind == kindMixed {
		return mixedReadBatch
	}
	return readBatch
}

// workloads lists the seven workloads in the order they run. The reason
// each exists is in BENCHMARK.json and README.md.
var workloads = []workloadSpec{
	{name: "rank_cached", kind: kindRank, keys: baseKeys, callers: 1, roundCycles: 128},
	{name: "rank_large", kind: kindRank, keys: largeKeys, callers: 1, roundCycles: 64},
	{name: "rank_tcp", kind: kindRank, keys: baseKeys, parts: 2, replicas: 1, callers: 2, roundCycles: 64},
	{name: "rank_tcp_sorted", kind: kindRank, keys: baseKeys, parts: 2, replicas: 1, callers: 1, sorted: true, roundCycles: 128},
	{name: "mixed_durable", kind: kindMixed, keys: baseKeys, durable: true, callers: 1, roundCycles: 128},
	{name: "mixed_tcp_replicated", kind: kindMixed, keys: baseKeys, parts: 1, replicas: 2, durable: true, callers: 1, roundCycles: 64},
	{name: "ops_tcp", kind: kindOps, keys: baseKeys, parts: 2, replicas: 1, callers: 2, roundCycles: 64},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list. Bound is the share of the parent's median by which an
// end-to-end metric may worsen; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json: the contract between this program
// and whoever runs it. The program reads the metric names, units and
// bounds from it, so the file is the single list of what is emitted.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func (bf *benchmarkFile) why(name string) string {
	for _, w := range bf.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}
