package core_test

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/workload"
)

func pentium() arch.Params { return arch.PentiumIIICluster() }

// paperCfg returns the Section 4 configuration with a reduced simulation
// sample so tests stay fast; the extrapolated numbers are steady-state.
func paperCfg(m core.Method, batchBytes, sample int) paper.SimConfig {
	return paper.SimConfig{
		P:             pentium(),
		Method:        m,
		IndexKeys:     workload.EvenKeys(327680),
		TotalQueries:  1 << 23,
		QuerySeed:     42,
		BatchBytes:    batchBytes,
		Masters:       1,
		Slaves:        10,
		SampleQueries: sample,
	}
}

func mustRun(t *testing.T, cfg paper.SimConfig) paper.SimReport {
	t.Helper()
	r, err := paper.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMethodAMatchesPaperExperiment(t *testing.T) {
	// Paper Table 3: Method A experimental 0.39 s (normalized).
	r := mustRun(t, paperCfg(core.MethodA, 128<<10, 150_000))
	if r.NormalizedSec < 0.33 || r.NormalizedSec > 0.46 {
		t.Errorf("Method A = %.3fs, want ~0.39s (Table 3 experiment)", r.NormalizedSec)
	}
	// The model predicts ~1.3 steady-state L2 misses per lookup for
	// this tree; the trace simulation must agree closely.
	if r.L2MissesPerKey < 1.0 || r.L2MissesPerKey > 1.7 {
		t.Errorf("A L2 misses/key = %.2f, want ~1.3 (Appendix A)", r.L2MissesPerKey)
	}
	// Method A has TLB pressure (3 MB tree vs 256 KB TLB reach).
	if r.TLBMissesPerKey < 0.5 {
		t.Errorf("A TLB misses/key = %.2f, expected significant TLB pressure", r.TLBMissesPerKey)
	}
}

func TestMethodAFlatAcrossBatchSizes(t *testing.T) {
	a8 := mustRun(t, paperCfg(core.MethodA, 8<<10, 100_000))
	a1m := mustRun(t, paperCfg(core.MethodA, 1<<20, 100_000))
	rel := math.Abs(a8.NormalizedSec-a1m.NormalizedSec) / a8.NormalizedSec
	if rel > 0.02 {
		t.Errorf("Method A varies %.1f%% with batch size; must be flat", rel*100)
	}
}

func TestMethodBMatchesPaperExperiment(t *testing.T) {
	// Paper Table 3: Method B experimental 0.36 s at 128 KB.
	r := mustRun(t, paperCfg(core.MethodB, 128<<10, 262_144))
	if r.NormalizedSec < 0.27 || r.NormalizedSec > 0.42 {
		t.Errorf("Method B = %.3fs, want ~0.36s (Table 3 experiment)", r.NormalizedSec)
	}
}

func TestMethodBImprovesWithBatchSize(t *testing.T) {
	prev := math.Inf(1)
	for _, b := range []int{8 << 10, 64 << 10, 256 << 10} {
		r := mustRun(t, paperCfg(core.MethodB, b, 262_144))
		if r.NormalizedSec >= prev {
			t.Errorf("B at %d = %.3fs did not improve on %.3fs", b, r.NormalizedSec, prev)
		}
		prev = r.NormalizedSec
	}
}

func TestMethodBBeatsAAtModerateBatch(t *testing.T) {
	a := mustRun(t, paperCfg(core.MethodA, 128<<10, 100_000))
	b := mustRun(t, paperCfg(core.MethodB, 128<<10, 262_144))
	if b.NormalizedSec >= a.NormalizedSec {
		t.Errorf("B (%.3f) should beat A (%.3f) at 128KB (Figure 3)", b.NormalizedSec, a.NormalizedSec)
	}
}

func TestMethodC3MatchesPaperExperiment(t *testing.T) {
	// Paper Table 3: C-3 experimental 0.32 s at 128 KB; Figure 3 shows
	// ~0.24-0.28 around the 64-128 KB sweet spot.
	r := mustRun(t, paperCfg(core.MethodC3, 128<<10, 400_000))
	if r.NormalizedSec < 0.20 || r.NormalizedSec > 0.34 {
		t.Errorf("C-3 at 128KB = %.3fs, want ~0.25-0.32s (Table 3/Figure 3)", r.NormalizedSec)
	}
	if r.Messages == 0 || r.BytesOnWire == 0 {
		t.Error("C-3 must report network traffic")
	}
}

func TestMethodCLosesAtTinyBatches(t *testing.T) {
	// Figure 3: "If a batch size is 16 KB or less, Methods C-1, C-2,
	// and C-3 are worse than method B and method A."
	a := mustRun(t, paperCfg(core.MethodA, 8<<10, 100_000))
	c := mustRun(t, paperCfg(core.MethodC3, 8<<10, 200_000))
	if c.NormalizedSec <= a.NormalizedSec {
		t.Errorf("C-3 at 8KB (%.3f) should lose to A (%.3f)", c.NormalizedSec, a.NormalizedSec)
	}
}

func TestMethodCWinsAtModerateBatches(t *testing.T) {
	// Figure 3: "Methods C are significantly faster even for the
	// relatively small batch sizes of 32 KB and 64 KB. We observe a 22%
	// reduction in run time with this configuration."
	a := mustRun(t, paperCfg(core.MethodA, 64<<10, 100_000))
	b := mustRun(t, paperCfg(core.MethodB, 64<<10, 262_144))
	c := mustRun(t, paperCfg(core.MethodC3, 64<<10, 400_000))
	if c.NormalizedSec >= a.NormalizedSec || c.NormalizedSec >= b.NormalizedSec {
		t.Errorf("C-3 at 64KB (%.3f) should beat A (%.3f) and B (%.3f)",
			c.NormalizedSec, a.NormalizedSec, b.NormalizedSec)
	}
	reduction := 1 - c.NormalizedSec/math.Min(a.NormalizedSec, b.NormalizedSec)
	if reduction < 0.15 {
		t.Errorf("C-3 reduction at 64KB = %.0f%%, paper reports ~22%%", reduction*100)
	}
}

func TestSlaveIdleFractionsMatchSection41(t *testing.T) {
	// Section 4.1: "slaves were idle for 50% of the time for 8 KB batch
	// sizes, and 20% of the time for 4 MB."
	small := mustRun(t, paperCfg(core.MethodC3, 8<<10, 200_000))
	if small.SlaveIdleFrac < 0.30 || small.SlaveIdleFrac > 0.65 {
		t.Errorf("idle at 8KB = %.0f%%, paper reports ~50%%", small.SlaveIdleFrac*100)
	}
	big := mustRun(t, paperCfg(core.MethodC3, 4<<20, 0))
	if big.SlaveIdleFrac > small.SlaveIdleFrac {
		t.Errorf("idle at 4MB (%.0f%%) should be below idle at 8KB (%.0f%%)",
			big.SlaveIdleFrac*100, small.SlaveIdleFrac*100)
	}
	if big.SlaveIdleFrac > 0.35 {
		t.Errorf("idle at 4MB = %.0f%%, paper reports ~20%%", big.SlaveIdleFrac*100)
	}
}

func TestCVariantsStaySimilar(t *testing.T) {
	// Figure 3: the three C curves nearly coincide ("Methods C-1 and
	// C-2 follows the same trend as Method C-3 ... slightly worse").
	c1 := mustRun(t, paperCfg(core.MethodC1, 64<<10, 300_000))
	c2 := mustRun(t, paperCfg(core.MethodC2, 64<<10, 300_000))
	c3 := mustRun(t, paperCfg(core.MethodC3, 64<<10, 300_000))
	max := math.Max(c1.NormalizedSec, math.Max(c2.NormalizedSec, c3.NormalizedSec))
	min := math.Min(c1.NormalizedSec, math.Min(c2.NormalizedSec, c3.NormalizedSec))
	if (max-min)/min > 0.10 {
		t.Errorf("C variants spread %.0f%%: C1=%.3f C2=%.3f C3=%.3f",
			(max-min)/min*100, c1.NormalizedSec, c2.NormalizedSec, c3.NormalizedSec)
	}
}

func TestResponseTimeCriterion(t *testing.T) {
	// Figure 3 discussion: C-3 achieves with a 64 KB batch what B needs
	// a 256 KB batch for — the joint throughput/response-time claim.
	c := mustRun(t, paperCfg(core.MethodC3, 64<<10, 400_000))
	b := mustRun(t, paperCfg(core.MethodB, 256<<10, 524_288))
	if c.NormalizedSec > b.NormalizedSec*1.02 {
		t.Errorf("C-3 at 64KB (%.3f) should match/beat B at 256KB (%.3f)",
			c.NormalizedSec, b.NormalizedSec)
	}
}

func TestContentionRaisesSlaveL2MissesAtLargeBatches(t *testing.T) {
	// Section 4.1's contention mechanism: once per-slave messages rival
	// the cache, the arriving batch plus the next one evict the
	// partition, so slave L2 misses per key must rise with batch size
	// for the tree-based slave (300 KB footprint).
	small := mustRun(t, paperCfg(core.MethodC1, 64<<10, 300_000))
	large := mustRun(t, paperCfg(core.MethodC1, 4<<20, 0))
	if large.L2MissesPerKey <= small.L2MissesPerKey {
		t.Errorf("C-1 L2 misses/key at 4MB (%.3f) should exceed 64KB (%.3f)",
			large.L2MissesPerKey, small.L2MissesPerKey)
	}
	// And the array-based slave must suffer less than the tree-based
	// one at the same batch size (the C-3 over C-1 argument).
	c3 := mustRun(t, paperCfg(core.MethodC3, 4<<20, 0))
	if c3.L2MissesPerKey >= large.L2MissesPerKey {
		t.Errorf("C-3 misses at 4MB (%.3f) should be below C-1's (%.3f)",
			c3.L2MissesPerKey, large.L2MissesPerKey)
	}
}

func TestSimDeterminism(t *testing.T) {
	a := mustRun(t, paperCfg(core.MethodC3, 32<<10, 100_000))
	b := mustRun(t, paperCfg(core.MethodC3, 32<<10, 100_000))
	if a != b {
		t.Errorf("identical configs produced different reports:\n%+v\n%+v", a, b)
	}
}

func TestSimSeedSensitivityIsSmall(t *testing.T) {
	cfg1 := paperCfg(core.MethodC3, 64<<10, 200_000)
	cfg2 := cfg1
	cfg2.QuerySeed = 1234
	r1 := mustRun(t, cfg1)
	r2 := mustRun(t, cfg2)
	rel := math.Abs(r1.NormalizedSec-r2.NormalizedSec) / r1.NormalizedSec
	if rel > 0.05 {
		t.Errorf("seed changed the result by %.1f%%; uniform workloads should be stable", rel*100)
	}
}

func TestSampleExtrapolationConsistent(t *testing.T) {
	// Doubling the simulated sample must not move the steady-state
	// estimate by more than a few percent.
	small := mustRun(t, paperCfg(core.MethodC3, 32<<10, 150_000))
	big := mustRun(t, paperCfg(core.MethodC3, 32<<10, 300_000))
	rel := math.Abs(small.NormalizedSec-big.NormalizedSec) / big.NormalizedSec
	if rel > 0.05 {
		t.Errorf("extrapolation unstable: %.3f vs %.3f (%.1f%%)",
			small.NormalizedSec, big.NormalizedSec, rel*100)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	if _, err := paper.Run(paper.SimConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestReportStringMentionsMethodAndBatch(t *testing.T) {
	r := paper.SimReport{Method: core.MethodC3, BatchBytes: 128 << 10, NormalizedSec: 0.3}
	s := r.String()
	for _, want := range []string{"C-3", "128KB"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestSimConfigValidate(t *testing.T) {
	good := paper.SimConfig{
		P:            pentium(),
		Method:       core.MethodC3,
		IndexKeys:    workload.EvenKeys(1000),
		TotalQueries: 1000,
		BatchBytes:   8 << 10,
		Masters:      1,
		Slaves:       10,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := map[string]func(*paper.SimConfig){
		"bad method":   func(c *paper.SimConfig) { c.Method = core.Method(42) },
		"empty index":  func(c *paper.SimConfig) { c.IndexKeys = nil },
		"no queries":   func(c *paper.SimConfig) { c.TotalQueries = 0 },
		"tiny batch":   func(c *paper.SimConfig) { c.BatchBytes = 2 },
		"no slaves":    func(c *paper.SimConfig) { c.Slaves = 0 },
		"no masters":   func(c *paper.SimConfig) { c.Masters = 0 },
		"too few keys": func(c *paper.SimConfig) { c.IndexKeys = workload.EvenKeys(5) },
		"neg sample":   func(c *paper.SimConfig) { c.SampleQueries = -1 },
	}
	for name, mutate := range cases {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
