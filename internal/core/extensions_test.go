package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
)

// Multi-master support quantifies the paper's Section 3.2 remark: "if
// there is a heavy load of incoming queries, a single master node could
// become overloaded. This is easily remedied by setting up multiple
// master nodes."

func TestSecondMasterRelievesMasterBottleneck(t *testing.T) {
	// At large batches with Myrinet, the single master's NIC is the
	// pipeline bottleneck; a second master (with its own NIC) must
	// improve the total. Keep everything else fixed.
	one := paperCfg(core.MethodC3, 256<<10, 600_000)
	two := one
	two.Masters = 2
	r1 := mustRun(t, one)
	r2 := mustRun(t, two)
	if r2.NormalizedSec >= r1.NormalizedSec {
		t.Errorf("2 masters (%.4f) should beat 1 master (%.4f) when master-bound",
			r2.NormalizedSec, r1.NormalizedSec)
	}
	// And the per-master busy fraction must drop.
	if r2.MasterBusyFrac >= r1.MasterBusyFrac {
		t.Errorf("per-master busy with 2 masters (%.2f) should drop below 1 master (%.2f)",
			r2.MasterBusyFrac, r1.MasterBusyFrac)
	}
}

func TestManyMastersHitSlaveCapacity(t *testing.T) {
	// With masters no longer the bottleneck, adding more must saturate
	// at the slaves' aggregate capacity: 4 -> 8 masters buys little.
	cfg4 := paperCfg(core.MethodC3, 128<<10, 400_000)
	cfg4.Masters = 4
	cfg8 := cfg4
	cfg8.Masters = 8
	r4 := mustRun(t, cfg4)
	r8 := mustRun(t, cfg8)
	if gain := (r4.NormalizedSec - r8.NormalizedSec) / r4.NormalizedSec; gain > 0.10 {
		t.Errorf("8 masters still gained %.0f%% over 4; slaves should bind by then", gain*100)
	}
}

// Turnaround: the response-time criterion of the Figure 3 discussion.

func TestTurnaroundGrowsWithBatchSize(t *testing.T) {
	small := mustRun(t, paperCfg(core.MethodC3, 16<<10, 200_000))
	big := mustRun(t, paperCfg(core.MethodC3, 1<<20, 0))
	if small.TurnaroundP50Ns <= 0 || big.TurnaroundP50Ns <= 0 {
		t.Fatalf("turnaround not populated: %v / %v", small.TurnaroundP50Ns, big.TurnaroundP50Ns)
	}
	if big.TurnaroundP50Ns < 10*small.TurnaroundP50Ns {
		t.Errorf("64x bigger batches should cost >=10x turnaround: %.0f vs %.0f ns",
			big.TurnaroundP50Ns, small.TurnaroundP50Ns)
	}
	if small.TurnaroundP99Ns < small.TurnaroundP50Ns {
		t.Errorf("p99 (%v) below p50 (%v)", small.TurnaroundP99Ns, small.TurnaroundP50Ns)
	}
}

func TestPaperResponseTimeClaim(t *testing.T) {
	// "Methods C-2 and C-3 achieve this throughput with a batch size of
	// only 64 KB, while Method B requires a batch size of 256 KB": at
	// those operating points C-3 must deliver comparable throughput at
	// a fraction of B's batch turnaround.
	c := mustRun(t, paperCfg(core.MethodC3, 64<<10, 400_000))
	b := mustRun(t, paperCfg(core.MethodB, 256<<10, 524_288))
	if c.NormalizedSec > b.NormalizedSec*1.02 {
		t.Errorf("C-3@64KB throughput (%.3f) should match B@256KB (%.3f)",
			c.NormalizedSec, b.NormalizedSec)
	}
	if c.TurnaroundP50Ns >= b.TurnaroundP50Ns {
		t.Errorf("C-3@64KB turnaround (%.0f ns) should beat B@256KB (%.0f ns)",
			c.TurnaroundP50Ns, b.TurnaroundP50Ns)
	}
}

func TestMethodATurnaroundIsPerKey(t *testing.T) {
	r := mustRun(t, paperCfg(core.MethodA, 128<<10, 100_000))
	// A processes keys one by one: median turnaround is a single
	// lookup, hundreds of ns, not a batch time.
	if r.TurnaroundP50Ns <= 0 || r.TurnaroundP50Ns > 5_000 {
		t.Errorf("A per-key turnaround = %.0f ns, want O(500ns)", r.TurnaroundP50Ns)
	}
	b := mustRun(t, paperCfg(core.MethodB, 128<<10, 262_144))
	if b.TurnaroundP50Ns < 1000*r.TurnaroundP50Ns {
		t.Errorf("B's batch turnaround (%.0f) should dwarf A's per-key (%.0f)",
			b.TurnaroundP50Ns, r.TurnaroundP50Ns)
	}
}

// Skewed workloads: the ablation for the paper's uniform-keys assumption.

func TestSkewConcentratesSlaveLoad(t *testing.T) {
	uni := paperCfg(core.MethodC3, 64<<10, 300_000)
	skew := uni
	skew.Skew = 1.1
	ru := mustRun(t, uni)
	rs := mustRun(t, skew)
	if ru.LoadImbalance < 0.9 || ru.LoadImbalance > 1.2 {
		t.Errorf("uniform load imbalance = %.2f, want ~1.0", ru.LoadImbalance)
	}
	if rs.LoadImbalance < ru.LoadImbalance*1.5 {
		t.Errorf("skew 1.1 imbalance = %.2f, want far above uniform %.2f",
			rs.LoadImbalance, ru.LoadImbalance)
	}
	// The hot slave serializes the pipeline: skew must cost time.
	if rs.NormalizedSec <= ru.NormalizedSec {
		t.Errorf("skewed run (%.4f) should be slower than uniform (%.4f)",
			rs.NormalizedSec, ru.NormalizedSec)
	}
}

func TestSkewRejectedWhenNegative(t *testing.T) {
	cfg := paperCfg(core.MethodC3, 64<<10, 1000)
	cfg.Skew = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative skew accepted")
	}
}

func TestSkewDeterministic(t *testing.T) {
	cfg := paperCfg(core.MethodC3, 64<<10, 100_000)
	cfg.Skew = 0.9
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a != b {
		t.Error("skewed runs are not deterministic")
	}
}

func TestSkewWorksForLocalMethods(t *testing.T) {
	// Method B under skew: popular keys concentrate on few subtrees,
	// which can only help the cache. Just verify it runs and stays in a
	// sane band.
	cfg := paperCfg(core.MethodB, 128<<10, 131_072)
	cfg.Skew = 1.0
	r := mustRun(t, cfg)
	if r.NormalizedSec <= 0 || r.NormalizedSec > 0.5 {
		t.Errorf("B under skew = %.4f s", r.NormalizedSec)
	}
	uni := mustRun(t, paperCfg(core.MethodB, 128<<10, 131_072))
	if r.NormalizedSec > uni.NormalizedSec*1.05 {
		t.Errorf("skew should not hurt the replicated-index B: %.4f vs %.4f",
			r.NormalizedSec, uni.NormalizedSec)
	}
}

func TestMultiMasterDeterminism(t *testing.T) {
	cfg := paperCfg(core.MethodC3, 128<<10, 200_000)
	cfg.Masters = 3
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a != b {
		t.Error("multi-master runs are not deterministic")
	}
	if math.IsNaN(a.TurnaroundP50Ns) || a.TurnaroundP50Ns <= 0 {
		t.Errorf("turnaround = %v", a.TurnaroundP50Ns)
	}
}
