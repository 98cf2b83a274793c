package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func net() *Net { return New(arch.PentiumIIICluster()) }

func TestSendTimingDecomposition(t *testing.T) {
	n := net()
	p := n.Params()
	var nic NIC
	x := n.Send(&nic, 0, 10_000)

	if x.CPURelease != p.NetPerMsgOverheadNs {
		t.Errorf("CPURelease = %v, want overhead %v", x.CPURelease, p.NetPerMsgOverheadNs)
	}
	if x.TxStart != x.CPURelease {
		t.Errorf("idle NIC should start transmitting at CPURelease; got %v vs %v", x.TxStart, x.CPURelease)
	}
	wantTx := p.NetTransferNs(10_000)
	if math.Abs((x.TxDone-x.TxStart)-wantTx) > 1e-6 {
		t.Errorf("transmission = %v, want %v", x.TxDone-x.TxStart, wantTx)
	}
	if math.Abs(x.Arrival-(x.TxDone+p.NetLatencyNs)) > 1e-9 {
		t.Errorf("arrival = %v, want TxDone+latency", x.Arrival)
	}
}

func TestMyrinetTenKBTransmissionDominatesLatency(t *testing.T) {
	// Section 2.2: a 10 KB Myrinet message's ~80 us transmission clearly
	// dominates the 7 us latency.
	n := net()
	var nic NIC
	x := n.Send(&nic, 0, 10_000)
	tx := x.TxDone - x.TxStart
	if tx < 60_000 || tx > 90_000 {
		t.Errorf("10KB transmission = %.0f ns, want ~80us", tx)
	}
	if tx < n.Params().NetLatencyNs {
		t.Error("transmission should dominate latency at 10KB")
	}
}

func TestNICSerialization(t *testing.T) {
	n := net()
	var nic NIC
	a := n.Send(&nic, 0, 100_000)
	// Second send issued while the first still occupies the wire.
	b := n.Send(&nic, 0, 100_000)
	if b.TxStart < a.TxDone {
		t.Errorf("second message started at %v before first finished at %v", b.TxStart, a.TxDone)
	}
	if b.TxStart != a.TxDone {
		t.Errorf("back-to-back sends should queue exactly: %v vs %v", b.TxStart, a.TxDone)
	}
	// Arrival order follows transmission order (FIFO wire).
	if b.Arrival <= a.Arrival {
		t.Error("FIFO violated")
	}
}

func TestSeparateNICsDoNotSerialize(t *testing.T) {
	n := net()
	var nic1, nic2 NIC
	a := n.Send(&nic1, 0, 1_000_000)
	b := n.Send(&nic2, 0, 1_000_000)
	if a.TxStart != b.TxStart {
		t.Error("independent NICs must not serialize against each other")
	}
}

func TestOverlapSemantics(t *testing.T) {
	// CPURelease must not depend on message size: MPI_Isend returns
	// after the overhead, and transmission proceeds in the background.
	n := net()
	var nic NIC
	small := n.Send(&nic, 0, 64)
	var nic2 NIC
	big := n.Send(&nic2, 0, 4<<20)
	if small.CPURelease != big.CPURelease {
		t.Errorf("CPURelease varies with size: %v vs %v", small.CPURelease, big.CPURelease)
	}
	if big.Arrival <= small.Arrival {
		t.Error("bigger message should arrive later")
	}
}

func TestZeroByteMessage(t *testing.T) {
	n := net()
	p := n.Params()
	var nic NIC
	x := n.Send(&nic, 100, 0)
	want := 100 + p.NetPerMsgOverheadNs + p.NetLatencyNs
	if math.Abs(x.Arrival-want) > 1e-9 {
		t.Errorf("zero-byte arrival = %v, want %v", x.Arrival, want)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	n := net()
	var nic NIC
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	n.Send(&nic, 0, -1)
}

func TestCounters(t *testing.T) {
	n := net()
	var nic NIC
	n.Send(&nic, 0, 100)
	n.Send(&nic, 0, 200)
	if nic.BytesSent() != 300 || nic.MsgsSent() != 2 {
		t.Errorf("counters: bytes=%d msgs=%d", nic.BytesSent(), nic.MsgsSent())
	}
}

func TestOneWayNs(t *testing.T) {
	n := net()
	p := n.Params()
	got := n.OneWayNs(8 << 10)
	want := p.NetPerMsgOverheadNs + p.NetLatencyNs + p.NetTransferNs(8<<10)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("OneWayNs = %v, want %v", got, want)
	}
}

func TestBatchAmortizationConvergesToTransmissionTerm(t *testing.T) {
	// As the batch grows, per-key cost tends to 4/W2 (Appendix A's
	// communication term).
	n := net()
	p := n.Params()
	limit := p.NetTransferNs(arch.WordBytes) // 4/W2 in ns
	big := n.BatchAmortizedNsPerKey(16 << 20)
	if math.Abs(big-limit)/limit > 0.01 {
		t.Errorf("per-key cost at 16MB = %v, want within 1%% of 4/W2 = %v", big, limit)
	}
	// And at tiny batches, latency+overhead dominate.
	small := n.BatchAmortizedNsPerKey(64)
	if small < 20*limit {
		t.Errorf("per-key cost at 64B = %v should be >> 4/W2 = %v", small, limit)
	}
}

func TestBatchAmortizationMonotone(t *testing.T) {
	n := net()
	prev := math.Inf(1)
	for b := 64; b <= 8<<20; b *= 2 {
		c := n.BatchAmortizedNsPerKey(b)
		if c > prev {
			t.Errorf("per-key cost increased at batch %d: %v > %v", b, c, prev)
		}
		prev = c
	}
}

func TestGigabitEthernetCrossover(t *testing.T) {
	// Section 2.2: on GigE one needs ~200KB batches for transmission to
	// dominate latency. Check the model reproduces the crossover scale.
	n := New(arch.GigabitEthernet())
	p := n.Params()
	crossover := 0
	for b := 1 << 10; b <= 8<<20; b *= 2 {
		if p.NetTransferNs(b) >= p.NetLatencyNs {
			crossover = b
			break
		}
	}
	if crossover < 8<<10 || crossover > 512<<10 {
		t.Errorf("GigE latency/transmission crossover at %d bytes, want order 200KB", crossover)
	}
}

// Property: arrivals through one NIC are strictly increasing no matter
// the send times and sizes (FIFO wire, positive latency) — except that an
// empty message queued behind a busy wire takes no wire time, and so
// arrives with the message before it.
func TestFIFOProperty(t *testing.T) {
	n := net()
	f := func(sizes []uint16) bool {
		var nic NIC
		now, lastArrival := 0.0, -1.0
		for _, s := range sizes {
			x := n.Send(&nic, now, int(s))
			if x.Arrival < lastArrival || (x.Arrival == lastArrival && s > 0) {
				return false
			}
			lastArrival = x.Arrival
			now = x.CPURelease // sender continues immediately
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
