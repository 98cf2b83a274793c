package telemetry

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every value must land in a bucket whose bounds contain it, and the
// bucket upper bounds must be strictly increasing (so cumulative
// folding in WritePrometheus is correct).
func TestBucketLayout(t *testing.T) {
	var prev uint64
	for b := 1; b < histBuckets; b++ {
		hi := bucketHi(b)
		if hi <= prev {
			t.Fatalf("bucket %d upper bound %d not increasing (prev %d)", b, hi, prev)
		}
		prev = hi
	}
	vals := []uint64{0, 1, 7, 15, 16, 17, 31, 32, 1000, 123456, 1 << 40, 1<<63 + 12345}
	for _, v := range vals {
		b := bucketOf(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if v > bucketHi(b) {
			t.Fatalf("value %d above its bucket %d upper bound %d", v, b, bucketHi(b))
		}
		if b > 0 && v <= bucketHi(b-1) {
			t.Fatalf("value %d should be in bucket %d or lower, got %d", v, b-1, b)
		}
	}
	// Log-bucketing resolution: upper bound within 12.5% of the value.
	for _, v := range []uint64{100, 10_000, 1_000_000, 50_000_000} {
		hi := float64(bucketHi(bucketOf(v)))
		if hi > float64(v)*1.125+1 {
			t.Fatalf("bucket resolution too coarse at %d: hi %.0f", v, hi)
		}
	}
}

// Quantiles over a known distribution must land within one bucket's
// relative resolution of the exact order statistics.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	samples := make([]int64, 10000)
	for i := range samples {
		// Log-uniform from 1µs to 100ms, a realistic latency spread.
		ns := int64(1000 * 1 << (rng.Intn(17)))
		ns += rng.Int63n(ns)
		samples[i] = ns
		h.ObserveNs(ns)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("count = %d, want 10000", s.Count)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))]
		got := s.Quantile(q)
		if float64(got) < float64(exact)*0.85 || float64(got) > float64(exact)*1.15 {
			t.Errorf("q%.3f = %d, exact %d (off by more than bucket resolution)", q, got, exact)
		}
	}
	if p50, p99, p999 := s.Quantile(0.50), s.Quantile(0.99), s.Quantile(0.999); p999 < p99 || p99 < p50 {
		t.Errorf("quantiles not monotone: p50=%d p99=%d p999=%d", p50, p99, p999)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for i := int64(0); i < 1000; i++ {
		a.ObserveNs(i * 1000)
		all.ObserveNs(i * 1000)
	}
	for i := int64(0); i < 500; i++ {
		b.ObserveNs(i * 7777)
		all.ObserveNs(i * 7777)
	}
	// Histograms over the one bucket layout merge by element-wise
	// addition: the snapshots of two add up to that of both streams.
	m, o := a.Snapshot(), b.Snapshot()
	for i := range m.Counts {
		m.Counts[i] += o.Counts[i]
	}
	m.Count += o.Count
	m.Sum += o.Sum
	if m != all.Snapshot() {
		t.Fatalf("summed snapshots differ from the directly accumulated one")
	}
}

// Concurrent observers must not lose counts (the histogram is the hot
// path of the read loops; run with -race).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveNs(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("lost samples: count = %d, want %d", got, workers*per)
	}
}

func TestRegistryInterning(t *testing.T) {
	r := NewRegistry()
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("gauge not interned")
	}
	if r.Histogram(`h{op="a"}`) == r.Histogram(`h{op="b"}`) {
		t.Fatal("distinct label sets must be distinct series")
	}
	r.Gauge("x").Set(3)
	if r.Gauge("x").Value() != 3 {
		t.Fatal("gauge value lost across lookups")
	}
}

// The exposition output must be parseable in the shape CI's scrape
// check relies on: TYPE lines, cumulative le buckets ending at +Inf
// with the total count, sum/count pairs, labels preserved.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Gauge("dc_workers").Set(7)
	r.Gauge("dc_live_replicas").Set(16)
	h := r.Histogram(`dc_node_op_ns{op="rank_batch"}`)
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dc_workers gauge\n",
		"dc_workers 7\n",
		"# TYPE dc_live_replicas gauge\n",
		"dc_live_replicas 16\n",
		"# TYPE dc_node_op_ns histogram\n",
		`dc_node_op_ns_bucket{op="rank_batch",le="+Inf"} 100`,
		`dc_node_op_ns_count{op="rank_batch"} 100`,
		`dc_node_op_ns_sum{op="rank_batch"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// le buckets must be cumulative and non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "dc_node_op_ns_bucket") {
			continue
		}
		var v int64
		if _, err := fmtSscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
	// All 100 samples are ≤ 99ms; allowing for ≤12.5% bucket rounding
	// they must all fold into the 250ms cumulative bucket.
	if !strings.Contains(out, `dc_node_op_ns_bucket{op="rank_batch",le="250000000"} 100`) {
		t.Errorf("250ms cumulative bucket should hold all 100 samples:\n%s", out)
	}
}

// fmtSscan avoids importing fmt just for one parse in the test above.
func fmtSscan(s string, v *int64) (int, error) {
	var n int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errBadInt
		}
		n = n*10 + int64(c-'0')
	}
	*v = n
	return 1, nil
}

var errBadInt = &badInt{}

type badInt struct{}

func (*badInt) Error() string { return "bad int" }
