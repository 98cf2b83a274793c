// Package telemetry is the operations plane's measurement layer: a
// lock-free latency histogram (log-bucketed, with quantile readouts),
// plain gauges, and a Registry
// that names them and renders the whole set in Prometheus text
// exposition format for the admin server's /metrics endpoint.
//
// Everything is stdlib-only and allocation-free on the record path:
// Observe is one subtraction, one bits.Len64, and two atomic adds, so
// it is safe to call from the node dispatch loop and the client read
// loops without disturbing the latencies it measures.
//
// Series names follow the Prometheus data model directly: a name is
// either a bare metric family (`dc_client_hedges_total`) or a family
// with a fixed label set baked in (`dc_node_op_ns{op="rank_batch"}`).
// The registry treats the full string as the series identity and
// splits it only when rendering, so callers get per-label series by
// interning one pointer per label combination — no label maps on the
// hot path.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values 0..15 map to their own bucket;
// above that each power-of-two octave is cut into 8 sub-buckets, so
// the relative resolution is ≤ 12.5% everywhere — tight enough that a
// p99 read off the bucket upper bound is a faithful tail-latency
// number, while the whole histogram stays a fixed 496-counter array
// that two histograms can merge by element-wise addition.
const (
	histSubBits = 3
	histSubs    = 1 << histSubBits                       // 8 sub-buckets per octave
	histBuckets = 2*histSubs + (63-histSubBits)*histSubs // 496
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v uint64) int {
	if v < 2*histSubs {
		return int(v)
	}
	e := bits.Len64(v) - 1 // position of the leading bit, ≥ 4
	sub := (v >> (uint(e) - histSubBits)) & (histSubs - 1)
	return 2*histSubs + (e-histSubBits-1)*histSubs + int(sub)
}

// bucketHi returns the largest value that lands in bucket b — the
// upper bound quantile reads report.
func bucketHi(b int) uint64 {
	if b < 2*histSubs {
		return uint64(b)
	}
	rest := b - 2*histSubs
	e := rest/histSubs + histSubBits + 1
	sub := uint64(rest % histSubs)
	shift := uint(e) - histSubBits
	return (histSubs+sub+1)<<shift - 1
}

// A Histogram is a lock-free log-bucketed distribution of int64
// samples (by convention nanoseconds). The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records one sample in nanoseconds.
func (h *Histogram) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))].Add(1)
	h.sum.Add(uint64(ns))
}

// Snapshot copies the histogram's state at one (racy but internally
// monotone) point in time. Snapshots are values: ship them in Stats
// trees, read quantiles off them.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is an immutable copy of a Histogram.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	Count  uint64
	Sum    uint64 // sum of samples, ns
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds, reading
// the upper bound of the bucket holding the q·Count-th sample. Returns
// 0 for an empty histogram.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			return int64(bucketHi(i))
		}
	}
	return int64(bucketHi(histBuckets - 1))
}

// Mean returns the average sample in nanoseconds (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// A Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry names metrics and renders them. Lookup is get-or-create and
// cheap enough for setup paths; hot paths cache the returned pointer.
type Registry struct {
	mu     sync.Mutex
	hists  map[string]*Histogram
	gauges map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:  map[string]*Histogram{},
		gauges: map[string]*Gauge{},
	}
}

// Histogram returns the named histogram, creating it on first use.
// The name may carry a fixed label set: `dc_node_op_ns{op="rank"}`.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histograms returns a stable-ordered snapshot of every histogram:
// series name → snapshot. The Stats tree and tests consume this.
func (r *Registry) Histograms() map[string]HistSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	hs := make([]*Histogram, 0, len(r.hists))
	for n, h := range r.hists {
		names = append(names, n)
		hs = append(hs, h)
	}
	r.mu.Unlock()
	out := make(map[string]HistSnapshot, len(names))
	for i, n := range names {
		out[n] = hs[i].Snapshot()
	}
	return out
}

// promBounds is the coarse cumulative-bucket ladder /metrics exposes
// (ns). The fine internal buckets fold into these; +Inf is implicit.
var promBounds = []uint64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000, 100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

// splitSeries cuts `family{labels}` into family and inner label text
// (no braces); labels is "" for a bare family name.
func splitSeries(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// seriesWith renders family plus the union of the baked-in labels and
// one extra label pair.
func seriesWith(family, labels, extraKey, extraVal string) string {
	if labels == "" {
		return fmt.Sprintf("%s{%s=%q}", family, extraKey, extraVal)
	}
	return fmt.Sprintf("%s{%s,%s=%q}", family, labels, extraKey, extraVal)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): gauges verbatim,
// histograms as cumulative `_bucket{le=...}` series over promBounds
// plus `_sum` and `_count`. Families are emitted in sorted order with
// one TYPE line each, so the output is diff-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type series struct {
		name string
		kind byte // 'g', 'h'
		g    *Gauge
		h    *Histogram
	}
	all := make([]series, 0, len(r.gauges)+len(r.hists))
	for n, g := range r.gauges {
		all = append(all, series{name: n, kind: 'g', g: g})
	}
	for n, h := range r.hists {
		all = append(all, series{name: n, kind: 'h', h: h})
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })

	var b strings.Builder
	typed := map[string]bool{}
	emitType := func(family, kind string) {
		if !typed[family] {
			typed[family] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, kind)
		}
	}
	for _, s := range all {
		family, labels := splitSeries(s.name)
		switch s.kind {
		case 'g':
			emitType(family, "gauge")
			fmt.Fprintf(&b, "%s %d\n", s.name, s.g.Value())
		case 'h':
			snap := s.h.Snapshot()
			emitType(family, "histogram")
			var cum uint64
			bi := 0
			for _, bound := range promBounds {
				for bi < histBuckets && bucketHi(bi) <= bound {
					cum += snap.Counts[bi]
					bi++
				}
				fmt.Fprintf(&b, "%s %d\n",
					seriesWith(family+"_bucket", labels, "le", fmt.Sprintf("%d", bound)), cum)
			}
			fmt.Fprintf(&b, "%s %d\n", seriesWith(family+"_bucket", labels, "le", "+Inf"), snap.Count)
			if labels == "" {
				fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", family, snap.Sum, family, snap.Count)
			} else {
				fmt.Fprintf(&b, "%s_sum{%s} %d\n%s_count{%s} %d\n",
					family, labels, snap.Sum, family, labels, snap.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
