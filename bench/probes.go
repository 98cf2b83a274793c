package main

import (
	"bytes"
	"io"
	"math"
	"net"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/netrun"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The probes time one layer at a time from outside the program: between
// two calls of the traced phase, a probe replays the inputs of the call
// just made through one public function of a layer. While a probe runs
// no call is in flight (see caller.run), so it has the machine to itself
// the way the layer does not: a probe is a floor for the layer's share
// of a call, and what the probes leave unexplained is reported as glue.

// standaloneEvery is how many write calls pass between two runs of the
// probes that replay no call: a merge and a segment flush.
const standaloneEvery = 32

// batchKeys is the program's default message granularity (BatchKeys).
const batchKeys = 16384

// fixtures is what the probes of one traced run work on. Probes run one
// at a time, so callers share it.
type fixtures struct {
	w  workloadSpec
	s  *sut
	tr *tracer

	// pt is the routing table the program builds over the base keys:
	// one partition per worker in process, one per node group over TCP.
	pt   *core.Partitioning
	arrs []*index.SortedArray // a partition-sized array per partition

	// half[p] is partition p under the update layer with a half-full
	// delta buffer, the state a read on a mixed workload meets.
	half     []*index.Updatable
	halfIns  [][]Key // the buffered keys of half[p]
	mergeIns []Key   // a full buffer for partition 0, what one merge compacts

	// Scratch, reused by every probe.
	dest  []uint8
	share []Key
	out   []int
	words []uint32
	frame bytes.Buffer

	conns     []net.Conn // the harness's own connection to each node
	probeKeys int64      // keys the probes have sent over conns, which the nodes' own clocks also saw

	// A scratch store for the WAL probes, with the key multiset and the
	// generation it has reached, which FlushSegment must be given.
	store        *index.Store
	storeKeys    []Key
	storePending []Key
	storeGen     uint64

	insertProbes int             // write calls probed so far
	busy0        []time.Duration // worker busy times before the call being traced
	hist         *telemetry.Histogram
}

func sortedArray(keys []Key) index.BatchRanker { return index.NewSortedArray(keys, 0) }

func newFixtures(w workloadSpec, s *sut, tr *tracer, keys []Key, dir string) (*fixtures, error) {
	fx := &fixtures{w: w, s: s, tr: tr,
		dest: make([]uint8, readBatch), share: make([]Key, 0, readBatch),
		out: make([]int, readBatch), words: make([]uint32, 0, readBatch),
		hist: telemetry.NewRegistry().Histogram("bench_probe_ns")}
	parts := w.parts
	if !w.tcp() {
		parts = core.DefaultRealConfig(core.MethodC3).Workers
	}
	var err error
	if fx.pt, err = core.NewPartitioning(keys, parts); err != nil {
		return nil, err
	}
	// spread returns n sorted keys inside p's range, the content of a
	// delta buffer: any fixed draw will do, the probes only need it to
	// interleave with the partition.
	rng := workload.NewRNG(1)
	spread := func(p core.Partition, n int) []Key {
		lo, hi := uint64(p.Keys[0]), uint64(p.Keys[len(p.Keys)-1])
		ks := make([]Key, n)
		for i := range ks {
			ks[i] = Key(lo + rng.Uint64()%(hi-lo+1))
		}
		slices.Sort(ks)
		return ks
	}
	for _, p := range fx.pt.Parts {
		fx.arrs = append(fx.arrs, index.NewSortedArray(p.Keys, 0))
		if w.kind == kindRank {
			continue
		}
		u := index.NewUpdatable(p.Keys, sortedArray, 0)
		if w.kind == kindMixed {
			fx.halfIns = append(fx.halfIns, spread(p, index.DefaultMergeThreshold/2))
			u.InsertBatch(fx.halfIns[len(fx.halfIns)-1])
		}
		fx.half = append(fx.half, u)
	}
	fx.mergeIns = spread(fx.pt.Parts[0], index.DefaultMergeThreshold)
	for _, n := range s.nodes {
		c, err := net.Dial("tcp", n.addr)
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.conns = append(fx.conns, c)
	}
	if w.kind == kindMixed {
		fx.storeKeys = fx.pt.Parts[0].Keys
		if fx.store, _, err = index.OpenStore(filepath.Join(dir, "probe-store"), fx.storeKeys, index.StoreOptions{}); err != nil {
			fx.close()
			return nil, err
		}
	}
	return fx, nil
}

func (fx *fixtures) close() {
	for _, c := range fx.conns {
		c.Close()
	}
	if fx.store != nil {
		fx.store.Close()
	}
}

// timed runs fn and returns how long it took.
func timed(fn func()) int64 {
	t0 := time.Now()
	fn()
	return int64(time.Since(t0))
}

// largestShare routes batch the way the master does, timing it, and
// leaves in fx.share the keys of the partition that received most: the
// partition whose search the call waits for longest.
func (fx *fixtures) largestShare(batch []Key) (routeNs int64, part int) {
	dest := fx.dest[:len(batch)]
	routeNs = timed(func() {
		for i, k := range batch {
			dest[i] = uint8(fx.pt.Route(k))
		}
	})
	counts := make([]int, len(fx.pt.Parts))
	for _, d := range dest {
		counts[d]++
	}
	for p, n := range counts {
		if n > counts[part] {
			part = p
		}
	}
	fx.share = fx.share[:0]
	for i, d := range dest {
		if int(d) == part {
			fx.share = append(fx.share, batch[i])
		}
	}
	return routeNs, part
}

func (fx *fixtures) beforeRank() {
	if fx.s.runtime != nil {
		fx.busy0 = fx.s.runtime().BusyPerWorker
	}
}

// probeRank replays one rank call's batch through the layers it crossed.
func (fx *fixtures) probeRank(batch []Key, callNs int64) []component {
	n := float64(len(batch))
	var comps []component
	var part int
	if fx.w.sorted {
		// The sorted pipeline: one sweep over the delimiters instead of a
		// routing step per key. The largest run is contiguous.
		lo, hi := make([]int, len(fx.pt.Parts)), make([]int, len(fx.pt.Parts))
		sweepNs := timed(func() {
			if core.SortedRun(batch) {
				core.ForEachSortedRun(fx.pt.Delimiters(), batch, batchKeys, func(p, start, end int) {
					if hi[p] == 0 {
						lo[p] = start
					}
					hi[p] = end
				})
			}
		})
		for p := range lo {
			if hi[p]-lo[p] > hi[part]-lo[part] {
				part = p
			}
		}
		fx.share = append(fx.share[:0], batch[lo[part]:hi[part]]...)
		fx.tr.sample("core.sweep_ns_per_key", float64(sweepNs)/n)
		comps = append(comps, component{name: "core.sweep", ns: sweepNs})
	} else {
		var routeNs int64
		routeNs, part = fx.largestShare(batch)
		fx.tr.sample("core.route_ns_per_key", float64(routeNs)/n)
		comps = append(comps, component{name: "core.route", ns: routeNs})
	}
	share := fx.share
	sn := float64(len(share))

	// The step the call blocks on, which the search is nested in: in
	// process the busiest worker, over TCP one node's round trip.
	within := ""
	var decNs int64
	switch {
	case fx.s.runtime != nil:
		var maxBusy time.Duration
		for i, b := range fx.s.runtime().BusyPerWorker {
			maxBusy = max(maxBusy, b-fx.busy0[i])
		}
		within = "core.worker_busy"
		comps = append(comps, component{name: within, ns: int64(maxBusy)})
		fx.tr.sample("core.glue_ns_per_key", (float64(callNs)-float64(comps[0].ns)-float64(maxBusy))/n)
	case !fx.w.sorted:
		// netrun's delta-coded sorted frames have no public encoder, so
		// the sorted workload gets no codec or round-trip probe.
		fx.words = fx.words[:0]
		for _, k := range share {
			fx.words = append(fx.words, uint32(k))
		}
		encNs := timed(func() {
			_ = netrun.WriteFrame(io.Discard, netrun.Frame{Op: netrun.OpLookup, ReqID: 1, Payload: fx.words})
		})
		fx.tr.sample("netrun.encode_ns_per_key", float64(encNs)/sn)
		comps = append(comps, component{name: "netrun.encode", ns: encNs})

		var ranks []uint32
		var err error
		rttNs := timed(func() { ranks, err = nodeLookup(fx.conns[part*fx.w.replicas], fx.words) })
		fx.probeKeys += int64(len(fx.words))
		if err != nil {
			break
		}
		within = "netrun.node_rtt"
		fx.tr.sample("netrun.node_rtt_us", float64(rttNs)/1e3)
		fx.tr.sample("netrun.client_glue_ns_per_key", float64(callNs-rttNs)/n)
		comps = append(comps, component{name: within, ns: rttNs})

		fx.frame.Reset()
		_ = netrun.WriteFrame(&fx.frame, netrun.Frame{Op: netrun.OpRanks, ReqID: 1, Payload: ranks})
		decNs = timed(func() { _, _ = netrun.ReadFrame(&fx.frame) })
		fx.tr.sample("netrun.decode_ns_per_key", float64(decNs)/sn)
	}

	out := fx.out[:len(share)]
	switch {
	case fx.w.kind == kindMixed:
		ns := timed(func() { fx.half[part].RankBatch(share, out, 0) })
		fx.tr.sample("index.delta_search_ns_per_key", float64(ns)/sn)
		comps = append(comps, component{name: "index.delta_search", ns: ns, in: within})
	case fx.w.sorted:
		ns := timed(func() { fx.arrs[part].RankSorted(share, out, 0) })
		fx.tr.sample("index.search_sorted_ns_per_key", float64(ns)/sn)
		comps = append(comps, component{name: "index.search_sorted", ns: ns, in: within})
		// The unsorted kernel on the same run, for comparison only: the
		// call did not execute it, so it is not laid inside the span.
		ns = timed(func() { fx.arrs[part].RankBatch(share, out, 0) })
		fx.tr.sample("index.search_ns_per_key", float64(ns)/sn)
	default:
		ns := timed(func() { fx.arrs[part].RankBatch(share, out, 0) })
		fx.tr.sample("index.search_ns_per_key", float64(ns)/sn)
		comps = append(comps, component{name: "index.search", ns: ns, in: within})
	}
	if decNs > 0 {
		comps = append(comps, component{name: "netrun.decode", ns: decNs})
	}
	return comps
}

// probeInsert replays one InsertBatch: the largest partition's share of
// the chunk through the delta buffer, the WAL append and the commit.
func (fx *fixtures) probeInsert(chunk []Key) []component {
	_, part := fx.largestShare(chunk)
	share := fx.share // every consumer below copies it
	sn := float64(len(share))

	u := index.NewUpdatable(fx.pt.Parts[part].Keys, sortedArray, 0)
	u.InsertBatch(fx.halfIns[part])
	insNs := timed(func() { u.InsertBatch(share) })
	fx.tr.sample("index.delta_insert_ns_per_key", float64(insNs)/sn)

	var end int64
	var err error
	appNs := timed(func() { end, fx.storeGen, err = fx.store.Append(share) })
	if err != nil {
		return nil
	}
	comNs := timed(func() { err = fx.store.Commit(end) })
	if err != nil {
		return nil
	}
	fx.storePending = append(fx.storePending, share...)
	fx.tr.sample("index.wal_append_us", float64(appNs)/1e3)
	fx.tr.sample("index.wal_commit_us", float64(comNs)/1e3)

	if fx.insertProbes%standaloneEvery == 0 {
		fx.standalone()
	}
	fx.insertProbes++
	return []component{
		{name: "index.delta_insert", ns: insNs},
		{name: "index.wal_append", ns: appNs},
		{name: "index.wal_commit", ns: comNs},
	}
}

// standalone runs the probes that replay no call: one background merge
// and one segment flush.
func (fx *fixtures) standalone() {
	t0 := time.Now()
	_ = index.MergeKeys(fx.pt.Parts[0].Keys, fx.mergeIns)
	t1 := time.Now()
	fx.tr.probe("index.merge", t0, t1)
	fx.tr.sample("index.merge_ms", float64(t1.Sub(t0))/1e6)

	slices.Sort(fx.storePending)
	fx.storeKeys = index.MergeKeys(fx.storeKeys, fx.storePending)
	fx.storePending = fx.storePending[:0]
	t0 = time.Now()
	err := fx.store.FlushSegment(fx.storeKeys, fx.storeGen)
	t1 = time.Now()
	if err == nil {
		fx.tr.probe("index.segment_flush", t0, t1)
		fx.tr.sample("index.segment_flush_ms", float64(t1.Sub(t0))/1e6)
	}
}

// probeObserve times telemetry.Histogram.Observe, the floor under any
// stage clock a later change puts inside the program.
func (fx *fixtures) probeObserve() {
	const n = 4096
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fx.hist.ObserveNs(int64(i) << 8)
	}
	t1 := time.Now()
	fx.tr.probe("telemetry.observe", t0, t1)
	fx.tr.sample("telemetry.observe_ns", float64(t1.Sub(t0))/n)
}

// probeCount replays a CountRangeBatch through the update layer of one
// partition: two boundary searches per range.
func (fx *fixtures) probeCount(ranges []core.KeyRange) []component {
	u := fx.half[0]
	sum := 0
	ns := timed(func() {
		for _, r := range ranges {
			sum += u.CountRange(r.Lo, r.Hi)
		}
	})
	_ = sum
	fx.tr.sample("index.count_ns_per_range", float64(ns)/float64(len(ranges)))
	// Each node counts the ranges that touch its partition, about one in
	// parts of them, and the nodes work side by side.
	return []component{{name: "index.count", ns: ns / int64(len(fx.half))}}
}

// probeScan replays a ScanRange on the partition that owns its start.
func (fx *fixtures) probeScan(lo Key) []component {
	u := fx.half[fx.pt.Route(lo)]
	var res []Key
	ns := timed(func() { res = u.ScanRange(lo, math.MaxUint32, scanLimit, fx.share[:0]) })
	if len(res) == 0 {
		return nil
	}
	fx.tr.sample("index.scan_ns_per_key", float64(ns)/float64(len(res)))
	return []component{{name: "index.scan", ns: ns}}
}
