// Command dcq is a demonstration CLI over the real runtime: it builds a
// distributed in-cache index from generated keys, runs a query workload
// through the chosen method, and reports throughput and per-worker load.
// It doubles as a quick way to compare methods on the actual host, and
// with -connect it drives a TCP cluster of dcnode processes instead —
// -masters M multiplexes M concurrent callers over the shared
// connections, the paper's "multiple master nodes" configuration.
//
// Usage:
//
//	go run ./cmd/dcq [-method C-3] [-op rank] [-n 327680] [-q 1000000] [-workers 8] [-batch 0] [-compare] [-sorted] [-insert-rate 0.05]
//	go run ./cmd/dcq -connect host:7000,host:7001,... [-op rank] [-masters 4] [-optimeout 10s] [-insert-rate 0.05]
//
// -op selects the query operation: rank (the default), count (range
// counts via CountRangeBatch), scan (ordered range scans), topk, or
// multiget (key multiplicities; every other key is an index key, so half
// of them hit). Every op derives its inputs deterministically from the
// -seed query stream, and one driver runs them on the in-process index
// and on the TCP cluster alike, so -compare holds for all of them:
// identical checksums prove every method — and the TCP cluster, which
// serves the same ops — computes identical results. -insert-rate applies
// to -op rank only.
//
// -insert-rate R runs a mixed read/write workload: for every read
// batch, R*batch freshly generated keys are inserted into the running
// index first, exercising the online-update path (delta buffers,
// background merges, and — over TCP — the write fan-out to every
// writable replica). With -compare, all methods receive the same
// deterministic insert stream, so identical checksums still prove the
// methods agree under writes.
//
// Replicated clusters list every replica of a partition either grouped
// with "|" or flat with -replicas (addresses grouped consecutively):
//
//	dcq -connect 'host:7000|host:7100,host:7001|host:7101'
//	dcq -connect host:7000,host:7100,host:7001,host:7101 -replicas 2
//
// A replica failure mid-run fails over to its partition sibling instead
// of aborting; dcq prints a per-replica health summary when that
// happens.
//
// -hedge arms the gray-failure machinery against replicated clusters:
// reads that outlive the partition's latency quantile (-hedge-quantile,
// default p95) are re-dispatched to a sibling under a token budget, and
// a replica whose latency stays a sustained outlier is ejected, probed,
// and readmitted. -chaos D is the matching client-side drill: replies
// from the first configured replica are delayed by D through a seeded
// faultnet wrapper, no server changes needed (dcnode's -chaos-* flags
// are the server-side equivalent). The health summary then includes the
// per-replica latency EWMA, probation state, and hedge/ejection/budget
// counters:
//
//	dcq -connect 'host:7000|host:7100,host:7001|host:7101' -hedge -chaos 50ms
//
// dcq is also the load harness of the operations plane. -target-qps R
// switches from the default closed loop (batches dispatched
// back-to-back, latency = service time) to an open loop: batch starts
// are scheduled at R keys/s split across masters, and each batch's
// latency is measured from its scheduled start — so time spent queued
// behind a saturated cluster counts against the tail instead of
// silently stretching the run (the coordinated-omission fix). Paced
// runs end with a per-batch latency report (p50/p99/p99.9/mean from a
// mergeable log-bucketed histogram). -admin ADDR mounts the cluster
// client's HTTP admin endpoint for the run: GET /metrics serves the
// client-side per-op histograms (dc_client_op_ns{op=...}) and cluster
// gauges, GET /stats the versioned ClusterStats tree, and the POST
// /membership/ verbs (add-replica, drain-replica, split-partition)
// reshape the serving cluster live — see the README's "Operations"
// section. After any TCP run, dcq prints the failover/gray-failure
// summary whenever any counter is nonzero, chaos drill or not.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/dcindex"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/tab"
	"repro/internal/telemetry"
)

func main() {
	var (
		methodName = flag.String("method", "C-3", "method: A, B, C-1, C-2, C-3")
		opName     = flag.String("op", "rank", "query op: rank, count, scan, topk, multiget")
		n          = flag.Int("n", 327680, "index key count (ignored with -keysfile)")
		q          = flag.Int("q", 1_000_000, "query count")
		workers    = flag.Int("workers", 8, "worker goroutines")
		batch      = flag.Int("batch", 0, "BatchKeys for the runtime or the TCP client, and the keys per call of dcq's own loops; 0 = the library's default BatchKeys for both")
		compare    = flag.Bool("compare", false, "run every method and compare throughput")
		seed       = flag.Uint64("seed", 1, "workload seed")
		keysfile   = flag.String("keysfile", "", "load the key set from a dcindex snapshot instead of generating it")
		connect    = flag.String("connect", "", "comma-separated dcnode addresses: query a TCP cluster instead of the in-process runtime (group a partition's replicas with '|')")
		masters    = flag.Int("masters", 1, "concurrent master callers over the TCP cluster (with -connect)")
		optimeout  = flag.Duration("optimeout", 10*time.Second, "per-op progress timeout on the TCP cluster (with -connect)")
		replicas   = flag.Int("replicas", 1, "replicas per partition in a flat -connect list (grouped '|' syntax overrides)")
		sorted     = flag.Bool("sorted", false, "sorted-batch mode: pre-sort the query stream (ascending batches auto-detect; over TCP they travel as plain words, 8 B/key like unsorted ones, and the node picks the sorted kernel)")
		insertRate = flag.Float64("insert-rate", 0, "mixed read/write mode: keys inserted per read key (0.05 = 5% writes)")
		hedge      = flag.Bool("hedge", false, "gray-failure mode (with -connect): hedged reads, latency-scored outlier ejection, and a hedge token budget")
		hedgeQuant = flag.Float64("hedge-quantile", 0.95, "latency quantile that arms a hedge (with -hedge)")
		chaos      = flag.Duration("chaos", 0, "gray-failure drill (with -connect): delay replies from the first replica by this much via a seeded faultnet wrapper on its connection")
		targetQPS  = flag.Float64("target-qps", 0, "open-loop load: pace dispatch at this many keys/s (split across masters), measuring batch latency from each batch's scheduled start so queueing delay counts; 0 = closed loop (batches back-to-back, latency = service time)")
		adminAt    = flag.String("admin", "", "with -connect: mount the cluster client's HTTP admin endpoint (metrics, /stats, membership verbs) on this address for the run's duration")
	)
	flag.Parse()

	var keys []dcindex.Key
	if *keysfile != "" {
		loaded, err := dcindex.LoadKeys(*keysfile)
		if err != nil {
			log.Fatalf("dcq: %v", err)
		}
		keys = loaded
	} else {
		keys = dcindex.GenerateKeys(*n, *seed)
	}
	queries := dcindex.GenerateQueries(*q, *seed+1)
	if *sorted {
		// Pre-sorting the whole stream models a caller whose batches
		// arrive ascending (log-structured ingest, merge iterators):
		// the runtime auto-detects the runs and takes the sorted
		// pipeline — one-sweep routing and sorted-run kernels; over TCP
		// the runs travel as plain word frames (8 B/key, as unsorted
		// ones do) and each node finds them ascending.
		sort.Slice(queries, func(i, j int) bool { return queries[i] < queries[j] })
	}

	switch *opName {
	case "rank", "count", "scan", "topk", "multiget":
	default:
		fmt.Fprintf(os.Stderr, "dcq: unknown op %q (want rank, count, scan, topk, multiget)\n", *opName)
		os.Exit(2)
	}
	if *opName != "rank" && *insertRate > 0 {
		fmt.Fprintln(os.Stderr, "dcq: -insert-rate applies to -op rank only; ignoring it")
		*insertRate = 0
	}

	if *targetQPS < 0 {
		fmt.Fprintln(os.Stderr, "dcq: -target-qps must be >= 0")
		os.Exit(2)
	}

	if *connect != "" {
		runTCP(strings.Split(*connect, ","), keys, queries, *opName, *batch, *masters, *replicas, *optimeout, *insertRate, *seed,
			*hedge, *hedgeQuant, *chaos, *targetQPS, *adminAt)
		return
	}

	if *compare {
		t := tab.NewTable("method", "wall time", "Mops/s", "checksum")
		for _, m := range dcindex.Methods() {
			el, sum, units := run(keys, queries, m, *opName, *workers, *batch, *insertRate, *seed, *targetQPS)
			t.Row(m.String(), el.Round(time.Millisecond).String(),
				fmt.Sprintf("%.1f", float64(units)/el.Seconds()/1e6),
				fmt.Sprintf("%08x", sum))
		}
		fmt.Printf("real runtime, op %s, %d keys, %d queries, %d workers, batch %d", *opName, len(keys), *q, *workers, callKeys(*batch))
		if *insertRate > 0 {
			fmt.Printf(", insert rate %.3f", *insertRate)
		}
		fmt.Print("\n\n")
		fmt.Print(t)
		fmt.Printf("\nIdentical checksums confirm all methods return identical %s results.\n", *opName)
		return
	}

	m, ok := parseMethod(*methodName)
	if !ok {
		fmt.Fprintf(os.Stderr, "dcq: unknown method %q (want A, B, C-1, C-2, C-3)\n", *methodName)
		os.Exit(2)
	}
	el, sum, units := run(keys, queries, m, *opName, *workers, *batch, *insertRate, *seed, *targetQPS)
	fmt.Printf("method %s, op %s: %d result units over %d keys in %s (%.1f Mops/s), checksum %08x\n",
		m, *opName, units, len(keys), el.Round(time.Millisecond), float64(units)/el.Seconds()/1e6, sum)
}

// callKeys is how many keys dcq's own loops put in one call: -batch, or
// the library's default BatchKeys (the same for every method and for the
// TCP client) when -batch is 0 and BatchKeys is left to the library.
func callKeys(batch int) int {
	if batch == 0 {
		return core.DefaultBatchKeys
	}
	return batch
}

// pacer schedules batch starts for the -target-qps open loop and
// records every batch's latency into a shared histogram (one pacer per
// master, one histogram per run). Open loop (interval > 0): batch i's
// latency is measured from its scheduled start, not its actual one, so
// time spent queued behind a saturated cluster counts against the
// distribution — the classic coordinated-omission fix. Closed loop
// (interval 0): batches start back-to-back and the histogram holds
// pure service time.
type pacer struct {
	hist     *telemetry.Histogram
	interval time.Duration
	next     time.Time
}

// newPacer builds one master's pacer: qps is the whole run's target
// rate, batch and masters divide it into this master's per-batch
// dispatch interval.
func newPacer(hist *telemetry.Histogram, qps float64, batch, masters int) *pacer {
	p := &pacer{hist: hist}
	if qps > 0 {
		p.interval = time.Duration(float64(batch) * float64(masters) / qps * float64(time.Second))
	}
	return p
}

// begin blocks until the next scheduled batch start and returns the
// timestamp latency is measured from.
func (p *pacer) begin() time.Time {
	if p.interval <= 0 {
		return time.Now()
	}
	if p.next.IsZero() {
		p.next = time.Now()
	}
	t := p.next
	p.next = t.Add(p.interval)
	if wait := time.Until(t); wait > 0 {
		time.Sleep(wait)
	}
	return t
}

func (p *pacer) end(t0 time.Time) { p.hist.Observe(time.Since(t0)) }

// printLatency reports the run's per-batch latency distribution.
func printLatency(hist *telemetry.Histogram, qps float64) {
	s := hist.Snapshot()
	if s.Count == 0 {
		return
	}
	loop := "closed loop"
	if qps > 0 {
		loop = fmt.Sprintf("open loop at %.0f keys/s", qps)
	}
	fmt.Printf("batch latency (%s, %d batches): p50 %s  p99 %s  p99.9 %s  mean %s\n",
		loop, s.Count,
		time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(s.Quantile(0.99)).Round(time.Microsecond),
		time.Duration(s.Quantile(0.999)).Round(time.Microsecond),
		time.Duration(s.Mean()).Round(time.Microsecond))
}

// engine is the surface dcq's workload drives, the same on both
// transports: the TCP cluster client has it as is, the in-process Index
// through libIndex.
type engine interface {
	CountRangeBatch(ranges []dcindex.KeyRange, out []int) error
	ScanRange(lo, hi dcindex.Key, limit int, buf []dcindex.Key) ([]dcindex.Key, error)
	TopK(k int, buf []dcindex.Key) ([]dcindex.Key, error)
	MultiGetInto(keys []dcindex.Key, out []int) error
	InsertBatch(keys []dcindex.Key) error
	LookupBatchInto(queries []dcindex.Key, out []int) error
}

// libIndex gives the Index's rank call, RankBatchInto, the engine's name.
type libIndex struct{ *dcindex.Index }

func (l libIndex) LookupBatchInto(q []dcindex.Key, out []int) error { return l.RankBatchInto(q, out) }

// workload is one dcq run over an engine: the op, the index keys
// (multiget's hits) and the query stream, the keys per call, the
// concurrent callers, and the write mix (inserts per read key, drawn from
// a pool at seed+2) and open-loop rate.
type workload struct {
	op             string
	keys, queries  []dcindex.Key
	batch, masters int
	insertRate     float64
	seed           uint64
	qps            float64
}

// result is what drive measured. For rank, units counts the queries and
// inserted the keys written; for the other ops units counts the results.
type result struct {
	elapsed         time.Duration
	units, inserted int
	sum             uint32
	latency         *telemetry.Histogram
}

// drive runs w on eng: masters concurrent callers each take a
// contiguous share of the query stream — and, for rank with writes, of
// one insert pool per seed, so every method and transport replays the
// same writes — over the engine's shared workers or connections. The
// checksum is the rolling sum of every rank in stream order for rank,
// and for the other ops the XOR of the callers' own sums, which
// combines them order-independently, stable for a given masters split.
func drive(eng engine, w workload) (result, error) {
	r := result{latency: telemetry.NewRegistry().Histogram("dcq_batch_ns")}
	var pool []dcindex.Key
	var out []int
	if w.op == "rank" {
		if w.insertRate > 0 {
			pool = dcindex.GenerateQueries(int(w.insertRate*float64(len(w.queries)))+w.masters*w.batch, w.seed+2)
		}
		out = make([]int, len(w.queries))
	}
	// Per caller: the result units, or for rank the keys inserted.
	counts := make([]int, w.masters)
	sums := make([]uint32, w.masters)
	errs := make([]error, w.masters)
	var wg sync.WaitGroup
	start := time.Now()
	for m := range w.masters {
		lo, hi := m*len(w.queries)/w.masters, (m+1)*len(w.queries)/w.masters
		plo, phi := m*len(pool)/w.masters, (m+1)*len(pool)/w.masters
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc := newPacer(r.latency, w.qps, w.batch, w.masters)
			if w.op == "rank" {
				counts[m], errs[m] = runRanks(eng, w.queries[lo:hi], out[lo:hi], pool[plo:phi], w.insertRate, w.batch, pc)
				return
			}
			counts[m], sums[m], errs[m] = runOps(eng, w.op, w.keys, w.queries[lo:hi], w.batch, pc)
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	total := 0
	for m := range counts {
		total += counts[m]
		r.sum ^= sums[m]
	}
	if w.op == "rank" {
		r.units, r.inserted, r.sum = len(w.queries), total, checksum(out)
	} else {
		r.units = total
	}
	return r, nil
}

// runRanks is one caller's share of a rank workload, ranks into out. A
// closed loop without writes is one call for the whole share, which
// pipelines every batch at once (peak throughput; per-batch latency is
// not meaningful there — pass -target-qps for the paced loop with the
// latency report). Otherwise each batch of queries follows rate·batch
// inserts from pool while it lasts. It returns the keys inserted.
func runRanks(eng engine, queries []dcindex.Key, out []int, pool []dcindex.Key, rate float64, batch int, pc *pacer) (int, error) {
	if rate <= 0 && pc.interval <= 0 {
		return 0, eng.LookupBatchInto(queries, out)
	}
	ins := 0
	for off := 0; off < len(queries); off += batch {
		end := min(off+batch, len(queries))
		if n := int(float64(end-off) * rate); n > 0 && ins+n <= len(pool) {
			if err := eng.InsertBatch(pool[ins : ins+n]); err != nil {
				return ins, err
			}
			ins += n
		}
		t0 := pc.begin()
		if err := eng.LookupBatchInto(queries[off:end], out[off:end]); err != nil {
			return ins, err
		}
		pc.end(t0)
	}
	return ins, nil
}

// runOps replays the query stream as op inputs — count and scan read
// range endpoints from consecutive query pairs, topk derives k from the
// stream, multiget looks up the queries with every other one replaced by
// the index key it picks (keys[q % len(keys)]), so half its lookups hit
// — and returns the result-unit count and a rolling checksum.
// Deterministic per stream, so checksums compare across methods and
// transports. pc paces the dispatches and records each call's latency.
func runOps(eng engine, op string, keys, queries []dcindex.Key, batch int, pc *pacer) (int, uint32, error) {
	var sum uint32
	units := 0
	switch op {
	case "count":
		ranges := make([]dcindex.KeyRange, 0, batch)
		counts := make([]int, batch)
		flush := func() error {
			if len(ranges) == 0 {
				return nil
			}
			t0 := pc.begin()
			if err := eng.CountRangeBatch(ranges, counts[:len(ranges)]); err != nil {
				return err
			}
			pc.end(t0)
			for _, n := range counts[:len(ranges)] {
				sum = sum*31 + uint32(n)
			}
			units += len(ranges)
			ranges = ranges[:0]
			return nil
		}
		for i := 0; i+1 < len(queries); i += 2 {
			lo, hi := queries[i], queries[i+1]
			if hi < lo {
				lo, hi = hi, lo
			}
			ranges = append(ranges, dcindex.KeyRange{Lo: lo, Hi: hi})
			if len(ranges) == batch {
				if err := flush(); err != nil {
					return units, sum, err
				}
			}
		}
		return units, sum, flush()
	case "scan":
		// One bounded scan per batch of stream positions: endpoints from
		// a query pair, at most batch keys back.
		var buf []dcindex.Key
		for off := 0; off+1 < len(queries); off += batch {
			lo, hi := queries[off], queries[off+1]
			if hi < lo {
				lo, hi = hi, lo
			}
			t0 := pc.begin()
			got, err := eng.ScanRange(lo, hi, batch, buf[:0])
			if err != nil {
				return units, sum, err
			}
			pc.end(t0)
			buf = got
			for _, k := range got {
				sum = sum*31 + uint32(k)
			}
			units += len(got)
		}
		return units, sum, nil
	case "topk":
		var buf []dcindex.Key
		for off := 0; off < len(queries); off += batch {
			k := 1 + int(queries[off]%1024)
			t0 := pc.begin()
			got, err := eng.TopK(k, buf[:0])
			if err != nil {
				return units, sum, err
			}
			pc.end(t0)
			buf = got
			for _, key := range got {
				sum = sum*31 + uint32(key)
			}
			units += len(got)
		}
		return units, sum, nil
	case "multiget":
		in := make([]dcindex.Key, batch)
		out := make([]int, batch)
		for off := 0; off < len(queries); off += batch {
			end := min(off+batch, len(queries))
			for i, q := range queries[off:end] {
				if (off+i)%2 == 0 {
					q = keys[int(q)%len(keys)]
				}
				in[i] = q
			}
			t0 := pc.begin()
			if err := eng.MultiGetInto(in[:end-off], out[:end-off]); err != nil {
				return units, sum, err
			}
			pc.end(t0)
			for _, n := range out[:end-off] {
				sum = sum*31 + uint32(n)
			}
			units += end - off
		}
		return units, sum, nil
	}
	return 0, 0, fmt.Errorf("unknown op %q", op)
}

// run drives one method over the query stream in process, returning
// elapsed time, checksum, and the result-unit count (for rank: queries +
// inserts). With insertRate > 0 the rank stream interleaves writes:
// before each read batch, rate*batch fresh keys (deterministic per seed)
// are inserted into the running index.
func run(keys, queries []dcindex.Key, m dcindex.Method, op string, workers, batch int, insertRate float64, seed uint64, qps float64) (time.Duration, uint32, int) {
	idx, err := dcindex.Open(keys, dcindex.Options{Method: m, Workers: workers, BatchKeys: batch})
	if err != nil {
		fail(err)
	}
	defer idx.Close()
	r, err := drive(libIndex{idx}, workload{op: op, keys: keys, queries: queries, batch: callKeys(batch), masters: 1,
		insertRate: insertRate, seed: seed, qps: qps})
	if err != nil {
		fail(err)
	}
	if insertRate > 0 {
		st := idx.Stats()
		fmt.Fprintf(os.Stderr, "dcq: %s update stats: %d keys inserted, %d merges, %d rebalances, index now %d keys\n",
			m, st.Updates.InsertedKeys, st.Updates.Merges, st.Updates.Rebalances, st.Keys)
	}
	printLatency(r.latency, qps)
	return r.elapsed, r.sum, r.units + r.inserted
}

// runTCP drives a dcnode cluster: masters concurrent callers multiplex
// their shares of the workload over the one shared connection set, and
// inserts fan out to every replica of the owning partition. Replicated
// partitions fail over and load-spread automatically; any failover that
// occurred is summarized from Cluster.Health after the run.
func runTCP(addrs []string, keys, queries []dcindex.Key, op string, batch, masters, replicas int, opTimeout time.Duration, insertRate float64, seed uint64,
	hedge bool, hedgeQuantile float64, chaos time.Duration, qps float64, adminAt string) {
	if masters < 1 {
		masters = 1
	}
	opt := dcindex.TCPOptions{
		BatchKeys: batch,
		OpTimeout: opTimeout,
		Replicas:  replicas,
	}
	opt.Admin.Addr = adminAt
	if hedge {
		// Gray-failure mode: hedge reads that outlive the partition's
		// latency quantile (paid from the fixed 10% hedge budget) and
		// eject sustained outlier replicas.
		opt.Hedging.Quantile = hedgeQuantile
		opt.Ejection = true
	}
	if chaos > 0 {
		// Deterministic gray-failure drill: every connection to the
		// first configured replica is wrapped in a seeded faultnet
		// profile that delays replies (client-side reads), so the
		// cluster stays untouched while this client sees one replica
		// answer chaos late. Pair with -hedge to watch the rescue.
		slow := strings.Split(addrs[0], "|")[0]
		prof := faultnet.NewProfile(seed)
		prof.Set(faultnet.Faults{ReadLatency: chaos})
		opt.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil || addr != slow {
				return conn, err
			}
			return prof.Wrap(conn), nil
		}
	}
	c, err := dcindex.DialClusterOptions(addrs, keys, opt)
	if err != nil {
		fail(err)
	}
	defer c.Close()
	if at := c.Admin(); at != "" {
		fmt.Fprintf(os.Stderr, "dcq: admin endpoint on http://%s (/metrics /stats /health /membership/...)\n", at)
	}
	r, err := drive(c, workload{op: op, keys: keys, queries: queries, batch: callKeys(batch), masters: masters,
		insertRate: insertRate, seed: seed, qps: qps})
	if err != nil {
		fail(err)
	}
	el := r.elapsed.Round(time.Millisecond)
	if op == "rank" {
		fmt.Printf("TCP cluster (%d partitions, %d masters): %d queries (+%d inserts) in %s (%.1f Mkeys/s), checksum %08x\n",
			c.Nodes(), masters, r.units, r.inserted, el, float64(r.units+r.inserted)/r.elapsed.Seconds()/1e6, r.sum)
	} else {
		fmt.Printf("TCP cluster (%d partitions, %d masters), op %s: %d result units in %s (%.1f Mops/s), checksum %08x\n",
			c.Nodes(), masters, op, r.units, el, float64(r.units)/r.elapsed.Seconds()/1e6, r.sum)
	}
	printLatency(r.latency, qps)
	printHealth(c)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dcq:", err)
	os.Exit(1)
}

// printHealth summarizes per-replica liveness after a TCP run from the
// unified ClusterStats tree, but only when something noteworthy
// happened: a failover, a rejoin or delta catch-up, or any
// gray-failure handling (hedges, probation transitions, denied
// hedges) — whichever run surfaced it, chaos drill or not.
func printHealth(c *dcindex.TCPCluster) {
	st := c.Stats()
	health := st.Replicas
	degraded, gray := false, false
	for _, h := range health {
		if !h.Healthy || h.Failures > 0 {
			degraded = true
		}
		if h.Hedges > 0 || h.Ejections > 0 || h.Probes > 0 || h.Readmits > 0 || h.BudgetDenied > 0 || (h.State != "" && h.State != "healthy") {
			gray = true
		}
	}
	if st.DeltaCatchups > 0 {
		degraded = true
	}
	if !degraded && !gray {
		return
	}
	switch {
	case degraded && gray:
		fmt.Println("replica health (failover and gray-failure handling during the run):")
	case degraded:
		fmt.Println("replica health (failover occurred during the run):")
	default:
		fmt.Println("replica health (gray-failure handling during the run):")
	}
	if st.DeltaCatchups > 0 {
		fmt.Printf("  %d delta catch-ups (rejoined replicas resynced from the positioned insert tail)\n", st.DeltaCatchups)
	}
	for _, h := range health {
		state := h.State
		if state == "" {
			state = "healthy"
		}
		if !h.Healthy {
			state = "DOWN"
		}
		fmt.Printf("  partition %d  %-21s  %-7s  proto v%d, ewma %s, dispatched %d, failures %d, rejoins %d\n",
			h.Partition, h.Addr, state, h.Proto, h.LatencyEWMA.Round(time.Microsecond), h.Dispatched, h.Failures, h.Rejoins)
		if gray {
			fmt.Printf("    hedges %d, ejections %d, probes %d, readmits %d, budget-denied %d\n",
				h.Hedges, h.Ejections, h.Probes, h.Readmits, h.BudgetDenied)
		}
	}
}

func checksum(ranks []int) uint32 {
	var sum uint32
	for _, r := range ranks {
		sum = sum*31 + uint32(r)
	}
	return sum
}

func parseMethod(s string) (dcindex.Method, bool) {
	for _, m := range dcindex.Methods() {
		if strings.EqualFold(m.String(), s) {
			return m, true
		}
	}
	return 0, false
}
