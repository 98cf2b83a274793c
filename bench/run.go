package main

import (
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64 // length of the measured phase
	traced  bool    // follow the measured phase with a traced one
	outDir  string  // trace files and, while a run lasts, WAL directories
	// minReadCalls is the fewest read calls the measured phase must hold
	// for its percentiles to mean something; fewer fails the run as
	// undersized. Tests with phases of a fraction of a second set 0.
	minReadCalls int
	// corrupt damages one answer per caller, to show the run then fails.
	corrupt bool
	out     io.Writer
}

// result is what one run of one workload measured.
type result struct {
	workload string
	traced   bool
	// metrics holds the end-to-end metrics and, after a traced phase, the
	// per-layer metrics this workload has. A metric of BENCHMARK.json
	// missing here is off this workload's path: it prints as n/a and goes
	// into the result line as 0.
	metrics           map[string]float64
	attempted, failed int
	undersized        bool
}

func (r *result) correct() bool { return r.failed == 0 && !r.undersized }

// minReadCalls is the fewest read calls a measured phase may hold. The
// workloads with the slowest calls, rank_large and mixed_tcp_replicated,
// get through some 2,300 in a run at run_seconds on this host.
const minReadCalls = 1000

// warmCycles is how many cycles each caller makes on a freshly started
// system before a round is timed: connections, pools and caches reach
// their steady state.
const warmCycles = 8

// phases returns the length of the measured phase and of the traced
// phase that follows it on the last round's live index.
func (cfg config) phases() (measured, traced time.Duration) {
	measured = time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		traced = min(measured/3, 4*time.Second)
	}
	return measured, traced
}

// firstAnswer makes one small rank call and checks it: set-up ends at
// the first correct answer.
func firstAnswer(s *sut, keys []Key) error {
	qs := make([]Key, 16)
	for i := range qs {
		qs[i] = keys[(i*len(keys)/len(qs)+i)%len(keys)] + Key(i%2)
	}
	out := make([]int, len(qs))
	if err := s.LookupBatchInto(qs, out); err != nil {
		return err
	}
	for i, q := range qs {
		if out[i] != upperBound(keys, q) {
			return fmt.Errorf("first answer wrong: rank(%d) = %d, want %d", q, out[i], upperBound(keys, q))
		}
	}
	return nil
}

// setUp starts the system w describes in a fresh directory, from the
// keys in hand to the first correct answer, and returns how long that
// took.
func setUp(w workloadSpec, keys []Key, dir string, traced bool) (*sut, float64, error) {
	t0 := time.Now()
	s, err := start(w, keys, dir, traced)
	if err != nil {
		return nil, 0, err
	}
	if err := firstAnswer(s, keys); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

// rounds is what the measured phase saw. The phase is a sequence of
// rounds of identical work: each sets the system up afresh, warms it,
// and has every caller make the same w.roundCycles cycles over the same
// inputs, so a round's time compares with every other round's, and a
// mixed workload's index is the same size in each. One value per round
// of every gated quantity, as measured; every timed call of every round
// in all.
type rounds struct {
	yard                 []time.Duration // yard[r] is read before round r, yard[r+1] after it
	setup                []float64       // s
	readRate, writeRate  []float64       // result units per second of the callers' clocks
	readP50, writeP50    []float64       // ns, the round's median call
	cpuPerUnit           []float64       // ns of process CPU per result unit
	all                  phaseStats
	warmCalls, warmFails int

	// The last round's system, left running for the traced phase and the
	// final checks, with the callers that drove it.
	s       *sut
	walDir  string
	callers []*caller
	oracle  *mixedOracle
}

// measure runs rounds until the measured phase is over.
func measure(w workloadSpec, keys []Key, in *inputs, dir string, cfg config) (*rounds, error) {
	m := &rounds{all: phaseStats{opLat: map[string][]int64{}}}
	measured, _ := cfg.phases()
	deadline := time.Now().Add(measured)
	for r := 0; ; r++ {
		m.yard = append(m.yard, readYardstick())
		sub := filepath.Join(dir, fmt.Sprintf("round%d", r))
		s, took, err := setUp(w, keys, sub, cfg.traced)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, took)
		var oracle *mixedOracle
		if w.kind == kindMixed {
			oracle = newMixedOracle(keys)
		}
		callers := buildCallers(w, in, s, nil, oracle)
		warm := runRound(callers, warmCycles, false)
		m.warmCalls += warm.attempted
		m.warmFails += warm.failed
		st := runRound(callers, w.roundCycles, cfg.corrupt)
		m.all.add(st)
		m.readRate = append(m.readRate, st.readRate)
		m.readP50 = append(m.readP50, float64(median(st.readLat)))
		m.cpuPerUnit = append(m.cpuPerUnit, float64(int64(st.cpu)-st.excludedNs)/float64(st.readUnits+st.writeUnits))
		if len(st.writeLat) > 0 {
			m.writeRate = append(m.writeRate, st.writeRate)
			m.writeP50 = append(m.writeP50, float64(median(st.writeLat)))
		}
		if !time.Now().Before(deadline) {
			m.yard = append(m.yard, readYardstick())
			m.s, m.walDir, m.callers, m.oracle = s, sub, callers, oracle
			return m, nil
		}
		s.stop()
		if err := os.RemoveAll(sub); err != nil {
			return nil, err
		}
	}
}

// corrected returns the median over the rounds of a per-round time (or
// cost in time) once each round's value is scaled by how fast the
// yardstick ran beside that round: see yardstick.go.
func (m *rounds) corrected(perRound []float64) float64 {
	v := make([]float64, len(perRound))
	for r := range v {
		v[r] = perRound[r] * 2 * float64(yardstickNominal) / float64(m.yard[r]+m.yard[r+1])
	}
	return median(v)
}

// correctedRate is corrected for a rate: work per time.
func (m *rounds) correctedRate(perRound []float64) float64 {
	inv := make([]float64, len(perRound))
	for r := range inv {
		inv[r] = 1 / perRound[r]
	}
	return 1 / m.corrected(inv)
}

// runWorkload runs w once under cfg.
func runWorkload(w workloadSpec, cfg config, bf *benchmarkFile) (*result, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "wal-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{workload: w.name, traced: cfg.traced, metrics: map[string]float64{}}
	measuredDur, tracedDur := cfg.phases()

	// One set-up ahead of the rounds, to weigh what it builds.
	heap0 := heapAfterGC()
	keys, err := generateKeys(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	s, _, err := setUp(w, keys, filepath.Join(dir, "heap"), cfg.traced)
	if err != nil {
		return nil, err
	}
	heap1 := heapAfterGC()
	s.stop()

	in := generateInputs(w, keys, cfg.seed)
	m, err := measure(w, keys, in, dir, cfg)
	if err != nil {
		return nil, err
	}
	s = m.s
	defer func() { s.stop() }()
	res.attempted = m.warmCalls + m.all.attempted
	res.failed = m.warmFails + m.all.failed

	fmt.Fprintf(cfg.out, "\n== %s  seed %d  %s\n", w.name, cfg.seed, describe(w))
	fmt.Fprintf(cfg.out, "   why: %s\n", bf.why(w.name))
	fmt.Fprintf(cfg.out, "   phases: measured %v in rounds of %d+%d cycles per caller on a fresh set-up each, traced %v\n",
		measuredDur, warmCycles, w.roundCycles, tracedDur)
	fmt.Fprintf(cfg.out, "   samples: %d rounds, %d read calls, %d write calls, %d caller(s)\n",
		len(m.setup), len(m.all.readLat), len(m.all.writeLat), w.callers)

	res.metrics["read_keys_per_s"] = m.correctedRate(m.readRate)
	res.metrics["read_call_p50_ms"] = m.corrected(m.readP50) / 1e6
	res.metrics["cpu_ns_per_key"] = m.corrected(m.cpuPerUnit)
	res.metrics["setup_s"] = m.corrected(m.setup)
	res.metrics["heap_bytes_per_key"] = float64(heap1-heap0) / float64(len(keys))
	fmt.Fprintf(cfg.out, "   yardstick: median %v, nominal %v; before correction: read_keys_per_s %.6g, read_call_p50_ms %.6g, cpu_ns_per_key %.6g, setup_s %.6g\n",
		median(m.yard), yardstickNominal, median(m.readRate), median(m.readP50)/1e6, median(m.cpuPerUnit), median(m.setup))
	if len(m.all.readLat) < cfg.minReadCalls {
		res.undersized = true
		fmt.Fprintf(cfg.out, "   UNDERSIZED: %d read calls, want %d\n", len(m.all.readLat), cfg.minReadCalls)
	}

	if cfg.traced {
		tr := newTracer()
		fx, err := newFixtures(w, s, tr, keys, dir)
		if err != nil {
			return nil, err
		}
		defer fx.close()
		// The same callers go on, now with the probes attached.
		callers := buildCallers(w, in, s, fx, m.oracle)
		for c := range callers {
			callers[c].i = m.callers[c].i
		}
		ref := runPhase(callers, tracedDur, nil)
		before := snapshot(s)
		tr.t0 = time.Now()
		for i := 0; i < 8; i++ {
			fx.probeObserve()
		}
		traced := runPhase(callers, tracedDur, tr)
		res.attempted += ref.attempted + traced.attempted
		res.failed += ref.failed + traced.failed
		layerMetrics(res.metrics, w, s, fx, tr, m, ref, traced, before, snapshot(s))
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := tr.write(path, w.name, cfg.seed); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.out, "   trace: %d spans in %s\n", len(tr.spans), path)
		tr.printTimeTable(cfg.out)
	}

	if w.kind == kindMixed {
		if err := finalChecks(w, cfg, res, &s, keys, m.walDir, in, m.oracle); err != nil {
			return nil, err
		}
	}
	for name, v := range res.metrics {
		if !finite(v) { // a ratio over a phase too short to hold its denominator
			delete(res.metrics, name)
		}
	}
	return res, nil
}

func describe(w workloadSpec) string {
	where := "in process"
	if w.tcp() {
		where = fmt.Sprintf("%d partition(s) x %d replica(s) over loopback TCP, nodes in this process", w.parts, w.replicas)
	}
	return fmt.Sprintf("%d keys, %s, %d caller(s) in a closed loop", w.keys, where, w.callers)
}

// counters is every public counter and seam total at one instant.
type counters struct {
	runtime core.RealStats
	updates core.UpdateStats
	conn    connTotals
	fs      fsTotals
	nodeOps []map[string]telemetry.HistSnapshot
	replica [3]uint64 // dispatched, failures, hedges
}

func snapshot(s *sut) counters {
	var c counters
	if s.runtime != nil {
		c.runtime, c.updates = s.runtime(), s.updates()
	}
	if s.conn != nil {
		c.conn = s.conn.totals()
	}
	if s.fs != nil {
		c.fs = s.fs.totals()
	}
	for _, n := range s.nodes {
		c.nodeOps = append(c.nodeOps, n.tel.Histograms())
	}
	if s.tcp != nil {
		for _, r := range s.tcp.Stats().Replicas {
			c.replica[0] += r.Dispatched
			c.replica[1] += r.Failures
			c.replica[2] += r.Hedges
		}
	}
	return c
}

// layerMetrics fills m with the per-layer metrics this workload has:
// probe medians, counter deltas over the traced phase, and what the
// call spans of the measured rounds show. ref is the untraced stretch
// that ran on the same index just before the traced one.
func layerMetrics(m map[string]float64, w workloadSpec, s *sut, fx *fixtures, tr *tracer, rs *rounds, ref, traced phaseStats, c0, c1 counters) {
	for name, v := range tr.samples {
		m[name] = median(v)
	}
	calls := float64(traced.calls)
	writeCalls := float64(len(traced.writeLat))
	units := float64(traced.readUnits + traced.writeUnits)

	all := rs.all
	m["dcindex.read_call_p99_ms"] = float64(quantile(all.readLat, 0.99)) / 1e6
	m["dcindex.allocs_per_call"] = float64(all.mallocs) / float64(all.calls)
	m["dcindex.alloc_bytes_per_call"] = float64(all.bytes) / float64(all.calls)
	m["dcindex.trace_overhead_frac"] = 1 - traced.readRate/ref.readRate
	if w.kind == kindMixed {
		m["dcindex.write_keys_per_s"] = rs.correctedRate(rs.writeRate)
		m["dcindex.write_call_p50_ms"] = rs.corrected(rs.writeP50) / 1e6
		m["dcindex.write_call_p99_ms"] = float64(quantile(all.writeLat, 0.99)) / 1e6
	}

	if s.runtime != nil {
		var sum, top time.Duration
		for i, b := range c1.runtime.BusyPerWorker {
			d := b - c0.runtime.BusyPerWorker[i]
			sum += d
			top = max(top, d)
		}
		workers := float64(len(c1.runtime.BusyPerWorker))
		m["core.worker_busy_ns_per_key"] = float64(sum) / units
		m["core.worker_busy_frac"] = float64(sum) / (float64(traced.activeNs) * workers)
		m["core.worker_imbalance"] = float64(top) / (float64(sum) / workers)
		if w.kind == kindMixed {
			inserted := float64(c1.updates.InsertedKeys - c0.updates.InsertedKeys)
			m["core.merges_per_mkey"] = float64(c1.updates.Merges-c0.updates.Merges) / (inserted / 1e6)
			m["core.rebalances"] = float64(c1.updates.Rebalances - c0.updates.Rebalances)
		}
	}

	if s.fs != nil {
		m["faultfs.writes_per_write_call"] = float64(c1.fs.writes-c0.fs.writes) / writeCalls
		m["faultfs.syncs_per_write_call"] = float64(c1.fs.syncs-c0.fs.syncs) / writeCalls
		m["faultfs.bytes_written_per_key"] = float64(c1.fs.bytesWritten-c0.fs.bytesWritten) / float64(traced.writeUnits)
		m["faultfs.sync_us_p50"] = float64(median(s.fs.syncDurations()[c0.fs.syncs:c1.fs.syncs])) / 1e3
	}

	if s.tcp == nil {
		return
	}
	m["netrun.dial_ms"] = float64(s.dialNs) / 1e6
	m["netrun.wire_bytes_per_key"] = float64(c1.conn.bytesWritten-c0.conn.bytesWritten+c1.conn.bytesRead-c0.conn.bytesRead) / units
	m["netrun.conn_writes_per_call"] = float64(c1.conn.writes-c0.conn.writes) / calls
	m["netrun.conn_reads_per_call"] = float64(c1.conn.reads-c0.conn.reads) / calls
	m["netrun.conn_write_block_us_per_call"] = float64(c1.conn.writeBlockNs-c0.conn.writeBlockNs) / 1e3 / calls
	dispatched := float64(c1.replica[0] - c0.replica[0])
	m["netrun.frames_per_call"] = dispatched / calls
	if dispatched > 0 {
		m["netrun.redispatch_frac"] = float64(c1.replica[1]-c0.replica[1]+c1.replica[2]-c0.replica[2]) / dispatched
	}

	// The nodes' own clocks: service time of the read ops over the keys
	// they served, which includes the keys the round-trip probe sent.
	var readNs, slowestInsertNs float64
	for i := range s.nodes {
		for series, h1 := range c1.nodeOps[i] {
			h0 := c0.nodeOps[i][series]
			sum, n := float64(h1.Sum-h0.Sum), float64(h1.Count-h0.Count)
			switch {
			case strings.Contains(series, `op="insert"`):
				if n > 0 {
					slowestInsertNs = max(slowestInsertNs, sum/n)
				}
			case !strings.Contains(series, `op="hello"`):
				readNs += sum
			}
		}
	}
	m["netrun.node_service_ns_per_key"] = readNs / float64(traced.readUnits+fx.probeKeys)
	if w.kind == kindMixed {
		m["netrun.fanout_ack_us"] = float64(median(traced.writeLat))/1e3 - slowestInsertNs/1e3
	}
	if w.kind == kindOps {
		for op, name := range map[string]string{"count_range": "count", "multi_get": "multiget", "scan_range": "scan", "top_k": "topk"} {
			m["netrun.op_"+name+"_p50_us"] = float64(median(all.opLat["dcindex."+op])) / 1e3
		}
	}
}

// finalChecks verifies a mixed workload once its phases are over: the
// index holds base + acknowledged keys and ranks a whole batch like the
// oracle; a durable in-process index does so again after Close and a
// reopen from its directory; each replica of a replicated partition
// does so when asked directly. Each check counts as one call.
func finalChecks(w workloadSpec, cfg config, res *result, sp **sut, keys []Key, walDir string, in *inputs, oracle *mixedOracle) error {
	s := *sp
	batch := in.batches[1]
	out := make([]int, len(batch))
	check := func(what string, ok bool) {
		res.attempted++
		if !ok {
			res.failed++
			fmt.Fprintf(os.Stderr, "bench: %s: final check failed: %s\n", w.name, what)
		}
	}
	verify := func(what string, s *sut) {
		check(what+": key count", s.keyCount() == len(keys)+oracle.acked)
		err := s.LookupBatchInto(batch, out)
		check(what+": ranks", err == nil && oracle.check(batch, out))
	}
	verify("live index", s)

	if cfg.traced {
		res.metrics["index.disk_bytes_per_key"] = float64(dirBytes(walDir)) / float64(oracle.acked)
	}
	if !w.tcp() {
		s.stop()
		t0 := time.Now()
		reopened, err := start(w, keys, walDir, cfg.traced)
		if err != nil {
			return fmt.Errorf("reopen %s: %w", walDir, err)
		}
		recoverNs := time.Since(t0)
		*sp = reopened
		verify("reopened index", reopened)
		if cfg.traced {
			res.metrics["index.recover_ms_per_mkey"] = float64(recoverNs) / 1e6 / (float64(reopened.keyCount()) / 1e6)
		}
		return nil
	}
	words := make([]uint32, len(batch))
	for i, k := range batch {
		words[i] = uint32(k)
	}
	for _, n := range s.nodes {
		conn, err := net.Dial("tcp", n.addr)
		if err != nil {
			return err
		}
		ranks, err := nodeLookup(conn, words)
		conn.Close()
		for i := range ranks {
			out[i] = int(ranks[i]) + n.rankBase
		}
		check("replica "+n.addr+": ranks", err == nil && oracle.check(batch, out))
	}
	return nil
}

// dirBytes returns the size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
