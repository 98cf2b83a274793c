package paper

import (
	"math"
	"sort"

	"repro/internal/buffering"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/index"
	"repro/internal/memsim"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simCluster runs the distributed in-cache index (Methods C-1/C-2/C-3)
// on the discrete-event cluster: one master that reads the query stream,
// routes keys by the delimiter array, accumulates a batch, and dispatches
// per-slave messages over its (serializing) NIC; and S slaves that hold
// cache-resident partitions, process arriving messages in order, and
// send result messages onward. Communication overlaps computation as
// MPI_Isend allows: the master's CPU is released after the per-message
// software overhead while the wire transfer proceeds in the background,
// and a slave's next message is received (and pollutes its cache) while
// the current one is processed.
func simCluster(cfg SimConfig) (SimReport, error) {
	part, err := core.NewPartitioning(cfg.IndexKeys, cfg.Slaves)
	if err != nil {
		return SimReport{}, err
	}

	net := netsim.New(cfg.P)
	var eng des.Engine

	slaves := make([]*simSlave, cfg.Slaves)
	for i := range slaves {
		slaves[i] = newSimSlave(cfg, part.Parts[i])
	}

	// The masters: sequential timelines, one per master node, taking
	// batches from the incoming stream round-robin (Section 3.2: "this
	// is easily remedied by setting up multiple master nodes, with
	// replicates of the top level data structure"). Per key a master
	// pays the dispatch comparison plus streaming the key from the
	// input and into the outgoing buffer; per batch it splits the
	// accumulated keys by partition and sends one message per non-empty
	// slave buffer.
	sim := sampleSizeC(cfg)
	batchKeys := cfg.batchKeys()
	next := cfg.querySource(sim)

	type simMaster struct {
		nic  netsim.NIC
		tm   float64 // CPU clock
		busy float64
	}
	masters := make([]*simMaster, cfg.Masters)
	for i := range masters {
		masters[i] = &simMaster{}
		masters[i].nic.Name = "master"
	}

	var lastArrival float64
	var replies []replyEvent
	turnaround := stats.NewHistogram(1, 1e12, 480)

	scratch := make([][]workload.Key, cfg.Slaves)
	perKeyNs := cfg.P.DispatchCostNs + cfg.P.SeqCostNs(2*workload.KeyBytes)

	dispatched, mi := 0, 0
	for dispatched < sim {
		mst := masters[mi]
		mi = (mi + 1) % len(masters)
		n := batchKeys
		if sim-dispatched < n {
			n = sim - dispatched
		}
		// Route the chunk on this master's timeline.
		chunkStart := mst.tm
		for j := 0; j < n; j++ {
			k := next()
			s := part.Route(k)
			scratch[s] = append(scratch[s], k)
		}
		cpu := float64(n) * perKeyNs
		mst.tm += cpu
		mst.busy += cpu
		// Dispatch one message per slave holding keys from this batch.
		for s, keys := range scratch {
			if len(keys) == 0 {
				continue
			}
			msgKeys := append([]workload.Key(nil), keys...)
			scratch[s] = scratch[s][:0]
			x := net.Send(&mst.nic, mst.tm, len(msgKeys)*workload.KeyBytes)
			mst.busy += x.CPURelease - mst.tm
			mst.tm = x.CPURelease
			sl := slaves[s]
			eng.Schedule(x.Arrival, func() {
				sl.receive(&eng, net, pendingMsg{keys: msgKeys, chunkStart: chunkStart},
					&lastArrival, &replies, turnaround)
			})
		}
		dispatched += n
	}

	end := eng.Run()
	var masterBusy float64
	for _, mst := range masters {
		if mst.tm > end {
			end = mst.tm
		}
		masterBusy += mst.busy
	}
	if lastArrival > end {
		end = lastArrival
	}

	// Aggregate.
	var idle stats.Running
	var counters memsim.Counters
	var msgs, wire uint64
	keysProcessed, maxKeys := 0, 0
	for _, s := range slaves {
		s.tracker.ObserveEnd(end)
		idle.Add(s.tracker.IdleFraction())
		counters = addCounters(counters, s.h.C)
		msgs += s.nic.MsgsSent() + uint64(s.msgsIn)
		wire += s.nic.BytesSent() + s.bytesIn
		keysProcessed += s.keysDone
		if s.keysDone > maxKeys {
			maxKeys = s.keysDone
		}
	}

	raw := extrapolate(end, sim, cfg.TotalQueries, replies)

	r := SimReport{
		Method:           cfg.Method,
		BatchBytes:       cfg.BatchBytes,
		Nodes:            cfg.nodes(),
		TotalQueries:     cfg.TotalQueries,
		SimulatedQueries: sim,
		RawSec:           raw,
		NormalizedSec:    raw, // Method C is already cluster-wide
		SlaveIdleFrac:    idle.Mean(),
		MasterBusyFrac:   clamp01(masterBusy / (end * float64(len(masters)))),
		Messages:         msgs,
		BytesOnWire:      wire,
		TurnaroundP50Ns:  turnaround.Quantile(0.50),
		TurnaroundP99Ns:  turnaround.Quantile(0.99),
	}
	if keysProcessed > 0 {
		mean := float64(keysProcessed) / float64(cfg.Slaves)
		r.LoadImbalance = float64(maxKeys) / mean
	}
	if keysProcessed > 0 {
		kp := float64(keysProcessed)
		r.L1MissesPerKey = float64(counters.L1Misses) / kp
		r.L2MissesPerKey = float64(counters.L2Misses) / kp
		r.TLBMissesPerKey = float64(counters.TLBMisses) / kp
	}
	r.PerKeyNs = r.NormalizedSec / float64(cfg.TotalQueries) * 1e9
	return r, nil
}

// replyEvent records one result message's arrival for steady-state rate
// estimation.
type replyEvent struct {
	t    float64
	keys int
}

// extrapolate projects the simulated run to the full workload. Scaling
// the end-to-end time linearly would multiply the pipeline's fill and
// drain tails by the scale factor; instead, the steady-state completion
// rate is measured between the 30% and 90% completion marks and only the
// *additional* keys are charged at that marginal rate. Exact runs
// (sim == total) return the simulated time unchanged.
func extrapolate(endNs float64, sim, total int, replies []replyEvent) float64 {
	if total <= sim {
		return endNs / 1e9
	}
	sort.Slice(replies, func(i, j int) bool { return replies[i].t < replies[j].t })
	var done int
	var t30, t90 float64
	var k30, k90 int
	for _, r := range replies {
		done += r.keys
		if t30 == 0 && done >= sim*30/100 {
			t30, k30 = r.t, done
		}
		if done >= sim*90/100 {
			t90, k90 = r.t, done
			break
		}
	}
	if t90 > t30 && k90 > k30 {
		rate := float64(k90-k30) / (t90 - t30) // keys per ns, steady state
		return (endNs + float64(total-sim)/rate) / 1e9
	}
	// Degenerate pipelines (a single message): linear scaling is all
	// that is available.
	return endNs / 1e9 * float64(total) / float64(sim)
}

// simSlave is one slave node's state on the DES timeline.
type simSlave struct {
	cfg  SimConfig
	part core.Partition
	h    *memsim.Hierarchy
	nic  netsim.NIC

	// Method-specific lookup structures over the partition.
	arr     *index.SortedArray
	tree    *index.Tree
	plan    buffering.Plan
	cursors []int64

	queue    []pendingMsg
	busy     bool
	tracker  stats.BusyTracker
	slot     int
	keysDone int
	msgsIn   int
	bytesIn  uint64

	ranks []int
	trace []memsim.Addr
}

type pendingMsg struct {
	keys []workload.Key
	// chunkStart is when the dispatching master began routing the
	// batch this message came from; the reply arrival minus chunkStart
	// is the batch turnaround (the response-time criterion).
	chunkStart float64
}

func newSimSlave(cfg SimConfig, part core.Partition) *simSlave {
	s := &simSlave{cfg: cfg, part: part, h: memsim.NewHierarchy(cfg.P)}
	s.nic.Name = "slave"
	switch cfg.Method {
	case core.MethodC1, core.MethodC2:
		// The slave tree keeps per-key result words in its leaves,
		// like the Method A/B tree: a 32,768-key partition occupies
		// ~300 KB — Table 1's "Subtree Size ... 320 KB" — versus the
		// 128 KB sorted array, which is exactly the extra cache
		// pressure Section 4.1 blames for C-1/C-2 trailing C-3.
		s.tree = index.NewNaryTree(part.Keys, treeBase)
		if cfg.Method == core.MethodC2 {
			// L1-sized subtrees, half the cache left for buffers
			// (Section 3.2: "each subtree can now fit inside the L1
			// cache").
			s.plan = buffering.NewPlan(s.tree, cfg.P.L1Size/2)
			s.cursors = make([]int64, s.tree.NodeCount())
		}
		s.h.Preload(s.tree.Base(), s.tree.SizeBytes())
	default: // core.MethodC3
		s.arr = index.NewSortedArray(part.Keys, treeBase)
		s.h.Preload(s.arr.Base(), s.arr.SizeBytes())
	}
	s.trace = make([]memsim.Addr, 0, 64)
	return s
}

// receive is the message-arrival event handler.
func (s *simSlave) receive(eng *des.Engine, net *netsim.Net, m pendingMsg, lastArrival *float64, replies *[]replyEvent, turnaround *stats.Histogram) {
	s.queue = append(s.queue, m)
	s.msgsIn++
	s.bytesIn += uint64(len(m.keys) * workload.KeyBytes)
	s.tryStart(eng, net, lastArrival, replies, turnaround)
}

// tryStart begins processing the next queued message if the slave is
// idle.
func (s *simSlave) tryStart(eng *des.Engine, net *netsim.Net, lastArrival *float64, replies *[]replyEvent, turnaround *stats.Histogram) {
	if s.busy || len(s.queue) == 0 {
		return
	}
	m := s.queue[0]
	s.queue = s.queue[1:]
	s.busy = true

	start := eng.Now()
	cost := s.process(m)
	end := start + cost

	eng.Schedule(end, func() {
		// Send the results onward ("dispatches the results to the
		// target"); the per-message overhead occupies the slave CPU.
		x := net.Send(&s.nic, end, len(m.keys)*workload.KeyBytes)
		s.tracker.AddBusy(start, x.CPURelease)
		if x.Arrival > *lastArrival {
			*lastArrival = x.Arrival
		}
		*replies = append(*replies, replyEvent{t: x.Arrival, keys: len(m.keys)})
		turnaround.Add(x.Arrival - m.chunkStart)
		s.busy = false
		s.tryStart(eng, net, lastArrival, replies, turnaround)
	})
}

// process returns the virtual time the slave spends on one message.
func (s *simSlave) process(m pendingMsg) float64 {
	cfg := s.cfg
	n := len(m.keys)

	// Receive-side software overhead, then read the message (it was
	// DMA'd into this slot and now streams through the cache).
	cost := cfg.P.NetPerMsgOverheadNs
	cost += s.h.StreamInstall(batchSlotAddr(s.slot), n*workload.KeyBytes)
	// Overlapped communication: while this message is processed, the
	// next one (if already queued) is being received into the other
	// slot, polluting the cache at no CPU cost (the Section 4.1
	// contention mechanism: "128 KB of the next message of queries
	// being received").
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.h.InstallQuiet(batchSlotAddr(1-s.slot), len(next.keys)*workload.KeyBytes)
	}
	s.slot = 1 - s.slot

	if cap(s.ranks) < n {
		s.ranks = make([]int, n)
	}
	ranks := s.ranks[:n]

	switch cfg.Method {
	case core.MethodC1:
		for i, k := range m.keys {
			s.trace = s.trace[:0]
			var r int
			r, s.trace = s.tree.RankTrace(k, s.trace)
			for _, a := range s.trace {
				cost += s.h.Touch(a)
			}
			cost += float64(len(s.trace)) * cfg.P.CompCostNodeNs
			ranks[i] = r
		}
	case core.MethodC2:
		hooks := buffering.Hooks{
			TouchNode: func(id int32) {
				cost += cfg.P.CompCostNodeNs + s.h.Touch(s.tree.NodeAddr(id))
			},
			BufferWrite: func(bucket int32, b int) {
				addr := bufBase + memsim.Addr(uint64(bucket)<<bucketShift) +
					memsim.Addr(s.cursors[bucket]&(bucketSize-1))
				s.cursors[bucket] += int64(b)
				cost += s.h.StreamInstall(addr, b)
			},
			BufferRead: func(_ int32, b int) {
				cost += s.h.Stream(b)
			},
		}
		s.plan.RankBatch(m.keys, ranks, 0, hooks)
	default: // core.MethodC3
		for i, k := range m.keys {
			s.trace = s.trace[:0]
			var r int
			r, s.trace = s.arr.RankTrace(k, s.trace)
			for _, a := range s.trace {
				cost += s.h.Touch(a)
			}
			cost += float64(len(s.trace)) * cfg.P.CompCostProbeNs
			ranks[i] = r
		}
	}
	// Results stream to the outgoing buffer.
	cost += s.h.Stream(n * workload.KeyBytes)
	s.keysDone += n
	return cost
}

// sampleSizeC picks the simulated query count for Method C: enough
// batches for the pipeline to reach steady state.
func sampleSizeC(cfg SimConfig) int {
	sim := cfg.SampleQueries
	if sim == 0 {
		sim = 1 << 20
		if need := cfg.batchKeys() * 6; need > sim {
			sim = need
		}
	}
	if sim > cfg.TotalQueries {
		sim = cfg.TotalQueries
	}
	if sim < 1 {
		sim = 1
	}
	return sim
}

func addCounters(a, b memsim.Counters) memsim.Counters {
	return memsim.Counters{
		Accesses:    a.Accesses + b.Accesses,
		L1Hits:      a.L1Hits + b.L1Hits,
		L1Misses:    a.L1Misses + b.L1Misses,
		L2Hits:      a.L2Hits + b.L2Hits,
		L2Misses:    a.L2Misses + b.L2Misses,
		TLBMisses:   a.TLBMisses + b.TLBMisses,
		StreamBytes: a.StreamBytes + b.StreamBytes,
	}
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
