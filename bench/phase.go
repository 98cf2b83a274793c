package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"
)

// op is one kind of call in a workload's cycle.
type op struct {
	name  string // span name, e.g. "dcindex.rank"
	write bool
	// call makes the i-th call and returns its result units. Only this
	// is timed.
	call func(i int) (units int, err error)
	// check compares the answer of the i-th call with the oracle. It is
	// called once per call that returned no error.
	check func(i int) bool
	// spoil damages the last answer, to show that check would notice.
	spoil func()
	// before and probe bracket a traced call: before snapshots counters,
	// probe replays the call's inputs through the layers and returns
	// what to lay inside the call's span. Either may be nil.
	before func()
	probe  func(i int, callNs int64) []component
}

// caller is one closed-loop client: it makes the calls of its cycle one
// after another, each after the previous reply. Its cycle count runs on
// for as long as it drives the same system, so a mixed workload never
// inserts a chunk twice into one index.
type caller struct {
	ops     []op
	i       int
	spoiled bool
}

// phaseStats is what one caller, or all of them merged, saw in a phase.
type phaseStats struct {
	readLat, writeLat []int64            // ns per read call (a cycle's read ops together) and per write call
	opLat             map[string][]int64 // ns per call, by op
	// Per window of a caller's clock: read and write result units per
	// second. A round is one window; a phase that runs for a time is cut
	// into windows of windowLength. readRate and writeRate are each
	// caller's median window, summed over the callers.
	winRead, winWrite []float64
	readRate          float64
	writeRate         float64
	readUnits         int64
	writeUnits        int64
	calls             int // timed calls of any op
	attempted, failed int
	activeNs          int64 // time inside timed calls, summed over callers
	excludedNs        int64 // time checking and probing, outside every timed span
	cpu               time.Duration
	mallocs, bytes    uint64
}

// limit says when a phase ends: after exactly cycles cycles of every
// caller if cycles is set (a round: the same work every time), at
// deadline otherwise.
type limit struct {
	cycles   int
	deadline time.Time
}

func (l limit) reached(done int) bool {
	if l.cycles > 0 {
		return done >= l.cycles
	}
	return !time.Now().Before(l.deadline)
}

// run drives the caller's cycle until lim is reached. Windows are cut on
// the caller's own clock, which advances only inside timed calls:
// checking and probing stretch the phase but not its windows.
//
// A traced phase moves in steps (tr and ls are set): every caller makes
// one call at the same moment, as they overlap in an untraced phase,
// then all stop and the probes run one after another with no call in
// flight. It ends at lim.deadline.
func (c *caller) run(lim limit, window time.Duration, tr *tracer, ls *lockstep, corrupt bool) phaseStats {
	st := phaseStats{opLat: map[string][]int64{}}
	var winNs, winRead, winWrite int64
	deadline := lim.deadline
cycles:
	for done := 0; tr != nil || !lim.reached(done); done++ {
		var readNs int64
		for k := range c.ops {
			o := &c.ops[k]
			if tr != nil {
				if !ls.arrive(deadline) {
					break cycles
				}
				if o.before != nil {
					o.before()
				}
			}
			t0 := time.Now()
			units, err := o.call(c.i)
			t1 := time.Now()
			d := int64(t1.Sub(t0))

			if corrupt && !c.spoiled && !o.write {
				o.spoil()
				c.spoiled = true
			}
			st.attempted++
			if err != nil || !o.check(c.i) {
				if st.failed == 0 {
					fmt.Fprintf(os.Stderr, "bench: %s call %d: wrong answer or error: %v\n", o.name, c.i, err)
				}
				st.failed++
			}
			st.calls++
			st.opLat[o.name] = append(st.opLat[o.name], d)
			if o.write {
				st.writeLat = append(st.writeLat, d)
				st.writeUnits += int64(units)
				winWrite += int64(units)
			} else {
				readNs += d
				st.readUnits += int64(units)
				winRead += int64(units)
			}
			winNs += d
			st.activeNs += d
			if tr != nil {
				ls.arrive(deadline)
				ls.probing.Lock()
				var comps []component
				if o.probe != nil && err == nil {
					comps = o.probe(c.i, d)
				}
				tr.call(o.name, t0, t1, units, comps)
				ls.probing.Unlock()
			}
			st.excludedNs += int64(time.Since(t1))
		}
		st.readLat = append(st.readLat, readNs)
		c.i++
		if winNs >= int64(window) {
			st.winRead = append(st.winRead, float64(winRead)/float64(winNs)*1e9)
			st.winWrite = append(st.winWrite, float64(winWrite)/float64(winNs)*1e9)
			winNs, winRead, winWrite = 0, 0, 0
		}
	}
	if len(st.winRead) == 0 && winNs > 0 {
		// A round, or a phase of a few calls (in tests), is one window.
		st.winRead = []float64{float64(winRead) / float64(winNs) * 1e9}
		st.winWrite = []float64{float64(winWrite) / float64(winNs) * 1e9}
	}
	st.readRate, st.writeRate = median(st.winRead), median(st.winWrite)
	return st
}

// windowLength is the span of a caller's clock one throughput sample of
// a phase that runs for a time covers; such a phase's throughput is its
// median window.
const windowLength = time.Second

// lockstep is the barrier the callers of a traced phase meet at before
// and after every call. The last to arrive decides for all whether the
// phase goes on, so no caller is left waiting for one that has stopped.
type lockstep struct {
	probing sync.Mutex // held by the one caller that is probing

	mu      sync.Mutex
	cond    *sync.Cond
	n       int // callers
	arrived int
	round   int
	goOn    bool
}

func newLockstep(n int) *lockstep {
	ls := &lockstep{n: n}
	ls.cond = sync.NewCond(&ls.mu)
	return ls
}

func (ls *lockstep) arrive(deadline time.Time) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.arrived++
	if ls.arrived == ls.n {
		ls.arrived = 0
		ls.round++
		ls.goOn = time.Now().Before(deadline)
		ls.cond.Broadcast()
		return ls.goOn
	}
	for round := ls.round; round == ls.round; {
		ls.cond.Wait()
	}
	return ls.goOn
}

// runRound has every caller make exactly cycles cycles: one window each.
func runRound(callers []*caller, cycles int, corrupt bool) phaseStats {
	return runCallers(callers, limit{cycles: cycles}, math.MaxInt64, nil, corrupt)
}

// runPhase runs every caller for dur and merges what they saw. tr is nil
// for an untraced phase.
func runPhase(callers []*caller, dur time.Duration, tr *tracer) phaseStats {
	window := windowLength
	if dur < 8*window {
		window = dur / 8
	}
	return runCallers(callers, limit{deadline: time.Now().Add(dur)}, window, tr, false)
}

func runCallers(callers []*caller, lim limit, window time.Duration, tr *tracer, corrupt bool) phaseStats {
	ls := newLockstep(len(callers))
	per := make([]phaseStats, len(callers))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i] = c.run(lim, window, tr, ls, corrupt)
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	all := phaseStats{opLat: map[string][]int64{}}
	for _, st := range per {
		all.add(st)
		all.readRate += st.readRate
		all.writeRate += st.writeRate
	}
	all.cpu, all.mallocs, all.bytes = cpu, ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	return all
}

// add folds what o saw into st: every call, count and total. The rates
// are left alone: callers' rates add up, rounds' rates do not.
func (st *phaseStats) add(o phaseStats) {
	st.readLat = append(st.readLat, o.readLat...)
	st.writeLat = append(st.writeLat, o.writeLat...)
	for name, lat := range o.opLat {
		st.opLat[name] = append(st.opLat[name], lat...)
	}
	st.winRead = append(st.winRead, o.winRead...)
	st.winWrite = append(st.winWrite, o.winWrite...)
	st.readUnits += o.readUnits
	st.writeUnits += o.writeUnits
	st.calls += o.calls
	st.attempted += o.attempted
	st.failed += o.failed
	st.activeNs += o.activeNs
	st.excludedNs += o.excludedNs
	st.cpu += o.cpu
	st.mallocs += o.mallocs
	st.bytes += o.bytes
}
