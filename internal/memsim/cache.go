// Package memsim simulates one node's memory hierarchy: set-associative
// L1 and L2 caches with LRU replacement, a data TLB, and a RAM model that
// distinguishes streaming (full W1 bandwidth) from random line-granular
// access (per-line miss penalties). The paper's entire argument rests on
// this distinction — Section 2.1 measures 647 MB/s sequential vs 48 MB/s
// random on the same machine — so the simulator charges costs exactly the
// way Table 2 and Appendix A describe: a B2 miss penalty per line loaded
// from RAM, a B1 penalty per line loaded from L2 into L1, and n/W1 for
// streaming n bytes.
//
// The simulator is trace-driven: index structures report the virtual
// addresses they probe (see internal/index), and Hierarchy.Touch turns
// each probe into nanoseconds while updating cache state. Determinism is
// total — no wall-clock, no randomness — so simulated experiments are
// reproducible across hosts.
package memsim

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
)

// Addr is a virtual byte address in the simulated node's address space.
// The simulation never dereferences these; they exist only to drive
// cache indexing, so different data structures simply claim disjoint
// address regions. (An alias, as internal/index's Addr is, so that the
// indexes can be laid out in this space without importing a simulator.)
type Addr = uint64

// Cache is one set-associative cache level with LRU replacement.
// The zero value is not usable; use NewCache.
type Cache struct {
	lineShift uint
	setMask   uint64
	ways      int
	// tags holds sets*ways entries; within a set, index 0 is the most
	// recently used way. A zero entry is invalid (tags store lineAddr+1
	// so that line address 0 is representable).
	tags []uint64

	hits   uint64
	misses uint64
}

// NewCache builds a cache of the given total size, line size, and
// associativity. Sizes must satisfy arch.Params.Validate-style
// constraints; NewCache panics on malformed geometry because it is
// always driven by validated Params.
func NewCache(sizeBytes, lineBytes, assoc int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("memsim: bad cache geometry size=%d line=%d assoc=%d", sizeBytes, lineBytes, assoc))
	}
	if lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("memsim: line size %d not a power of two", lineBytes))
	}
	lines := sizeBytes / lineBytes
	if lines%assoc != 0 {
		panic(fmt.Sprintf("memsim: %d lines not divisible by associativity %d", lines, assoc))
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("memsim: set count %d not a power of two", sets))
	}
	return &Cache{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(sets - 1),
		ways:      assoc,
		tags:      make([]uint64, sets*assoc),
	}
}

// Access looks up the line containing addr, updating LRU state and
// installing the line on a miss. It reports whether the access hit.
func (c *Cache) Access(addr Addr) bool {
	line := uint64(addr) >> c.lineShift
	set := int(line&c.setMask) * c.ways
	tag := line + 1
	ways := c.tags[set : set+c.ways : set+c.ways]
	for i, t := range ways {
		if t == tag {
			// Move to front (MRU).
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			c.hits++
			return true
		}
	}
	// Miss: evict LRU (last way), install at MRU.
	copy(ways[1:], ways[:c.ways-1])
	ways[0] = tag
	c.misses++
	return false
}

// Install brings the line holding addr into the cache (updating LRU
// state and evicting as needed) without recording a hit or a miss. The
// hierarchy's quiet paths (Preload, InstallQuiet) use it to model
// residency changes that should not perturb the experiment's counters.
func (c *Cache) Install(addr Addr) {
	line := uint64(addr) >> c.lineShift
	set := int(line&c.setMask) * c.ways
	tag := line + 1
	ways := c.tags[set : set+c.ways : set+c.ways]
	for i, t := range ways {
		if t == tag {
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return
		}
	}
	copy(ways[1:], ways[:c.ways-1])
	ways[0] = tag
}

// Contains reports whether the line holding addr is currently cached,
// without touching LRU state or counters. Tests and occupancy probes use
// it to inspect simulator state non-destructively.
func (c *Cache) Contains(addr Addr) bool {
	line := uint64(addr) >> c.lineShift
	set := int(line&c.setMask) * c.ways
	tag := line + 1
	for _, t := range c.tags[set : set+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Reset invalidates every line and clears counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	c.hits, c.misses = 0, 0
}

// Hits and Misses return the access counters.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// Occupancy returns the number of valid lines, useful for asserting
// working-set residency in tests.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return len(c.tags) }

// Counters aggregates the hierarchy's event counts for reporting.
type Counters struct {
	Accesses    uint64 // random-access probes through Touch
	L1Hits      uint64
	L1Misses    uint64
	L2Hits      uint64 // L1 misses that hit in L2
	L2Misses    uint64 // line fills from RAM
	TLBMisses   uint64
	StreamBytes uint64 // bytes charged at sequential bandwidth
}

// Hierarchy is a node's full memory system: L1 + L2 + TLB + RAM timing.
type Hierarchy struct {
	P   arch.Params
	L1  *Cache
	L2  *Cache
	TLB *Cache // page-granularity cache; nil when P.TLBEntries == 0

	C Counters
}

// NewHierarchy builds the hierarchy described by p. It panics if p is
// invalid; validate upstream with p.Validate().
func NewHierarchy(p arch.Params) *Hierarchy {
	if err := p.Validate(); err != nil {
		panic("memsim: " + err.Error())
	}
	h := &Hierarchy{
		P:  p,
		L1: NewCache(p.L1Size, p.L1Line, p.L1Assoc),
		L2: NewCache(p.L2Size, p.L2Line, p.L2Assoc),
	}
	if p.TLBEntries > 0 {
		// Model the data TLB as 4-way set associative over pages
		// (64 entries => 16 sets on the Pentium III).
		assoc := 4
		if p.TLBEntries < assoc || p.TLBEntries%assoc != 0 {
			assoc = 1
		}
		h.TLB = NewCache(p.TLBEntries*p.PageBytes, p.PageBytes, assoc)
	}
	return h
}

// Touch performs one random (dependent, non-streamed) access to the
// word at addr and returns its cost in nanoseconds: the TLB walk if the
// page misses, plus the B2 penalty if the line must come from RAM, plus
// the B1 penalty if the line must move from L2 into L1. A pure L1 hit
// costs zero here — the CPU-side cost of the compare is charged
// separately via arch.Params.CompCost* by the engines, matching the
// paper's cost decomposition.
func (h *Hierarchy) Touch(addr Addr) float64 {
	h.C.Accesses++
	var ns float64
	if h.TLB != nil && !h.TLB.Access(addr) {
		h.C.TLBMisses++
		ns += h.P.TLBMissPenaltyNs
	}
	if h.L1.Access(addr) {
		h.C.L1Hits++
		return ns
	}
	h.C.L1Misses++
	if h.L2.Access(addr) {
		h.C.L2Hits++
		return ns + h.P.B1MissPenaltyNs
	}
	h.C.L2Misses++
	return ns + h.P.B2MissPenaltyNs + h.P.B1MissPenaltyNs
}

// TouchRange performs random accesses for every line spanned by
// [addr, addr+size) and returns the summed cost. Index nodes are line
// sized, so this is almost always a single line.
func (h *Hierarchy) TouchRange(addr Addr, size int) float64 {
	if size <= 0 {
		return 0
	}
	line := uint64(h.P.L2Line)
	first := uint64(addr) / line
	last := (uint64(addr) + uint64(size) - 1) / line
	var ns float64
	for l := first; l <= last; l++ {
		ns += h.Touch(Addr(l * line))
	}
	return ns
}

// Stream charges n bytes at the sequential memory bandwidth W1 without
// touching cache state: the cost model for buffer reads and writes whose
// addresses are consecutive ("the full memory bandwidth can be used",
// Appendix A). Use StreamInstall when the streamed data should also
// occupy cache (e.g. an arriving query batch polluting the slave's L2,
// the effect behind Figure 3's dip at 128 KB).
func (h *Hierarchy) Stream(n int) float64 {
	if n <= 0 {
		return 0
	}
	h.C.StreamBytes += uint64(n)
	return h.P.SeqCostNs(n)
}

// StreamInstall charges n bytes at sequential bandwidth and installs the
// spanned lines into L1 and L2, evicting whatever LRU displaces. The
// install itself adds no latency (hardware prefetching and non-blocking
// fills overlap with the stream), but the cache pollution it causes is
// exactly the contention mechanism Section 4.1 describes for 128 KB
// batches.
func (h *Hierarchy) StreamInstall(addr Addr, n int) float64 {
	if n <= 0 {
		return 0
	}
	line := uint64(h.P.L2Line)
	first := uint64(addr) / line
	last := (uint64(addr) + uint64(n) - 1) / line
	for l := first; l <= last; l++ {
		a := Addr(l * line)
		h.L1.Access(a)
		h.L2.Access(a)
	}
	h.C.StreamBytes += uint64(n)
	return h.P.SeqCostNs(n)
}

// InstallQuiet brings [addr, addr+size) into L1 and L2 without charging
// time or counters: residency changes caused by activity outside the
// measured computation, such as the next message being DMA-received
// while the current one is processed ("overlapped communication and
// computation", Section 4.1) — the cache pollution is real even though
// the cost is hidden.
func (h *Hierarchy) InstallQuiet(addr Addr, size int) {
	if size <= 0 {
		return
	}
	line := uint64(h.P.L2Line)
	first := uint64(addr) / line
	last := (uint64(addr) + uint64(size) - 1) / line
	for l := first; l <= last; l++ {
		a := Addr(l * line)
		h.L2.Install(a)
		h.L1.Install(a)
	}
}

// Preload installs [addr, addr+size) into L2 (and the hottest prefix
// into L1) plus the TLB, without charging time or counters: the
// warm-start state for a slave whose partition is assumed cache-resident
// before the experiment begins, mirroring the paper's steady-state
// measurement regime (they time 8M queries, so cold-start effects
// vanish). Unlike the former implementation, it is counter-neutral even
// when called mid-run.
func (h *Hierarchy) Preload(addr Addr, size int) {
	if size <= 0 {
		return
	}
	h.InstallQuiet(addr, size)
	if h.TLB != nil {
		line := uint64(h.P.PageBytes)
		first := uint64(addr) / line
		last := (uint64(addr) + uint64(size) - 1) / line
		for l := first; l <= last; l++ {
			h.TLB.Install(Addr(l * line))
		}
	}
}

// Reset clears all cache state and counters.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	if h.TLB != nil {
		h.TLB.Reset()
	}
	h.C = Counters{}
}

// MissRatio returns L2 misses per Touch access, the quantity Appendix A
// predicts with Equations 3-5.
func (h *Hierarchy) MissRatio() float64 {
	if h.C.Accesses == 0 {
		return 0
	}
	return float64(h.C.L2Misses) / float64(h.C.Accesses)
}
