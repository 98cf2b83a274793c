package core

import "repro/internal/workload"

// This file is the master's one planner, for both engines: every request
// a call sends a partition — ranks or multiplicities of keys, inserts,
// counted ranges — is planned here, and the in-process Cluster and the
// TCP client (netrun) only own the requests and move them. As the
// paper's master does (Section 3.2, Figure 2), the planner looks each key
// up in the delimiter array (Partitioning.Route) and adds it to that
// partition's request, and to no other; an ascending call, or one to an
// index of one partition, is cut into runs instead, with one search per
// delimiter. The copies of a partition's first key that lie under it,
// where a cut falls inside their run, are a count the table holds
// (Partitioning.below), which the master adds to the answer.

// Plan splits a call's keys or ranges over the partitions, into requests
// whose lists the engine owns: R is the engine's request (a worker batch
// in process, a pending frame over TCP) and W its key word. Each engine
// pools one with its call state.
type Plan[W ~uint32, R any] struct {
	parts []planPart[W, R]
	sort  radixScratch
	// below is the last MultiGet plan's keys that are their partition's
	// first key, with the copies under the partition (AddBelow).
	below []posCount
}

// posCount is a count to add to the answer at a call position.
type posCount struct {
	pos int32
	n   int
}

// planPart is the request a partition's keys go into: unopened (no keys)
// until the partition is asked, and again once the request is handed on.
// An open request's lists are held here by value — the per-key loop
// appends to them without reaching through the engine's pointers — and
// written back through keysTo and posTo when the request is handed on.
type planPart[W ~uint32, R any] struct {
	req    R
	keys   []W
	pos    []int32
	keysTo *[]W
	posTo  *[]int32
}

// open opens the request of partition s through the engine's open.
//
//dc:noalloc
func (pp *planPart[W, R]) open(s int, open func(part int) (R, *[]W, *[]int32)) {
	pp.req, pp.keysTo, pp.posTo = open(s)
	pp.keys = *pp.keysTo
	if pp.posTo != nil {
		pp.pos = *pp.posTo
	}
}

// emit writes the request's lists back to the engine's and hands it on.
//
//dc:noalloc
func (pp *planPart[W, R]) emit(s int, emit func(part int, req R)) {
	*pp.keysTo = pp.keys
	if pp.posTo != nil {
		*pp.posTo = pp.pos
	}
	emit(s, pp.req)
	*pp = planPart[W, R]{}
}

// KeyOp is how Plan.Keys treats a call's keys.
type KeyOp uint8

const (
	// RankKeys routes key by key into per-partition lists, each key with
	// its position — or cuts runs, when the call ascends or the index is
	// one partition.
	RankKeys KeyOp = iota
	// MultiGetKeys always cuts runs, sorting a call that does not ascend
	// (its kernel and its frame want ascending runs), and records the
	// positions whose key has copies under its partition (AddBelow).
	MultiGetKeys
	// InsertKeys routes key by key into per-partition lists, without
	// positions.
	InsertKeys
)

// KeyRun is a run request: keys of the call that one partition is asked
// whole, ascending unless the call did not ascend and the index is one
// partition. Keys is a slice of the call's keys, or of its sorted copy,
// for the engine to alias or encode until the call returns.
type KeyRun struct {
	Part int
	Keys []workload.Key
	// Pos is the keys' positions in the call; nil when they are the
	// call's own keys from PosBase on.
	Pos     []int32
	PosBase int
	Sorted  bool
}

// Requests bounds how many requests Keys emits for n keys, per being the
// smaller of its per and run: a full one per per keys, and a part-filled
// one per partition.
func (p *Partitioning) Requests(n, per int) int {
	return n/per + len(p.Parts) + 1
}

// Keys splits keys over p's partitions as op says, and hands each request
// on once:
//
//   - Key by key: a key, and its position when open gave a list for them
//     (not for InsertKeys), goes into the lists open(part) returned for the
//     request of the partition it routes to, opened when the partition is
//     first asked; a request of per keys goes to emit(part, req), which
//     takes it over, and the next key opens another. When every key is
//     planned, emit gets each partition's last request.
//   - In runs: one sweep over the delimiters (ForEachSortedRun) hands
//     emitRun each partition's share of the call, at most run keys a run.
//     For MultiGet, the positions of a run's leading copies of its
//     partition's first key are recorded with the copies under the
//     partition, for AddBelow once every answer is in.
//
//dc:noalloc
func (pl *Plan[W, R]) Keys(p *Partitioning, keys []workload.Key, op KeyOp, per, run int, open func(part int) (R, *[]W, *[]int32), emit func(part int, req R), emitRun func(KeyRun)) {
	pl.below = pl.below[:0]
	if op != InsertKeys {
		runKeys, runPos := keys, []int32(nil)
		sorted := SortedRun(keys)
		if !sorted && op == MultiGetKeys {
			runKeys, runPos = pl.sort.sortByKey(keys)
			sorted = true
		}
		if sorted || len(p.Parts) == 1 {
			ForEachSortedRun(p.delims, runKeys, run, func(s, start, end int) {
				r := KeyRun{Part: s, Keys: runKeys[start:end], PosBase: start, Sorted: sorted}
				if runPos != nil {
					r.Pos, r.PosBase = runPos[start:end], 0
				}
				emitRun(r)
				if op != MultiGetKeys {
					return
				}
				k := runKeys[start]
				n := p.belowOf(s, k)
				for i := start; n > 0 && i < end && runKeys[i] == k; i++ {
					pos := int32(i)
					if runPos != nil {
						pos = runPos[i]
					}
					pl.below = append(pl.below, posCount{pos, n})
				}
			})
			return
		}
	}
	parts := pl.partsOf(p)
	for i, k := range keys {
		s := p.Route(k)
		pp := &parts[s]
		if len(pp.keys) == 0 {
			pp.open(s, open)
		}
		pp.keys = append(pp.keys, W(k))
		if pp.posTo != nil {
			pp.pos = append(pp.pos, int32(i))
		}
		if len(pp.keys) == per {
			pp.emit(s, emit)
		}
	}
	pl.flush(emit)
}

// Ranges seeds out[:len(ranges)], the sums AddCounts adds the
// partitions' answers into, with each range's count of lo's copies under
// Route(lo) (zero for an inverted range), and splits ranges over p's
// partitions: a range that is not inverted is asked of every partition in
// p.Span(lo, hi). The pair, lo first, and its range's position go into
// the lists open(part) returned for the partition's request, opened when
// the partition is first asked; a request of per pairs goes to
// emit(part, req), which takes it over, and the next pair opens another.
// When every range is planned, emit gets each partition's last request.
//
//dc:noalloc
func (pl *Plan[W, R]) Ranges(p *Partitioning, ranges []KeyRange, out []int, per int, open func(part int) (R, *[]W, *[]int32), emit func(part int, req R)) {
	parts := pl.partsOf(p)
	for i, r := range ranges {
		if r.Hi < r.Lo {
			out[i] = 0
			continue
		}
		// Span, written out: its Routes inline here, and Span does not.
		first, last := p.Route(r.Lo), p.Route(r.Hi)
		out[i] = p.belowOf(first, r.Lo)
		for s := first; s <= last; s++ {
			pp := &parts[s]
			if len(pp.keys) == 0 {
				pp.open(s, open)
			}
			pp.keys = append(pp.keys, W(r.Lo), W(r.Hi))
			pp.pos = append(pp.pos, int32(i))
			if len(pp.pos) == per {
				pp.emit(s, emit)
			}
		}
	}
	pl.flush(emit)
}

// AddBelow adds to out, at each position the last Keys call recorded for
// MultiGet, the copies of its key under the partition it routes to. The
// engine calls it once every answer of the call is in out.
//
//dc:noalloc
func (pl *Plan[W, R]) AddBelow(out []int) {
	for _, b := range pl.below {
		out[b.pos] += b.n
	}
}

// partsOf returns the plan's request slots for p's partitions, all
// unopened.
//
//dc:noalloc
func (pl *Plan[W, R]) partsOf(p *Partitioning) []planPart[W, R] {
	if len(pl.parts) < len(p.Parts) {
		pl.parts = make([]planPart[W, R], len(p.Parts))
	}
	return pl.parts[:len(p.Parts)]
}

// flush hands emit each partition's last request.
//
//dc:noalloc
func (pl *Plan[W, R]) flush(emit func(part int, req R)) {
	for s := range pl.parts {
		if len(pl.parts[s].keys) > 0 {
			pl.parts[s].emit(s, emit)
		}
	}
}
