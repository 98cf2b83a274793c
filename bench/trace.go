package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// span is one record of the trace file. A root span (Parent 0) is a call
// into the program and carries the interval the call really took. Its
// children are the probes that replayed the call's inputs through one
// layer each: a probe runs after the call, so its span is laid inside
// the parent's interval with the probe's duration (Replay is set), one
// after another in the order the layers run. What the children leave
// uncovered is the call's self time: the glue the probes cannot see.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	CallID  int    `json:"call_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Replay  bool   `json:"replay,omitempty"`
	// Clipped marks a child cut short at its parent's end: the replay
	// took longer than the part of the call it stands for.
	Clipped bool `json:"clipped,omitempty"`
}

// component is one probe result to lay inside a call's span: ns of the
// replay, and the component (by name) it is nested in, "" for the call.
type component struct {
	name string
	ns   int64
	in   string
}

// tracer keeps the spans and probe samples of one traced phase in
// memory; nothing is written until the phase is over.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	calls   int
	samples map[string][]float64 // probe results by metric name
	// shares collects, per call name, each component's ns per result
	// unit of that call, for the where-the-time-goes table.
	shares    map[string]map[string][]float64
	order     map[string][]string // component names per call, first-seen order
	callNames []string            // call names, first-seen order
	nested    map[string]bool     // components laid inside another component
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		samples: map[string][]float64{},
		shares:  map[string]map[string][]float64{},
		order:   map[string][]string{},
		nested:  map[string]bool{},
	}
}

func (tr *tracer) sample(metric string, v float64) {
	tr.mu.Lock()
	tr.samples[metric] = append(tr.samples[metric], v)
	tr.mu.Unlock()
}

// call records a root span and lays comps inside it. units is the
// call's result units, the denominator of the time table.
func (tr *tracer) call(name string, start, end time.Time, units int, comps []component) {
	units = max(units, 1) // a scan may return nothing
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.calls++
	root := span{ID: len(tr.spans) + 1, CallID: tr.calls, Name: name,
		StartNs: int64(start.Sub(tr.t0)), EndNs: int64(end.Sub(tr.t0))}
	tr.spans = append(tr.spans, root)

	// slots[name] is where the next child of that component starts and
	// where the component ends; "" is the call itself.
	type slot struct {
		id        int
		next, end int64
	}
	slots := map[string]*slot{"": {root.ID, root.StartNs, root.EndNs}}
	covered := int64(0)
	for _, c := range comps {
		p := slots[c.in]
		child := span{ID: len(tr.spans) + 1, Parent: p.id, CallID: root.CallID, Name: c.name,
			StartNs: p.next, EndNs: p.next + c.ns, Replay: true}
		if child.EndNs > p.end {
			child.EndNs, child.Clipped = p.end, true
		}
		p.next = child.EndNs
		tr.spans = append(tr.spans, child)
		slots[c.name] = &slot{child.ID, child.StartNs, child.EndNs}
		if c.in == "" {
			covered += child.EndNs - child.StartNs
		} else {
			tr.nested[c.name] = true
		}
		tr.share(name, c.name, float64(c.ns)/float64(units))
	}
	tr.share(name, "(self)", float64(root.EndNs-root.StartNs-covered)/float64(units))
	tr.share(name, "(call)", float64(root.EndNs-root.StartNs)/float64(units))
}

func (tr *tracer) share(call, comp string, v float64) {
	m := tr.shares[call]
	if m == nil {
		m = map[string][]float64{}
		tr.shares[call] = m
		tr.callNames = append(tr.callNames, call)
	}
	if _, seen := m[comp]; !seen {
		tr.order[call] = append(tr.order[call], comp)
	}
	m[comp] = append(m[comp], v)
}

// probe records a stand-alone probe, one that replays no particular
// call (a merge, a segment flush): a root span of its own with the
// interval the probe really took.
func (tr *tracer) probe(name string, start, end time.Time) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, CallID: tr.calls, Name: name,
		StartNs: int64(start.Sub(tr.t0)), EndNs: int64(end.Sub(tr.t0))})
	tr.mu.Unlock()
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func (tr *tracer) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{
		Workload: workload, Seed: seed, Spans: tr.spans,
		Note: "times are ns since the traced phase began; a span with replay=true is a probe's duration laid inside the call it replayed, not when the probe ran",
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printTimeTable prints, per kind of call, where its time goes:
// component, ns per result unit, share of the call. Nested components
// are indented under the one they are part of; (self) is what no probe
// accounts for.
func (tr *tracer) printTimeTable(w io.Writer) {
	for _, call := range tr.callNames {
		comps := tr.order[call]
		total := median(tr.shares[call]["(call)"])
		fmt.Fprintf(w, "  where the time goes: %s (%d calls)\n", call, len(tr.shares[call]["(call)"]))
		fmt.Fprintf(w, "    %-34s %12s %8s\n", "component", "ns/unit", "share")
		for _, c := range comps {
			if c == "(call)" {
				continue
			}
			label := c
			if tr.nested[c] {
				label = "  of which " + c
			}
			v := median(tr.shares[call][c])
			fmt.Fprintf(w, "    %-34s %12.2f %7.1f%%\n", label, v, 100*v/total)
		}
		fmt.Fprintf(w, "    %-34s %12.2f %7.1f%%\n", "total", total, 100.0)
	}
}
