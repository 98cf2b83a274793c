package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func names(specs []metricSpec) map[string]bool {
	m := map[string]bool{}
	for _, s := range specs {
		m[s.Name] = true
	}
	return m
}

// The smoke test runs all seven workloads, each with its traced phase,
// with every phase cut to half a second or less, and holds the program
// to BENCHMARK.json: the same workloads, the same metric names, finite
// values, no failed call, and trace files whose spans nest.
func TestSuiteMatchesBenchmarkFile(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg := config{seed: 1, seconds: 0.5, traced: true, outDir: t.TempDir(), out: &out}
	endToEnd, perLayer := names(bf.EndToEnd), names(bf.PerLayer)
	ran := map[string]bool{}
	measured := map[string]bool{} // per-layer metrics some workload has
	for _, w := range workloads {
		r, err := runWorkload(w, cfg, bf)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, out.String())
		}
		ran[w.name] = true
		if !r.correct() || r.attempted == 0 {
			t.Errorf("%s: %d of %d calls failed", w.name, r.failed, r.attempted)
		}
		// The result line carries exactly the names of its kind, traced
		// or not, each with a value and a unit.
		for _, traced := range []bool{false, true} {
			r.traced = traced
			var line struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultLine(r, bf)), &line); err != nil {
				t.Fatalf("%s: result line does not parse: %v", w.name, err)
			}
			want := names(lineSpecs(r, bf))
			for name, v := range line.Metrics {
				if !want[name] {
					t.Errorf("%s emits %q, which BENCHMARK.json does not list", w.name, name)
				}
				if v.Value == nil || v.Unit == "" {
					t.Errorf("%s: %q has no value or unit", w.name, name)
				}
			}
			for name := range want {
				if _, ok := line.Metrics[name]; !ok {
					t.Errorf("%s does not emit %q, which BENCHMARK.json lists", w.name, name)
				}
			}
		}
		for name, v := range r.metrics {
			if !finite(v) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
			switch {
			case endToEnd[name]:
				if v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v)
				}
			case perLayer[name]:
				measured[name] = true
			default:
				t.Errorf("%s measures %q, which BENCHMARK.json does not list", w.name, name)
			}
			if !w.tcp() && strings.HasPrefix(name, "netrun.") {
				t.Errorf("%s runs in process but reports %s", w.name, name)
			}
		}
		for name := range endToEnd {
			if _, ok := r.metrics[name]; !ok {
				t.Errorf("%s lacks end-to-end metric %s", w.name, name)
			}
		}
		checkTrace(t, filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
	}
	for _, w := range bf.Workloads {
		if !ran[w.Name] {
			t.Errorf("workload %s of BENCHMARK.json did not run", w.Name)
		}
	}
	if len(ran) != len(bf.Workloads) {
		t.Errorf("ran %d workloads, BENCHMARK.json lists %d", len(ran), len(bf.Workloads))
	}
	for name := range perLayer {
		if !measured[name] {
			t.Errorf("no workload measures per-layer metric %s", name)
		}
	}
}

// checkTrace parses one trace file and requires every child span to lie
// inside its parent and to carry its parent's call id.
func checkTrace(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	byID := map[int]span{}
	roots := 0
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d has unknown parent %d", path, s.ID, s.Parent)
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.CallID != p.CallID {
			t.Errorf("%s: span %d (%s) [%d,%d] call %d is not inside parent %d (%s) [%d,%d] call %d",
				path, s.ID, s.Name, s.StartNs, s.EndNs, s.CallID, p.ID, p.Name, p.StartNs, p.EndNs, p.CallID)
		}
	}
	if roots == 0 || roots == len(tf.Spans) {
		t.Errorf("%s: %d spans, %d roots: want calls with children", path, len(tf.Spans), roots)
	}
}

// smallRun runs one workload untraced for a fraction of a second through
// the command's own entry point and returns the exit code and the output.
func smallRun(t *testing.T, workload string, change func(*config)) (int, string) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := findWorkload(workload)
	if !ok {
		t.Fatalf("no workload %s", workload)
	}
	var out bytes.Buffer
	cfg := config{seed: 1, seconds: 0.3, outDir: t.TempDir(), out: &out}
	change(&cfg)
	return run([]workloadSpec{w}, 1, cfg, bf), out.String()
}

// A deliberately damaged answer makes the command fail.
func TestCorruptAnswerFailsTheRun(t *testing.T) {
	for _, w := range []string{"rank_cached", "mixed_durable", "ops_tcp"} {
		if code, out := smallRun(t, w, func(*config) {}); code != 0 {
			t.Fatalf("%s: clean run exits %d\n%s", w, code, out)
		}
		code, out := smallRun(t, w, func(cfg *config) { cfg.corrupt = true })
		if code == 0 {
			t.Errorf("%s: run with a corrupted answer exits 0\n%s", w, out)
		}
		if !strings.Contains(out, `"correct":false`) {
			t.Errorf("%s: result line of the corrupted run does not say correct=false", w)
		}
	}
}

// An undersized measured phase fails the run.
func TestUndersizedRunFails(t *testing.T) {
	code, out := smallRun(t, "rank_cached", func(cfg *config) { cfg.minReadCalls = minReadCalls })
	if code == 0 {
		t.Errorf("a 0.3 s phase cannot hold %d read calls, yet the run exits 0\n%s", minReadCalls, out)
	}
}

// A time measured while the yardstick beside it ran slow is scaled down
// by as much, and a rate up; with the yardstick at its nominal speed the
// numbers stay as measured.
func TestYardstickCorrection(t *testing.T) {
	n := yardstickNominal
	m := &rounds{yard: []time.Duration{n, n, 3 * n, 3 * n, n}}
	// Round 0 ran at nominal speed, round 1 between readings of n and 3n
	// (half speed), round 2 at a third, round 3 at half.
	times := []float64{10, 40, 90, 60}
	if got := m.corrected(times); got != 30 { // 10, 20, 30, 30
		t.Errorf("corrected median time = %v, want 30", got)
	}
	rates := []float64{1.0 / 10, 1.0 / 40, 1.0 / 90, 1.0 / 60}
	if got := m.correctedRate(rates); math.Abs(got-1.0/30) > 1e-12 {
		t.Errorf("corrected median rate = %v, want 1/30", got)
	}
}
