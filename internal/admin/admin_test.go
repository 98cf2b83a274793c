package admin

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// statsTree mirrors the shape a host's unified Stats tree takes so the
// round-trip test exercises nested structs, slices, and counters.
type statsTree struct {
	SchemaVersion int            `json:"schema_version"`
	Partitions    int            `json:"partitions"`
	Keys          int64          `json:"keys"`
	Replicas      []replicaStats `json:"replicas"`
}

type replicaStats struct {
	Partition  int    `json:"partition"`
	Addr       string `json:"addr"`
	State      string `json:"state"`
	Dispatched int64  `json:"dispatched"`
}

func testHandler(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler(cfg))
	t.Cleanup(srv.Close)
	return srv
}

// The /metrics output must parse as Prometheus text exposition in the
// shape CI's scrape job asserts: TYPE lines, series with label sets,
// cumulative histogram buckets ending at +Inf, numeric sample values.
func TestMetricsScrapeParses(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("dc_client_inflight").Set(3)
	h := reg.Histogram(`dc_node_op_ns{op="lookup"}`)
	for i := 0; i < 50; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	scraped := 0
	srv := testHandler(t, Config{
		Registry:     reg,
		BeforeScrape: func(r *telemetry.Registry) { scraped++; r.Gauge("dc_live_replicas").Set(4) },
	})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if scraped != 1 {
		t.Fatalf("BeforeScrape ran %d times, want 1", scraped)
	}

	// Every non-comment line must be `series value` with a numeric
	// value — the minimal Prometheus text-format contract.
	types := map[string]string{}
	samples := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("non-numeric sample in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	if types["dc_client_inflight"] != "gauge" || samples["dc_client_inflight"] != 3 {
		t.Errorf("gauge series wrong: types=%v samples=%v", types["dc_client_inflight"], samples["dc_client_inflight"])
	}
	if types["dc_live_replicas"] != "gauge" || samples["dc_live_replicas"] != 4 {
		t.Errorf("BeforeScrape gauge missing: %v", samples["dc_live_replicas"])
	}
	if types["dc_node_op_ns"] != "histogram" {
		t.Errorf("histogram TYPE missing: %v", types)
	}
	if got := samples[`dc_node_op_ns_bucket{op="lookup",le="+Inf"}`]; got != 50 {
		t.Errorf("+Inf bucket = %d, want 50", got)
	}
	if got := samples[`dc_node_op_ns_count{op="lookup"}`]; got != 50 {
		t.Errorf("count = %d, want 50", got)
	}
}

// The /stats endpoint must round-trip the host's Go Stats struct
// through JSON without loss.
func TestStatsJSONRoundTrip(t *testing.T) {
	want := statsTree{
		SchemaVersion: 1,
		Partitions:    8,
		Keys:          327680,
		Replicas: []replicaStats{
			{Partition: 0, Addr: "127.0.0.1:7000", State: "healthy", Dispatched: 42},
			{Partition: 0, Addr: "127.0.0.1:7100", State: "drained", Dispatched: 17},
		},
	}
	srv := testHandler(t, Config{Stats: func() any { return want }})

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got statsTree
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != want.SchemaVersion || got.Partitions != want.Partitions ||
		got.Keys != want.Keys || len(got.Replicas) != len(want.Replicas) {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got, want)
	}
	for i := range want.Replicas {
		if got.Replicas[i] != want.Replicas[i] {
			t.Fatalf("replica %d mismatch: got %+v want %+v", i, got.Replicas[i], want.Replicas[i])
		}
	}
}

func TestHealthStatusCodes(t *testing.T) {
	ok := true
	srv := testHandler(t, Config{Health: func() (bool, any) { return ok, map[string]int{"replicas": 4} }})
	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status = %d", resp.StatusCode)
	}
	ok = false
	resp, err = http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy status = %d", resp.StatusCode)
	}
}

// A membership POST with no membership authority must say so (501),
// and a refused reshape must surface the cluster's own error text.
func TestMembershipErrors(t *testing.T) {
	srv := testHandler(t, Config{})
	resp, err := http.Post(srv.URL+"/membership/split-partition", "application/json",
		strings.NewReader(`{"partition":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("no-authority status = %d, want 501", resp.StatusCode)
	}

	refusal := errors.New("partition 1: replica 127.0.0.1:7100 speaks protocol v5; live membership needs v6")
	srv2 := testHandler(t, Config{Membership: membershipFuncs{split: func(part int) error { return refusal }}})
	resp2, err := http.Post(srv2.URL+"/membership/split-partition", "application/json",
		strings.NewReader(`{"partition":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("refusal status = %d, want 409", resp2.StatusCode)
	}
	var body struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.OK || !strings.Contains(body.Error, "protocol v5") || !strings.Contains(body.Error, "needs v6") {
		t.Fatalf("refusal body not descriptive: %+v", body)
	}

	// GET is rejected, unknown verbs are 404.
	respGet, err := http.Get(srv2.URL + "/membership/split-partition")
	if err != nil {
		t.Fatal(err)
	}
	respGet.Body.Close()
	if respGet.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", respGet.StatusCode)
	}
	respBad, err := http.Post(srv2.URL+"/membership/explode", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	respBad.Body.Close()
	if respBad.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown verb status = %d, want 404", respBad.StatusCode)
	}
}

func TestServeAndClose(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Config{Indexes: func() []IndexInfo {
		return []IndexInfo{{Name: "dcq", Partition: 2, Keys: 1000, Mode: "updatable"}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Partition != 2 || list[0].Keys != 1000 {
		t.Fatalf("indexes = %+v", list)
	}
}

// The stdlib profiling handlers answer beneath /debug/pprof/ on the same
// mux: the command line comes back verbatim, and a one-second CPU
// profile is a non-empty gzip stream (what `go tool pprof` fetches).
func TestPprofMounted(t *testing.T) {
	srv := testHandler(t, Config{})
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	if got := string(get("/debug/pprof/cmdline")); !strings.HasPrefix(got, os.Args[0]) {
		t.Errorf("cmdline = %q, want it to start with %q", got, os.Args[0])
	}
	if !strings.Contains(string(get("/debug/pprof/")), "goroutine") {
		t.Error("pprof index does not list the goroutine profile")
	}
	if prof := get("/debug/pprof/profile?seconds=1"); len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Errorf("CPU profile is %d bytes and not a gzip stream", len(prof))
	}
}

// membershipFuncs adapts bare funcs to the Membership interface.
type membershipFuncs struct {
	add   func(int, string) error
	drain func(int, string) error
	split func(int) error
}

func (m membershipFuncs) AddReplica(p int, a string) error   { return call2(m.add, p, a) }
func (m membershipFuncs) DrainReplica(p int, a string) error { return call2(m.drain, p, a) }
func (m membershipFuncs) SplitPartition(p int) error {
	if m.split == nil {
		return nil
	}
	return m.split(p)
}

func call2(f func(int, string) error, p int, a string) error {
	if f == nil {
		return nil
	}
	return f(p, a)
}
