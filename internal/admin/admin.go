// Package admin is the operations-plane HTTP surface: a small,
// dependency-free server that exposes a process's telemetry registry
// in Prometheus text format (/metrics), the unified Stats tree as JSON
// (/stats), a liveness probe (/health), the served indexes
// (/indexes), the runtime's profiles (/debug/pprof/, the stdlib
// net/http/pprof handlers: CPU, heap, goroutine, block, mutex, trace),
// and — when the process can reshape a live cluster — the membership
// verbs (POST /membership/add-replica, drain-replica, split-partition).
//
// The package deliberately knows nothing about netrun or dcindex: the
// host wires callbacks in through Config, so both a dcnode (one
// partition, no membership authority) and a dcq master (whole-cluster
// stats, membership verbs) mount the same handler. Everything is
// stdlib net/http; there is no auth — bind the admin listener to a
// loopback or operator network: whoever reaches it can reshape the
// cluster, and can make the process spend CPU on a profile and read its
// command line and heap contents out of one.
package admin

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/telemetry"
)

// IndexInfo describes one index (or partition of one) served by the
// process, as listed by GET /indexes.
type IndexInfo struct {
	Name      string `json:"name"`
	Partition int    `json:"partition"`
	Keys      int64  `json:"keys"`
	RankBase  int64  `json:"rank_base"`
	Mode      string `json:"mode"`
}

// Membership is the live-reshape hook behind POST /membership/...:
// implemented by the netrun cluster client. Every method blocks until
// the operation has fully taken effect (or failed); errors surface to
// the HTTP caller verbatim.
type Membership interface {
	// AddReplica admits addr as a new replica of partition part,
	// catching it up from a sibling before it serves reads.
	AddReplica(part int, addr string) error
	// DrainReplica removes addr from partition part's replica group
	// after quiescing it. The last replica of a partition cannot be
	// drained.
	DrainReplica(part int, addr string) error
	// SplitPartition splits partition part at its median key into two
	// partitions, dividing the replica group between the halves.
	SplitPartition(part int) error
}

// Config wires a process's observable surfaces into the handler. Any
// nil field disables its endpoint (404 for data endpoints, 501 for
// membership).
type Config struct {
	// Registry backs GET /metrics.
	Registry *telemetry.Registry
	// BeforeScrape, when set, runs before each /metrics render so the
	// host can refresh gauges that are computed rather than counted
	// (live replica counts, key totals).
	BeforeScrape func(*telemetry.Registry)
	// Stats returns the unified Stats tree for GET /stats. The value
	// is rendered as JSON verbatim.
	Stats func() any
	// Health returns process liveness for GET /health: ok selects the
	// status code (200/503), detail is rendered as JSON.
	Health func() (ok bool, detail any)
	// Indexes returns the served index list for GET /indexes.
	Indexes func() []IndexInfo
	// Membership enables the POST /membership/... verbs.
	Membership Membership
}

// membershipRequest is the JSON body of every membership verb.
type membershipRequest struct {
	Partition int    `json:"partition"`
	Addr      string `json:"addr"`
}

// Handler builds the admin endpoint mux for cfg.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Registry == nil {
			http.NotFound(w, r)
			return
		}
		if cfg.BeforeScrape != nil {
			cfg.BeforeScrape(cfg.Registry)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
	})

	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Stats == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, http.StatusOK, cfg.Stats())
	})

	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Health == nil {
			writeJSON(w, http.StatusOK, map[string]any{"ok": true})
			return
		}
		ok, detail := cfg.Health()
		code := http.StatusOK
		if !ok {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]any{"ok": ok, "detail": detail})
	})

	mux.HandleFunc("/indexes", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Indexes == nil {
			http.NotFound(w, r)
			return
		}
		list := cfg.Indexes()
		if list == nil {
			list = []IndexInfo{}
		}
		writeJSON(w, http.StatusOK, list)
	})

	mux.HandleFunc("/membership/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, errors.New("membership verbs are POST-only"))
			return
		}
		if cfg.Membership == nil {
			writeError(w, http.StatusNotImplemented,
				errors.New("this process has no membership authority (start the cluster client with an admin config)"))
			return
		}
		verb := strings.TrimPrefix(r.URL.Path, "/membership/")
		var req membershipRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body (want JSON {\"partition\": N, \"addr\": \"host:port\"}): %w", err))
			return
		}
		var err error
		switch verb {
		case "add-replica":
			err = cfg.Membership.AddReplica(req.Partition, req.Addr)
		case "drain-replica":
			err = cfg.Membership.DrainReplica(req.Partition, req.Addr)
		case "split-partition":
			err = cfg.Membership.SplitPartition(req.Partition)
		default:
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown membership verb %q (want add-replica, drain-replica, split-partition)", verb))
			return
		}
		if err != nil {
			// Conflict, not server error: the cluster refused the
			// reshape (one replica to split in two, last replica,
			// unsplittable partition) and says why.
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "verb": verb, "partition": req.Partition, "addr": req.Addr})
	})

	// pprof.Index serves the named runtime profiles (heap, goroutine,
	// block, mutex, allocs, threadcreate) beneath its own path.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"ok": false, "error": err.Error()})
}

// Server is a running admin endpoint. Close stops it.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Serve binds addr (":0" picks a free port) and serves the admin
// handler in the background. The returned server reports its bound
// address via Addr.
func Serve(addr string, cfg Config) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	s := &Server{lis: lis, srv: &http.Server{Handler: Handler(cfg)}}
	go s.srv.Serve(lis)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }
