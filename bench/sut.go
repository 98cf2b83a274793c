package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/dcindex"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/index"
	"repro/internal/netrun"
	"repro/internal/telemetry"
)

// engine is the query surface every workload drives. core.Cluster and
// netrun.Cluster have it as is; dcindex.Index spells the rank call
// RankBatchInto, which libIndex renames.
type engine interface {
	LookupBatchInto(queries []Key, out []int) error
	InsertBatch(keys []Key) error
	CountRangeBatch(ranges []core.KeyRange, out []int) error
	MultiGetInto(keys []Key, out []int) error
	ScanRange(lo, hi Key, limit int, buf []Key) ([]Key, error)
	TopK(k int, buf []Key) ([]Key, error)
	Close()
}

type libIndex struct{ *dcindex.Index }

func (l libIndex) LookupBatchInto(q []Key, out []int) error { return l.RankBatchInto(q, out) }

// benchNode is one in-process TCP node.
type benchNode struct {
	node     *netrun.Node
	addr     string
	rankBase int
	tel      *telemetry.Registry // traced runs only
}

// sut is the system under test of one workload: the engine the callers
// drive plus the handles the traced run reads counters from.
type sut struct {
	engine
	keyCount func() int
	// In process only.
	runtime func() core.RealStats
	updates func() core.UpdateStats
	// Over TCP only.
	tcp    *netrun.Cluster
	nodes  []benchNode
	dialNs int64
	// Seams, traced runs only.
	conn *connCounts
	fs   *fsCounts

	stopNodes func()
}

func (s *sut) stop() {
	s.Close()
	if s.stopNodes != nil {
		s.stopNodes()
	}
}

// start brings up the system w describes over keys. dir is a fresh
// directory for WAL state. A traced run injects the counting seams and
// node-side telemetry; an untraced run leaves every hook nil, which is
// the path a user of the library gets.
func start(w workloadSpec, keys []Key, dir string, traced bool) (*sut, error) {
	s := &sut{}
	var walFS faultfs.FS
	if traced && w.durable {
		s.fs = &fsCounts{}
		walFS = countingFS{faultfs.OS, s.fs}
	}
	if !w.tcp() {
		if err := s.startInProcess(w, keys, dir, walFS); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := s.startNodes(w, keys, dir, walFS, traced); err != nil {
		return nil, err
	}
	opt := dcindex.TCPOptions{Replicas: w.replicas}
	if traced {
		s.conn = &connCounts{}
		opt.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, s.conn}, nil
		}
	}
	addrs := make([]string, len(s.nodes))
	for i, n := range s.nodes {
		addrs[i] = n.addr
	}
	t0 := time.Now()
	c, err := dcindex.DialClusterOptions(addrs, keys, opt)
	s.dialNs = int64(time.Since(t0))
	if err != nil {
		s.stopNodes()
		return nil, err
	}
	s.engine, s.tcp = c, c
	s.keyCount = func() int {
		n := len(keys)
		for _, ins := range c.Stats().InsertedKeys {
			n += int(ins)
		}
		return n
	}
	return s, nil
}

func (s *sut) startInProcess(w workloadSpec, keys []Key, dir string, walFS faultfs.FS) error {
	if walFS == nil {
		opt := dcindex.Options{Method: dcindex.MethodC3}
		if w.durable {
			opt.Durability = dcindex.DurabilityOptions{WALDir: dir, FsyncInterval: 0}
		}
		ix, err := dcindex.Open(keys, opt)
		if err != nil {
			return err
		}
		s.engine = libIndex{ix}
		s.keyCount = func() int { return ix.Stats().Keys }
		s.runtime = func() core.RealStats { return ix.Stats().Runtime }
		s.updates = func() core.UpdateStats { return ix.Stats().Updates }
		return nil
	}
	// dcindex.Options has no filesystem hook, so the traced durable run
	// builds the cluster the facade would build: the library defaults
	// plus the counting filesystem.
	cfg := core.DefaultRealConfig(core.MethodC3)
	cfg.WALDir, cfg.WALFS = dir, walFS
	c, err := core.NewCluster(keys, cfg)
	if err != nil {
		return err
	}
	s.engine, s.keyCount, s.runtime, s.updates = c, c.KeyCount, c.Stats, c.UpdateStats
	return nil
}

// startNodes serves every replica of every partition on its own
// loopback listener, in this process.
func (s *sut) startNodes(w workloadSpec, keys []Key, dir string, walFS faultfs.FS, traced bool) error {
	pt, err := core.NewPartitioning(keys, w.parts)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	s.stopNodes = func() {
		for _, n := range s.nodes {
			n.node.Close()
		}
		wg.Wait()
	}
	for p, part := range pt.Parts {
		for r := 0; r < w.replicas; r++ {
			bn := benchNode{rankBase: part.RankBase}
			if w.durable {
				nodeDir := filepath.Join(dir, fmt.Sprintf("p%dr%d", p, r))
				bn.node, err = netrun.NewDurablePartitionNode(part.Keys, part.RankBase, nodeDir, index.StoreOptions{FS: walFS})
				if err != nil {
					s.stopNodes()
					return err
				}
			} else {
				bn.node = netrun.NewPartitionNode(part.Keys, part.RankBase)
			}
			if traced {
				bn.tel = telemetry.NewRegistry()
				bn.node.Telemetry = bn.tel
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				bn.node.Close()
				s.stopNodes()
				return err
			}
			bn.addr = lis.Addr().String()
			s.nodes = append(s.nodes, bn)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = bn.node.Serve(lis) // returns when Close closes the listener
			}()
		}
	}
	return nil
}

// nodeLookup asks one node for the local ranks of words over conn, a
// connection of the harness's own: one request frame out, one reply
// frame back. A node answers OpLookup without a hello exchange.
func nodeLookup(conn net.Conn, words []uint32) ([]uint32, error) {
	if err := netrun.WriteFrame(conn, netrun.Frame{Op: netrun.OpLookup, ReqID: 1, Payload: words}); err != nil {
		return nil, err
	}
	f, err := netrun.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if f.Op != netrun.OpRanks || len(f.Payload) != len(words) {
		return nil, fmt.Errorf("node answered op %d with %d words to a %d-key lookup", f.Op, len(f.Payload), len(words))
	}
	return f.Payload, nil
}
