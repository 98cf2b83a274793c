// Command dcnode runs one slave node of a TCP-distributed in-cache
// index: it owns one partition of the key set and serves rank lookups
// over the netrun wire protocol. Start one per machine (or port), then
// point a client at all of them:
//
//	dcnode -n 327680 -seed 1 -parts 4 -part 0 -listen :7000 &
//	dcnode -n 327680 -seed 1 -parts 4 -part 1 -listen :7001 &
//	dcnode -n 327680 -seed 1 -parts 4 -part 2 -listen :7002 &
//	dcnode -n 327680 -seed 1 -parts 4 -part 3 -listen :7003 &
//	dcq -connect localhost:7000,localhost:7001,localhost:7002,localhost:7003 -n 327680 -seed 1
//
// Every process regenerates the same key set from (n, seed), so the
// routing table and partitions agree by construction; the hello
// handshake re-verifies this at connect time. Real deployments index a
// concrete key set instead: write it once with dcindex.SaveKeys,
// distribute the file, and start every node and client with
// -keysfile index.dcx (which overrides -n/-seed).
//
// Replication is deployment-level: a replica is simply another dcnode
// serving the same -part on a different port or machine. Start R
// processes per partition and hand the client every replica, grouped
// per partition:
//
//	dcnode -n 327680 -seed 1 -parts 2 -part 0 -listen :7000 &
//	dcnode -n 327680 -seed 1 -parts 2 -part 0 -listen :7100 &   # replica
//	dcnode -n 327680 -seed 1 -parts 2 -part 1 -listen :7001 &
//	dcnode -n 327680 -seed 1 -parts 2 -part 1 -listen :7101 &   # replica
//	dcq -connect 'localhost:7000|localhost:7100,localhost:7001|localhost:7101' -n 327680 -seed 1
//
// The client round-robins each partition's batches across its healthy
// replicas, fails over in-flight batches when a replica dies, and
// re-admits it (after re-verifying the partition handshake) when the
// process comes back.
//
// Every node takes writes: a writing client fans Insert/InsertBatch out
// to every replica of the owning partition, the node buffers new keys in
// a delta layer merged in the background, and a replica that rejoins
// after dying is first reloaded from a sibling's snapshot so it cannot
// serve stale ranks.
//
// With -wal-dir the node is durable: every insert is
// appended to a write-ahead log and fsynced before it is acknowledged,
// frozen delta layers become immutable segment snapshots in the
// background (which retires the covered log files), and a restart
// recovers the newest intact segment plus the log tail — every acked
// insert survives kill -9. A rejoin after a crash then catches up from
// a sibling via the positioned delta (only the missed writes move)
// instead of a full snapshot. -fsync-interval 0 (the default) syncs as
// soon as the current group commit claims the log (batching concurrent
// acks into one fsync); a negative value disables fsync entirely (acks
// stop implying crash durability), and a positive one is refused.
//
// Nodes also serve the query ops beyond rank — range counts, ordered
// range scans, top-k, and key multiplicities — against their live
// partition (dcq -op count|scan|topk|multiget drives them). The node
// speaks protocol v7, in which every payload is words; an older peer is
// refused at the hello, by name.
//
// The operations plane adds two flags. -admin mounts the
// HTTP admin endpoint on the given address: GET /metrics serves the
// node's per-op service-time histograms (dc_node_op_ns{op=...}) in
// Prometheus text format, /stats and /indexes report the node's
// identity and live key count as JSON, /health is a liveness probe,
// and the membership verbs answer 501 — reshaping is the client's
// authority, POST to the dcq master's admin endpoint instead. -join
// starts the node unassigned: it loads the full key file but serves an
// empty partition until a client's AddReplica names the slice of
// the universe it should own — how a fresh machine joins a running
// cluster without restarting the epoch (-parts/-part are ignored).
//
// The -chaos-* flags turn a node into a deterministic gray failure for
// resilience drills: the node still computes correct answers, but its
// accepted connections are wrapped in a seeded faultnet profile that
// delays or stalls reply writes. Start one replica with -chaos-delay
// 50ms and drive the cluster with dcq -hedge to watch hedged reads and
// latency-scored ejection route around it:
//
//	dcnode -parts 2 -part 0 -listen :7000 -chaos-delay 50ms &
//	dcnode -parts 2 -part 0 -listen :7100 &
//	dcnode -parts 2 -part 1 -listen :7001 &
//	dcnode -parts 2 -part 1 -listen :7101 &
//	dcq -connect 'localhost:7000|localhost:7100,localhost:7001|localhost:7101' -hedge
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/dcindex"
	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/index"
	"repro/internal/netrun"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 327680, "total index key count (ignored with -keysfile)")
		seed     = flag.Uint64("seed", 1, "index key seed, must match the client (ignored with -keysfile)")
		keysfile = flag.String("keysfile", "", "load the key set from a dcindex snapshot instead of generating it")
		parts    = flag.Int("parts", 4, "total partition count")
		part     = flag.Int("part", 0, "this node's partition id (0-based)")
		listen   = flag.String("listen", ":7000", "listen address")
		walDir   = flag.String("wal-dir", "", "durable mode: per-partition WAL + segment directory (created if missing); acked inserts survive crashes")
		fsyncInt = flag.Duration("fsync-interval", 0, "with -wal-dir: 0 fsyncs the WAL on every group commit, negative never fsyncs; positive values are refused")
		adminAt  = flag.String("admin", "", "mount the HTTP admin/metrics endpoint on this address (e.g. 127.0.0.1:9100; empty disables)")
		join     = flag.Bool("join", false, "start unassigned: load the key file but serve an empty partition until a client's AddReplica assigns one (-parts/-part ignored)")

		chaosDelay  = flag.Duration("chaos-delay", 0, "chaos drill: delay every reply write by this much (seeded faultnet wrapper on every accepted connection)")
		chaosStall  = flag.Int("chaos-stall-after", 0, "chaos drill: stall each accepted connection at its Nth write — the hello ack is write 1, so 2 stalls the first reply (0 disarms)")
		chaosJitter = flag.Float64("chaos-jitter", 0, "chaos drill: scale injected delays by a seeded random factor in [1-j, 1+j]")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "chaos drill: faultnet profile seed (same seed, same misbehavior)")
	)
	flag.Parse()

	if !*join && (*part < 0 || *part >= *parts) {
		fmt.Fprintf(os.Stderr, "dcnode: -part %d out of range [0,%d)\n", *part, *parts)
		os.Exit(2)
	}
	if *join && *walDir != "" {
		fmt.Fprintln(os.Stderr, "dcnode: -join is incompatible with -wal-dir (a join node holds its assigned partition in memory, with no write-ahead log)")
		os.Exit(2)
	}
	var keys []workload.Key
	if *keysfile != "" {
		loaded, err := dcindex.LoadKeys(*keysfile)
		if err != nil {
			log.Fatalf("dcnode: %v", err)
		}
		keys = loaded
		log.Printf("dcnode: loaded %d keys from %s", len(keys), *keysfile)
	} else {
		keys = workload.SortedKeys(*n, *seed)
	}
	var node *netrun.Node
	switch {
	case *join:
		node = netrun.NewJoinNode(keys)
		log.Printf("dcnode: joinable over %d keys: serving unassigned until a client's AddReplica names a partition", len(keys))
	default:
		p, err := core.NewPartitioning(keys, *parts)
		if err != nil {
			log.Fatalf("dcnode: %v", err)
		}
		mine := p.Parts[*part]
		mode := fmt.Sprintf("updatable (v%d)", netrun.ProtoVersion)
		if *walDir != "" {
			mode = fmt.Sprintf("durable (v%d, WAL)", netrun.ProtoVersion)
		}
		log.Printf("dcnode: partition %d/%d: %d keys, rank base %d, %s",
			*part, *parts, len(mine.Keys), mine.RankBase, mode)
		if *walDir != "" {
			node, err = netrun.NewDurablePartitionNode(mine.Keys, mine.RankBase, *walDir, index.StoreOptions{
				FsyncInterval: *fsyncInt,
				Logf:          log.Printf,
			})
			if err != nil {
				log.Fatalf("dcnode: %v", err)
			}
			gen, _ := node.Position()
			log.Printf("dcnode: recovered durable state from %s: generation %d (%d logged inserts over the baseline)",
				*walDir, gen, gen)
		} else {
			node = netrun.NewPartitionNode(mine.Keys, mine.RankBase)
		}
	}
	if *adminAt != "" {
		node.Telemetry = telemetry.NewRegistry()
		srv, err := admin.Serve(*adminAt, nodeAdminConfig(node, *part, *join))
		if err != nil {
			log.Fatalf("dcnode: %v", err)
		}
		defer srv.Close()
		log.Printf("dcnode: admin endpoint on http://%s (/metrics /stats /health /indexes)", srv.Addr())
	}
	if *chaosDelay > 0 || *chaosStall > 0 {
		// Gray-failure drill: this node keeps serving correctly but
		// misbehaves at the transport, deterministically per seed. Point
		// a dcq -hedge client at the cluster to watch hedged reads and
		// ejection route around it.
		prof := faultnet.NewProfile(*chaosSeed)
		prof.Set(faultnet.Faults{
			WriteLatency:     *chaosDelay,
			Jitter:           *chaosJitter,
			StallAfterWrites: *chaosStall,
		})
		node.WrapConn = prof.Wrap
		log.Printf("dcnode: chaos drill armed: reply delay %v (jitter %.2f), stall after %d writes, seed %d",
			*chaosDelay, *chaosJitter, *chaosStall, *chaosSeed)
	}
	if err := netrun.ListenAndServeNode(*listen, node); err != nil {
		log.Fatalf("dcnode: %v", err)
	}
}

// nodeAdminConfig wires a single node's observable surfaces into the
// admin handler: the telemetry registry behind /metrics (with computed
// gauges refreshed per scrape), the NodeInfo snapshot behind /stats,
// /health, and /indexes. Membership stays nil — reshaping a cluster is
// the client's authority, so the node's verbs answer 501 with a
// pointer at the master.
func nodeAdminConfig(node *netrun.Node, part int, join bool) admin.Config {
	mode := func(info netrun.NodeInfo) string {
		switch {
		case !info.Assigned:
			return "joinable"
		case info.Durable:
			return "durable"
		}
		return "updatable"
	}
	return admin.Config{
		Registry: node.Telemetry,
		BeforeScrape: func(reg *telemetry.Registry) {
			info := node.Info()
			reg.Gauge("dc_node_keys").Set(int64(info.Keys))
			reg.Gauge("dc_node_rank_base").Set(int64(info.RankBase))
			assigned := int64(0)
			if info.Assigned {
				assigned = 1
			}
			reg.Gauge("dc_node_assigned").Set(assigned)
			reg.Gauge("dc_node_wal_generation").Set(int64(info.Generation))
		},
		Stats:  func() any { return node.Info() },
		Health: func() (bool, any) { return true, node.Info() },
		Indexes: func() []admin.IndexInfo {
			info := node.Info()
			pi := part
			if join {
				pi = -1 // unassigned: no partition id until AddReplica names one
			}
			return []admin.IndexInfo{{
				Name:      "partition",
				Partition: pi,
				Keys:      int64(info.Keys),
				RankBase:  int64(info.RankBase),
				Mode:      mode(info),
			}}
		},
	}
}
