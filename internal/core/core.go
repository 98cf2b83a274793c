// Package core is the serving engine: the paper's five query-processing
// methods (Section 3) as one concurrent runtime on the host — goroutine
// nodes, a channel interconnect, the caller as master — that returns
// actual lookup results. A cluster is an epoch of partitions and a pool
// of workers: the distributed in-cache index (Method C) gives every
// worker its own sub-range, the replicated baselines it is evaluated
// against (Methods A and B) keep one partition that all the workers
// read. On top of that one shape sit the master's dispatch pipeline
// (real.go), the range, scan, top-k and multi-get ops (query.go), online
// inserts with background compaction and rebalancing (update.go) and the
// durable cluster store (durable.go). Every method returns bit-identical
// ranks; only performance differs.
//
// The trace-driven simulated engines that reproduce the paper's Figure 3
// and Tables 2-3 live beside this package, in internal/paper, and import
// it for Method and Partitioning; nothing here links a simulator
// (scripts/lint.sh fails if internal/des, netsim, memsim, arch, stats or
// tab appear in this package's import graph).
package core
