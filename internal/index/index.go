// Package index implements the three index structures the paper
// compares, over 4-byte keys:
//
//   - SortedArray: the Method C-3 structure — a plain sorted array
//     searched with binary search.
//   - Tree with 4-key leaves: the Method A/B structure — an 8-ary search
//     tree whose 32-byte nodes fill exactly one Pentium III cache line
//     (7 separator keys + a first-child pointer in internal nodes; 4 keys
//     plus room for their associated words in leaves). With Table 1's
//     327,680 keys this yields exactly T = 7 levels and a ~3 MB arena,
//     matching the paper's setup.
//   - Tree with 7-key leaves: the CSB+ layout of Rao and Ross used by
//     Methods C-1/C-2 — identical internal nodes, but leaves are pure
//     key arrays (the CSB+ trick of storing only the first-child pointer
//     leaves all remaining words for keys). A 32,768-key slave partition
//     yields exactly 6 levels, matching Table 1's L = 6.
//
// Every structure answers Rank(k): the number of index keys <= k, which
// identifies the sub-range (and hence the responsible cluster node) for
// k. All implementations agree exactly with workload.ReferenceRank; the
// engines and the property tests rely on that.
//
// Structures live at caller-assigned virtual base addresses so that the
// cache simulator can model their residency; RankTrace reports the probe
// addresses of a lookup for trace-driven simulation.
package index

// Addr is a virtual byte address in a simulated node's address space —
// the type the cache simulator (internal/memsim) indexes by, declared
// here as well so that serving from an index links no simulator. A
// structure claims the arena starting at its Base and RankTrace records
// the addresses a lookup touches there; nothing ever dereferences one.
type Addr = uint64
