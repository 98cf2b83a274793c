package index

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/workload"
)

// rankInto is a positions form under test: out[pos[i]] (out[i] when pos
// is nil) gets qs[i]'s answer, written or added.
type rankInto func(qs []workload.Key, pos []int32, out []int)

// filler is what out holds at slot j before a call: distinct per slot, so
// a write to the wrong slot, or one added to the wrong base, shows.
func filler(j int) int { return -7*j - 3 }

// checkRankInto holds into(qs, pos, out) to into(qs, nil, out): under a
// random injection pos of qs's positions into an out twice as long, each
// slot pos[i] must end as slot i of the nil-pos call does when both start
// from the same filler there, and every slot that is not in pos must keep
// its filler. It checks the whole batch and cuts of every tail length
// around a lane group.
func checkRankInto(qs []workload.Key, seed uint64, into rankInto) error {
	r := workload.NewRNG(seed)
	lengths := []int{len(qs)}
	for _, n := range []int{0, 1, lanes - 1, lanes, lanes + 1, 2*lanes + 3} {
		if n < len(qs) {
			lengths = append(lengths, n)
		}
	}
	for _, n := range lengths {
		qs := qs[:n]
		slots := make([]int32, 2*n+1)
		for j := range slots {
			slots[j] = int32(j)
		}
		for j := len(slots) - 1; j > 0; j-- {
			k := r.Intn(j + 1)
			slots[j], slots[k] = slots[k], slots[j]
		}
		pos := slots[:n]
		want := make([]int, n)
		for i, p := range pos {
			want[i] = filler(int(p))
		}
		into(qs, nil, want)
		out := make([]int, len(slots))
		for j := range out {
			out[j] = filler(j)
		}
		into(qs, pos, out)
		in := make([]bool, len(out))
		for i, p := range pos {
			in[p] = true
			if out[p] != want[i] {
				return fmt.Errorf("batch of %d: query %d (%d) at slot %d = %d, the nil-pos form gives %d", n, i, qs[i], p, out[p], want[i])
			}
		}
		for j, v := range out {
			if !in[j] && v != filler(j) {
				return fmt.Errorf("batch of %d: slot %d, in no position, was written (%d)", n, j, v)
			}
		}
	}
	return nil
}

// rankIntoQueries is the query sets the positions forms are held on, for a
// base of keys: uniform draws, squared draws (skewed towards zero), a few
// of the base's keys repeated, and keys outside the base's range (below
// its first key and above its last, where the table's edge buckets are).
func rankIntoQueries(keys []workload.Key) map[string][]workload.Key {
	r := workload.NewRNG(uint64(len(keys)) + 11)
	const n = 3000
	sets := map[string][]workload.Key{}
	for _, name := range []string{"uniform", "skewed", "duplicate-heavy", "outside"} {
		qs := make([]workload.Key, n)
		for i := range qs {
			k := r.Key()
			switch name {
			case "skewed":
				k = workload.Key(uint64(k) * uint64(k) >> 32)
			case "duplicate-heavy":
				if len(keys) > 0 {
					k = keys[r.Intn(len(keys))/max(len(keys)/5, 1)*max(len(keys)/5, 1)]
				}
			case "outside":
				if len(keys) > 0 && i%2 == 0 {
					k = keys[0] - min(keys[0], k%64)
				} else if len(keys) > 0 {
					k = keys[len(keys)-1] + min(maxKey-keys[len(keys)-1], k%64)
				}
			}
			qs[i] = k
		}
		sets[name] = qs
	}
	return sets
}

// rankIntoBases is the base key sets: uniform, skewed, a long run of one
// key, two far clusters.
func rankIntoBases() map[string][]workload.Key {
	sets := adversarialKeySets()
	bases := map[string][]workload.Key{
		"uniform":            workload.SortedKeys(40960, 4),
		"long-duplicate-run": sets["long-duplicate-run"],
		"two-clusters":       sets["two-clusters"],
	}
	skewed := workload.SortedKeys(40960, 5)
	for i, k := range skewed {
		skewed[i] = workload.Key(uint64(k) * uint64(k) >> 32)
	}
	bases["skewed"] = skewed
	return bases
}

// TestRankIntoPositions holds every positions form of the rank kernels to
// its nil-pos form: SortedArray.RankInto, Delta.RankAdd on a buffer on its
// base's grid and on a stale one, and Updatable.RankInto clean, dirty
// (an active buffer) and with a frozen buffer beside the active one, over
// an array base and a tree base.
func TestRankIntoPositions(t *testing.T) {
	const add = 1000003
	for bname, keys := range rankIntoBases() {
		a := NewSortedArray(keys, 0)
		r := workload.NewRNG(7)
		ins := make([]workload.Key, 2000)
		for i := range ins {
			ins[i] = keys[r.Intn(len(keys))] + workload.Key(r.Intn(3))
		}
		sortedIns := slices.Sorted(slices.Values(ins))
		stale := NewSortedArray(workload.SortedKeys(1024, 9), 0)
		forms := map[string]rankInto{
			"SortedArray": func(qs []workload.Key, pos []int32, out []int) { a.RankInto(qs, pos, out, add) },
			"Delta":       emptyDelta.insert(sortedIns, gridOf(a)).RankAdd,
			"Delta/stale": emptyDelta.insert(sortedIns, gridOf(stale)).RankAdd,
		}
		var releases []func()
		for _, build := range []struct {
			name string
			b    Builder
		}{
			{"array", BuildSortedArray},
			{"tree", func(keys []workload.Key) BatchRanker { return treeRanker{NewNaryTree(keys, 0)} }},
		} {
			clean := NewUpdatable(keys, build.b, 0)
			dirty := NewUpdatable(keys, build.b, 0)
			dirty.InsertBatch(ins)
			frozen, _, release := threeLayers(t, keys, build.b, ins[:1000], ins[1000:])
			releases = append(releases, release)
			for name, u := range map[string]*Updatable{"clean": clean, "dirty": dirty, "frozen": frozen} {
				forms["Updatable/"+build.name+"/"+name] = func(qs []workload.Key, pos []int32, out []int) { u.RankInto(qs, pos, out, add) }
			}
		}
		for qname, qs := range rankIntoQueries(keys) {
			for fname, into := range forms {
				if err := checkRankInto(qs, 3, into); err != nil {
					t.Errorf("%s base, %s queries, %s: %v", bname, qname, fname, err)
				}
			}
		}
		for _, release := range releases {
			release()
		}
	}
}
