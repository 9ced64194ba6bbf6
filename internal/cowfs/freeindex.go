package cowfs

import (
	"math/bits"

	"duet/internal/bitmap"
	"duet/internal/rbtree"
)

// freeIndex is the two-level free-space index: address-ordered free runs
// in a red-black tree (start -> length, supporting the neighbour lookups
// merging and carving need) plus a size-bucketed lookup — one sparse
// bitmap of run starts per power-of-two length class, in the style of
// cubefs's bitmap allocators. A first-fit query probes at most one bit
// per class instead of walking the address-ordered list, so allocation
// is O(log n) in the number of free runs while returning exactly the
// run the address-ordered first-fit scan would have picked — the
// fragmentation dynamics the defragmentation experiments measure are
// unchanged.
//
// Invariants (checked by FS.CheckInvariants):
//   - runs are disjoint and never adjacent (insertFree merges);
//   - a run [s, s+l) appears in buckets[sizeClass(l)] under key s and in
//     no other bucket;
//   - the sum of run lengths equals FS.freeBlocks.
type freeIndex struct {
	runs    *rbtree.Tree[int64, int64] // start -> length
	buckets [64]*bitmap.Sparse         // sizeClass -> set of run starts
}

// sizeClass buckets run length l >= 1 as floor(log2(l)): class c holds
// lengths in [2^c, 2^(c+1)).
func sizeClass(l int64) int { return bits.Len64(uint64(l)) - 1 }

func newFreeIndex() *freeIndex {
	fi := &freeIndex{
		runs: rbtree.New[int64, int64](func(a, b int64) bool { return a < b }),
	}
	for c := range fi.buckets {
		fi.buckets[c] = bitmap.New()
	}
	return fi
}

// add records a free run. The caller guarantees it does not overlap or
// touch an existing run (FS.insertFree merges first).
func (fi *freeIndex) add(start, length int64) {
	fi.runs.Set(start, length)
	fi.buckets[sizeClass(length)].Set(uint64(start))
}

// remove drops the run that starts at start with the given length.
func (fi *freeIndex) remove(start, length int64) {
	fi.runs.Delete(start)
	fi.buckets[sizeClass(length)].Unset(uint64(start))
}

// findFit returns the lowest-addressed run with start in [lo, hi) and
// length >= n — the run address-ordered first-fit would choose. The
// address-ordered successor of lo is tried first: when it starts below hi
// and holds n blocks it is that run by definition, found in one tree
// descent (the usual case for one-block allocations into fragmented free
// space, as a cluster node's overwrites make). Otherwise classes above
// n's own are probed with a single NextSet each (any of their runs fits);
// within n's own class, shorter runs are skipped until the probe passes
// the best higher-class candidate.
func (fi *freeIndex) findFit(n, lo, hi int64) (at, avail int64, ok bool) {
	succ, sl, found := fi.runs.Ceiling(lo)
	if !found || succ >= hi {
		return 0, 0, false // no run starts in [lo, hi) at all
	}
	if sl >= n {
		return succ, sl, true
	}
	c0 := sizeClass(n)
	best := int64(-1)
	for c := c0 + 1; c < 64; c++ {
		b := fi.buckets[c]
		if b.Count() == 0 {
			continue
		}
		if s, found := b.NextSet(uint64(lo)); found && int64(s) < hi && (best < 0 || int64(s) < best) {
			best = int64(s)
		}
	}
	if b := fi.buckets[c0]; b.Count() > 0 {
		s, found := b.NextSet(uint64(lo))
		for found && int64(s) < hi && (best < 0 || int64(s) < best) {
			if l, _ := fi.runs.Get(int64(s)); l >= n {
				best = int64(s)
				break
			}
			s, found = b.NextSet(s + 1)
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	l, _ := fi.runs.Get(best)
	return best, l, true
}

// FreeBucketStat describes one size class of the free-space index.
type FreeBucketStat struct {
	Class  int   // runs of length in [2^Class, 2^(Class+1))
	Runs   int   // number of free runs in the class
	Blocks int64 // total free blocks held by those runs
}

// FreeSpaceBuckets returns the occupancy of every non-empty size class,
// in ascending class order (cmd/fsinspect renders this so layout
// regressions show up without a full experiment run).
func (fs *FS) FreeSpaceBuckets() []FreeBucketStat {
	var out []FreeBucketStat
	for c, b := range fs.free.buckets {
		if b.Count() == 0 {
			continue
		}
		st := FreeBucketStat{Class: c, Runs: int(b.Count())}
		b.IterateSet(func(s uint64) bool {
			l, _ := fs.free.runs.Get(int64(s))
			st.Blocks += l
			return true
		})
		out = append(out, st)
	}
	return out
}

// FreeRuns returns the number of free runs (extents) in the index.
func (fs *FS) FreeRuns() int { return fs.free.runs.Len() }
