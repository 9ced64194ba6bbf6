package cowfs

import (
	"cmp"
	"fmt"
	"slices"
)

// CheckInvariants is a debug walk over the filesystem's accounting
// structures. It cross-checks three independent views of every device
// block — the inode extent maps (live trees and snapshots), the per-block
// reference counts, and the two-level free-space index — so a leaked,
// double-freed, or double-allocated block cannot hide. Tests call it
// after mutating sequences; it is O(blocks + extents) and allocates, so
// it must never run on a simulation hot path.
func (fs *FS) CheckInvariants() error {
	nb := fs.disk.Blocks()
	want := make([]int32, nb)

	// Pass 1: accumulate expected refcounts from every inode's extents,
	// checking per-inode extent invariants along the way.
	for ino, i := range fs.inodes {
		if i.Dir {
			if len(i.Extents) != 0 {
				return fmt.Errorf("cowfs: directory inode %d has extents", ino)
			}
			continue
		}
		prevEnd := int64(-1)
		for k, e := range i.Extents {
			if e.Len <= 0 {
				return fmt.Errorf("cowfs: inode %d extent %d has non-positive length %d", ino, k, e.Len)
			}
			if e.Logical < prevEnd {
				return fmt.Errorf("cowfs: inode %d extent %d overlaps or is unsorted (logical %d, previous end %d)",
					ino, k, e.Logical, prevEnd)
			}
			prevEnd = e.Logical + e.Len
			if e.Phys < 0 || e.Phys+e.Len > nb {
				return fmt.Errorf("cowfs: inode %d extent %d outside device: phys [%d, %d)", ino, k, e.Phys, e.Phys+e.Len)
			}
			for b := e.Phys; b < e.Phys+e.Len; b++ {
				want[b]++
			}
		}
		if prevEnd > i.SizePg {
			return fmt.Errorf("cowfs: inode %d extents extend to page %d beyond size %d", ino, prevEnd, i.SizePg)
		}
	}

	// Pass 2: refcounts must match the extent walk exactly — a higher
	// stored count is a leak, a lower one a double-free in waiting.
	for b := int64(0); b < nb; b++ {
		if int32(fs.refs[b]) != want[b] {
			return fmt.Errorf("cowfs: block %d refcount %d, but %d extent references found", b, fs.refs[b], want[b])
		}
	}

	// Pass 3: the free index must cover exactly the zero-ref blocks, with
	// merged (non-adjacent) runs each filed under its size class.
	var freeTotal int64
	prevEnd := int64(-1)
	bad := error(nil)
	fs.free.runs.Ascend(nil, func(s, l int64) bool {
		if l <= 0 {
			bad = fmt.Errorf("cowfs: free run [%d, %d) has non-positive length", s, s+l)
			return false
		}
		if s <= prevEnd {
			bad = fmt.Errorf("cowfs: free run at %d overlaps or touches previous run ending at %d (unmerged)", s, prevEnd)
			return false
		}
		if s+l > nb {
			bad = fmt.Errorf("cowfs: free run [%d, %d) outside device", s, s+l)
			return false
		}
		for b := s; b < s+l; b++ {
			if fs.refs[b] != 0 {
				bad = fmt.Errorf("cowfs: block %d is free-listed but has refcount %d", b, fs.refs[b])
				return false
			}
		}
		if !fs.free.buckets[sizeClass(l)].Test(uint64(s)) {
			bad = fmt.Errorf("cowfs: free run [%d, %d) missing from size-class bucket %d", s, s+l, sizeClass(l))
			return false
		}
		freeTotal += l
		prevEnd = s + l - 1
		return true
	})
	if bad != nil {
		return bad
	}
	if freeTotal != fs.freeBlocks {
		return fmt.Errorf("cowfs: free runs hold %d blocks but freeBlocks is %d", freeTotal, fs.freeBlocks)
	}
	// Deferred frees (durability mode) are zero-ref runs deliberately
	// withheld from the index: they must be disjoint, unreferenced, and not
	// also free-listed, and their recorded total must be their length.
	deferred := slices.Clone(fs.deferredFree)
	slices.SortFunc(deferred, func(a, b blkRange) int { return cmp.Compare(a.phys, b.phys) })
	var deferredTotal int64
	end := int64(0) // end of the previous deferred run
	for _, r := range deferred {
		if r.n <= 0 || r.phys < 0 || r.phys+r.n > nb {
			return fmt.Errorf("cowfs: deferred-free run [%d, %d) is empty or outside the device", r.phys, r.phys+r.n)
		}
		if r.phys < end {
			return fmt.Errorf("cowfs: deferred-free run [%d, %d) overlaps one ending at %d (deferred twice)", r.phys, r.phys+r.n, end)
		}
		end = r.phys + r.n
		for b := r.phys; b < end; b++ {
			if fs.refs[b] != 0 {
				return fmt.Errorf("cowfs: deferred-free block %d has refcount %d", b, fs.refs[b])
			}
		}
		// The free run at or below the last block is the only one that
		// could reach into [phys, phys+n).
		if s, l, ok := fs.free.runs.Floor(end - 1); ok && s+l > r.phys {
			return fmt.Errorf("cowfs: deferred-free run [%d, %d) overlaps free run [%d, %d)", r.phys, end, s, s+l)
		}
		deferredTotal += r.n
	}
	if deferredTotal != fs.deferredBlocks {
		return fmt.Errorf("cowfs: deferred runs hold %d blocks but deferredBlocks is %d", deferredTotal, fs.deferredBlocks)
	}
	var zeroRef int64
	for b := int64(0); b < nb; b++ {
		if fs.refs[b] == 0 {
			zeroRef++
		}
	}
	if zeroRef != freeTotal+deferredTotal {
		return fmt.Errorf("cowfs: %d blocks have refcount 0 but free runs hold %d and %d are deferred (leak or double-free)",
			zeroRef, freeTotal, deferredTotal)
	}

	// Pass 4: no stale size-class bucket entries — every bucket bit must
	// correspond to a live run of that class.
	var bucketRuns int
	for c, bkt := range fs.free.buckets {
		c := c
		bucketRuns += int(bkt.Count())
		bkt.IterateSet(func(s uint64) bool {
			l, ok := fs.free.runs.Get(int64(s))
			if !ok {
				bad = fmt.Errorf("cowfs: bucket %d holds start %d with no matching free run", c, s)
				return false
			}
			if sizeClass(l) != c {
				bad = fmt.Errorf("cowfs: run [%d, %d) filed under class %d, expected %d", s, int64(s)+l, c, sizeClass(l))
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	if bucketRuns != fs.free.runs.Len() {
		return fmt.Errorf("cowfs: %d bucket entries for %d free runs", bucketRuns, fs.free.runs.Len())
	}
	return nil
}
