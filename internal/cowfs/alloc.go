package cowfs

// Block allocation and release. Free space is kept in the two-level index
// of freeindex.go: address-ordered free runs plus size-class buckets.
// Allocation is address-ordered first-fit from a caller-supplied hint,
// wrapping to the start of the device, answered in O(log n) probes.
// Copy-on-write means every overwrite allocates, so under a random-write
// workload the free list — and therefore file layout — fragments
// naturally, which is exactly the behaviour the defragmentation
// experiments need.
//
// The extent run is the unit of the whole block lifecycle: allocate hands
// out runs, extents release runs (derefRange), durability parks runs
// (deferredFree), and the index is told about each freed run once. That
// is a host-side economy only. The index is a canonical function of the
// set of free blocks — maximal, disjoint, non-adjacent runs, each filed
// under the class of its length — so freeing a run in one step leaves
// exactly the index that freeing its blocks one at a time would.

// run is a contiguous allocation.
type run struct {
	phys int64
	len  int64
}

// runBuf is a pooled buffer for allocate results. Callers hold one across
// the blocking cache operations that follow an allocation, so buffers are
// pooled (not a single FS scratch): several processes can be mid-write in
// virtual time at once.
type runBuf struct {
	runs []run
	next *runBuf
}

func (fs *FS) getRunBuf() *runBuf {
	b := fs.runBufs
	if b == nil {
		return &runBuf{}
	}
	fs.runBufs = b.next
	b.next = nil
	b.runs = b.runs[:0]
	return b
}

func (fs *FS) putRunBuf(b *runBuf) {
	b.next = fs.runBufs
	fs.runBufs = b
}

// insertFree returns [start, start+length) to the free index, merging with
// adjacent free runs.
func (fs *FS) insertFree(start, length int64) {
	if length <= 0 {
		return
	}
	// Merge with the left neighbour if it ends exactly at start.
	if ls, ll, ok := fs.free.runs.Floor(start); ok {
		if ls+ll == start {
			fs.free.remove(ls, ll)
			start, length = ls, ll+length
		}
	}
	// Merge with the right neighbour if it begins at our end.
	if rs, rl, ok := fs.free.runs.Ceiling(start + length); ok {
		if rs == start+length {
			fs.free.remove(rs, rl)
			length += rl
		}
	}
	fs.free.add(start, length)
	// freeBlocks is maintained by the callers (freeRun and allocate).
}

// carve removes [at, at+length) from the free run that contains it,
// splitting the run as needed.
func (fs *FS) carve(at, length int64) {
	s, l, ok := fs.free.runs.Floor(at)
	if !ok || at+length > s+l {
		panic("cowfs: carve outside free extent")
	}
	fs.free.remove(s, l)
	if s < at {
		fs.free.add(s, at-s)
	}
	if at+length < s+l {
		fs.free.add(at+length, s+l-(at+length))
	}
}

// allocate obtains n blocks, preferring space at or after hint — including
// the middle of a free run spanning the hint, so a caller can place data
// at a chosen device location. When no single free run can hold n blocks,
// the allocation splits across multiple runs (producing a fragmented
// file). Results are appended to buf, which the caller typically takes
// from the run-buffer pool (getRunBuf); the appended slice is returned.
// Returns ErrNoSpace if fewer than n blocks are free in total.
func (fs *FS) allocate(n, hint int64, buf []run) ([]run, error) {
	if n <= 0 {
		return buf, nil
	}
	if n > fs.freeBlocks {
		return buf, ErrNoSpace
	}
	remaining := n
	for remaining > 0 {
		at, avail, ok := fs.findSpace(remaining, hint)
		length := remaining
		if !ok {
			// No run holds the remainder in one piece: take what is
			// available nearest the hint and keep going.
			at, avail, ok = fs.anySpace(hint)
			if !ok {
				return buf, ErrNoSpace // unreachable given freeBlocks check
			}
			if avail < length {
				length = avail
			}
		}
		fs.carve(at, length)
		fs.freeBlocks -= length
		buf = append(buf, run{phys: at, len: length})
		for b := at; b < at+length; b++ {
			fs.refs[b] = 1
		}
		remaining -= length
		hint = at + length
	}
	return buf, nil
}

// findSpace locates space for n blocks at or after hint: first inside the
// free run spanning the hint, then the lowest-addressed later run that
// fits, wrapping to the device start if needed. Returns the allocation
// position and the contiguous space available there.
func (fs *FS) findSpace(n, hint int64) (at, avail int64, ok bool) {
	if s, l, found := fs.free.runs.Floor(hint); found && s+l > hint && s+l-hint >= n {
		return hint, s + l - hint, true
	}
	if at, avail, found := fs.free.findFit(n, hint, int64(1)<<62); found {
		return at, avail, true
	}
	if hint > 0 {
		if at, avail, found := fs.free.findFit(n, 0, hint); found {
			return at, avail, true
		}
	}
	return 0, 0, false
}

// anySpace returns the free space nearest at/after hint (inside a spanning
// run, at a following run, or wrapping to the lowest run).
func (fs *FS) anySpace(hint int64) (at, avail int64, ok bool) {
	if s, l, found := fs.free.runs.Floor(hint); found && s+l > hint {
		return hint, s + l - hint, true
	}
	if s, l, found := fs.free.runs.Ceiling(hint); found {
		return s, l, true
	}
	if s, l, found := fs.free.runs.Min(); found {
		return s, l, true
	}
	return 0, 0, false
}

// ref increments a block's reference count (snapshot sharing).
func (fs *FS) ref(b int64) { fs.refs[b]++ }

// derefRange drops one reference from each of the n blocks starting at
// phys and releases every maximal sub-run whose count reached zero in one
// step. It returns how many of the blocks were shared (referenced more
// than once before the call), which is what a copy-on-write overwrite
// reports as re-allocation away from a snapshot.
func (fs *FS) derefRange(phys, n int64) (shared int64) {
	refs := fs.refs[phys : phys+n]
	zero := int64(-1) // start of the zero-ref run being gathered, or -1
	for k := range refs {
		refs[k]--
		if refs[k] == 0 {
			if zero < 0 {
				zero = int64(k)
			}
			continue
		}
		if refs[k] < 0 {
			panic("cowfs: negative block refcount")
		}
		shared++
		if zero >= 0 {
			fs.release(phys+zero, int64(k)-zero)
			zero = -1
		}
	}
	if zero >= 0 {
		fs.release(phys+zero, n-zero)
	}
	return shared
}

// release disposes of a run whose reference counts reached zero. With
// durability enabled the free is deferred to the next commit instead: the
// last checkpoint may still reference the blocks, so handing them to the
// allocator before the checkpoint moves on would let an overwrite destroy
// committed data (see durable.go).
func (fs *FS) release(start, n int64) {
	if fs.durable != nil {
		fs.deferredFree = append(fs.deferredFree, blkRange{phys: start, n: n})
		fs.deferredBlocks += n
		fs.deferredRuns++
		return
	}
	fs.freeRun(start, n)
}

// freeRun returns a zero-ref run to the allocator, dropping its per-block
// metadata (checksum, reverse map, corruption marker).
func (fs *FS) freeRun(start, n int64) {
	clear(fs.want[start : start+n])
	clear(fs.rev[start : start+n])
	fs.corrupt.UnsetRange(uint64(start), uint64(start+n))
	fs.insertFree(start, n)
	fs.freeBlocks += n
}

// Allocated reports whether block b is referenced by any file or snapshot.
func (fs *FS) Allocated(b int64) bool {
	return b >= 0 && b < int64(len(fs.refs)) && fs.refs[b] > 0
}

// AllocatedBlocks returns the total number of referenced blocks.
func (fs *FS) AllocatedBlocks() int64 { return fs.disk.Blocks() - fs.freeBlocks }

// NextAllocated returns the first allocated block >= from, scanning the
// reference-count table (the scrubber's sequential pass uses this).
func (fs *FS) NextAllocated(from int64) (int64, bool) {
	for b := from; b < int64(len(fs.refs)); b++ {
		if fs.refs[b] > 0 {
			return b, true
		}
	}
	return 0, false
}
