package cowfs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Data path: reads and writes in pages, flowing through the page cache.
//
// Writes are copy-on-write: the covered logical range is carved out of the
// existing extents (dereferencing the old blocks), fresh blocks are
// allocated, and the cache pages are dirtied; the flusher writes them to
// the already-assigned blocks later. Reads check the cache first and issue
// device reads for misses, verifying the per-block checksum — which is why
// a foreground read lets the opportunistic scrubber skip the block. The
// stored checksum is the version the medium should hold (blocks.want).

func (fs *FS) pageKey(ino Ino, idx int64) pagecache.PageKey {
	return pagecache.PageKey{FS: fs.id, Ino: uint64(ino), Index: uint64(idx)}
}

// miss is a read-path staging record: a page that needs a device read,
// and the version its block was expected to hold when it was staged.
type miss struct {
	idx, block int64
	want       uint32
}

// missBuf is a pooled staging buffer for ReadCount: the misses, and the
// versions of a run of them on their way into the cache.
type missBuf struct {
	m    []miss
	vers []uint64
	next *missBuf
}

func (fs *FS) getMissBuf() *missBuf {
	b := fs.missBufs
	if b == nil {
		return &missBuf{}
	}
	fs.missBufs = b.next
	b.next = nil
	b.m = b.m[:0]
	return b
}

func (fs *FS) putMissBuf(b *missBuf) {
	b.next = fs.missBufs
	fs.missBufs = b
}

// wb is a writeback staging record: one dirty page and its target block.
// pos remembers the record's position in the caller's index slice
// (staging order), so the persisted prefix can be computed after the
// records are re-sorted by block for coalescing. ok marks records whose
// device write completed (including the persisted prefix of a torn
// write).
type wb struct {
	idx   int64
	block int64
	ver   uint32
	pos   int
	ok    bool
}

// wbBuf is a pooled staging buffer for WritebackPages.
type wbBuf struct {
	w    []wb
	next *wbBuf
}

func (fs *FS) getWbBuf() *wbBuf {
	b := fs.wbBufs
	if b == nil {
		return &wbBuf{}
	}
	fs.wbBufs = b.next
	b.next = nil
	b.w = b.w[:0]
	return b
}

func (fs *FS) putWbBuf(b *wbBuf) {
	b.next = fs.wbBufs
	fs.wbBufs = b
}

// extentAt returns the position of the extent that covers exactly the
// logical range [off, off+n), if there is one.
func extentAt(exts []Extent, off, n int64) (int, bool) {
	k := sort.Search(len(exts), func(k int) bool { return exts[k].Logical >= off })
	return k, k < len(exts) && exts[k].Logical == off && exts[k].Len == n
}

// findExtent returns the extent covering logical page idx, if any.
func findExtent(exts []Extent, idx int64) (Extent, bool) {
	lo, hi := 0, len(exts)
	for lo < hi {
		mid := (lo + hi) / 2
		e := exts[mid]
		switch {
		case idx < e.Logical:
			hi = mid
		case idx >= e.Logical+e.Len:
			lo = mid + 1
		default:
			return e, true
		}
	}
	return Extent{}, false
}

// Fibmap translates a file page to its device block, like the FIBMAP
// ioctl (§4.2). ok is false for holes. Page events arrive in per-file
// runs — interleaved, as every miss reports the evicted page of one file
// and the added page of another — so recently resolved inodes are kept
// in a small direct-mapped memo (deleteInode drops its entry) and a run
// costs one map lookup.
func (fs *FS) Fibmap(ino Ino, idx int64) (int64, bool) {
	i, ok := fs.inode(ino)
	if !ok {
		return 0, false
	}
	return fibmapIn(i, idx)
}

// FibmapRun is Fibmap for the pages [idx, idx+n): the block of page idx
// and how many of the pages, from idx to the end of its extent, map to
// the blocks from it (0 for a hole).
func (fs *FS) FibmapRun(ino Ino, idx, n int64) (int64, int64) {
	i, ok := fs.inode(ino)
	if !ok {
		return 0, 0
	}
	e, ok := findExtent(i.Extents, idx)
	if !ok {
		return 0, 0
	}
	return e.Phys + (idx - e.Logical), min(n, e.Logical+e.Len-idx)
}

// inode returns inode ino through the lookup memo.
func (fs *FS) inode(ino Ino) (*Inode, bool) {
	memo := &fs.inodeMemo[ino%Ino(len(fs.inodeMemo))]
	if i := *memo; i != nil && i.Ino == ino {
		return i, true
	}
	i, exists := fs.inodes[ino]
	if !exists {
		return nil, false
	}
	*memo = i
	return i, true
}

// fibmapIn is Fibmap for callers that already hold the inode.
// Directories have no extents, so every page of one is a hole.
func fibmapIn(i *Inode, idx int64) (int64, bool) {
	e, ok := findExtent(i.Extents, idx)
	if !ok {
		return 0, false
	}
	return e.Phys + (idx - e.Logical), true
}

// blkRange is a run of physical blocks released by an extent splice.
type blkRange struct {
	phys int64
	n    int64
}

// spliceExtents removes logical range [lo, hi) from exts in place: the
// overlapped extents are replaced by at most two boundary fragments and
// the tail is shifted down, so the slice's backing array is reused (it
// grows only in the one case where a single extent splits into two
// fragments). Released physical ranges are appended to freed in ascending
// extent order. The function is pure over its inputs — no FS state — so
// the fuzz and property tests can drive it against a reference model.
func spliceExtents(exts []Extent, lo, hi int64, freed []blkRange) ([]Extent, []blkRange) {
	if lo >= hi || len(exts) == 0 {
		return exts, freed
	}
	// a: first extent ending after lo; b: first extent starting at/after hi.
	// [a, b) is the contiguous overlapped range (extents are Logical-sorted).
	a := sort.Search(len(exts), func(k int) bool { return exts[k].Logical+exts[k].Len > lo })
	b := sort.Search(len(exts), func(k int) bool { return exts[k].Logical >= hi })
	if a >= b {
		return exts, freed
	}
	var left, right Extent
	hasLeft, hasRight := false, false
	if e := exts[a]; e.Logical < lo {
		left = Extent{Logical: e.Logical, Phys: e.Phys, Len: lo - e.Logical, Gen: e.Gen}
		hasLeft = true
	}
	if e := exts[b-1]; e.Logical+e.Len > hi {
		right = Extent{Logical: hi, Phys: e.Phys + (hi - e.Logical), Len: e.Logical + e.Len - hi, Gen: e.Gen}
		hasRight = true
	}
	for k := a; k < b; k++ {
		e := exts[k]
		cutLo, cutHi := max64(e.Logical, lo), min64(e.Logical+e.Len, hi)
		freed = append(freed, blkRange{phys: e.Phys + (cutLo - e.Logical), n: cutHi - cutLo})
	}
	nkeep := 0
	if hasLeft {
		nkeep++
	}
	if hasRight {
		nkeep++
	}
	if nkeep <= b-a {
		at := a
		if hasLeft {
			exts[at] = left
			at++
		}
		if hasRight {
			exts[at] = right
			at++
		}
		n := copy(exts[at:], exts[b:])
		exts = exts[:at+n]
	} else {
		// One extent splits into two fragments: grow by one slot.
		exts = append(exts, Extent{})
		copy(exts[b+1:], exts[b:])
		exts[a], exts[a+1] = left, right
	}
	return exts, freed
}

// spliceOut removes logical range [lo, hi) from the inode's extent map,
// dereferencing the covered runs and splitting boundary extents; it
// returns how many of the covered blocks were shared with a snapshot. The
// freed scratch is a plain FS field (not pooled): nothing between filling
// and draining it blocks, so no other process can observe it.
func (fs *FS) spliceOut(i *Inode, lo, hi int64) (shared int64) {
	i.Extents, fs.freed = spliceExtents(i.Extents, lo, hi, fs.freed[:0])
	for _, r := range fs.freed {
		shared += fs.derefRange(r.phys, r.n)
	}
	return shared
}

// fitsAfterSplice reports whether n blocks can be allocated once logical
// range [lo, hi) of the inode has been spliced out: the free blocks plus
// those the splice hands straight back (sole references; none under
// durability, where every free waits for the next commit). Overwrites
// ask before they splice, so running out of space leaves the file as it
// was instead of with a hole where its data used to be.
func (fs *FS) fitsAfterSplice(i *Inode, lo, hi, n int64) bool {
	avail := fs.freeBlocks
	if n <= avail {
		return true
	}
	if fs.durable != nil {
		return false
	}
	for _, e := range i.Extents {
		cutLo, cutHi := max64(e.Logical, lo), min64(e.Logical+e.Len, hi)
		for b := e.Phys + (cutLo - e.Logical); b < e.Phys+(cutHi-e.Logical); b++ {
			if fs.refs[b] == 1 {
				avail++
			}
		}
	}
	return n <= avail
}

// insertExtent adds an extent keeping the slice sorted by Logical and
// merging with physically adjacent neighbours of the same generation.
func insertExtent(exts []Extent, e Extent) []Extent {
	pos := sort.Search(len(exts), func(k int) bool { return exts[k].Logical > e.Logical })
	exts = append(exts, Extent{})
	copy(exts[pos+1:], exts[pos:])
	exts[pos] = e
	// Merge left.
	if pos > 0 {
		l := exts[pos-1]
		if l.Logical+l.Len == e.Logical && l.Phys+l.Len == e.Phys && l.Gen == e.Gen {
			exts[pos-1].Len += e.Len
			exts = append(exts[:pos], exts[pos+1:]...)
			pos--
			e = exts[pos]
		}
	}
	// Merge right.
	if pos+1 < len(exts) {
		r := exts[pos+1]
		if e.Logical+e.Len == r.Logical && e.Phys+e.Len == r.Phys && e.Gen == r.Gen {
			exts[pos].Len += r.Len
			exts = append(exts[:pos+1], exts[pos+2:]...)
		}
	}
	return exts
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Write stores n pages at page offset off of the file, extending it if
// needed. New blocks are allocated copy-on-write; the data lands in the
// cache dirty and reaches the device at writeback (billed to the flusher,
// or to the inode's writeback tag if one is set).
func (fs *FS) Write(p *sim.Proc, ino Ino, off, n int64) error {
	i, ok := fs.inodes[ino]
	if !ok {
		return fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	if i.Dir {
		return fmt.Errorf("%w: inode %d", ErrIsDir, ino)
	}
	if n <= 0 {
		return nil
	}
	if !fs.fitsAfterSplice(i, off, off+n, n) {
		return fmt.Errorf("cowfs: write inode %d: %w", ino, ErrNoSpace)
	}
	fs.gen++
	i.Gen = fs.gen

	// COW: release old coverage, then allocate fresh blocks near the
	// file's existing data to preserve some locality. A write covering
	// exactly one extent (a one-page overwrite of a fragmented file, say)
	// releases that extent
	// and, when the allocation comes back in one run, puts the new extent
	// in its slot rather than splicing the slot out and back in. The
	// result is the splice's: the allocation sees the same released blocks
	// and the same hint, and the new extent's generation is newer than any
	// neighbour's, so insertExtent would not have merged it.
	k, whole := extentAt(i.Extents, off, n)
	var rest []Extent // the extents the hint is taken from
	if whole {
		e := i.Extents[k]
		fs.stats.CowReallocation += fs.derefRange(e.Phys, e.Len)
		rest = i.Extents
		if k == len(rest)-1 {
			rest = rest[:k] // as after the splice: the previous extent is last
		}
	} else {
		fs.stats.CowReallocation += fs.spliceOut(i, off, off+n)
		rest = i.Extents
	}
	hint := int64(0)
	if len(rest) > 0 {
		last := rest[len(rest)-1]
		hint = last.Phys + last.Len
	}
	rb := fs.getRunBuf()
	defer fs.putRunBuf(rb)
	runs, err := fs.allocate(n, hint, rb.runs)
	rb.runs = runs
	inPlace := whole && err == nil && len(runs) == 1
	if inPlace {
		i.Extents[k] = Extent{Logical: off, Phys: runs[0].phys, Len: n, Gen: fs.gen}
	} else if whole {
		i.Extents = slices.Delete(i.Extents, k, k+1)
	}
	if err != nil {
		return err
	}
	if off+n > i.SizePg {
		i.SizePg = off + n
	}
	for int64(len(i.PageVers)) < i.SizePg {
		i.PageVers = append(i.PageVers, 0)
	}

	// Stamp every page of the write before the first insert, which can
	// block in reclaim: a verifier that runs meanwhile sees the whole
	// write in flight (see beingWritten), never half of it stamped.
	logical := off
	for _, r := range runs {
		if !inPlace {
			i.Extents = insertExtent(i.Extents, Extent{Logical: logical, Phys: r.phys, Len: r.len, Gen: fs.gen})
		}
		for k := int64(0); k < r.len; k++ {
			ver := fs.bumpVer()
			i.PageVers[logical+k] = ver
			fs.want[r.phys+k] = ver
			fs.rev[r.phys+k] = newRev(ino)
		}
		logical += r.len
	}
	fs.dirtyRuns(p, i, off, runs)
	fs.stats.WritesPages += n
	return nil
}

// dirtyRuns inserts and dirties the pages of a write whose runs, laid
// out from logical page off, are stamped already. The runs count as
// being written until every page is dirty in the cache.
func (fs *FS) dirtyRuns(p *sim.Proc, i *Inode, off int64, runs []run) {
	fs.writing = append(fs.writing, runs...)
	logical := off
	for _, r := range runs {
		for k := int64(0); k < r.len; k++ {
			idx := logical + k
			ver := i.PageVers[idx]
			key := fs.pageKey(i.Ino, idx)
			if !fs.cache.Lookup(key) {
				fs.cache.Insert(p, key, uint64(ver))
			}
			fs.cache.MarkDirty(key, uint64(ver))
		}
		logical += r.len
	}
	for _, r := range runs {
		k := slices.Index(fs.writing, r)
		fs.writing = slices.Delete(fs.writing, k, k+1)
	}
}

// beingWritten reports whether block b belongs to a write whose pages
// are not all dirty in the cache yet. Its medium copy is stale and will
// be rewritten at flush, as for a dirty page.
func (fs *FS) beingWritten(b int64) bool {
	for _, r := range fs.writing {
		if b >= r.phys && b < r.phys+r.len {
			return true
		}
	}
	return false
}

// Append adds n pages at the end of the file.
func (fs *FS) Append(p *sim.Proc, ino Ino, n int64) error {
	i, ok := fs.inodes[ino]
	if !ok {
		return fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	return fs.Write(p, ino, i.SizePg, n)
}

// Read brings n pages at page offset off into the cache, issuing device
// reads for misses and verifying checksums. Reads of holes yield zero
// pages without I/O.
func (fs *FS) Read(p *sim.Proc, ino Ino, off, n int64, class storage.Class, owner string) error {
	_, err := fs.ReadCount(p, ino, off, n, class, owner)
	return err
}

// ReadCount is Read, additionally returning how many pages required
// device I/O (cache misses). Callers must use this rather than diffing
// the global MissPages counter: other processes run while the read blocks
// on the device.
func (fs *FS) ReadCount(p *sim.Proc, ino Ino, off, n int64, class storage.Class, owner string) (int64, error) {
	i, ok := fs.inodes[ino]
	if !ok {
		return 0, fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	if i.Dir {
		return 0, fmt.Errorf("%w: inode %d", ErrIsDir, ino)
	}
	if off+n > i.SizePg {
		n = i.SizePg - off
	}
	if n <= 0 {
		return 0, nil
	}
	fs.stats.ReadsPages += n
	// Every change to the file's extents bumps its generation (so does
	// deleting it), and the misses below are staged from the extents of
	// this generation.
	gen := i.Gen

	// Collect misses as (idx, block) pairs — remembering the version the
	// block is expected to hold — then coalesce into physically
	// contiguous device reads. The staging buffer comes from a pool: the
	// process blocks on the device below, so other readers can be staging
	// concurrently in virtual time.
	mb := fs.getMissBuf()
	defer fs.putMissBuf(mb)
	misses := mb.m
	for idx := off; idx < off+n; idx++ {
		// The cached pages from idx are touched as one run; idx is then
		// the first page after them.
		if idx += int64(fs.cache.TouchRun(fs.id, uint64(ino), uint64(idx), int(off+n-idx))); idx == off+n {
			break
		}
		b, mapped := fibmapIn(i, idx)
		if !mapped {
			fs.cache.Insert(p, fs.pageKey(ino, idx), 0) // hole: zero page
			continue
		}
		misses = append(misses, miss{idx: idx, block: b, want: fs.want[b]})
	}
	mb.m = misses
	missed := int64(len(misses))
	fs.stats.MissPages += missed

	for s := 0; s < len(misses); {
		e := s + 1
		for e < len(misses) && misses[e].block == misses[e-1].block+1 && misses[e].idx == misses[e-1].idx+1 {
			e++
		}
		first := misses[s]
		count := e - s
		if err := fs.disk.Read(p, first.block, count, class, owner); err != nil {
			return missed, fmt.Errorf("cowfs read inode %d: %w", ino, err)
		}
		// Revalidate after the I/O: the file may have been deleted or
		// copy-on-written while this process was blocked on the device.
		cur, alive := fs.inodes[ino]
		if !alive {
			return missed, fmt.Errorf("%w: inode %d (deleted during read)", ErrNotFound, ino)
		}
		// The pages go into the cache a run at a time: the longest run of
		// pages from k that checkMiss finds fresh, all in one InsertRun.
		// Nothing else runs while InsertRun does (it never blocks), and
		// inserting a page changes no other page's verdict, so each page
		// of the run would have passed its checks at its own turn too.
		// Where InsertRun stops, the next page goes in by Insert, which
		// can block in eviction writeback while another process remaps,
		// deletes or rewrites the file; the pages after it are checked
		// again.
		for k := 0; k < count; {
			m := misses[s+k]
			switch fs.checkMiss(ino, i, cur, gen, m) {
			case missStale:
				k++
				continue
			case missCorrupt:
				fs.stats.Corruptions++
				return missed, fmt.Errorf("%w: inode %d page %d block %d", ErrCorruption, ino, m.idx, m.block)
			}
			vers := append(mb.vers[:0], uint64(m.want))
			for j := k + 1; j < count && fs.checkMiss(ino, i, cur, gen, misses[s+j]) == missFresh; j++ {
				vers = append(vers, uint64(misses[s+j].want))
			}
			mb.vers = vers
			n := fs.cache.InsertRun(fs.id, uint64(ino), uint64(m.idx), vers)
			if n < len(vers) {
				fs.cache.Insert(p, fs.pageKey(ino, m.idx+int64(n)), vers[n])
				n++
			}
			k += n
		}
		s = e
	}
	return missed, nil
}

// missVerdict is what becomes of a staged miss once its device read is
// back.
type missVerdict uint8

const (
	missFresh   missVerdict = iota // the read is the page's content: cache it
	missStale                      // a newer copy is (or will be) cached: drop the read
	missCorrupt                    // the block failed its checksum
)

// checkMiss judges staged miss m of file ino, whose misses were staged
// from inode i at generation gen; cur is the inode the file table held
// when the device read came back.
func (fs *FS) checkMiss(ino Ino, i, cur *Inode, gen uint64, m miss) missVerdict {
	// While the inode and its generation are the ones the misses were
	// staged from, every page still maps to its staged block. The test is
	// per page: an Insert can block in eviction writeback while another
	// process remaps or deletes the file.
	if cur != i || i.Gen != gen {
		if b, mapped := fs.Fibmap(ino, m.idx); !mapped || b != m.block {
			return missStale // remapped mid-read: the new data is (or will be) in cache
		}
	}
	if fs.cache.Contains(fs.pageKey(ino, m.idx)) || fs.beingWritten(m.block) {
		return missStale // a concurrent write cached (or is caching) a newer copy
	}
	if fs.want[m.block] != m.want {
		return missStale // block re-written (possibly in place) mid-read
	}
	if fs.diskVer[m.block] != m.want {
		return missCorrupt
	}
	return missFresh
}

// ReadFile brings the whole file into the cache.
func (fs *FS) ReadFile(p *sim.Proc, ino Ino, class storage.Class, owner string) error {
	i, ok := fs.inodes[ino]
	if !ok {
		return fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	return fs.Read(p, ino, 0, i.SizePg, class, owner)
}

// SetWritebackTag routes future writeback of the inode's dirty pages to
// the given class/owner (so defragmentation writes are billed to the
// defragmenter rather than the flusher).
func (fs *FS) SetWritebackTag(ino Ino, class storage.Class, owner string) {
	fs.wbTags[ino] = wbTag{class: class, owner: owner}
}

// WritebackPages implements pagecache.Backend: it writes the given dirty
// pages of one file to their (already assigned) blocks. It returns how
// many leading entries of indices are durably on the medium: all of
// them on success; on a device error, the prefix whose coalesced writes
// completed (a torn write persists a further partial run). The medium
// model (diskVer) is updated for exactly the persisted pages, so a
// crash after a failed writeback sees the same bytes a real disk would.
func (fs *FS) WritebackPages(p *sim.Proc, inoN uint64, indices []uint64) (int, error) {
	ino := Ino(inoN)
	i, ok := fs.inodes[ino]
	if !ok {
		return len(indices), nil // file deleted while dirty; nothing to write
	}
	class, owner := storage.ClassNormal, "writeback"
	if tag, tagged := fs.wbTags[ino]; tagged {
		class, owner = tag.class, tag.owner
	}
	// Capture (block, version) pairs now; apply to the medium after the
	// I/O completes, skipping pages remapped mid-flight. The staging
	// buffer is pooled: this process blocks on device writes, and the
	// flusher and eviction paths can both be in writeback at once.
	wbuf := fs.getWbBuf()
	defer fs.putWbBuf(wbuf)
	pages := wbuf.w
	for pos, idxU := range indices {
		idx := int64(idxU)
		b, mapped := fibmapIn(i, idx)
		if !mapped || idx >= int64(len(i.PageVers)) {
			continue
		}
		pages = append(pages, wb{idx: idx, block: b, ver: i.PageVers[idx], pos: pos})
	}
	wbuf.w = pages
	slices.SortFunc(pages, func(a, b wb) int { return cmp.Compare(a.block, b.block) })
	var wbErr error
	for s := 0; s < len(pages); {
		e := s + 1
		for e < len(pages) && pages[e].block == pages[e-1].block+1 {
			e++
		}
		err := fs.disk.Write(p, pages[s].block, e-s, class, owner)
		done := e - s
		if err != nil {
			done = 0
			if k, torn := storage.TornBlocks(err); torn {
				done = k // leading blocks of the run reached the medium
			}
		}
		for k := s; k < s+done; k++ {
			pages[k].ok = true
		}
		if err != nil {
			wbErr = err
			break // remaining runs are not issued, like a real bio chain
		}
		s = e
	}
	applied := 0
	_, alive := fs.inodes[ino] // the file may have been deleted during the writes
	for _, w := range pages {
		if !w.ok {
			continue
		}
		applied++
		if b, mapped := fibmapIn(i, w.idx); alive && mapped && b == w.block {
			fs.diskVer[w.block] = w.ver
		}
	}
	// The cache's contract wants a prefix of the input order: the first
	// record (in staging order) that did not persist bounds it.
	persisted := len(indices)
	for _, w := range pages {
		if !w.ok && w.pos < persisted {
			persisted = w.pos
		}
	}
	fs.stats.WritebackPages += int64(applied)
	if wbErr != nil {
		fs.stats.WritebackErrors++
	}
	// Drop the tag once the file has no dirty pages left.
	if _, tagged := fs.wbTags[ino]; tagged && !fs.cache.FileDirty(fs.id, inoN) {
		delete(fs.wbTags, ino)
	}
	return persisted, wbErr
}

// Sync writes back all dirty pages of the filesystem's files.
func (fs *FS) Sync(p *sim.Proc) { fs.cache.Sync(p) }

// --- scrubbing support ---------------------------------------------------

// CorruptBlock silently corrupts the on-medium content of a block, as a
// latent error would (failure injection for the scrubber).
func (fs *FS) CorruptBlock(b int64) {
	fs.corrupt.Set(uint64(b))
	fs.diskVer[b] ^= 0xdeadbeef
}

// VerifyBlock reads a block from the device (unless its page is dirty in
// cache, i.e. not yet committed) and checks its checksum. It returns
// (readPerformed, error). The scrubber calls this for every allocated
// block; ErrCorruption indicates detected silent corruption.
//
// Verified blocks are inserted into the page cache (when the block still
// backs a live file page): the scrubber has the data in memory, and
// making it visible in the cache is what lets concurrently running tasks
// — backup in particular — share the scrubber's single pass over the
// device (§6.3).
func (fs *FS) VerifyBlock(p *sim.Proc, b int64, class storage.Class, owner string) (bool, error) {
	if !fs.Allocated(b) {
		return false, nil
	}
	if fs.blockDirtyInCache(b) {
		// Content is newer in memory; the medium copy is stale and will be
		// rewritten at flush, so there is nothing to verify yet.
		return false, nil
	}
	if err := fs.disk.Read(p, b, 1, class, owner); err != nil {
		return true, err
	}
	if err := fs.CheckBlock(b); err != nil {
		return true, err
	}
	fs.populateFromBlock(p, b)
	return true, nil
}

// VerifyRange reads and verifies count consecutive blocks with one device
// request, returning the first error. Unallocated or dirty blocks inside
// the range are skipped for verification but still read (the scrubber
// reads sequentially in large chunks). Verified blocks populate the page
// cache, as in VerifyBlock.
func (fs *FS) VerifyRange(p *sim.Proc, b int64, count int, class storage.Class, owner string) error {
	if err := fs.disk.Read(p, b, count, class, owner); err != nil {
		return err
	}
	for k := int64(0); k < int64(count); k++ {
		blk := b + k
		if !fs.Allocated(blk) || fs.blockDirtyInCache(blk) {
			continue
		}
		if err := fs.CheckBlock(blk); err != nil {
			return err
		}
		fs.populateFromBlock(p, blk)
	}
	return nil
}

// populateFromBlock inserts a just-read block's page into the cache when
// the block currently backs a file page.
func (fs *FS) populateFromBlock(p *sim.Proc, b int64) {
	if ino, idx, ok := fs.mappedPage(b); ok {
		fs.cache.Insert(p, fs.pageKey(ino, idx), uint64(fs.diskVer[b]))
	}
}

// mappedPage returns the file page that block b currently backs: the
// page of the reverse entry's inode whose extent covers b. Only
// snapshots share blocks, so a file maps a block at one index at most.
// A stale entry (COW moved the page to a new block, leaving b to a
// snapshot) and a free block report false.
func (fs *FS) mappedPage(b int64) (Ino, int64, bool) {
	ino := Ino(fs.rev[b])
	if ino == 0 {
		return 0, 0, false
	}
	i, ok := fs.inode(ino)
	if !ok {
		return 0, 0, false
	}
	for _, e := range i.Extents {
		if b >= e.Phys && b < e.Phys+e.Len {
			return ino, e.Logical + b - e.Phys, true
		}
	}
	return 0, 0, false
}

// CheckBlock compares the medium content of block b, if it is allocated,
// against its stored checksum without performing I/O (the device read
// must already have happened). b must be a block of the device.
func (fs *FS) CheckBlock(b int64) error {
	if fs.refs[b] == 0 || fs.blockDirtyInCache(b) {
		return nil
	}
	if fs.diskVer[b] != fs.want[b] {
		fs.stats.ScrubErrors++
		return fmt.Errorf("%w: block %d", ErrCorruption, b)
	}
	return nil
}

// RepairBlock rewrites a corrupted block with the version its stored
// checksum names (in a real system: from a redundant copy). Every path
// that maps a page to a block stamps the block's checksum and the page's
// version together, so the checksum is the version of every file page
// that references the block. It also clears any injected device-level
// bad-block state, modelling sector reallocation.
func (fs *FS) RepairBlock(p *sim.Proc, b int64, class storage.Class, owner string) error {
	if !fs.Allocated(b) {
		return nil
	}
	fs.disk.RepairBlock(b)
	fs.corrupt.Unset(uint64(b))
	fs.diskVer[b] = fs.want[b]
	return fs.disk.Write(p, b, 1, class, owner)
}

// fileInos appends the inode numbers of all regular files to buf, in
// ascending order.
func (fs *FS) fileInos(buf []Ino) []Ino {
	for ino, i := range fs.inodes {
		if !i.Dir {
			buf = append(buf, ino)
		}
	}
	slices.Sort(buf)
	return buf
}

// blockDirtyInCache reports whether the page currently mapped to block b
// is dirty in the cache, or is about to be (beingWritten). A block no
// page maps to reports false: the medium copy of such a block is stable.
func (fs *FS) blockDirtyInCache(b int64) bool {
	if fs.beingWritten(b) {
		return true
	}
	ino, idx, ok := fs.mappedPage(b)
	if !ok {
		return false
	}
	_, dirty, _ := fs.cache.Peek(fs.pageKey(ino, idx))
	return dirty
}
