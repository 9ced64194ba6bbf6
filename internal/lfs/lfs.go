// Package lfs simulates a log-structured filesystem in the style of F2fs
// (Lee et al., FAST 2015), the substrate for the paper's garbage
// collection experiments (§5.4, Table 6).
//
// The device is divided into fixed-size segments. Dirty pages are
// appended to the open log segment at writeback time; the previous copy
// of each page is invalidated in place. Segments whose valid-block count
// reaches zero are freed. A background garbage collector (gc.go) cleans
// partially-valid segments by reading their remaining valid blocks —
// through the page cache, which is where Duet's opportunity lies — and
// re-dirtying them so writeback migrates them to the log head.
//
// The namespace is flat (files by name): the GC experiments exercise
// block lifetimes, not directory trees.
package lfs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"duet/internal/bitmap"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Ino is an inode number. 0 is never used.
type Ino uint64

// NoBlock marks a page with no on-device location (dirty-only or hole).
const NoBlock int64 = -1

// Sentinel errors.
var (
	ErrNotFound = errors.New("lfs: no such file")
	ErrExists   = errors.New("lfs: file exists")
	ErrNoSpace  = errors.New("lfs: no free segments")
)

// SegState is the lifecycle state of a segment.
type SegState uint8

const (
	// SegFree segments contain no valid data and can become log heads.
	SegFree SegState = iota
	// SegOpen is the segment currently receiving log appends.
	SegOpen
	// SegFull segments have been written end to end; they become free
	// again when every block in them is invalidated.
	SegFull
)

type slotInfo struct {
	ino   Ino
	idx   int64
	valid bool
}

// Segment is the unit of log allocation and cleaning.
type Segment struct {
	State SegState
	Valid int      // number of valid blocks
	Mtime sim.Time // time of last append (the "age" input to victim cost)
	slots []slotInfo

	// bktNext/bktPrev link SegFull segments into the valid-count bucket
	// for their current Valid value (-1 terminates). The buckets let the
	// cleaner enumerate cleanable candidates without scanning every
	// segment.
	bktNext, bktPrev int32
}

// Inode is a (flat-namespace) file.
type Inode struct {
	Ino    Ino
	Name   string
	SizePg int64
	blocks []int64  // page -> device block, NoBlock if not on device
	vers   []uint64 // page -> content version
}

// Stats counts filesystem and cleaner activity.
type Stats struct {
	WritesPages     int64
	ReadsPages      int64
	MissPages       int64
	WritebackPages  int64
	WritebackErrors int64 // writeback device errors (partial or total)
	Invalidations   int64
	SegsFreed       int64
	SegsCleaned     int64
	GCBlocksMoved   int64
	GCBlocksRead    int64 // valid blocks the cleaner had to read from disk
	GCBlocksCached  int64 // valid blocks the cleaner found in cache
	InPlaceWrites   int64 // writes forced into scattered invalid slots
	GCSyncErrors    int64 // cleaner urgent-sync failures (data left dirty)
	GCReadErrors    int64 // cleaner device-read failures (pass abandoned)
}

// Config holds filesystem geometry.
type Config struct {
	// SegBlocks is the segment size in blocks (F2fs default 2 MiB = 512).
	SegBlocks int
	// ReservedSegs are kept free for cleaning headroom (overprovisioning).
	ReservedSegs int
}

// DefaultConfig returns F2fs-like geometry.
func DefaultConfig() Config { return Config{SegBlocks: 512, ReservedSegs: 8} }

// FS is the simulated log-structured filesystem.
type FS struct {
	eng   sim.Host
	id    pagecache.FSID
	disk  *storage.Disk
	cache *pagecache.Cache
	cfg   Config

	inodes  map[Ino]*Inode
	byName  map[string]Ino
	nextIno Ino

	segs     []*Segment
	freeSegs *bitmap.Sparse // free segment indices
	curSeg   int            // open log segment (-1 if none)
	curOff   int            // next slot in the open segment

	// validBkt[v] heads an intrusive list of SegFull segments with Valid
	// == v, maintained incrementally on every block invalidation and
	// placement so GC victim selection only touches actual candidates.
	validBkt []int32
	// partial marks SegFull segments with at least one invalid slot —
	// the candidates for degraded in-place writes.
	partial *bitmap.Sparse

	diskVer []uint64 // content version on the medium, per block
	stats   Stats

	inodeMemo [8]*Inode // lookup memo of FS.inode, indexed by ino mod 8
	obs       *lfsObs   // nil unless observability is on (see obs.go)

	// Pooled staging buffers for the read and writeback paths (holders
	// block on device I/O, so several can be live in virtual time).
	missBufs   *missBuf
	placedBufs *placedBuf
}

// New creates a log-structured filesystem spanning the device.
func New(e sim.Host, id pagecache.FSID, disk *storage.Disk, cache *pagecache.Cache, cfg Config) *FS {
	if cfg.SegBlocks <= 0 {
		cfg = DefaultConfig()
	}
	n := int(disk.Blocks()) / cfg.SegBlocks
	fs := &FS{
		eng:     e,
		id:      id,
		disk:    disk,
		cache:   cache,
		cfg:     cfg,
		inodes:  make(map[Ino]*Inode),
		byName:  make(map[string]Ino),
		nextIno: 1,
		segs:    make([]*Segment, n),
		curSeg:  -1,
		diskVer: make([]uint64, disk.Blocks()),
	}
	fs.freeSegs = bitmap.New()
	fs.partial = bitmap.New()
	fs.validBkt = make([]int32, cfg.SegBlocks+1)
	for v := range fs.validBkt {
		fs.validBkt[v] = -1
	}
	for i := range fs.segs {
		fs.segs[i] = &Segment{State: SegFree, slots: make([]slotInfo, cfg.SegBlocks), bktNext: -1, bktPrev: -1}
		fs.freeSegs.Set(uint64(i))
	}
	cache.RegisterFS(id, fs)
	return fs
}

// bucketAdd links a SegFull segment into the valid-count bucket for its
// current Valid value and updates the in-place candidate set.
func (fs *FS) bucketAdd(si int) {
	seg := fs.segs[si]
	v := seg.Valid
	seg.bktPrev = -1
	seg.bktNext = fs.validBkt[v]
	if seg.bktNext >= 0 {
		fs.segs[seg.bktNext].bktPrev = int32(si)
	}
	fs.validBkt[v] = int32(si)
	if v < fs.cfg.SegBlocks {
		fs.partial.Set(uint64(si))
	} else {
		fs.partial.Unset(uint64(si))
	}
}

// bucketRemove unlinks a SegFull segment from the bucket for value v (its
// Valid count at link time).
func (fs *FS) bucketRemove(si, v int) {
	seg := fs.segs[si]
	if seg.bktPrev >= 0 {
		fs.segs[seg.bktPrev].bktNext = seg.bktNext
	} else {
		fs.validBkt[v] = seg.bktNext
	}
	if seg.bktNext >= 0 {
		fs.segs[seg.bktNext].bktPrev = seg.bktPrev
	}
	seg.bktNext, seg.bktPrev = -1, -1
}

// miss and placed are the staging entries of the read and writeback
// paths. Their backing slices live in small free lists on the FS: a
// holder blocks on device I/O mid-use, so a single scratch slice would
// be clobbered by the next process entering the same path in virtual
// time. The lists grow to the maximum concurrency ever seen and are
// reused forever after.
type miss struct{ idx, block int64 }

type missBuf struct {
	m    []miss
	vers []uint64 // a run's versions, for InsertRun
	next *missBuf
}

func (fs *FS) getMissBuf() *missBuf {
	if b := fs.missBufs; b != nil {
		fs.missBufs = b.next
		b.next = nil
		b.m = b.m[:0]
		return b
	}
	return &missBuf{}
}

func (fs *FS) putMissBuf(b *missBuf) {
	b.next = fs.missBufs
	fs.missBufs = b
}

// placed is a writeback staging record. pos is the record's position in
// the caller's index slice (so the persisted prefix survives the
// by-block sort); ok marks records whose device write completed.
type placed struct {
	idx   int64
	block int64
	ver   uint64
	pos   int
	ok    bool
}

type placedBuf struct {
	p    []placed
	next *placedBuf
}

func (fs *FS) getPlacedBuf() *placedBuf {
	if b := fs.placedBufs; b != nil {
		fs.placedBufs = b.next
		b.next = nil
		b.p = b.p[:0]
		return b
	}
	return &placedBuf{}
}

func (fs *FS) putPlacedBuf(b *placedBuf) {
	b.next = fs.placedBufs
	fs.placedBufs = b
}

// ID returns the page-cache filesystem identifier.
func (fs *FS) ID() pagecache.FSID { return fs.id }

// Disk returns the underlying device.
func (fs *FS) Disk() *storage.Disk { return fs.disk }

// Cache returns the page cache.
func (fs *FS) Cache() *pagecache.Cache { return fs.cache }

// Stats returns live statistics.
func (fs *FS) Stats() *Stats { return &fs.stats }

// Config returns the geometry.
func (fs *FS) Config() Config { return fs.cfg }

// Segments returns the number of segments.
func (fs *FS) Segments() int { return len(fs.segs) }

// Segment returns segment metadata (read-only view).
func (fs *FS) Segment(i int) *Segment { return fs.segs[i] }

// FreeSegments returns the count of free segments.
func (fs *FS) FreeSegments() int { return int(fs.freeSegs.Count()) }

// SegOf maps a device block to its segment index.
func (fs *FS) SegOf(block int64) int { return int(block) / fs.cfg.SegBlocks }

// Fibmap translates a file page to its device block. Page events come
// in per-file runs, so recently resolved inodes are kept in a small
// direct-mapped memo (Delete drops its entry).
func (fs *FS) Fibmap(ino Ino, idx int64) (int64, bool) {
	i, ok := fs.inode(ino)
	if !ok || idx < 0 || idx >= int64(len(i.blocks)) || i.blocks[idx] == NoBlock {
		return 0, false
	}
	return i.blocks[idx], true
}

// FibmapRun is Fibmap for the pages [idx, idx+n): the block of page idx
// and how many of the pages from it map to the consecutive blocks from
// that one (0 when page idx has no block).
func (fs *FS) FibmapRun(ino Ino, idx, n int64) (int64, int64) {
	b, ok := fs.Fibmap(ino, idx)
	if !ok {
		return 0, 0
	}
	i, _ := fs.inode(ino)
	m := int64(1)
	for m < n && idx+m < int64(len(i.blocks)) && i.blocks[idx+m] == b+m {
		m++
	}
	return b, m
}

// inode returns inode ino through the lookup memo.
func (fs *FS) inode(ino Ino) (*Inode, bool) {
	memo := &fs.inodeMemo[ino%Ino(len(fs.inodeMemo))]
	if i := *memo; i != nil && i.Ino == ino {
		return i, true
	}
	i, ok := fs.inodes[ino]
	if ok {
		*memo = i
	}
	return i, ok
}

// SlotOwner returns the file page stored in a block, if valid.
func (fs *FS) SlotOwner(block int64) (Ino, int64, bool) {
	seg := fs.segs[fs.SegOf(block)]
	s := seg.slots[int(block)%fs.cfg.SegBlocks]
	if !s.valid {
		return 0, 0, false
	}
	return s.ino, s.idx, true
}

// --- namespace ------------------------------------------------------------

// Create makes an empty file.
func (fs *FS) Create(name string) (*Inode, error) {
	if _, ok := fs.byName[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	i := &Inode{Ino: fs.nextIno, Name: name}
	fs.nextIno++
	fs.inodes[i.Ino] = i
	fs.byName[name] = i.Ino
	return i, nil
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*Inode, error) {
	ino, ok := fs.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return fs.inodes[ino], nil
}

// Inode returns a file by number.
func (fs *FS) Inode(ino Ino) (*Inode, bool) {
	i, ok := fs.inode(ino)
	return i, ok
}

// Delete removes a file, invalidating its blocks and dropping its pages.
func (fs *FS) Delete(name string) error {
	i, err := fs.Lookup(name)
	if err != nil {
		return err
	}
	for _, b := range i.blocks {
		if b != NoBlock {
			fs.invalidate(b)
		}
	}
	fs.cache.RemoveFile(fs.id, uint64(i.Ino))
	delete(fs.byName, name)
	delete(fs.inodes, i.Ino)
	fs.inodeMemo[i.Ino%Ino(len(fs.inodeMemo))] = nil
	return nil
}

// Files returns all file names, sorted.
func (fs *FS) Files() []string {
	names := make([]string, 0, len(fs.byName))
	for n := range fs.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- data path -------------------------------------------------------------

func (fs *FS) pageKey(ino Ino, idx int64) pagecache.PageKey {
	return pagecache.PageKey{FS: fs.id, Ino: uint64(ino), Index: uint64(idx)}
}

// Write dirties n pages at page offset off, extending the file if needed.
// Log placement happens at writeback, as in any LFS.
func (fs *FS) Write(p *sim.Proc, ino Ino, off, n int64) error {
	i, ok := fs.inode(ino)
	if !ok {
		return fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	if n <= 0 {
		return nil
	}
	if off+n > i.SizePg {
		i.SizePg = off + n
	}
	for int64(len(i.blocks)) < i.SizePg {
		i.blocks = append(i.blocks, NoBlock)
		i.vers = append(i.vers, 0)
	}
	for idx := off; idx < off+n; idx++ {
		i.vers[idx]++
		key := fs.pageKey(ino, idx)
		if !fs.cache.Lookup(key) {
			fs.cache.Insert(p, key, i.vers[idx])
		}
		fs.cache.MarkDirty(key, i.vers[idx])
	}
	fs.stats.WritesPages += n
	return nil
}

// Append adds n pages at the end of the file.
func (fs *FS) Append(p *sim.Proc, ino Ino, n int64) error {
	i, ok := fs.inode(ino)
	if !ok {
		return fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	return fs.Write(p, ino, i.SizePg, n)
}

// Read brings n pages at offset off into the cache.
func (fs *FS) Read(p *sim.Proc, ino Ino, off, n int64, class storage.Class, owner string) error {
	i, ok := fs.inode(ino)
	if !ok {
		return fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	if off+n > i.SizePg {
		n = i.SizePg - off
	}
	if n <= 0 {
		return nil
	}
	fs.stats.ReadsPages += n
	mb := fs.getMissBuf()
	defer fs.putMissBuf(mb)
	misses := mb.m
	for idx := off; idx < off+n; idx++ {
		// The cached pages from idx are touched as one run; idx is then
		// the first page after them.
		if idx += int64(fs.cache.TouchRun(fs.id, uint64(ino), uint64(idx), int(off+n-idx))); idx == off+n {
			break
		}
		b := i.blocks[idx]
		if b == NoBlock {
			fs.cache.Insert(p, fs.pageKey(ino, idx), 0)
			continue
		}
		misses = append(misses, miss{idx, b})
	}
	mb.m = misses
	fs.stats.MissPages += int64(len(misses))
	slices.SortFunc(misses, func(a, b miss) int { return cmp.Compare(a.block, b.block) })
	for s := 0; s < len(misses); {
		e := s + 1
		for e < len(misses) && misses[e].block == misses[e-1].block+1 {
			e++
		}
		if err := fs.disk.Read(p, misses[s].block, e-s, class, owner); err != nil {
			return fmt.Errorf("lfs read inode %d: %w", ino, err)
		}
		// The read's runs of consecutive pages go into the cache a run at
		// a time, as page-by-page Inserts would: where InsertRun stops,
		// the next page goes in by Insert, which may block, and the pages
		// after it are staged afresh.
		for k := s; k < e; {
			vers := mb.vers[:0]
			for j := k; j < e && (j == k || misses[j].idx == misses[j-1].idx+1); j++ {
				vers = append(vers, fs.diskVer[misses[j].block])
			}
			mb.vers = vers
			n := fs.cache.InsertRun(fs.id, uint64(ino), uint64(misses[k].idx), vers)
			if n < len(vers) {
				fs.cache.Insert(p, fs.pageKey(ino, misses[k+n].idx), vers[n])
				n++
			}
			k += n
		}
		s = e
	}
	return nil
}

// ReadFile brings the whole file into the cache.
func (fs *FS) ReadFile(p *sim.Proc, ino Ino, class storage.Class, owner string) error {
	i, ok := fs.inode(ino)
	if !ok {
		return fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	return fs.Read(p, ino, 0, i.SizePg, class, owner)
}

// invalidate marks a block's slot invalid, freeing the segment when it
// empties. Full segments are moved between valid-count buckets so the
// cleaner's candidate view stays current without any scanning.
func (fs *FS) invalidate(b int64) {
	si := fs.SegOf(b)
	seg := fs.segs[si]
	slot := &seg.slots[int(b)%fs.cfg.SegBlocks]
	if !slot.valid {
		return
	}
	slot.valid = false
	full := seg.State == SegFull
	if full {
		fs.bucketRemove(si, seg.Valid)
	}
	seg.Valid--
	fs.stats.Invalidations++
	if full {
		if seg.Valid == 0 {
			fs.freeSegment(si)
		} else {
			fs.bucketAdd(si)
		}
	}
}

func (fs *FS) freeSegment(si int) {
	seg := fs.segs[si]
	seg.State = SegFree
	for k := range seg.slots {
		seg.slots[k] = slotInfo{}
	}
	fs.freeSegs.Set(uint64(si))
	fs.partial.Unset(uint64(si))
	fs.stats.SegsFreed++
}

// openSegment makes the lowest-numbered free segment the log head. It
// returns false when no free segment exists (the caller falls back to
// in-place writes).
func (fs *FS) openSegment() bool {
	si, ok := fs.freeSegs.NextSet(0)
	if !ok {
		return false
	}
	fs.freeSegs.Unset(si)
	fs.segs[si].State = SegOpen
	fs.curSeg = int(si)
	fs.curOff = 0
	return true
}

// logAlloc assigns the next log slot, returning the block number, or
// NoBlock when the log is full (no free segments).
func (fs *FS) logAlloc() int64 {
	if fs.curSeg < 0 || fs.curOff >= fs.cfg.SegBlocks {
		if fs.curSeg >= 0 {
			seg := fs.segs[fs.curSeg]
			seg.State = SegFull
			if seg.Valid == 0 {
				fs.freeSegment(fs.curSeg)
			} else {
				fs.bucketAdd(fs.curSeg)
			}
			fs.curSeg = -1
		}
		if !fs.openSegment() {
			return NoBlock
		}
	}
	b := int64(fs.curSeg*fs.cfg.SegBlocks + fs.curOff)
	fs.curOff++
	return b
}

// inPlaceAlloc finds an invalid slot in some non-free segment — the
// degraded mode F2fs enters when clean segments run out, which the paper
// measured as a 57% latency increase (§6.2). The partial bitmap points
// straight at the lowest-numbered full segment with a hole, replacing the
// full-device scan.
func (fs *FS) inPlaceAlloc() int64 {
	si, ok := fs.partial.NextSet(0)
	if !ok {
		return NoBlock
	}
	for k, s := range fs.segs[si].slots {
		if !s.valid {
			fs.stats.InPlaceWrites++
			return int64(int(si)*fs.cfg.SegBlocks + k)
		}
	}
	panic("lfs: partial segment with no invalid slot")
}

// WritebackPages implements pagecache.Backend: dirty pages are appended
// to the log (or written in place under segment pressure), and their old
// locations are invalidated. It returns how many leading entries of
// indices are durably on the medium (all on success; on a device error
// the prefix whose coalesced writes completed, extended into a torn
// run's persisted blocks). Running out of segments persists nothing —
// placement happens before any device write is issued.
func (fs *FS) WritebackPages(p *sim.Proc, inoN uint64, indices []uint64) (int, error) {
	ino := Ino(inoN)
	i, ok := fs.inode(ino)
	if !ok {
		return len(indices), nil // deleted while dirty
	}
	pb := fs.getPlacedBuf()
	defer fs.putPlacedBuf(pb)
	out := pb.p
	for pos, idxU := range indices {
		idx := int64(idxU)
		if idx >= int64(len(i.blocks)) {
			continue
		}
		b := fs.logAlloc()
		if b == NoBlock {
			b = fs.inPlaceAlloc()
		}
		if b == NoBlock {
			// No placement, no device writes issued yet: the historical
			// contract (nothing persisted, everything stays dirty).
			pb.p = out
			return 0, fmt.Errorf("%w: writeback of inode %d", ErrNoSpace, ino)
		}
		old := i.blocks[idx]
		si := fs.SegOf(b)
		seg := fs.segs[si]
		full := seg.State == SegFull // in-place placement into a full segment
		if full {
			fs.bucketRemove(si, seg.Valid)
		}
		seg.slots[int(b)%fs.cfg.SegBlocks] = slotInfo{ino: ino, idx: idx, valid: true}
		seg.Valid++
		seg.Mtime = fs.eng.Now()
		if full {
			fs.bucketAdd(si)
		}
		i.blocks[idx] = b
		if old != NoBlock {
			fs.invalidate(old)
		}
		out = append(out, placed{idx: idx, block: b, ver: i.vers[idx], pos: pos})
	}
	pb.p = out
	// Device writes: coalesce physically contiguous placements (log
	// appends are naturally sequential; in-place writes are scattered).
	slices.SortFunc(out, func(a, b placed) int { return cmp.Compare(a.block, b.block) })
	var wbErr error
	for s := 0; s < len(out); {
		e := s + 1
		for e < len(out) && out[e].block == out[e-1].block+1 {
			e++
		}
		err := fs.disk.Write(p, out[s].block, e-s, storage.ClassNormal, "writeback")
		done := e - s
		if err != nil {
			done = 0
			if k, torn := storage.TornBlocks(err); torn {
				done = k
			}
		}
		for k := s; k < s+done; k++ {
			out[k].ok = true
		}
		if err != nil {
			wbErr = err
			break
		}
		s = e
	}
	applied := 0
	for _, pl := range out {
		if !pl.ok {
			continue
		}
		applied++
		if i.blocks[pl.idx] == pl.block {
			fs.diskVer[pl.block] = pl.ver
		}
	}
	persisted := len(indices)
	for _, pl := range out {
		if !pl.ok && pl.pos < persisted {
			persisted = pl.pos
		}
	}
	fs.stats.WritebackPages += int64(applied)
	if wbErr != nil {
		fs.stats.WritebackErrors++
	}
	return persisted, wbErr
}

// Sync writes back all dirty pages.
func (fs *FS) Sync(p *sim.Proc) { fs.cache.Sync(p) }
