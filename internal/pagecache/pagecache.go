// Package pagecache simulates the operating system page cache that Duet
// hooks into.
//
// Pages are keyed by (filesystem, inode, page index) and managed with a
// global LRU under a fixed page budget. Dirty pages are written back by a
// flusher process after a dirty-expire interval, mirroring the Linux
// writeback behaviour the paper depends on for Flushed events.
//
// The cache does not store page contents. Each page carries a version
// stamp; content is defined as a deterministic function of
// (inode, index, version), which preserves checksum and comparison
// semantics (a write changes the version, so checksums change) without
// allocating 4 KiB per page.
//
// Duet attaches to the cache through the Hook interface and receives the
// four page events of the paper's Table 2: Added, Removed, Dirtied,
// Flushed.
//
// Resident data is held as runs, after Do et al.'s data blocks: the LRU
// is a list of segments, each a run of consecutive pages of one file
// that sit next to each other in LRU order, coldest first. A segment is
// a contiguous slice of the per-page LRU, so page order, victims and
// events are exactly those of a per-page list; a miss run, a hit run or
// a run of victims costs a few segment operations plus per-page array
// writes. Per-page state (version, dirty bit, dirty time, quarantine)
// lives in per-file arrays indexed by page index, pooled when the file
// leaves the cache; segments are recycled through a free list and
// writeback batches through a pool, so the hot path is allocation-free
// in steady state.
package pagecache

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"duet/internal/rbtree"
	"duet/internal/sim"
	"duet/internal/storage"
)

// EventType is a page-cache event, as in Table 2 of the paper.
type EventType uint8

const (
	// EventAdded fires when a page is inserted into the cache.
	EventAdded EventType = iota
	// EventRemoved fires when a page leaves the cache (eviction, file
	// deletion, truncation).
	EventRemoved
	// EventDirtied fires when a clean page is marked dirty.
	EventDirtied
	// EventFlushed fires when a dirty page is written back and its dirty
	// bit cleared.
	EventFlushed

	numEventTypes = 4
)

// String returns the event name.
func (e EventType) String() string {
	switch e {
	case EventAdded:
		return "Added"
	case EventRemoved:
		return "Removed"
	case EventDirtied:
		return "Dirtied"
	case EventFlushed:
		return "Flushed"
	}
	return fmt.Sprintf("EventType(%d)", uint8(e))
}

// AllEvents is the hook-interest bitmask selecting every event type.
const AllEvents uint8 = 1<<numEventTypes - 1

// FSID identifies a filesystem (address space owner) within the machine.
type FSID uint32

// PageKey identifies a cached page.
type PageKey struct {
	FS    FSID
	Ino   uint64
	Index uint64 // page index within the file
}

// FileKey identifies a file within the machine.
type FileKey struct {
	FS  FSID
	Ino uint64
}

func fileKeyLess(a, b FileKey) bool {
	if a.FS != b.FS {
		return a.FS < b.FS
	}
	return a.Ino < b.Ino
}

// Hook receives page events. Duet implements this interface.
//
// PageEvent receives one event: the page's key and whether the page is
// dirty once the event has happened. PageRun receives the events of one
// InsertRun call at once, after the run is in the cache: the hook must
// treat it exactly as the event sequence Run.Each spells out. With more
// than one hook, each gets the whole run before the next does.
type Hook interface {
	PageEvent(ev EventType, key PageKey, dirty bool)
	PageRun(r *Run)
}

// Range is the pages [Lo, Lo+N) of file (FS, Ino).
type Range struct {
	FS  FSID
	Ino uint64
	Lo  uint64
	N   int
}

// Run is the news of one InsertRun call: the clean pages of its Range
// were added in index order, and the Evicted pages of Victims were
// evicted to make room for them, in eviction order (each range in index
// order). The cache never holds more than its capacity, so the run's
// first pages went into free room and each of its last Evicted pages
// evicted exactly one victim just before it was added. A Run is valid
// only during the PageRun call.
type Run struct {
	Range
	Victims []Range
	Evicted int
}

// Each calls fn for the events of the run in the order the run's
// Inserts fire them one by one: Added(Lo), … for the pages that found
// room, then Removed(first victim), Added(next page), Removed(second
// victim), …. Neither an added page nor a victim is dirty.
func (r *Run) Each(fn func(ev EventType, key PageKey)) {
	free := r.N - r.Evicted
	v, vj := 0, uint64(0) // the next victim: page vj of range v
	for j := 0; j < r.N; j++ {
		if j >= free {
			vr := &r.Victims[v]
			fn(EventRemoved, PageKey{vr.FS, vr.Ino, vr.Lo + vj})
			if vj++; vj == uint64(vr.N) {
				v, vj = v+1, 0
			}
		}
		fn(EventAdded, PageKey{r.FS, r.Ino, r.Lo + uint64(j)})
	}
}

// InterestReporter is optionally implemented by hooks that can report
// which event types they currently need (a bitmask with bit 1<<ev set
// for each interesting EventType). The cache skips hook dispatch
// entirely for event types no hook is interested in — the paper's §4.1
// framework-side filtering, hoisted in front of the dispatch loop.
// Hooks that do not implement InterestReporter are assumed to want
// every event. Hooks whose interest changes must call
// Cache.RefreshInterest.
type InterestReporter interface {
	EventInterest() uint8
}

// Backend writes dirty pages back to storage on behalf of the cache. Each
// filesystem registers one.
type Backend interface {
	// WritebackPages performs device writes for the (sorted, same-inode)
	// page indices. It is called from the flusher or eviction path and may
	// block in virtual time. It returns how many leading entries of
	// indices are durably persisted — len(indices) on success; on a torn
	// or failed write the prefix that still reached the medium — plus the
	// first error. The cache marks the persisted prefix clean and keeps
	// the rest dirty.
	WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error)
}

// Config holds cache tunables.
type Config struct {
	// CapacityPages is the memory budget in pages.
	CapacityPages int
	// DirtyExpire is how long a page stays dirty before the flusher
	// writes it back (Linux dirty_expire_centisecs, default 30s).
	DirtyExpire sim.Time
	// WritebackInterval is how often the flusher runs (Linux
	// dirty_writeback_centisecs, default 5s).
	WritebackInterval sim.Time
	// DirtyBackgroundRatio kicks the flusher immediately (ignoring
	// DirtyExpire) when dirty pages exceed this fraction of the cache,
	// like Linux dirty_background_ratio. Default 0.2.
	DirtyBackgroundRatio float64
}

// DefaultConfig returns Linux-like writeback parameters for a cache of the
// given size.
func DefaultConfig(capacityPages int) Config {
	return Config{
		CapacityPages:     capacityPages,
		DirtyExpire:       30 * sim.Second,
		WritebackInterval: 5 * sim.Second,
	}
}

// Stats tracks cache activity.
type Stats struct {
	Hits, Misses     int64
	Inserts          int64
	Evictions        int64
	DirtyEvictions   int64 // evictions that forced a synchronous writeback
	WritebackPages   int64
	RemovedByDelete  int64
	EventsDispatched int64
	EventsFiltered   int64 // events skipped by the hook interest mask

	// Writeback failure accounting (nonzero only when the backing device
	// fails requests; see internal/faults).
	WritebackErrors  int64 // backend writeback calls that returned an error
	QuarantineEvents int64 // pages quarantined after a permanent write fault
	RequeuedPages    int64 // quarantined pages released back to writeback
	LostPages        int64 // dirty pages reclaim was forced to drop
}

// Per-page state bits, fileIndex.state. A quarantined page — dirty, its
// writeback failed permanently (storage.ErrWriteFault) — keeps pgDirty
// but is withheld from the writeback set, so the flusher stops
// hammering a dead destination. The data is preserved until Requeue
// (after repair/remap) or until reclaim is forced to drop it, which is
// counted in Stats.LostPages.
const (
	pgDirty uint8 = 1 << iota
	pgQuar
)

// fileIndex is a file's per-page state, and the only page index there
// is: Cache.files finds the file, the page index finds the page's slot
// in every array. Slice order is index order, so per-file walks are
// range loops. A walk whose body can remove the file's last page — which
// releases the index to the pool, where another file may pick it up —
// ranges over the slice header it took before the loop (what range does
// anyway) and must not touch the index again afterwards. The arrays
// share one length and capacity; entries past the length are zero.
type fileIndex struct {
	key     FileKey
	seg     []int32    // the segment holding the page; 0 = not resident
	ver     []uint64   // content version, while resident
	state   []uint8    // pgDirty, pgQuar; 0 while not resident
	dirtyAt []sim.Time // when the page came dirty, while dirty
	n       int        // resident pages
	dirty   int        // of which dirty and not quarantined
}

// grow makes page index need-1 addressable.
func (f *fileIndex) grow(need int) {
	if n := max(need, 2*cap(f.seg)); need > cap(f.seg) {
		f.seg, f.ver, f.state, f.dirtyAt = realloc(f.seg, n), realloc(f.ver, n), realloc(f.state, n), realloc(f.dirtyAt, n)
	}
	if need > len(f.seg) {
		f.seg, f.ver, f.state, f.dirtyAt = f.seg[:need], f.ver[:need], f.state[:need], f.dirtyAt[:need]
	}
}

// realloc copies s into a new array of capacity n.
func realloc[T any](s []T, n int) []T { return append(make([]T, 0, n), s...) }

// resident reports whether page idx is cached.
func (f *fileIndex) resident(idx uint64) bool {
	return idx < uint64(len(f.seg)) && f.seg[idx] != 0
}

// poolEntriesPerPage bounds the pool of emptied indexes. A pooled index
// is as long as the largest file it ever served, and the stack is as
// deep as the number of files that were ever resident at once, so left
// alone the pool could pin that product. It is held to this many slots
// per page of cache capacity; past that the indexes deepest in the
// stack, which a steady state never reaches, go to the GC. One slot per
// page is too tight: lfs-gc and ssd-churn then shed and regrow indexes
// for ever, and the garbage shows in their peak RSS.
const poolEntriesPerPage = 4

// segment is a run of pages [lo, lo+n) of file f that are adjacent in
// the LRU, lo coldest. Segments are the LRU's nodes: prev is the hotter
// neighbour and next the colder one, by index into Cache.segs (0 is
// none). stamp orders the LRU without walking it: each segment made at
// the head draws it from a counter, and the pieces a split leaves keep
// it, so a page is colder than another exactly when its (stamp, index)
// is smaller.
type segment struct {
	f          *fileIndex
	lo         uint64
	n          int
	stamp      uint64
	prev, next int32
}

func (s *segment) hi() uint64 { return s.lo + uint64(s.n) }

// hold is reclaim's grip on its writeback candidate across blocking
// writeback (see makeRoom): gone reports that the page left the cache
// meanwhile, and ver is its version at that moment.
type hold struct {
	key  PageKey
	ver  uint64
	gone bool
}

// wbBatch is a reusable writeback staging buffer. A flat index/version
// array plus file boundaries describes per-file batches without
// allocating a slice per file. Buffers are pooled because writeback
// blocks in virtual time, so several flush paths can be staging
// concurrently.
type wbBatch struct {
	idx   []uint64
	vers  []uint64
	files []FileKey
	off   []int // files[i] covers idx[off[i]:off[i+1]]
	next  *wbBatch
}

// Cache is the simulated page cache.
type Cache struct {
	eng      sim.Host
	cfg      Config
	files    FileTab[fileIndex]
	lastFile *fileIndex // the index file() returned last; nil once released
	n        int        // resident pages
	// none is the file file() found absent last, valid while noneSet: a
	// cold read looks up each page of a file not yet in the cache.
	// fileFor forgets it when it gives that file an index.
	none    FileKey
	noneSet bool
	// dirty holds the files with pages to write back (fileIndex.dirty >
	// 0) in key order; dirtyN is the number of such pages. Pages change
	// state far more often than files do, so the tree is touched only
	// when a file's count leaves or returns to zero.
	dirty    *rbtree.Tree[FileKey, *fileIndex]
	dirtyN   int
	backends map[FSID]Backend
	hooks    []Hook
	interest uint8 // union of hook event interest; emit skips masked-out types
	stats    Stats

	// segs holds the segments. segs[0] closes the LRU into a ring: its
	// next is the head, the most recently used segment, and its prev the
	// tail. segFree lists the recycled segments through next.
	segs     []segment
	segFree  int32
	lruClock uint64

	// Clean-victim cursor: pickVictim's answer, kept current instead of
	// rediscovered per eviction. While victimSeg is non-zero, page
	// victimIdx of that segment is the coldest clean page of the LRU and
	// dirtyBelow (< scanLimit) is the number of pages colder than it, all
	// of them dirty. 0 means unknown, or no clean page within the reclaim
	// window; the next pickVictim rescans and re-primes it.
	victimSeg  int32
	victimIdx  uint64
	dirtyBelow int

	// holds are reclaim's candidates held across writeback.
	holds []*hold

	// quar lists quarantined pages in insertion order (bounded by the
	// cache capacity; scanned only on quarantine-state changes).
	quar []PageKey

	// flFree is the stack of emptied indexes, kept with their arrays
	// (length 0, capacity kept) so that a file entering the cache need
	// not allocate; flFreeCap is the slots it holds, see
	// poolEntriesPerPage.
	flFree    []*fileIndex
	flFreeCap int
	batchFree *wbBatch
	run       Run       // InsertRun's report, reused (its Victims keep their capacity)
	obs       *cacheObs // nil unless observability is on (see obs.go)

	flusherKick *sim.WaitQueue
	// flusherTimer is the periodic-wakeup timer. It is a callback, not a
	// goroutine: each flusher round arms it (possibly overlapping an
	// earlier arm still in flight after a threshold wake) and it wakes
	// the flusher when it fires. The flusher itself must stay a
	// goroutine proc — it blocks in the backends' WritebackPages.
	flusherTimer *sim.Callback
}

// New creates a cache and starts its flusher process on e.
func New(e sim.Host, cfg Config) *Cache {
	if cfg.CapacityPages <= 0 {
		panic("pagecache: non-positive capacity")
	}
	if cfg.DirtyExpire <= 0 {
		cfg.DirtyExpire = 30 * sim.Second
	}
	if cfg.WritebackInterval <= 0 {
		cfg.WritebackInterval = 5 * sim.Second
	}
	if cfg.DirtyBackgroundRatio <= 0 {
		cfg.DirtyBackgroundRatio = 0.2
	}
	c := &Cache{
		eng:      e,
		cfg:      cfg,
		dirty:    rbtree.New[FileKey, *fileIndex](fileKeyLess),
		backends: make(map[FSID]Backend),
		segs:     make([]segment, 1),
	}
	c.flusherKick = sim.NewWaitQueue(e)
	c.flusherTimer = sim.NewCallback(e, "pagecache-flusher-timer", func(sim.Time) sim.Time {
		c.flusherKick.WakeAll()
		return 0
	})
	e.Go("pagecache-flusher", c.flusher)
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a pointer to live statistics.
func (c *Cache) Stats() *Stats { return &c.stats }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.n }

// DirtyLen returns the number of dirty pages awaiting writeback
// (quarantined pages are dirty but held out of it).
func (c *Cache) DirtyLen() int { return c.dirtyN }

// RegisterFS attaches the writeback backend for a filesystem.
func (c *Cache) RegisterFS(fs FSID, b Backend) { c.backends[fs] = b }

// AddHook registers an event hook (Duet).
func (c *Cache) AddHook(h Hook) {
	c.hooks = append(c.hooks, h)
	c.RefreshInterest()
}

// HookCount returns the number of registered event hooks. Recovery
// paths that rebuild a Duet instance use it to assert they did not
// leave an orphaned hook behind.
func (c *Cache) HookCount() int { return len(c.hooks) }

// RemoveHook detaches a previously added hook. The hook list is
// copy-on-write: removal while an event is being dispatched is safe —
// the in-flight dispatch finishes over its snapshot (so the removed
// hook may still observe the current event), and subsequent events no
// longer reach it.
func (c *Cache) RemoveHook(h Hook) {
	for i, hh := range c.hooks {
		if hh == h {
			nh := make([]Hook, 0, len(c.hooks)-1)
			nh = append(nh, c.hooks[:i]...)
			nh = append(nh, c.hooks[i+1:]...)
			c.hooks = nh
			c.RefreshInterest()
			return
		}
	}
}

// RefreshInterest recomputes the union of hook event interest. Hooks
// that implement InterestReporter and change their interest (Duet, on
// session register/deregister) must call this.
func (c *Cache) RefreshInterest() {
	var m uint8
	for _, h := range c.hooks {
		if ir, ok := h.(InterestReporter); ok {
			m |= ir.EventInterest()
		} else {
			m = AllEvents
			break
		}
	}
	c.interest = m
}

func (c *Cache) emit(ev EventType, key PageKey, dirty bool) {
	c.stats.EventsDispatched++
	if c.interest&(1<<ev) == 0 {
		c.stats.EventsFiltered++
		return
	}
	// Snapshot: RemoveHook replaces the slice rather than splicing it,
	// so an in-flight dispatch is immune to hook removal from inside a
	// callback.
	hooks := c.hooks
	for _, h := range hooks {
		h.PageEvent(ev, key, dirty)
	}
}

// --- segment LRU -----------------------------------------------------------

// newSeg makes a segment for the pages [lo, lo+n) of f, unlinked.
// Pointers into c.segs do not survive it.
func (c *Cache) newSeg(f *fileIndex, lo uint64, n int, stamp uint64) int32 {
	id := c.segFree
	if id != 0 {
		c.segFree = c.segs[id].next
	} else {
		id = int32(len(c.segs))
		c.segs = append(c.segs, segment{})
	}
	c.segs[id] = segment{f: f, lo: lo, n: n, stamp: stamp}
	return id
}

// link puts segment id into the LRU between prev (hotter) and next.
func (c *Cache) link(id, prev, next int32) {
	c.segs[id].prev, c.segs[id].next = prev, next
	c.segs[prev].next, c.segs[next].prev = id, id
}

// unlinkSeg takes segment id out of the LRU and recycles it.
func (c *Cache) unlinkSeg(id int32) {
	s := &c.segs[id]
	c.segs[s.prev].next, c.segs[s.next].prev = s.next, s.prev
	*s = segment{next: c.segFree}
	c.segFree = id
}

// colder reports whether page idx of segment id is colder than the
// victim cursor, which must be set.
func (c *Cache) colder(id int32, idx uint64) bool {
	s, v := c.segs[id].stamp, c.segs[c.victimSeg].stamp
	return s < v || s == v && idx < c.victimIdx
}

// cut takes the pages [a, b) of segment id out of the LRU, splitting the
// segment when they are inside it; the pages' file state is the
// caller's. The piece with fewer pages moves to a new segment, so a
// split relabels at most half of them.
func (c *Cache) cut(id int32, a, b uint64) {
	if c.victimSeg != 0 {
		if c.victimSeg == id && c.victimIdx >= a && c.victimIdx < b {
			// The pages of the stretch colder than the victim are dirty
			// and leave; the walk to the next victim starts past it.
			c.dirtyBelow -= int(c.victimIdx - a)
			c.victimIdx = b - 1
			c.advanceVictim(0)
		} else if c.colder(id, a) {
			c.dirtyBelow -= int(b - a)
		}
	}
	s := &c.segs[id]
	lo, hi := s.lo, s.hi()
	switch {
	case a == lo && b == hi:
		c.unlinkSeg(id)
	case a == lo:
		s.lo, s.n = b, int(hi-b)
	case b == hi:
		s.n = int(a - lo)
	case a-lo <= hi-b:
		f, stamp, next := s.f, s.stamp, s.next
		s.lo, s.n = b, int(hi-b)
		p := c.newSeg(f, lo, int(a-lo), stamp)
		c.link(p, id, next)
		c.relabel(p, id)
	default:
		f, stamp, prev := s.f, s.stamp, s.prev
		s.n = int(a - lo)
		p := c.newSeg(f, b, int(hi-b), stamp)
		c.link(p, prev, id)
		c.relabel(p, id)
	}
}

// relabel points the pages of piece p, split off segment from, at it,
// and the victim cursor with them.
func (c *Cache) relabel(p, from int32) {
	s := &c.segs[p]
	ids := s.f.seg[s.lo:s.hi()]
	for i := range ids {
		ids[i] = p
	}
	if c.victimSeg == from && c.victimIdx >= s.lo && c.victimIdx < s.hi() {
		c.victimSeg = p
	}
}

// pushRun makes the pages [lo, lo+n) of f, out of the LRU, its hottest,
// in index order: they extend the head segment when they continue it.
func (c *Cache) pushRun(f *fileIndex, lo uint64, n int) {
	id := c.segs[0].next
	if h := &c.segs[id]; id != 0 && h.f == f && h.hi() == lo {
		h.n += n
	} else {
		c.lruClock++
		id = c.newSeg(f, lo, n, c.lruClock)
		c.link(id, 0, c.segs[0].next)
	}
	ids := f.seg[lo : lo+uint64(n)]
	for i := range ids {
		ids[i] = id
	}
}

// advanceVictim moves the cursor off the current victim, which is
// leaving the LRU (passed = 0) or has just been dirtied (passed = 1), to
// the next clean page toward the head, counting the dirty pages it
// walks over. A dirty page is walked over once per stay below the
// cursor, and the walk ends where the reclaim window does: with no clean
// page inside it there is no victim to cache, and pickVictim rescans.
func (c *Cache) advanceVictim(passed int) {
	below := c.dirtyBelow + passed
	id, idx := c.victimSeg, c.victimIdx
	for {
		if s := &c.segs[id]; idx+1 < s.hi() {
			idx++
		} else if id = s.prev; id != 0 {
			idx = c.segs[id].lo
		}
		if id == 0 || below >= scanLimit || c.segs[id].f.state[idx] == 0 {
			break
		}
		below++
	}
	if below >= scanLimit {
		id = 0
	}
	c.victimSeg, c.victimIdx, c.dirtyBelow = id, idx, below
}

// touch makes the resident pages [lo, hi) of f the hottest, in index
// order.
func (c *Cache) touch(f *fileIndex, lo, hi uint64) {
	for i := lo; i < hi; {
		id := f.seg[i]
		end := min(hi, c.segs[id].hi())
		c.cut(id, i, end)
		i = end
	}
	c.pushRun(f, lo, int(hi-lo))
}

// --- per-file index --------------------------------------------------------

// file returns the file's index, or nil when it has no resident page.
// Readers, writeback and reclaim all walk one file at a time, so the
// index returned last, and the file found absent last, are tried before
// the table.
func (c *Cache) file(fk FileKey) *fileIndex {
	if f := c.lastFile; f != nil && f.key == fk {
		return f
	}
	if c.noneSet && c.none == fk {
		return nil
	}
	f := c.files.Get(fk)
	if f != nil {
		c.lastFile = f
	} else {
		c.none, c.noneSet = fk, true
	}
	return f
}

// page returns the index of the file holding key when key is resident.
func (c *Cache) page(key PageKey) (*fileIndex, bool) {
	f := c.file(FileKey{key.FS, key.Ino})
	return f, f != nil && f.resident(key.Index)
}

// fileFor returns the file's index, taking one from the pool if the file
// has no resident page.
func (c *Cache) fileFor(fk FileKey) *fileIndex {
	if f := c.file(fk); f != nil {
		return f
	}
	var f *fileIndex
	if n := len(c.flFree) - 1; n >= 0 {
		f, c.flFree[n] = c.flFree[n], nil
		c.flFree = c.flFree[:n]
		c.flFreeCap -= cap(f.seg)
	} else {
		f = &fileIndex{}
	}
	f.key = fk
	c.files.Put(fk, f)
	c.lastFile = f
	c.noneSet = false // file() just found fk absent
	return f
}

// addRun makes the clean pages [lo, lo+len(vers)) of file fk, none of
// them cached, resident at the front of the LRU; the caller has made
// room for them.
func (c *Cache) addRun(fk FileKey, lo uint64, vers []uint64) {
	f := c.fileFor(fk)
	f.grow(int(lo) + len(vers))
	copy(f.ver[lo:], vers)
	c.pushRun(f, lo, len(vers))
	f.n += len(vers)
	c.n += len(vers)
	c.stats.Inserts += int64(len(vers))
}

// drop takes the pages [a, b) of f, all of segment id, out of the cache,
// with their dirty or quarantine state, and releases the index to the
// pool when they were the file's last pages.
func (c *Cache) drop(f *fileIndex, id int32, a, b uint64) {
	c.cut(id, a, b)
	for i := a; i < b; i++ {
		if st := f.state[i]; st&pgQuar != 0 {
			c.unquarantine(PageKey{f.key.FS, f.key.Ino, i})
		} else if st != 0 {
			c.dirtyDel(f)
		}
		f.state[i], f.seg[i] = 0, 0
		for _, h := range c.holds {
			if !h.gone && h.key == (PageKey{f.key.FS, f.key.Ino, i}) {
				h.gone, h.ver = true, f.ver[i]
			}
		}
	}
	f.n -= int(b - a)
	c.n -= int(b - a)
	if f.n > 0 {
		return
	}
	c.files.Del(f.key)
	if c.lastFile == f {
		c.lastFile = nil
	}
	c.none, c.noneSet = f.key, true
	f.seg, f.ver, f.state, f.dirtyAt = f.seg[:0], f.ver[:0], f.state[:0], f.dirtyAt[:0]
	c.flFree = append(c.flFree, f)
	c.flFreeCap += cap(f.seg)
	for c.flFreeCap > poolEntriesPerPage*c.cfg.CapacityPages {
		c.flFreeCap -= cap(c.flFree[0].seg)
		c.flFree[0] = nil
		c.flFree = c.flFree[1:]
	}
}

// dirtyAdd and dirtyDel move a dirty page of f that is not quarantined
// into and out of the writeback set.
func (c *Cache) dirtyAdd(f *fileIndex) {
	if f.dirty == 0 {
		c.dirty.Set(f.key, f)
	}
	f.dirty++
	c.dirtyN++
}

func (c *Cache) dirtyDel(f *fileIndex) {
	f.dirty--
	c.dirtyN--
	if f.dirty == 0 {
		c.dirty.Delete(f.key)
	}
}

// --- writeback batch pool --------------------------------------------------

func (c *Cache) getBatch() *wbBatch {
	if b := c.batchFree; b != nil {
		c.batchFree = b.next
		b.next = nil
		return b
	}
	return &wbBatch{}
}

func (c *Cache) putBatch(b *wbBatch) {
	b.idx = b.idx[:0]
	b.vers = b.vers[:0]
	b.files = b.files[:0]
	b.off = b.off[:0]
	b.next = c.batchFree
	c.batchFree = b
}

// --- lookup / insert / evict ----------------------------------------------

// Lookup reports whether the page is cached, promoting it in the LRU,
// and counts the hit or the miss.
func (c *Cache) Lookup(key PageKey) bool {
	ok := c.Touch(key)
	if !ok {
		c.stats.Misses++
	}
	return ok
}

// Touch is Lookup for read paths that follow a miss with an Insert and
// do their own miss accounting: a hit is promoted and counted, a miss is
// only reported.
func (c *Cache) Touch(key PageKey) bool {
	return c.TouchRun(key.FS, key.Ino, key.Index, 1) == 1
}

// TouchRun is Touch for the pages [lo, lo+n) of file ino, one after
// another, up to the first page that is not cached: it returns how many
// it touched. The pages it touches become the hottest run of the LRU.
func (c *Cache) TouchRun(fs FSID, ino, lo uint64, n int) int {
	f, hi := c.file(FileKey{fs, ino}), lo
	for f != nil && hi < lo+uint64(n) && f.resident(hi) {
		hi++
	}
	if hi > lo {
		c.stats.Hits += int64(hi - lo)
		c.touch(f, lo, hi)
	}
	return int(hi - lo)
}

// Peek returns the page's version and dirty bit if it is cached, without
// perturbing the LRU or stats.
func (c *Cache) Peek(key PageKey) (ver uint64, dirty, ok bool) {
	f, ok := c.page(key)
	if !ok {
		return 0, false, false
	}
	return f.ver[key.Index], f.state[key.Index] != 0, true
}

// Contains reports whether the page is cached, without LRU effects.
func (c *Cache) Contains(key PageKey) bool {
	_, ok := c.page(key)
	return ok
}

// Insert adds a clean page with the given content version, evicting as
// needed, and fires Added. If the page is already present it is promoted
// and left unchanged. Insert may block (eviction of a dirty page forces
// a synchronous writeback), so it needs the calling process.
func (c *Cache) Insert(p *sim.Proc, key PageKey, version uint64) {
	if f, ok := c.page(key); ok {
		c.touch(f, key.Index, key.Index+1)
		return
	}
	if c.makeRoom(p) {
		// Reclaim blocked in writeback, so another process may have
		// inserted the key meanwhile; a second page under it would orphan
		// the first in the LRU.
		if f, ok := c.page(key); ok {
			c.touch(f, key.Index, key.Index+1)
			return
		}
	}
	c.addRun(FileKey{key.FS, key.Ino}, key.Index, []uint64{version})
	c.emit(EventAdded, key, false)
}

// runEvents is the interest InsertRun reports in one PageRun call.
const runEvents = 1<<EventAdded | 1<<EventRemoved

// InsertRun inserts the clean pages [lo, lo+len(vers)) of file ino, page
// lo+j at version vers[j], as len(vers) Inserts would: the same victims,
// LRU order, file index and stats. When the hooks want both Added and
// Removed, the run reaches each hook in one PageRun call (see Run);
// otherwise each event is emitted, or counted as filtered, as Insert
// does. InsertRun never blocks, so it needs no process: it stops before
// a page whose room only writeback can make — the caller inserts that
// page with Insert, which may block — and before a page that is cached
// already, and returns how many pages it inserted.
//
// It works a stretch at a time: the pages that fit in free room, or as
// many as the clean pages from the victim onward in the victim's
// segment, which are the victims Insert would pick one after another.
func (c *Cache) InsertRun(fs FSID, ino, lo uint64, vers []uint64) int {
	bulk := c.interest&runEvents == runEvents
	r := &c.run
	r.Victims, r.Evicted = r.Victims[:0], 0
	fk := FileKey{fs, ino}
	n := 0
	for n < len(vers) {
		at := lo + uint64(n)
		k, f := len(vers)-n, c.file(fk) // k: the pages from at that are not cached
		for j := 0; f != nil && j < k; j++ {
			if f.resident(at + uint64(j)) {
				k = j
			}
		}
		if k == 0 {
			break
		}
		var victim Range
		if room := c.cfg.CapacityPages - c.n; room > 0 {
			k = min(k, room)
		} else {
			id, idx := c.pickVictim()
			if id == 0 {
				break
			}
			s := &c.segs[id]
			vf, end := s.f, idx+1
			for end < s.hi() && end < idx+uint64(k) && vf.state[end] == 0 {
				end++
			}
			k = int(end - idx)
			victim = Range{vf.key.FS, vf.key.Ino, idx, k}
			c.drop(vf, id, idx, end)
			c.stats.Evictions += int64(k)
		}
		c.addRun(fk, at, vers[n:n+k])
		switch {
		case bulk && victim.N > 0:
			r.Evicted += k
			r.Victims = append(r.Victims, victim)
		case !bulk:
			for j := 0; j < k; j++ {
				if victim.N > 0 {
					c.emit(EventRemoved, PageKey{victim.FS, victim.Ino, victim.Lo + uint64(j)}, false)
				}
				c.emit(EventAdded, PageKey{fs, ino, at + uint64(j)}, false)
			}
		}
		n += k
	}
	if bulk && n > 0 {
		r.Range = Range{fs, ino, lo, n}
		c.stats.EventsDispatched += int64(n + r.Evicted)
		for _, h := range c.hooks {
			h.PageRun(r)
		}
	}
	return n
}

// makeRoom evicts pages until there is room for one more. It reports
// whether it went through writeback, the only place it can block.
func (c *Cache) makeRoom(p *sim.Proc) (blocked bool) {
	for c.n >= c.cfg.CapacityPages {
		id, idx := c.pickVictim()
		if id == 0 {
			// The reclaim window is all dirty: write back the coldest
			// page's whole file (batched into coalesced device writes,
			// as kernel reclaim hands contiguous ranges to writeback)
			// and retry the scan for a clean victim. The writebacks
			// block, so the tail page is held: a concurrent process may
			// evict it meanwhile, and the hold keeps its key and the
			// version it left with for the fallback below.
			blocked = true
			t := &c.segs[c.segs[0].prev]
			h := &hold{key: PageKey{t.f.key.FS, t.f.key.Ino, t.lo}}
			c.holds = append(c.holds, h)
			c.stats.DirtyEvictions++
			// A writeback failure here is classified, counted
			// (Stats.WritebackErrors), and acted on inside SyncFile
			// (transient: pages stay dirty; permanent: quarantined);
			// reclaim just rescans for whatever came clean.
			_ = c.SyncFile(p, h.key.FS, h.key.Ino)
			id, idx = c.pickVictim()
			if id == 0 {
				// The file was re-dirtied or empty: fall back to a single
				// forced page writeback.
				c.writebackHeld(p, h)
			}
			c.holds = slices.DeleteFunc(c.holds, func(x *hold) bool { return x == h })
			if id == 0 {
				c.stats.Evictions++
				if h.gone {
					// A concurrent process evicted the page meanwhile (and
					// the key may be cached again): eviction raced, and
					// both parties report the removal, leaving any page
					// now under the key intact.
					c.emit(EventRemoved, h.key, false)
					continue
				}
				f, _ := c.page(h.key)
				if f.state[h.key.Index] != 0 {
					// The forced writeback failed too (or the page is
					// quarantined) and memory pressure leaves no choice:
					// the page is dropped with its data, recorded rather
					// than silently swallowed.
					c.stats.LostPages++
				}
				c.removePage(f, h.key.Index)
				continue
			}
		}
		c.removePage(c.segs[id].f, idx)
		c.stats.Evictions++
	}
	return blocked
}

// scanLimit is how many pages reclaim looks at from the LRU tail before
// it gives up on finding a clean one and forces writeback.
const scanLimit = 128

// pickVictim returns the first clean page within scanLimit positions of
// the LRU tail (approximating kernel reclaim, which prefers clean pages)
// as its segment and page index, or segment 0 when that window is all
// dirty. The answer normally comes from the clean-victim cursor in
// O(1); the scan below runs only to re-prime an invalid cursor.
func (c *Cache) pickVictim() (int32, uint64) {
	if c.victimSeg != 0 {
		return c.victimSeg, c.victimIdx
	}
	i := 0
	for id := c.segs[0].prev; id != 0 && i < scanLimit; id = c.segs[id].prev {
		s := &c.segs[id]
		for idx := s.lo; idx < s.hi() && i < scanLimit; idx, i = idx+1, i+1 {
			if s.f.state[idx] == 0 {
				c.victimSeg, c.victimIdx, c.dirtyBelow = id, idx, i
				return id, idx
			}
		}
	}
	return 0, 0
}

// writebackHeld synchronously writes the held page back: the page still
// resident, or the version it left the cache with. On failure the page
// stays dirty (or is quarantined, for a permanent fault); the caller
// decides whether it must be dropped anyway.
func (c *Cache) writebackHeld(p *sim.Proc, h *hold) {
	key, ver := h.key, h.ver
	b := c.backends[key.FS]
	if b == nil {
		panic(fmt.Sprintf("pagecache: no backend for fs %d", key.FS))
	}
	if !h.gone {
		f, _ := c.page(key)
		if f.state[key.Index]&pgQuar != 0 {
			return
		}
		ver = f.ver[key.Index]
	}
	one := c.getBatch()
	one.idx = append(one.idx, key.Index)
	one.vers = append(one.vers, ver)
	n, err := b.WritebackPages(p, key.Ino, one.idx)
	c.stats.WritebackPages += int64(n)
	if n > 0 {
		c.markCleanIf(key, ver)
	}
	if err != nil {
		c.wbFailed(err, key.FS, key.Ino, one.idx[n:], one.vers[n:])
	}
	c.putBatch(one)
}

// removePage drops resident page idx of f and fires Removed.
func (c *Cache) removePage(f *fileIndex, idx uint64) {
	key := PageKey{f.key.FS, f.key.Ino, idx}
	c.drop(f, f.seg[idx], idx, idx+1)
	c.emit(EventRemoved, key, false)
}

// MarkDirty sets the page's dirty bit and bumps its content version,
// firing Dirtied on the clean-to-dirty transition. The page must be
// cached.
func (c *Cache) MarkDirty(key PageKey, version uint64) {
	f, ok := c.page(key)
	if !ok {
		panic(fmt.Sprintf("pagecache: MarkDirty of %v, which is not cached", key))
	}
	idx := key.Index
	f.ver[idx] = version
	if f.state[idx] != 0 {
		return
	}
	f.state[idx] = pgDirty
	if c.victimSeg == f.seg[idx] && c.victimIdx == idx {
		c.advanceVictim(1)
	}
	f.dirtyAt[idx] = c.eng.Now()
	c.dirtyAdd(f)
	c.emit(EventDirtied, key, true)
	// Dirty-background throttling: too many dirty pages wake the flusher
	// immediately rather than waiting out the expiry interval.
	if float64(c.dirtyN) > c.cfg.DirtyBackgroundRatio*float64(c.cfg.CapacityPages) {
		c.flusherKick.WakeAll()
	}
}

// markCleanIf clears the dirty bit if the page is still at the version the
// writeback captured, firing Flushed. Re-dirtied pages stay dirty.
func (c *Cache) markCleanIf(key PageKey, version uint64) {
	f, ok := c.page(key)
	if !ok || f.state[key.Index] != pgDirty || f.ver[key.Index] != version {
		return
	}
	f.state[key.Index] = 0
	if c.victimSeg != 0 && c.colder(f.seg[key.Index], key.Index) {
		c.victimSeg = 0 // a colder page came clean: re-prime on demand
	}
	c.dirtyDel(f)
	c.emit(EventFlushed, key, false)
}

// Remove drops a page (file truncation or deletion), firing Removed.
// Dirty pages are discarded without writeback, matching truncate
// semantics.
func (c *Cache) Remove(key PageKey) bool {
	f, ok := c.page(key)
	if ok {
		c.removePage(f, key.Index)
	}
	return ok
}

// RemoveFile drops every cached page of a file (deletion), firing
// Removed for each in index order. It drops a segment at a time: in
// index order, the first page left of a segment is its coldest.
func (c *Cache) RemoveFile(fs FSID, ino uint64) int {
	f := c.file(FileKey{fs, ino})
	if f == nil {
		return 0
	}
	n := f.n
	for i, ids := uint64(0), f.seg; i < uint64(len(ids)); {
		if ids[i] == 0 {
			i++
			continue
		}
		hi := c.segs[ids[i]].hi()
		c.drop(f, ids[i], i, hi)
		for ; i < hi; i++ {
			c.emit(EventRemoved, PageKey{fs, ino, i}, false)
		}
	}
	c.stats.RemovedByDelete += int64(n)
	return n
}

// FilePages returns the number of cached pages of a file.
func (c *Cache) FilePages(fs FSID, ino uint64) int {
	if f := c.file(FileKey{fs, ino}); f != nil {
		return f.n
	}
	return 0
}

// FileDirty reports whether any resident page of a file is dirty,
// quarantined pages included, without walking the file: the index counts
// the dirty pages on the writeback path, and the quarantine list (short,
// and empty unless a write fault struck) holds the rest.
func (c *Cache) FileDirty(fs FSID, ino uint64) bool {
	f := c.file(FileKey{fs, ino})
	if f == nil {
		return false
	}
	if f.dirty > 0 {
		return true
	}
	for _, k := range c.quar {
		if k.FS == fs && k.Ino == ino {
			return true
		}
	}
	return false
}

// IterateFile calls fn for each cached page of a file in index order,
// with its dirty bit, without allocating. fn may remove the page it was
// handed, but must not otherwise insert or remove pages of the same file
// during iteration.
func (c *Cache) IterateFile(fs FSID, ino uint64, fn func(key PageKey, dirty bool) bool) {
	fk := FileKey{fs, ino}
	f := c.file(fk)
	if f == nil {
		return
	}
	for i, id := range f.seg {
		if id == 0 {
			continue
		}
		// fn removed the file's last page and its index now serves
		// another file, whose pages these are.
		if f.key != fk {
			return
		}
		if !fn(PageKey{fs, ino, uint64(i)}, f.state[i] != 0) {
			return
		}
	}
}

// Iterate calls fn for every cached page in key order, with its dirty
// bit (used by Duet's registration scan). It snapshots keys first, so fn
// may mutate the cache.
func (c *Cache) Iterate(fn func(key PageKey, dirty bool) bool) {
	fks := c.files.AppendKeys(make([]FileKey, 0, c.files.Len()))
	sort.Slice(fks, func(i, j int) bool { return fileKeyLess(fks[i], fks[j]) })
	keys := make([]PageKey, 0, c.n)
	for _, fk := range fks {
		for i, id := range c.files.Get(fk).seg {
			if id != 0 {
				keys = append(keys, PageKey{fk.FS, fk.Ino, uint64(i)})
			}
		}
	}
	for _, k := range keys {
		if f, ok := c.page(k); ok && !fn(k, f.state[k.Index] != 0) {
			return
		}
	}
}

// SyncFile writes back all dirty pages of one file immediately.
// Quarantined pages are skipped (their destination is known-broken); on
// a partial failure the persisted prefix is marked clean and the rest
// handled per wbFailed.
func (c *Cache) SyncFile(p *sim.Proc, fs FSID, ino uint64) error {
	f := c.file(FileKey{fs, ino})
	if f == nil || f.dirty == 0 {
		return nil
	}
	b := c.getBatch()
	for i, st := range f.state {
		if st == pgDirty {
			b.idx = append(b.idx, uint64(i))
			b.vers = append(b.vers, f.ver[i])
		}
	}
	be := c.backends[fs]
	if be == nil {
		panic(fmt.Sprintf("pagecache: no backend for fs %d", fs))
	}
	n, err := be.WritebackPages(p, ino, b.idx)
	c.stats.WritebackPages += int64(n)
	for i := 0; i < n; i++ {
		c.markCleanIf(PageKey{fs, ino, b.idx[i]}, b.vers[i])
	}
	if err != nil {
		c.wbFailed(err, fs, ino, b.idx[n:], b.vers[n:])
	}
	c.putBatch(b)
	return err
}

// Sync writes back every dirty page.
func (c *Cache) Sync(p *sim.Proc) {
	c.flushExpired(p, 0)
}

// flusher is the background writeback process. It wakes on its periodic
// interval, or early when the dirty-background threshold is crossed.
func (c *Cache) flusher(p *sim.Proc) {
	for {
		// Arm the reusable timer callback through the run queue. A
		// threshold wake can leave an earlier arm in flight; the callback
		// supports overlapping arms.
		c.flusherTimer.ArmDeferred(c.cfg.WritebackInterval)
		c.flusherKick.Wait(p, "flusher interval")
		if float64(c.dirtyN) > c.cfg.DirtyBackgroundRatio*float64(c.cfg.CapacityPages) {
			c.flushExpired(p, 0) // over background ratio: flush regardless of age
		} else {
			c.flushExpired(p, c.cfg.DirtyExpire)
		}
	}
}

// flushExpired writes back dirty pages older than minAge, grouped by
// file. The staging buffers come from the batch pool, so repeated
// flusher wakeups allocate nothing.
func (c *Cache) flushExpired(p *sim.Proc, minAge sim.Time) {
	now := c.eng.Now()
	var flushStart sim.Time
	if c.obs != nil {
		flushStart = now
	}
	b := c.getBatch()
	c.dirty.Ascend(nil, func(fk FileKey, f *fileIndex) bool {
		start := len(b.idx)
		for i, st := range f.state {
			if st == pgDirty && now-f.dirtyAt[i] >= minAge {
				b.idx = append(b.idx, uint64(i))
				b.vers = append(b.vers, f.ver[i])
			}
		}
		if len(b.idx) > start {
			b.files = append(b.files, fk)
			b.off = append(b.off, start)
		}
		return true
	})
	b.off = append(b.off, len(b.idx))
	for i, fk := range b.files {
		be := c.backends[fk.FS]
		if be == nil {
			panic(fmt.Sprintf("pagecache: no backend for fs %d", fk.FS))
		}
		lo, hi := b.off[i], b.off[i+1]
		n, err := be.WritebackPages(p, fk.Ino, b.idx[lo:hi])
		c.stats.WritebackPages += int64(n)
		for j := lo; j < lo+n; j++ {
			c.markCleanIf(PageKey{fk.FS, fk.Ino, b.idx[j]}, b.vers[j])
		}
		if err != nil {
			// Unpersisted pages stay dirty for retry; permanent faults
			// quarantine them instead of retrying forever.
			c.wbFailed(err, fk.FS, fk.Ino, b.idx[lo+n:hi], b.vers[lo+n:hi])
		}
	}
	if c.obs != nil {
		c.observeFlush(flushStart, c.eng.Now(), len(b.idx))
	}
	c.putBatch(b)
}

// wbFailed handles the unpersisted remainder of a failed writeback
// call. Transient device errors (including timeouts) re-dirty the pages
// — the expiry clock restarts so the flusher retries after a backoff
// rather than immediately. A permanent write fault quarantines them:
// data is held in memory, off the writeback path, until Requeue.
// Any other error (e.g. an lfs out-of-space) leaves the pages exactly
// as they were, preserving the historical retry behavior.
func (c *Cache) wbFailed(err error, fs FSID, ino uint64, idx, vers []uint64) {
	c.stats.WritebackErrors++
	permanent := errors.Is(err, storage.ErrWriteFault)
	transient := storage.IsTransient(err)
	if !permanent && !transient {
		return
	}
	now := c.eng.Now()
	for i, ix := range idx {
		f, ok := c.page(PageKey{fs, ino, ix})
		if !ok || f.state[ix] != pgDirty {
			continue
		}
		if permanent && f.ver[ix] == vers[i] {
			c.quarantine(f, ix)
			continue
		}
		f.dirtyAt[ix] = now
	}
}

// quarantine parks a dirty page out of the writeback path after a
// permanent fault. The page keeps its data and dirty bit but leaves the
// writeback set, so flusher and sync passes skip it.
func (c *Cache) quarantine(f *fileIndex, idx uint64) {
	f.state[idx] |= pgQuar
	c.dirtyDel(f)
	c.quar = append(c.quar, PageKey{f.key.FS, f.key.Ino, idx})
	c.stats.QuarantineEvents++
	if st := c.obs; st != nil && st.tr != nil {
		st.tr.Instant(st.tid, "pagecache", "quarantine", c.eng.Now())
	}
}

// Quarantined appends the keys of currently quarantined pages to dst
// and returns it (insertion order).
func (c *Cache) Quarantined(dst []PageKey) []PageKey {
	return append(dst, c.quar...)
}

// QuarantinedLen returns the number of quarantined pages.
func (c *Cache) QuarantinedLen() int { return len(c.quar) }

// DropVolatile discards every cached page — clean, dirty, and
// quarantined — without writeback: the power-cut primitive. In-engine
// crash simulation (internal/cluster) calls it at the kill instant so
// the abandoned cache's flusher has nothing left to persist; a real
// power cut loses exactly this state. No Removed events are emitted:
// the machine whose hooks cared about these pages is the one that just
// died. Returns the number of pages dropped.
func (c *Cache) DropVolatile() int {
	n := c.n
	c.victimSeg = 0
	for id := c.segs[0].next; id != 0; id = c.segs[0].next {
		s := &c.segs[id]
		c.drop(s.f, id, s.lo, s.hi())
	}
	return n
}

// Requeue releases a quarantined page back into the writeback path —
// called after the underlying fault is repaired (block remapped or
// rewritten). The expiry clock restarts at now.
func (c *Cache) Requeue(key PageKey) bool {
	f, ok := c.page(key)
	if !ok || f.state[key.Index]&pgQuar == 0 {
		return false
	}
	c.unquarantine(key)
	f.state[key.Index] = pgDirty
	f.dirtyAt[key.Index] = c.eng.Now()
	c.dirtyAdd(f)
	c.stats.RequeuedPages++
	if st := c.obs; st != nil && st.tr != nil {
		st.tr.Instant(st.tid, "pagecache", "requeue", c.eng.Now())
	}
	c.flusherKick.WakeAll()
	return true
}

// unquarantine drops the key from the quarantine list.
func (c *Cache) unquarantine(key PageKey) {
	for i, k := range c.quar {
		if k == key {
			c.quar = append(c.quar[:i], c.quar[i+1:]...)
			break
		}
	}
}
