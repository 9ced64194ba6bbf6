// Package pagecache simulates the operating system page cache that Duet
// hooks into.
//
// Pages are keyed by (filesystem, inode, page index) and managed with a
// global LRU under a fixed page budget. Dirty pages are written back by a
// flusher process after a dirty-expire interval, mirroring the Linux
// writeback behaviour the paper depends on for Flushed events.
//
// The cache does not store page contents. Each page carries a Version
// stamp; content is defined as a deterministic function of
// (inode, index, version), which preserves checksum and comparison
// semantics (a write changes the version, so checksums change) without
// allocating 4 KiB per page.
//
// Duet attaches to the cache through the Hook interface and receives the
// four page events of the paper's Table 2: Added, Removed, Dirtied,
// Flushed.
//
// The hot path is allocation-free in steady state: Page structs live in
// a preallocated arena bounded by CapacityPages and are recycled through
// a free list, the LRU is an intrusive linked list threaded through the
// pages themselves, each file's pages sit in a slice indexed by page
// index that is pooled when the file leaves the cache, and writeback
// batches reuse pooled buffers. A *Page handed to a Hook is only valid
// while the page is resident — hooks must not retain it across events
// (see DESIGN.md).
package pagecache

import (
	"errors"
	"fmt"
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

// Page is a cached page. Fields are read-only outside this package.
//
// Pages are arena-allocated and recycled: a *Page is only valid while
// the page is resident in the cache. Hooks receive the pointer for the
// duration of one PageEvent call and must not retain it.
type Page struct {
	Key     PageKey
	Version uint64 // content stamp
	Dirty   bool
	DirtyAt sim.Time

	// lruPrev/lruNext thread the global LRU (front = most recently
	// used); lruNext doubles as the arena free-list link while the page
	// is not resident. file is the index holding the page at
	// file.pages[Key.Index], nil while the page is not resident.
	lruPrev, lruNext *Page
	file             *fileIndex

	// lruStamp orders the LRU without walking it: it is drawn from a
	// counter on every push to the front, so a page is colder than
	// another exactly when its stamp is smaller.
	lruStamp uint64

	// resident is true while the page is linked into the LRU and its
	// file's index. pins counts in-flight references held across a
	// blocking call (reclaim holding its eviction candidate); a pinned
	// page is not recycled into the arena even after removal, so the
	// holder's pointer stays frozen rather than aliasing a new page.
	resident bool
	pins     int32

	// quarantined marks a dirty page whose writeback failed permanently
	// (storage.ErrWriteFault): it stays dirty but is withheld from the
	// writeback set, so the flusher stops hammering a dead destination. The
	// data is preserved until Requeue (after repair/remap) or until
	// reclaim is forced to drop it, which is counted in Stats.LostPages.
	quarantined bool
}

// Quarantined reports whether the page is held out of writeback after a
// permanent write fault.
func (pg *Page) Quarantined() bool { return pg.quarantined }

// Hook receives page events. Duet implements this interface.
//
// PageEvent receives one event. PageRun receives the events of one
// InsertRun call at once, after the run is in the cache: the hook must
// treat it exactly as the event sequence Run.Each spells out. With more
// than one hook, each gets the whole run before the next does.
type Hook interface {
	PageEvent(ev EventType, pg *Page)
	PageRun(r *Run)
}

// Run is the news of one InsertRun call: the clean pages [Lo, Lo+N) of
// file (FS, Ino) were added in index order, and Victims were evicted to
// make room for them, in eviction order. The cache never holds more than
// its capacity, so the run's first pages went into free room and each of
// its last len(Victims) pages evicted exactly one victim just before it
// was added. A Run is valid only during the PageRun call.
type Run struct {
	FS      FSID
	Ino     uint64
	Lo      uint64
	N       int
	Victims []PageKey
}

// Each calls fn for the events of the run in the order the run's
// Inserts fire them one by one: Added(Lo), … for the pages that found
// room, then Removed(Victims[0]), Added(next page), Removed(Victims[1]),
// …. Neither an added page nor a victim is dirty.
func (r *Run) Each(fn func(ev EventType, key PageKey)) {
	free := r.N - len(r.Victims)
	for j := 0; j < r.N; j++ {
		if j >= free {
			fn(EventRemoved, r.Victims[j-free])
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

// arenaSlabPages is the growth quantum of the page arena. The arena
// never exceeds CapacityPages and never shrinks; slabs keep the upfront
// cost of small short-lived caches (one per experiment grid cell) low
// while guaranteeing pointer stability.
const arenaSlabPages = 1024

// pageArena hands out Page structs from preallocated slabs and recycles
// them through a free list, so the cache performs zero allocations per
// insert once warm.
type pageArena struct {
	slabs [][]Page
	used  int   // pages handed out from the newest slab
	free  *Page // recycled pages, linked through lruNext
}

func (a *pageArena) alloc() *Page {
	if pg := a.free; pg != nil {
		a.free = pg.lruNext
		pg.lruNext = nil
		return pg
	}
	if len(a.slabs) == 0 || a.used == len(a.slabs[len(a.slabs)-1]) {
		a.slabs = append(a.slabs, make([]Page, arenaSlabPages))
		a.used = 0
	}
	slab := a.slabs[len(a.slabs)-1]
	pg := &slab[a.used]
	a.used++
	return pg
}

func (a *pageArena) release(pg *Page) {
	*pg = Page{lruNext: a.free}
	a.free = pg
}

// fileIndex is the per-file page index, and the only index there is:
// Cache.files finds the file, pages[Key.Index] finds the page. Slice
// order is index order, so per-file walks are range loops. A walk whose
// body can remove the file's last page — which releases the index to the
// pool, where another file may pick it up — ranges over the slice header
// it took before the loop (what range does anyway) and must not touch
// the index again afterwards.
type fileIndex struct {
	key   FileKey
	pages []*Page // indexed by page index; nil = not resident
	n     int     // resident pages
	dirty int     // of which dirty and not quarantined
}

// poolEntriesPerPage bounds the pool of emptied indexes. A pooled slice
// is as long as the largest file its index ever served, and the stack is
// as deep as the number of files that were ever resident at once, so
// left alone the pool could pin that product. It is held to this many
// slice entries per page of cache capacity (a third of what the pages
// themselves take); past that the indexes deepest in the stack, which a
// steady state never reaches, go to the GC. One entry per page is too
// tight: lfs-gc and ssd-churn then shed and regrow slices for ever, and
// the garbage shows in their peak RSS.
const poolEntriesPerPage = 4

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
	// fileInsert forgets it when it gives that file an index.
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

	lruHead, lruTail *Page // lruHead = most recently used
	lruClock         uint64

	// Clean-victim cursor: pickVictim's answer, kept current instead of
	// rediscovered per eviction. While victim is non-nil it is the
	// coldest clean page of the LRU and dirtyBelow (< scanLimit) is the
	// number of pages colder than it, all of them dirty. nil means
	// unknown, or no clean page within the reclaim window; the next
	// pickVictim rescans and re-primes it.
	victim     *Page
	dirtyBelow int

	// quar lists quarantined pages in insertion order (bounded by the
	// cache capacity; scanned only on quarantine-state changes).
	quar []PageKey

	arena pageArena
	// flFree is the stack of emptied indexes, kept with their slices
	// (length 0, capacity kept) so that a file entering the cache need
	// not allocate; flFreeCap is the slice capacity it holds, see
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

func (c *Cache) emit(ev EventType, pg *Page) {
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
		h.PageEvent(ev, pg)
	}
}

// --- intrusive LRU ---------------------------------------------------------

func (c *Cache) lruPushFront(pg *Page) {
	c.lruClock++
	pg.lruStamp = c.lruClock
	pg.lruPrev = nil
	pg.lruNext = c.lruHead
	if c.lruHead != nil {
		c.lruHead.lruPrev = pg
	}
	c.lruHead = pg
	if c.lruTail == nil {
		c.lruTail = pg
	}
}

func (c *Cache) lruRemove(pg *Page) {
	if v := c.victim; v == pg {
		c.advanceVictim(0)
	} else if v != nil && pg.lruStamp < v.lruStamp {
		c.dirtyBelow-- // one of the dirty pages under the cursor left
	}
	if pg.lruPrev != nil {
		pg.lruPrev.lruNext = pg.lruNext
	} else {
		c.lruHead = pg.lruNext
	}
	if pg.lruNext != nil {
		pg.lruNext.lruPrev = pg.lruPrev
	} else {
		c.lruTail = pg.lruPrev
	}
	pg.lruPrev, pg.lruNext = nil, nil
}

// advanceVictim moves the cursor off the current victim, which is
// leaving the LRU (passed = 0) or has just been dirtied (passed = 1), to
// the next clean page toward the head, counting the dirty pages it
// walks over. A dirty page is walked over once per stay below the
// cursor, and the walk ends where the reclaim window does: with no clean
// page inside it there is no victim to cache, and pickVictim rescans.
func (c *Cache) advanceVictim(passed int) {
	below := c.dirtyBelow + passed
	pg := c.victim.lruPrev
	for pg != nil && pg.Dirty && below < scanLimit {
		below++
		pg = pg.lruPrev
	}
	if below >= scanLimit {
		pg = nil
	}
	c.victim, c.dirtyBelow = pg, below
}

func (c *Cache) lruMoveToFront(pg *Page) {
	if c.lruHead == pg {
		return
	}
	c.lruRemove(pg)
	c.lruPushFront(pg)
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

// page returns the resident page under key, or nil.
func (c *Cache) page(key PageKey) *Page {
	f := c.file(FileKey{key.FS, key.Ino})
	if f == nil || key.Index >= uint64(len(f.pages)) {
		return nil
	}
	return f.pages[key.Index]
}

// fileInsert enters pg into its file's index, taking an index from the
// pool if the file had no resident page.
func (c *Cache) fileInsert(pg *Page) {
	fk := FileKey{pg.Key.FS, pg.Key.Ino}
	f := c.file(fk)
	if f == nil {
		if n := len(c.flFree) - 1; n >= 0 {
			f, c.flFree[n] = c.flFree[n], nil
			c.flFree = c.flFree[:n]
			c.flFreeCap -= cap(f.pages)
		} else {
			f = &fileIndex{}
		}
		f.key = fk
		c.files.Put(fk, f)
		c.lastFile = f
		c.noneSet = false // file() just found fk absent
	}
	// Entries past the length are nil up to the capacity: a slot is
	// cleared when its page leaves, and the length never shrinks while
	// the file is resident.
	if need := int(pg.Key.Index) + 1; need > cap(f.pages) {
		f.pages = append(f.pages[:cap(f.pages)], make([]*Page, need-cap(f.pages))...)
	} else if need > len(f.pages) {
		f.pages = f.pages[:need]
	}
	f.pages[pg.Key.Index] = pg
	pg.file = f
	f.n++
	c.n++
}

// fileRemove takes pg out of its file's index, releasing the index to
// the pool when that was the file's last page.
func (c *Cache) fileRemove(pg *Page) {
	f := pg.file
	f.pages[pg.Key.Index] = nil
	pg.file = nil
	c.n--
	f.n--
	if f.n > 0 {
		return
	}
	c.files.Del(f.key)
	if c.lastFile == f {
		c.lastFile = nil
	}
	c.none, c.noneSet = f.key, true
	f.pages = f.pages[:0]
	c.flFree = append(c.flFree, f)
	c.flFreeCap += cap(f.pages)
	for c.flFreeCap > poolEntriesPerPage*c.cfg.CapacityPages {
		c.flFreeCap -= cap(c.flFree[0].pages)
		c.flFree[0] = nil
		c.flFree = c.flFree[1:]
	}
}

// dirtyAdd and dirtyDel move pg, a dirty page that is not quarantined,
// into and out of the writeback set.
func (c *Cache) dirtyAdd(pg *Page) {
	f := pg.file
	if f.dirty == 0 {
		c.dirty.Set(f.key, f)
	}
	f.dirty++
	c.dirtyN++
}

func (c *Cache) dirtyDel(pg *Page) {
	f := pg.file
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

// Lookup returns the page if cached, promoting it in the LRU, and counts
// the hit or the miss.
func (c *Cache) Lookup(key PageKey) (*Page, bool) {
	pg, ok := c.Touch(key)
	if !ok {
		c.stats.Misses++
	}
	return pg, ok
}

// Touch is Lookup for read paths that follow a miss with an Insert and
// do their own miss accounting: a hit is promoted and counted, a miss is
// only reported.
func (c *Cache) Touch(key PageKey) (*Page, bool) {
	pg := c.page(key)
	if pg == nil {
		return nil, false
	}
	c.stats.Hits++
	c.lruMoveToFront(pg)
	return pg, true
}

// Peek returns the page if cached without perturbing the LRU or stats.
func (c *Cache) Peek(key PageKey) (*Page, bool) {
	pg := c.page(key)
	return pg, pg != nil
}

// Contains reports whether the page is cached, without LRU effects.
func (c *Cache) Contains(key PageKey) bool { return c.page(key) != nil }

// Insert adds a clean page with the given content version, evicting as
// needed, and fires Added. If the page is already present it is promoted
// and returned unchanged. Insert may block (eviction of a dirty page
// forces a synchronous writeback), so it needs the calling process.
func (c *Cache) Insert(p *sim.Proc, key PageKey, version uint64) *Page {
	if pg := c.page(key); pg != nil {
		c.lruMoveToFront(pg)
		return pg
	}
	if c.makeRoom(p) {
		// Reclaim blocked in writeback, so another process may have
		// inserted the key meanwhile; a second page under it would orphan
		// the first in the LRU and the file index.
		if pg := c.page(key); pg != nil {
			c.lruMoveToFront(pg)
			return pg
		}
	}
	pg := c.addPage(key, version)
	c.emit(EventAdded, pg)
	return pg
}

// addPage makes a clean page resident under key, at the front of the
// LRU; the caller has made room for it.
func (c *Cache) addPage(key PageKey, version uint64) *Page {
	pg := c.arena.alloc()
	pg.Key = key
	pg.Version = version
	pg.resident = true
	c.lruPushFront(pg)
	c.fileInsert(pg)
	c.stats.Inserts++
	return pg
}

// runEvents is the interest InsertRun reports in one PageRun call.
const runEvents = 1<<EventAdded | 1<<EventRemoved

// InsertRun inserts the clean pages [lo, lo+len(vers)) of file ino, page
// lo+j at version vers[j], as len(vers) Inserts would: the same victims,
// LRU stamps, file index and stats. When the hooks want both Added and
// Removed, the run reaches each hook in one PageRun call (see Run);
// otherwise each event is emitted, or counted as filtered, as Insert
// does. InsertRun never blocks, so it needs no process: it stops before
// a page whose room only writeback can make — the caller inserts that
// page with Insert, which may block — and before a page that is cached
// already, and returns how many pages it inserted.
func (c *Cache) InsertRun(fs FSID, ino, lo uint64, vers []uint64) int {
	bulk := c.interest&runEvents == runEvents
	r := &c.run
	r.Victims = r.Victims[:0]
	n := 0
	for ; n < len(vers); n++ {
		key := PageKey{fs, ino, lo + uint64(n)}
		if c.page(key) != nil {
			break
		}
		if c.n >= c.cfg.CapacityPages {
			victim := c.pickVictim()
			if victim == nil {
				break
			}
			if bulk {
				r.Victims = append(r.Victims, victim.Key)
				c.dropPage(victim)
			} else {
				c.removePage(victim, EventRemoved)
			}
			c.stats.Evictions++
		}
		pg := c.addPage(key, vers[n])
		if !bulk {
			c.emit(EventAdded, pg)
		}
	}
	if bulk && n > 0 {
		r.FS, r.Ino, r.Lo, r.N = fs, ino, lo, n
		c.stats.EventsDispatched += int64(n + len(r.Victims))
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
		victim := c.pickVictim()
		if victim == nil {
			// The reclaim window is all dirty: write back the coldest
			// page's whole file (batched into coalesced device writes,
			// as kernel reclaim hands contiguous ranges to writeback)
			// and retry the scan for a clean victim. The writebacks
			// block, so tail is pinned: a concurrent process may evict
			// it meanwhile, and the pin keeps the struct (and the
			// frozen key/version the fallback below relies on) from
			// being recycled under our pointer.
			blocked = true
			tail := c.lruTail
			tail.pins++
			c.stats.DirtyEvictions++
			// A writeback failure here is classified, counted
			// (Stats.WritebackErrors), and acted on inside SyncFile
			// (transient: pages stay dirty; permanent: quarantined);
			// reclaim just rescans for whatever came clean.
			_ = c.SyncFile(p, tail.Key.FS, tail.Key.Ino)
			victim = c.pickVictim()
			if victim == nil {
				// The file was re-dirtied or empty: fall back to a single
				// forced page writeback.
				c.writebackOne(p, tail)
				if tail.Dirty && tail.resident {
					// The forced writeback failed too (or the page is
					// quarantined) and memory pressure leaves no choice:
					// the page is dropped with its data, recorded rather
					// than silently swallowed.
					c.stats.LostPages++
				}
				victim = tail
			}
			tail.pins--
			if !tail.resident && tail.pins == 0 && victim != tail {
				c.arena.release(tail)
			}
		}
		c.removePage(victim, EventRemoved)
		c.stats.Evictions++
	}
	return blocked
}

// scanLimit is how many pages reclaim looks at from the LRU tail before
// it gives up on finding a clean one and forces writeback.
const scanLimit = 128

// pickVictim returns the first clean page within scanLimit positions of
// the LRU tail (approximating kernel reclaim, which prefers clean pages),
// or nil when that window is all dirty. The answer normally comes from
// the clean-victim cursor in O(1); the scan below runs only to re-prime
// an invalid cursor.
func (c *Cache) pickVictim() *Page {
	if c.victim != nil {
		return c.victim
	}
	pg := c.lruTail
	for i := 0; pg != nil && i < scanLimit; i++ {
		if !pg.Dirty {
			c.victim, c.dirtyBelow = pg, i
			return pg
		}
		pg = pg.lruPrev
	}
	return nil
}

// writebackOne synchronously writes a single dirty page back. On
// failure the page stays dirty (or is quarantined, for a permanent
// fault); the caller decides whether it must be dropped anyway.
func (c *Cache) writebackOne(p *sim.Proc, pg *Page) {
	b := c.backends[pg.Key.FS]
	if b == nil {
		panic(fmt.Sprintf("pagecache: no backend for fs %d", pg.Key.FS))
	}
	if pg.quarantined {
		return
	}
	key, ver := pg.Key, pg.Version
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

// removePage drops the page from all indices, fires ev, and recycles the
// Page struct (unless pinned). The pointer must not be used after this
// returns. A non-resident page — reclaim's pinned candidate that a
// concurrent process already evicted during a blocking writeback — is
// not unlinked again; it only re-fires the event, as eviction raced and
// both parties report the removal. If the key was re-inserted during the
// race, the fresh page is left fully intact (only a resident page is in
// an index, and it is unmapped through its own file pointer), so a raced
// double-eviction can never orphan a live page.
func (c *Cache) removePage(pg *Page, ev EventType) {
	c.unlinkPage(pg)
	c.emit(ev, pg)
	if pg.pins == 0 {
		c.arena.release(pg)
	}
}

// dropPage is removePage without the event, for InsertRun, which reports
// its victims in the run.
func (c *Cache) dropPage(pg *Page) {
	c.unlinkPage(pg)
	if pg.pins == 0 {
		c.arena.release(pg)
	}
}

// unlinkPage takes a resident page out of every index and clears its
// dirty state; a page no longer resident is left as it is.
func (c *Cache) unlinkPage(pg *Page) {
	if !pg.resident {
		return
	}
	c.lruRemove(pg)
	if pg.quarantined {
		c.unquarantine(pg)
	} else if pg.Dirty {
		c.dirtyDel(pg)
	}
	pg.Dirty = false
	c.fileRemove(pg)
	pg.resident = false
}

// MarkDirty sets the page's dirty bit and bumps its content version,
// firing Dirtied on the clean-to-dirty transition.
func (c *Cache) MarkDirty(pg *Page, version uint64) {
	pg.Version = version
	if pg.Dirty {
		return
	}
	pg.Dirty = true
	if pg == c.victim {
		c.advanceVictim(1)
	}
	pg.DirtyAt = c.eng.Now()
	c.dirtyAdd(pg)
	c.emit(EventDirtied, pg)
	// Dirty-background throttling: too many dirty pages wake the flusher
	// immediately rather than waiting out the expiry interval.
	if float64(c.dirtyN) > c.cfg.DirtyBackgroundRatio*float64(c.cfg.CapacityPages) {
		c.flusherKick.WakeAll()
	}
}

// markCleanIf clears the dirty bit if the page is still at the version the
// writeback captured, firing Flushed. Re-dirtied pages stay dirty.
func (c *Cache) markCleanIf(key PageKey, version uint64) {
	pg := c.page(key)
	if pg == nil || !pg.Dirty || pg.quarantined || pg.Version != version {
		return
	}
	pg.Dirty = false
	if c.victim != nil && pg.lruStamp < c.victim.lruStamp {
		c.victim = nil // a colder page came clean: re-prime on demand
	}
	c.dirtyDel(pg)
	c.emit(EventFlushed, pg)
}

// Remove drops a page (file truncation or deletion), firing Removed.
// Dirty pages are discarded without writeback, matching truncate
// semantics.
func (c *Cache) Remove(key PageKey) bool {
	pg := c.page(key)
	if pg == nil {
		return false
	}
	c.removePage(pg, EventRemoved)
	return true
}

// RemoveFile drops every cached page of a file (deletion).
func (c *Cache) RemoveFile(fs FSID, ino uint64) int {
	f := c.file(FileKey{fs, ino})
	if f == nil {
		return 0
	}
	n := 0
	for _, pg := range f.pages {
		if pg != nil {
			c.removePage(pg, EventRemoved)
			c.stats.RemovedByDelete++
			n++
		}
	}
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
// without allocating. fn may remove the page it was handed, but must not
// otherwise insert or remove pages of the same file during iteration.
func (c *Cache) IterateFile(fs FSID, ino uint64, fn func(pg *Page) bool) {
	fk := FileKey{fs, ino}
	f := c.file(fk)
	if f == nil {
		return
	}
	for _, pg := range f.pages {
		if pg == nil {
			continue
		}
		// fn removed the file's last page and its index now serves
		// another file, whose pages these are.
		if f.key != fk {
			return
		}
		if !fn(pg) {
			return
		}
	}
}

// Iterate calls fn for every cached page in key order (used by Duet's
// registration scan). It snapshots keys first, so fn may mutate the cache.
func (c *Cache) Iterate(fn func(pg *Page) bool) {
	fks := c.files.AppendKeys(make([]FileKey, 0, c.files.Len()))
	sort.Slice(fks, func(i, j int) bool { return fileKeyLess(fks[i], fks[j]) })
	keys := make([]PageKey, 0, c.n)
	for _, fk := range fks {
		for _, pg := range c.files.Get(fk).pages {
			if pg != nil {
				keys = append(keys, pg.Key)
			}
		}
	}
	for _, k := range keys {
		if pg := c.page(k); pg != nil && !fn(pg) {
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
	for _, pg := range f.pages {
		if pg != nil && pg.Dirty && !pg.quarantined {
			b.idx = append(b.idx, pg.Key.Index)
			b.vers = append(b.vers, pg.Version)
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
		for _, pg := range f.pages {
			if pg != nil && pg.Dirty && !pg.quarantined && now-pg.DirtyAt >= minAge {
				b.idx = append(b.idx, pg.Key.Index)
				b.vers = append(b.vers, pg.Version)
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
		pg := c.page(PageKey{fs, ino, ix})
		if pg == nil || !pg.Dirty || pg.quarantined {
			continue
		}
		if permanent && pg.Version == vers[i] {
			c.quarantine(pg)
			continue
		}
		pg.DirtyAt = now
	}
}

// quarantine parks a dirty page out of the writeback path after a
// permanent fault. The page keeps its data and dirty bit but leaves the
// writeback set, so flusher and sync passes skip it.
func (c *Cache) quarantine(pg *Page) {
	pg.quarantined = true
	c.dirtyDel(pg)
	c.quar = append(c.quar, pg.Key)
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
	n := 0
	for pg := c.lruHead; pg != nil; n++ {
		next := pg.lruNext
		if pg.Dirty && !pg.quarantined {
			c.dirtyDel(pg)
		}
		pg.Dirty = false
		pg.quarantined = false
		c.fileRemove(pg)
		pg.resident = false
		pg.lruPrev, pg.lruNext = nil, nil
		if pg.pins == 0 {
			c.arena.release(pg)
		}
		pg = next
	}
	c.lruHead, c.lruTail, c.victim = nil, nil, nil
	c.quar = c.quar[:0]
	return n
}

// Requeue releases a quarantined page back into the writeback path —
// called after the underlying fault is repaired (block remapped or
// rewritten). The expiry clock restarts at now.
func (c *Cache) Requeue(key PageKey) bool {
	pg := c.page(key)
	if pg == nil || !pg.quarantined {
		return false
	}
	c.unquarantine(pg)
	pg.DirtyAt = c.eng.Now()
	c.dirtyAdd(pg)
	c.stats.RequeuedPages++
	if st := c.obs; st != nil && st.tr != nil {
		st.tr.Instant(st.tid, "pagecache", "requeue", c.eng.Now())
	}
	c.flusherKick.WakeAll()
	return true
}

// unquarantine clears the flag and drops the key from the quarantine
// list.
func (c *Cache) unquarantine(pg *Page) {
	pg.quarantined = false
	for i, k := range c.quar {
		if k == pg.Key {
			c.quar = append(c.quar[:i], c.quar[i+1:]...)
			break
		}
	}
}
