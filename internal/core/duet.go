package core

import (
	"errors"
	"fmt"
	"time"

	"duet/internal/pagecache"
)

// Sentinel errors.
var (
	ErrTooManySessions = errors.New("duet: session limit reached")
	ErrNoSession       = errors.New("duet: session closed")
	ErrNotCached       = errors.New("duet: file no longer cached")
	ErrUnknownFS       = errors.New("duet: filesystem not attached")
	ErrNotDir          = errors.New("duet: registered path is not a directory")
)

// MaxSessions is the default maximum number of concurrent sessions (the
// module-load-time N of §4.2; it sizes the merged descriptor flag array).
const MaxSessions = 16

// FSAdapter is what Duet needs from a filesystem: the FIBMAP translation
// for block tasks, parent-walking for file-task relevance, and path
// resolution for GetPath. cowfs and lfs provide implementations (see
// adapters.go).
type FSAdapter interface {
	// FSID identifies the filesystem in the page cache.
	FSID() pagecache.FSID
	// Fibmap translates (inode, page index) to a device block; ok is
	// false when the page has no on-device location yet.
	Fibmap(ino uint64, idx uint64) (block int64, ok bool)
	// FibmapRun is Fibmap for a run of pages: the block of page idx, and
	// how many of the pages [idx, idx+n) map to the consecutive blocks
	// from it — at least 1 (a shorter answer than the truth is allowed),
	// or 0 when page idx has no block.
	FibmapRun(ino, idx, n uint64) (block int64, run uint64)
	// Within reports whether ino is inside (or is) the directory root,
	// returning its relative path.
	Within(ino, root uint64) (rel string, ok bool)
	// IsDir reports whether the inode is a directory.
	IsDir(ino uint64) bool
	// DeviceBlocks is the capacity of the backing device.
	DeviceBlocks() int64
}

// itemKey identifies a page in the global descriptor table.
type itemKey struct {
	fs  pagecache.FSID
	ino uint64
	idx uint64
}

// itemDesc is the merged item descriptor of §4.2: one per page for all
// sessions, with a per-session flag byte.
//
// Flag byte layout: bits 0-3 are pending event bits (EvtAdded..EvtFlushed);
// bit 4-5 are the page's current Exists/Modified state; bits 6-7 are the
// state as of the session's last fetch. A state notification is pending
// when current != reported, which gives the paper's cancellation
// semantics (add + remove between fetches = no notification).
type itemDesc struct {
	key    itemKey
	flags  [MaxSessions]uint8
	queued uint32 // per-session: descriptor is in the session's fetch queue

	nextFree *itemDesc // free-list link while the descriptor is unused
}

const (
	fCurExists  = 1 << 4
	fCurModif   = 1 << 5
	fRepExists  = 1 << 6
	fRepModif   = 1 << 7
	fEventBits  = 0x0f
	curShift    = 4
	repShift    = 6
	twoStateBit = 0x3
)

// pendingFor reports whether the descriptor holds undelivered information
// for a session with the given mask.
func pendingFor(f uint8, mask Mask) bool {
	if f&fEventBits&uint8(mask) != 0 {
		return true
	}
	st := uint8(mask>>4) & twoStateBit
	cur := (f >> curShift) & twoStateBit
	rep := (f >> repShift) & twoStateBit
	return (cur^rep)&st != 0
}

// needsDesc reports whether the descriptor must stay allocated for a
// session: it has pending events, or (for state subscribers) it records a
// non-default current or reported state (§4.2's 2× page-cache bound).
func needsDesc(f uint8, mask Mask) bool {
	if f&fEventBits != 0 {
		return true
	}
	st := uint8(mask>>4) & twoStateBit
	cur := (f >> curShift) & twoStateBit
	rep := (f >> repShift) & twoStateBit
	return (cur|rep)&st != 0
}

// Stats tracks framework activity and cost.
type Stats struct {
	HookCalls     int64
	HookNanos     int64 // real CPU nanoseconds spent in the page hook
	FetchCalls    int64
	FetchNanos    int64 // real CPU nanoseconds spent in Fetch
	ItemsFetched  int64
	EventsDropped int64 // dropped due to per-session descriptor limits
	// DegradedSessions counts sessions that entered lossy (degraded)
	// mode because their bounded fetch queue overflowed.
	DegradedSessions int64
	DescAllocs       int64
	DescFrees        int64
	CurDescs         int64
	PeakDescs        int64
}

// Duet is the framework instance for one machine. It implements
// pagecache.Hook.
type Duet struct {
	cache    *pagecache.Cache
	fses     map[pagecache.FSID]FSAdapter
	sessions [MaxSessions]*Session
	active   []*Session // active sessions in id order
	// globalMask is the union of active session masks (§4.1's global
	// filtering: maintained on register/deregister so the page cache can
	// skip hook dispatch for event types no session cares about).
	globalMask Mask
	table      descTable
	stats      Stats
	// live is PageRun's scratch list of the sessions a run is replayed to.
	live []*Session
	obs  *duetObs // nil unless observability is on (see obs.go)
	// MeasureCPU enables real-time accounting of hook and fetch cost
	// (used by the Figure 9 overhead experiment). Off by default: calling
	// time.Now twice per page event is itself measurable.
	MeasureCPU bool
}

// New creates a Duet instance hooked into the page cache.
func New(cache *pagecache.Cache) *Duet {
	d := &Duet{
		cache: cache,
		fses:  make(map[pagecache.FSID]FSAdapter),
		// The page cache's rule for its own pool of emptied indexes.
		table: descTable{poolBudget: 4 * cache.Config().CapacityPages},
	}
	cache.AddHook(d)
	return d
}

// AttachFS makes a filesystem known to Duet. Pages of unattached
// filesystems are ignored.
func (d *Duet) AttachFS(a FSAdapter) { d.fses[a.FSID()] = a }

// Stats returns live statistics.
func (d *Duet) Stats() *Stats { return &d.stats }

// fileDescs holds one file's descriptors, the same shape as the page
// cache's per-file index: descs[idx] is the descriptor of page idx. Slice
// order is index order, which is the order done-marking and move
// handling process a file in.
type fileDescs struct {
	key   pagecache.FileKey
	descs []*itemDesc // indexed by page index; nil = no descriptor
	n     int         // descriptors held
}

// descTable holds the merged item descriptors: byFile finds the file,
// its slice finds the descriptor. Events arrive file by file, so the
// file found last, and the file found absent last, are tried before the
// table (an eviction run removes consecutive pages of one file, most of
// which have no descriptor). Freed descriptors and emptied fileDescs are
// recycled, so the event hot path stops allocating once the table has
// reached its high-water mark.
type descTable struct {
	byFile pagecache.FileTab[fileDescs]
	last   *fileDescs // the fileDescs file() returned last; nil once released
	// none is the file file() found absent last, valid while noneSet;
	// getOrCreate forgets it when it gives that file an entry.
	none     pagecache.FileKey
	noneSet  bool
	freeList *itemDesc
	// fdFree is the stack of emptied fileDescs, kept with their slices
	// (length 0, capacity kept). As in the page cache, the slice capacity
	// it holds (fdFreeCap) is bounded by poolBudget, and past that the
	// ones deepest in the stack go to the GC.
	fdFree     []*fileDescs
	fdFreeCap  int
	poolBudget int
}

func (t *descTable) file(fk pagecache.FileKey) *fileDescs {
	if fd := t.last; fd != nil && fd.key == fk {
		return fd
	}
	if t.noneSet && t.none == fk {
		return nil
	}
	fd := t.byFile.Get(fk)
	if fd != nil {
		t.last = fd
	} else {
		t.none, t.noneSet = fk, true
	}
	return fd
}

func (t *descTable) get(k itemKey) *itemDesc {
	fd := t.file(pagecache.FileKey{FS: k.fs, Ino: k.ino})
	if fd == nil || k.idx >= uint64(len(fd.descs)) {
		return nil
	}
	return fd.descs[k.idx]
}

func (t *descTable) getOrCreate(k itemKey, st *Stats) *itemDesc {
	fk := pagecache.FileKey{FS: k.fs, Ino: k.ino}
	fd := t.file(fk)
	if fd == nil {
		if n := len(t.fdFree) - 1; n >= 0 {
			fd, t.fdFree[n] = t.fdFree[n], nil
			t.fdFree = t.fdFree[:n]
			t.fdFreeCap -= cap(fd.descs)
		} else {
			fd = &fileDescs{}
		}
		fd.key = fk
		t.byFile.Put(fk, fd)
		t.last = fd
		t.noneSet = false // file() just found fk absent
	} else if k.idx < uint64(len(fd.descs)) && fd.descs[k.idx] != nil {
		return fd.descs[k.idx]
	}
	desc := t.freeList
	if desc != nil {
		t.freeList = desc.nextFree
		desc.nextFree = nil
		desc.key = k
	} else {
		desc = &itemDesc{key: k}
	}
	// Entries past the length are nil up to the capacity: a slot is
	// cleared when its descriptor is freed.
	if need := int(k.idx) + 1; need > cap(fd.descs) {
		fd.descs = append(fd.descs[:cap(fd.descs)], make([]*itemDesc, need-cap(fd.descs))...)
	} else if need > len(fd.descs) {
		fd.descs = fd.descs[:need]
	}
	fd.descs[k.idx] = desc
	fd.n++
	st.DescAllocs++
	st.CurDescs++
	if st.CurDescs > st.PeakDescs {
		st.PeakDescs = st.CurDescs
	}
	return desc
}

func (t *descTable) free(desc *itemDesc, st *Stats) {
	fd := t.file(pagecache.FileKey{FS: desc.key.fs, Ino: desc.key.ino})
	fd.descs[desc.key.idx] = nil
	fd.n--
	if fd.n == 0 {
		t.byFile.Del(fd.key)
		t.last = nil
		t.none, t.noneSet = fd.key, true
		fd.descs = fd.descs[:0]
		t.fdFree = append(t.fdFree, fd)
		t.fdFreeCap += cap(fd.descs)
		for t.fdFreeCap > t.poolBudget {
			t.fdFreeCap -= cap(t.fdFree[0].descs)
			t.fdFree[0] = nil
			t.fdFree = t.fdFree[1:]
		}
	}
	st.DescFrees++
	st.CurDescs--
	*desc = itemDesc{nextFree: t.freeList}
	t.freeList = desc
}

// maybeFree releases the descriptor if no active session needs it.
func (d *Duet) maybeFree(desc *itemDesc) {
	if desc.queued != 0 {
		return
	}
	for _, s := range d.active {
		if needsDesc(desc.flags[s.id], s.mask) {
			return
		}
	}
	d.table.free(desc, &d.stats)
}

// EventInterest implements pagecache.InterestReporter. The cache
// consults this to skip hook dispatch entirely when nothing is
// listening — the paper's §4.1 global filtering, performed before any
// per-task work. With no active session the interest is empty, so the
// baseline configurations of every experiment pay nothing for the
// installed hook. While any session is active Duet asks for all four
// event types: even a session whose mask selects only a subset still
// observes every event for its descriptor state bookkeeping (current
// Exists/Modified bits must track all transitions) and delivery
// accounting, so type-level filtering cannot be applied above it.
func (d *Duet) EventInterest() uint8 {
	if d.globalMask == 0 {
		return 0
	}
	return pagecache.AllEvents
}

var _ pagecache.InterestReporter = (*Duet)(nil)

// refreshGlobalMask recomputes the session-mask union and pushes the
// derived event interest into the page cache. Called on session
// register/deregister.
func (d *Duet) refreshGlobalMask() {
	d.globalMask = 0
	for _, s := range d.active {
		d.globalMask |= s.mask
	}
	d.cache.RefreshInterest()
}

// PageEvent implements pagecache.Hook: it fans the event out to every
// interested session, as §4.1 describes. The page's block is resolved at
// most once per event — an event belongs to one filesystem — and handed
// to every block-task session on it.
func (d *Duet) PageEvent(ev pagecache.EventType, key pagecache.PageKey, dirty bool) {
	if len(d.active) == 0 {
		return
	}
	var t0 time.Time
	if d.MeasureCPU {
		t0 = time.Now()
	}
	d.stats.HookCalls++
	fanOut(d.active, ev, key, dirty)
	if d.MeasureCPU {
		d.stats.HookNanos += time.Since(t0).Nanoseconds()
	}
}

// fanOut delivers one event to the sessions of its filesystem.
func fanOut(sessions []*Session, ev pagecache.EventType, key pagecache.PageKey, dirty bool) {
	var blk int64
	mapped, resolved := false, false
	for _, s := range sessions {
		if s.fsid != key.FS {
			continue
		}
		if s.kind == blockTask && !resolved {
			blk, mapped = s.fs.Fibmap(key.Ino, key.Index)
			resolved = true
		}
		s.deliver(ev, key, dirty, blk, mapped)
	}
}

// PageRun implements pagecache.Hook: it handles the run's events as
// PageEvent would handle them one by one (see pagecache.Run.Each), but
// tests each session once per run. A session for which the whole run is
// inert (see Session.absorbRun) is only counted; the others get the
// events one at a time, in the run's order, as from PageEvent — so
// descriptors are made and freed in the same order, and every counter
// moves as it would.
func (d *Duet) PageRun(r *pagecache.Run) {
	if len(d.active) == 0 {
		return
	}
	var t0 time.Time
	if d.MeasureCPU {
		t0 = time.Now()
	}
	d.stats.HookCalls += int64(r.N + r.Evicted)
	live := d.live[:0]
	for _, s := range d.active {
		if !s.absorbRun(r) {
			live = append(live, s)
		}
	}
	d.live = live
	if len(live) > 0 {
		r.Each(func(ev pagecache.EventType, key pagecache.PageKey) {
			fanOut(live, ev, key, false)
		})
	}
	if d.MeasureCPU {
		d.stats.HookNanos += time.Since(t0).Nanoseconds()
	}
}

// MemBytes estimates Duet's memory footprint: descriptors plus session
// bitmaps (the quantities §6.4 reports).
func (d *Duet) MemBytes() int {
	const descSize = 16 /* key */ + MaxSessions + 16 /* index overhead */
	n := int(d.stats.CurDescs) * descSize
	for _, s := range d.active {
		n += s.done.MemBytes()
		if s.relevant != nil {
			n += s.relevant.MemBytes()
		}
	}
	return n
}

// --- move / rename handling (§4.1) ----------------------------------------

// FileMoved must be called by the filesystem's VFS layer after a rename.
// Duet updates each file session's tracking: files moved into the
// registered directory get descriptors initialized from their cached
// pages; files moved out get Removed notifications and stop being
// tracked; directory renames reset the relevance/done bitmaps except for
// fully processed files.
func (d *Duet) FileMoved(fs pagecache.FSID, ino uint64, isDir bool, oldParent, newParent uint64) {
	for _, s := range d.active {
		if s.kind != fileTask || s.fsid != fs {
			continue
		}
		s.handleMove(ino, isDir, oldParent, newParent)
	}
}

var _ pagecache.Hook = (*Duet)(nil)

// String summarises the instance for debugging.
func (d *Duet) String() string {
	return fmt.Sprintf("duet{sessions=%d descs=%d}", len(d.active), d.stats.CurDescs)
}
