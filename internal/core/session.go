package core

import (
	"fmt"
	"time"

	"duet/internal/bitmap"
	"duet/internal/pagecache"
)

type taskKind uint8

const (
	blockTask taskKind = iota
	fileTask
)

// Item is one notification returned by Fetch, the (item_id, offset, flag)
// tuple of §3.2. For block tasks ID is a device block number; for file
// tasks it is an inode number and Offset is the byte offset of the page
// within the file.
//
// PageIno/PageIdx identify the page that generated the event. The kernel
// implementation hands tasks the page descriptor; in-kernel tasks like
// the backup tool use it to locate the cached page to copy (§5.2).
type Item struct {
	ID      uint64
	Offset  int64
	Flags   Mask
	PageIno uint64
	PageIdx uint64
}

// DefaultMaxItems bounds the per-session fetch queue; events beyond it
// are dropped (the denial-of-service bound of §4.2).
const DefaultMaxItems = 1 << 20

// Session is one task's registration with Duet.
type Session struct {
	d        *Duet
	id       int
	kind     taskKind
	fsid     pagecache.FSID
	fs       FSAdapter
	root     uint64 // registered directory inode (file tasks)
	mask     Mask
	done     *bitmap.Sparse
	relevant *bitmap.Sparse // file tasks only
	queue    []*itemDesc
	qhead    int
	// MaxItems bounds the fetch queue (events dropped beyond it).
	MaxItems int
	active   bool

	// EventsSeen counts events delivered to (not necessarily queued for)
	// this session.
	EventsSeen int64
	// SuppressedDone counts events filtered because the block or file was
	// marked done — the framework-side filtering §4.1 argues for.
	SuppressedDone int64
	// Dropped counts events discarded due to MaxItems.
	Dropped int64

	// Degraded mode: once the bounded queue overflows the session is
	// lossy — notifications were discarded, so its event stream no longer
	// covers every change. The session records a conservative ID range
	// (blocks for block tasks, inodes for file tasks) covering everything
	// it dropped; the task fetches it with TakeDegradedRange and falls
	// back to scanning that range in its normal order. This keeps the
	// denial-of-service bound of §4.2 without silently losing work.
	lossy  bool
	degSet bool   // a concrete [degLo, degHi] range has been recorded
	degAll bool   // a drop could not be located: the whole ID space is suspect
	degLo  uint64 // lowest dropped ID (inclusive)
	degHi  uint64 // highest dropped ID (inclusive)
}

func (d *Duet) newSession(kind taskKind, fs FSAdapter, root uint64, mask Mask) (*Session, error) {
	slot := -1
	for i := range d.sessions {
		if d.sessions[i] == nil {
			slot = i
			break
		}
	}
	if slot == -1 {
		return nil, fmt.Errorf("%w (max %d)", ErrTooManySessions, MaxSessions)
	}
	s := &Session{
		d:        d,
		id:       slot,
		kind:     kind,
		fsid:     fs.FSID(),
		fs:       fs,
		root:     root,
		mask:     mask,
		done:     bitmap.New(),
		MaxItems: DefaultMaxItems,
		active:   true,
	}
	if kind == fileTask {
		s.relevant = bitmap.New()
	}
	d.sessions[slot] = s
	d.active = append(d.active, s)
	d.refreshGlobalMask()
	// Registration scan (§4.1): initialize descriptors from the pages
	// already cached, so the task can exploit them immediately and state
	// notifications start from the truth.
	d.cache.Iterate(func(key pagecache.PageKey, dirty bool) bool {
		if key.FS == s.fsid {
			s.deliverCached(key, dirty)
		}
		return true
	})
	return s, nil
}

// deliverCached tells the session about a page that is already cached,
// as the events that brought it to its current state would have.
func (s *Session) deliverCached(key pagecache.PageKey, dirty bool) {
	var blk int64
	mapped := false
	if s.kind == blockTask {
		blk, mapped = s.fs.Fibmap(key.Ino, key.Index)
	}
	s.deliver(pagecache.EventAdded, key, dirty, blk, mapped)
	if dirty {
		s.deliver(pagecache.EventDirtied, key, true, blk, mapped)
	}
}

// RegisterBlock starts a block-task session over a filesystem's device.
// The task receives items keyed by block number for all file pages on the
// device, translated through FIBMAP (§4.2).
func (d *Duet) RegisterBlock(fs FSAdapter, mask Mask) (*Session, error) {
	if _, ok := d.fses[fs.FSID()]; !ok {
		return nil, fmt.Errorf("%w: fs %d", ErrUnknownFS, fs.FSID())
	}
	return d.newSession(blockTask, fs, 0, mask)
}

// RegisterFile starts a file-task session over the directory rootIno. The
// task receives items for files and directories within it (§3.2).
func (d *Duet) RegisterFile(fs FSAdapter, rootIno uint64, mask Mask) (*Session, error) {
	if _, ok := d.fses[fs.FSID()]; !ok {
		return nil, fmt.Errorf("%w: fs %d", ErrUnknownFS, fs.FSID())
	}
	if !fs.IsDir(rootIno) {
		return nil, fmt.Errorf("%w: inode %d", ErrNotDir, rootIno)
	}
	return d.newSession(fileTask, fs, rootIno, mask)
}

// Close ends the session and releases all its state (duet_deregister).
func (s *Session) Close() error {
	if !s.active {
		return ErrNoSession
	}
	s.active = false
	d := s.d
	d.sessions[s.id] = nil
	for i, a := range d.active {
		if a == s {
			d.active = append(d.active[:i], d.active[i+1:]...)
			break
		}
	}
	d.refreshGlobalMask()
	// Clear the slot in every descriptor, queued or not, so a session
	// reusing it starts from nothing, and free what no active session
	// needs (with no session active, PageEvent would never free them).
	bit := uint32(1) << uint(s.id)
	for _, fk := range d.table.byFile.AppendKeys(nil) {
		fd := d.table.byFile.Get(fk)
		for _, desc := range fd.descs { // maybeFree can release fd, as in SetDone
			if desc == nil {
				continue
			}
			desc.queued &^= bit
			desc.flags[s.id] = 0
			d.maybeFree(desc)
		}
	}
	s.queue, s.qhead = nil, 0
	s.done.Clear()
	if s.relevant != nil {
		s.relevant.Clear()
	}
	return nil
}

// ID returns the session slot (0..MaxSessions-1), the paper's session id.
func (s *Session) ID() int { return s.id }

// Mask returns the notification mask.
func (s *Session) Mask() Mask { return s.mask }

// QueueLen returns the number of descriptors waiting to be fetched.
func (s *Session) QueueLen() int { return len(s.queue) - s.qhead }

// deliver processes one page event for this session (§4.1: check
// interest, relevance and done status, then update the descriptor). key
// is a page of the session's filesystem; for a block task the caller
// passes the page's FIBMAP translation (blk, mapped), which file tasks
// ignore.
func (s *Session) deliver(ev pagecache.EventType, key pagecache.PageKey, dirty bool, blk int64, mapped bool) {
	if !s.active {
		return
	}
	s.EventsSeen++
	// Relevance and done filtering.
	if s.kind == blockTask {
		// An unmapped page (no block assigned yet — the delayed-allocation
		// case of §4.2) is left for a later event to report.
		if mapped && s.done.Test(uint64(blk)) {
			s.suppressDone(ev, key)
			return
		}
		if !mapped && ev != pagecache.EventAdded && ev != pagecache.EventDirtied {
			return
		}
	} else {
		if s.done.Test(key.Ino) {
			s.suppressDone(ev, key)
			return
		}
		if !s.relevant.Test(key.Ino) {
			if _, ok := s.fs.Within(key.Ino, s.root); !ok {
				// Not under the registered directory: mark done so future
				// events are filtered by the cheap bitmap test (§4.1).
				s.done.Set(key.Ino)
				return
			}
			s.relevant.Set(key.Ino)
		}
	}

	d := s.d
	desc := d.table.getOrCreate(itemKey{key.FS, key.Ino, key.Index}, &d.stats)
	f := desc.flags[s.id]

	// Update current state bits.
	switch ev {
	case pagecache.EventAdded:
		f |= fCurExists
		if dirty {
			f |= fCurModif
		}
	case pagecache.EventRemoved:
		f &^= fCurExists | fCurModif
	case pagecache.EventDirtied:
		f |= fCurExists | fCurModif
	case pagecache.EventFlushed:
		f &^= fCurModif
	}
	// Accumulate the raw event bit if subscribed.
	evBit := eventBit(ev)
	f |= uint8(s.mask) & evBit

	desc.flags[s.id] = f
	if pendingFor(f, s.mask) {
		s.enqueue(desc)
	} else if desc.queued&(1<<uint(s.id)) == 0 {
		d.maybeFree(desc)
	}
}

// absorbRun tests the session once against a whole run of events
// (pagecache.Run). The session is inert for the run when deliver would
// suppress every event of its filesystem in the run as done, and none of
// them is a Removed that leaves a descriptor byte to forget
// (suppressDone). Then it counts those events as deliver would and
// reports true; otherwise it changes nothing and reports false, and the
// events are delivered one by one. Nothing the other sessions do with
// the run's events touches this session's done bits or descriptor
// bytes, so the test, made before any of them is delivered, holds for
// the whole run.
func (s *Session) absorbRun(r *pagecache.Run) bool {
	var n int64
	if r.FS == s.fsid {
		if !s.doneRange(r.Ino, r.Lo, uint64(r.N)) {
			return false
		}
		n = int64(r.N)
	}
	// The victims come in runs of consecutive pages of one file, and
	// each is tested as one.
	for _, v := range r.Victims {
		if v.FS == s.fsid {
			if !s.doneRange(v.Ino, v.Lo, uint64(v.N)) || s.holdsState(v) {
				return false
			}
			n += int64(v.N)
		}
	}
	s.EventsSeen += n
	s.SuppressedDone += n
	return true
}

// doneRange reports whether the item of every page [lo, lo+n) of ino is
// done: for a block task, whether each page maps to a done block, a
// mapped piece at a time.
func (s *Session) doneRange(ino, lo, n uint64) bool {
	if s.kind != blockTask {
		return s.done.Test(ino)
	}
	for n > 0 {
		blk, m := s.fs.FibmapRun(ino, lo, n)
		if m == 0 || !s.done.AllSet(uint64(blk), uint64(blk)+m) {
			return false
		}
		lo, n = lo+m, n-m
	}
	return true
}

// holdsState reports whether a suppressed Removed of one of the pages
// would clear a descriptor byte of this session (see suppressDone).
func (s *Session) holdsState(v pagecache.Range) bool {
	if s.mask&StateBits == 0 {
		return false
	}
	for i := v.Lo; i < v.Lo+uint64(v.N); i++ {
		if desc := s.d.table.get(itemKey{v.FS, v.Ino, i}); desc != nil && desc.flags[s.id] != 0 {
			return true
		}
	}
	return false
}

// suppressDone filters an event for a done item (§4.1). When the page
// leaves the cache, a state session also forgets it: the state it holds
// for the page would otherwise outlive the page, since the events that
// update it are suppressed. The byte is cleared even while the
// descriptor is queued, which the fetch then consumes without an item.
func (s *Session) suppressDone(ev pagecache.EventType, key pagecache.PageKey) {
	s.SuppressedDone++
	if ev != pagecache.EventRemoved || s.mask&StateBits == 0 {
		return
	}
	d := s.d
	desc := d.table.get(itemKey{key.FS, key.Ino, key.Index})
	if desc == nil || desc.flags[s.id] == 0 {
		return
	}
	desc.flags[s.id] = 0
	d.maybeFree(desc)
}

func eventBit(ev pagecache.EventType) uint8 {
	switch ev {
	case pagecache.EventAdded:
		return uint8(EvtAdded)
	case pagecache.EventRemoved:
		return uint8(EvtRemoved)
	case pagecache.EventDirtied:
		return uint8(EvtDirtied)
	case pagecache.EventFlushed:
		return uint8(EvtFlushed)
	}
	return 0
}

// enqueue puts the descriptor on the session's fetch queue, dropping the
// pending information when the queue is at its limit.
func (s *Session) enqueue(desc *itemDesc) {
	bit := uint32(1) << uint(s.id)
	if desc.queued&bit != 0 {
		return
	}
	if s.QueueLen() >= s.MaxItems {
		// Drop: discard pending info but keep state truth, pretending it
		// was reported. The session turns lossy and records where the
		// loss happened so the task can re-scan (degraded-mode protocol).
		s.Dropped++
		s.d.stats.EventsDropped++
		s.noteDrop(desc)
		f := desc.flags[s.id]
		f &= ^uint8(fEventBits)
		cur := (f >> curShift) & twoStateBit
		f = (f &^ (twoStateBit << repShift)) | cur<<repShift
		desc.flags[s.id] = f
		s.d.maybeFree(desc)
		return
	}
	desc.queued |= bit
	s.queue = append(s.queue, desc)
	if s.d.obs != nil {
		s.d.observeEnqueue(s)
	}
}

// noteDrop records a queue-overflow drop for the degraded-mode protocol,
// widening the suspect ID range to cover the dropped notification.
func (s *Session) noteDrop(desc *itemDesc) {
	if !s.lossy {
		s.lossy = true
		s.d.stats.DegradedSessions++
		if s.d.obs != nil {
			s.d.observeDegraded()
		}
	}
	var id uint64
	if s.kind == blockTask {
		blk, mapped := s.fs.Fibmap(desc.key.ino, desc.key.idx)
		if !mapped {
			// Delayed allocation: the page will land at an unknown block,
			// so no finite range covers the loss.
			s.degAll = true
			return
		}
		id = uint64(blk)
	} else {
		id = desc.key.ino
	}
	if s.degAll {
		return
	}
	if !s.degSet {
		s.degSet = true
		s.degLo, s.degHi = id, id
		return
	}
	if id < s.degLo {
		s.degLo = id
	}
	if id > s.degHi {
		s.degHi = id
	}
}

// Degraded reports whether the session has dropped notifications since
// the last TakeDegradedRange.
func (s *Session) Degraded() bool { return s.lossy }

// TakeDegradedRange consumes the degraded state, returning the inclusive
// ID range the task must re-scan to compensate for dropped
// notifications. For block tasks the range is in device blocks; for file
// tasks, in inode numbers. When a drop could not be attributed to a
// finite range the whole ID space is returned. ok is false when the
// session is not degraded.
func (s *Session) TakeDegradedRange() (lo, hi uint64, ok bool) {
	if !s.lossy {
		return 0, 0, false
	}
	if s.degAll {
		lo, hi = 0, ^uint64(0)
	} else {
		lo, hi = s.degLo, s.degHi
	}
	s.lossy, s.degSet, s.degAll, s.degLo, s.degHi = false, false, false, 0, 0
	return lo, hi, true
}

// FetchInto retrieves pending notifications into buf, returning how many
// were written — the duet_fetch call (§3.2). Items whose file or block
// has been marked done since queuing are silently consumed.
func (s *Session) FetchInto(buf []Item) int {
	if !s.active || len(buf) == 0 {
		return 0
	}
	d := s.d
	var t0 time.Time
	if d.MeasureCPU {
		t0 = time.Now()
	}
	d.stats.FetchCalls++
	n := 0
	bit := uint32(1) << uint(s.id)
	for n < len(buf) && s.qhead < len(s.queue) {
		desc := s.queue[s.qhead]
		s.queue[s.qhead] = nil
		s.qhead++
		desc.queued &^= bit
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}

		f := desc.flags[s.id]
		item, ok := s.buildItem(desc, f)
		// Mark up-to-date: clear events, report current state.
		nf := f & ^uint8(fEventBits)
		cur := (nf >> curShift) & twoStateBit
		nf = (nf &^ (twoStateBit << repShift)) | cur<<repShift
		desc.flags[s.id] = nf
		d.maybeFree(desc)
		if !ok {
			continue
		}
		buf[n] = item
		n++
	}
	d.stats.ItemsFetched += int64(n)
	if d.MeasureCPU {
		d.stats.FetchNanos += time.Since(t0).Nanoseconds()
	}
	return n
}

// Fetch is a convenience wrapper returning up to max items.
func (s *Session) Fetch(max int) []Item {
	buf := make([]Item, max)
	n := s.FetchInto(buf)
	return buf[:n]
}

// buildItem converts a descriptor into a fetch item, re-checking done and
// relevance (they may have changed since queuing).
func (s *Session) buildItem(desc *itemDesc, f uint8) (Item, bool) {
	flags := Mask(f&fEventBits) & s.mask
	// State notification: include current state bits when they changed.
	st := uint8(s.mask>>4) & twoStateBit
	cur := (f >> curShift) & twoStateBit
	rep := (f >> repShift) & twoStateBit
	if (cur^rep)&st != 0 {
		flags |= Mask((cur&st)<<4) | stChangedMark
	}
	if flags == 0 {
		return Item{}, false
	}
	flags &^= stChangedMark

	it := Item{
		Flags:   flags,
		PageIno: desc.key.ino,
		PageIdx: desc.key.idx,
	}
	if s.kind == blockTask {
		blk, mapped := s.fs.Fibmap(desc.key.ino, desc.key.idx)
		if !mapped || s.done.Test(uint64(blk)) {
			return Item{}, false
		}
		it.ID = uint64(blk)
		it.Offset = int64(desc.key.idx) * pageSize
	} else {
		if s.done.Test(desc.key.ino) {
			return Item{}, false
		}
		it.ID = desc.key.ino
		it.Offset = int64(desc.key.idx) * pageSize
	}
	return it, true
}

// pageSize is the byte size of a page/block (item offsets are in bytes).
const pageSize = 4096

// stChangedMark is an internal marker (never returned) so that a state
// change to the all-clear state still yields an item.
const stChangedMark Mask = 1 << 7

// CheckDone reports whether the item has been marked processed
// (duet_check_done). For block tasks id is a block number; for file
// tasks, an inode number.
func (s *Session) CheckDone(id uint64) bool { return s.done.Test(id) }

// SetDone marks an item processed (duet_set_done): its descriptors are
// marked up-to-date and future events for it are suppressed (§4.1).
func (s *Session) SetDone(id uint64) {
	if !s.done.Set(id) {
		return
	}
	if s.kind == fileTask {
		// Eagerly mark the file's descriptors up-to-date.
		if fd := s.d.table.file(pagecache.FileKey{FS: s.fsid, Ino: id}); fd != nil {
			// maybeFree can free the file's last descriptor and release
			// fd; the range holds the slice header it started with, whose
			// remaining entries are nil by then.
			for _, desc := range fd.descs {
				if desc == nil {
					continue
				}
				f := desc.flags[s.id]
				f &= ^uint8(fEventBits)
				cur := (f >> curShift) & twoStateBit
				f = (f &^ (twoStateBit << repShift)) | cur<<repShift
				desc.flags[s.id] = f
				s.d.maybeFree(desc)
			}
		}
	}
	// Block-task descriptors are filtered lazily at fetch time.
}

// UnsetDone re-enables tracking for an item (duet_unset_done) — e.g. the
// scrubber unmarks a block when it is re-dirtied (§5.1).
func (s *Session) UnsetDone(id uint64) { s.done.Unset(id) }

// GetPath translates an inode into a path relative to the registered
// directory (duet_get_path). As in §3.2, it fails when the file has no
// cached pages — the truth check that lets tasks back out of opportunistic
// work that is no longer worthwhile — or when the file has left the
// registered directory.
func (s *Session) GetPath(ino uint64) (string, error) {
	if !s.active {
		return "", ErrNoSession
	}
	if s.kind != fileTask {
		return "", fmt.Errorf("duet: GetPath on a block task session")
	}
	if s.d.cache.FilePages(s.fsid, ino) == 0 {
		return "", fmt.Errorf("%w: inode %d", ErrNotCached, ino)
	}
	rel, ok := s.fs.Within(ino, s.root)
	if !ok {
		return "", fmt.Errorf("%w: inode %d outside registered directory", ErrNotCached, ino)
	}
	return rel, nil
}

// --- move handling ---------------------------------------------------------

func (s *Session) handleMove(ino uint64, isDir bool, oldParent, newParent uint64) {
	_, wasInOld := s.fs.Within(oldParent, s.root)
	_, nowIn := s.fs.Within(ino, s.root)
	if isDir {
		if wasInOld || nowIn {
			s.resetBitmapsForRename()
		}
		return
	}
	wasTracked := s.relevant.Test(ino)
	switch {
	case !wasTracked && nowIn:
		// Moved in: initialize descriptors from cached pages, like the
		// registration scan (§4.1).
		s.done.Unset(ino)
		s.relevant.Set(ino)
		s.d.cache.IterateFile(s.fsid, ino, func(key pagecache.PageKey, dirty bool) bool {
			s.deliverCached(key, dirty)
			return true
		})
	case wasTracked && !nowIn:
		// Moved out: emit Removed/¬Exists for all the file's pages and
		// stop tracking it (§4.1).
		if fd := s.d.table.file(pagecache.FileKey{FS: s.fsid, Ino: ino}); fd != nil {
			for _, desc := range fd.descs { // enqueue can free, as in SetDone
				if desc == nil {
					continue
				}
				f := desc.flags[s.id]
				f &^= fCurExists | fCurModif
				f |= uint8(s.mask) & uint8(EvtRemoved)
				desc.flags[s.id] = f
				if pendingFor(f, s.mask) {
					s.enqueue(desc)
				}
			}
		}
		s.d.cache.IterateFile(s.fsid, ino, func(key pagecache.PageKey, _ bool) bool {
			s.deliver(pagecache.EventRemoved, key, false, 0, false)
			return true
		})
		s.relevant.Unset(ino)
		// Future events re-check containment and mark the file done.
	}
}

// resetBitmapsForRename implements the paper's directory-rename rule:
// "resetting the relevant and done bitmaps for all files other than the
// files that have already been processed, i.e. have both bits set"
// (§4.1). Avoids traversing the renamed directory; relevance is
// re-checked when files are accessed again.
func (s *Session) resetBitmapsForRename() {
	var clearRel, clearDone []uint64
	s.relevant.IterateSet(func(ino uint64) bool {
		if !s.done.Test(ino) {
			clearRel = append(clearRel, ino)
		}
		return true
	})
	s.done.IterateSet(func(ino uint64) bool {
		if !s.relevant.Test(ino) {
			clearDone = append(clearDone, ino)
		}
		return true
	})
	for _, ino := range clearRel {
		s.relevant.Unset(ino)
	}
	for _, ino := range clearDone {
		s.done.Unset(ino)
	}
}
