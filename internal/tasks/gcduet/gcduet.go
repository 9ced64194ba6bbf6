// Package gcduet wires Duet into the F2fs-style garbage collector (§5.4).
//
// The opportunistic collector registers a block task for Exists ∨ Flushed
// notifications and maintains a per-segment count of cached valid blocks.
// Its victim cost function becomes valid − cached/2: cached blocks save
// the read half of the move, and reads and writes are weighed equally, as
// the paper does. Flushed notifications relocate a block to a new
// segment, so the counters of both the old and the new segment are
// adjusted. The done primitives are not used — a segment can always
// become dirty again, so the notion of completed work does not apply.
package gcduet

import (
	"fmt"

	"duet/internal/core"
	"duet/internal/lfs"
	"duet/internal/pagecache"
	"duet/internal/sim"
)

// Owner labels the opportunistic collector's I/O.
const Owner = "gc"

// Tracker maintains the Duet-derived per-segment cache-residency counts.
type Tracker struct {
	fs      *lfs.FS
	session *core.Session
	// cachedBySeg[s] counts valid blocks of segment s believed cached.
	cachedBySeg []int
	// rows remembers which segment each page was last counted under, so
	// Flushed relocations move the count between segments: inode number
	// -> row, page index -> cell, the shape the page cache and Duet's
	// descriptor table use. Items arrive file by file, so the row found
	// last is tried before the map.
	rows  map[uint64]*segRow
	last  *segRow
	fetch []core.Item
	eng   sim.Host
	// EventsApplied counts processed notifications.
	EventsApplied int64
}

// segRow is one file's cells. It lives while it counts a page: a row
// kept past that would outlive its file.
type segRow struct {
	ino   uint64
	cells []int32 // by page index: segment+1 the page is counted under, 0 = not counted
	n     int     // counted pages
}

// Attach registers the Duet session and returns the tracker. Close the
// returned session via Detach.
func Attach(e sim.Host, d *core.Duet, ad *core.LFSAdapter, fs *lfs.FS) (*Tracker, error) {
	sess, err := d.RegisterBlock(ad, core.StExists|core.EvtFlushed)
	if err != nil {
		return nil, fmt.Errorf("gcduet: %w", err)
	}
	return &Tracker{
		fs:          fs,
		session:     sess,
		cachedBySeg: make([]int, fs.Segments()),
		rows:        make(map[uint64]*segRow),
		fetch:       make([]core.Item, 512),
		eng:         e,
	}, nil
}

// Detach closes the Duet session.
func (t *Tracker) Detach() error { return t.session.Close() }

// CachedBySeg returns the tracked count for a segment.
func (t *Tracker) CachedBySeg(si int) int { return t.cachedBySeg[si] }

// harvest drains pending notifications. The cost function calls it per
// candidate; an empty fetch is O(1), so that is cheap.
func (t *Tracker) harvest() {
	for {
		n := t.session.FetchInto(t.fetch)
		if n == 0 {
			return
		}
		for _, it := range t.fetch[:n] {
			t.apply(it)
		}
	}
}

// apply moves one page's count to where the notification says it is.
func (t *Tracker) apply(it core.Item) {
	t.EventsApplied++
	seg := t.fs.SegOf(int64(it.ID))
	r := t.last
	if r == nil || r.ino != it.PageIno {
		if r = t.rows[it.PageIno]; r != nil {
			t.last = r
		}
	}
	var counted int32
	if r != nil && it.PageIdx < uint64(len(r.cells)) {
		counted = r.cells[it.PageIdx]
	}
	// An item carries the Exists bit only when existence changed; a pure
	// Flushed event means the page is (usually) still cached. The
	// collector runs in the kernel, so it confirms against the page
	// cache, as the real F2fs code would.
	exists := it.Flags.Has(core.StExists)
	if !exists && it.Flags.Has(core.EvtFlushed) {
		exists = t.fs.Cache().Contains(pagecache.PageKey{
			FS: t.fs.ID(), Ino: it.PageIno, Index: it.PageIdx,
		})
	}
	if counted != 0 && (!exists || int(counted-1) != seg) {
		// Gone, or flushed to a new segment, which adjusts both (§5.4).
		t.cachedBySeg[counted-1]--
		r.cells[it.PageIdx] = 0
		r.n--
		counted = 0
	}
	if exists && counted == 0 {
		if r == nil {
			r = &segRow{ino: it.PageIno}
			t.rows[it.PageIno] = r
			t.last = r
		}
		if need := it.PageIdx + 1; need > uint64(len(r.cells)) {
			// Sized to the file on first touch, so that a row allocates
			// once unless its file grows.
			if i, ok := t.fs.Inode(lfs.Ino(it.PageIno)); ok && uint64(i.SizePg) > need {
				need = uint64(i.SizePg)
			}
			r.cells = append(r.cells, make([]int32, need-uint64(len(r.cells)))...)
		}
		r.cells[it.PageIdx] = int32(seg + 1)
		r.n++
		t.cachedBySeg[seg]++
	}
	if r != nil && r.n == 0 {
		delete(t.rows, it.PageIno)
		t.last = nil
	}
}

// Cost is the opportunistic victim cost: valid − cached/2, excluding
// nothing (a negative value would exclude; cached can only reduce cost).
func (t *Tracker) Cost(fs *lfs.FS, segIdx int) float64 {
	t.harvest()
	seg := fs.Segment(segIdx)
	cached := t.cachedBySeg[segIdx]
	if cached > seg.Valid {
		cached = seg.Valid // counters are hints; clamp to the truth
	}
	c := float64(seg.Valid) - float64(cached)/2
	if c < 0 {
		c = 0
	}
	return c
}

// StartGC launches the lfs cleaner with the opportunistic cost function.
func StartGC(e sim.Host, d *core.Duet, ad *core.LFSAdapter, fs *lfs.FS, cfg lfs.GCConfig) (*lfs.GC, *Tracker, error) {
	tr, err := Attach(e, d, ad, fs)
	if err != nil {
		return nil, nil, err
	}
	cfg.Cost = tr.Cost
	cfg.Owner = Owner
	return fs.StartGC(cfg), tr, nil
}
