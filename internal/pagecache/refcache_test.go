package pagecache

import (
	"errors"
	"fmt"
	"sort"

	"duet/internal/sim"
	"duet/internal/storage"
)

// refCache is the cache as it was before its LRU held segments, kept as
// the reference the segment LRU is checked against (segment_test.go):
// a struct per resident page, each linked into one per-page LRU and
// found through its file's slice, with the same clean-victim cursor,
// reclaim, writeback and quarantine decisions. What only made it fast
// is gone: its pages come from the heap rather than an arena (so a page
// held across blocking writeback keeps the key and version it left with,
// as a pinned page did), and there is no lookup memo, index pool or
// writeback batch pool. It serves one filesystem and records its events
// as keyHook does.
type refCache struct {
	eng      sim.Host
	cfg      Config
	be       Backend
	files    map[FileKey]*refFile
	n        int
	dirtyN   int
	interest uint8
	events   []string
	stats    Stats

	head, tail *refPg // head is the most recently used
	clock      uint64
	victim     *refPg
	dirtyBelow int
	quar       []PageKey

	kick  *sim.WaitQueue
	timer *sim.Callback
}

type refPg struct {
	key         PageKey
	ver         uint64
	dirty, quar bool
	dirtyAt     sim.Time
	prev, next  *refPg // prev is hotter
	stamp       uint64
	resident    bool
}

type refFile struct {
	pages    []*refPg
	n, dirty int
}

func newRefCache(e sim.Host, cfg Config, be Backend, interest uint8) *refCache {
	if cfg.DirtyExpire <= 0 {
		cfg.DirtyExpire = 30 * sim.Second
	}
	if cfg.WritebackInterval <= 0 {
		cfg.WritebackInterval = 5 * sim.Second
	}
	if cfg.DirtyBackgroundRatio <= 0 {
		cfg.DirtyBackgroundRatio = 0.2
	}
	c := &refCache{eng: e, cfg: cfg, be: be, files: map[FileKey]*refFile{}, interest: interest}
	c.kick = sim.NewWaitQueue(e)
	c.timer = sim.NewCallback(e, "pagecache-flusher-timer", func(sim.Time) sim.Time {
		c.kick.WakeAll()
		return 0
	})
	e.Go("pagecache-flusher", c.flusher)
	return c
}

func (c *refCache) emit(ev EventType, pg *refPg) {
	c.stats.EventsDispatched++
	if c.interest&(1<<ev) == 0 {
		c.stats.EventsFiltered++
		return
	}
	c.events = append(c.events, fmt.Sprint(ev, pg.key))
}

func (c *refCache) lruPushFront(pg *refPg) {
	c.clock++
	pg.stamp = c.clock
	pg.prev, pg.next = nil, c.head
	if c.head != nil {
		c.head.prev = pg
	}
	c.head = pg
	if c.tail == nil {
		c.tail = pg
	}
}

func (c *refCache) lruRemove(pg *refPg) {
	if v := c.victim; v == pg {
		c.advanceVictim(0)
	} else if v != nil && pg.stamp < v.stamp {
		c.dirtyBelow--
	}
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		c.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		c.tail = pg.prev
	}
	pg.prev, pg.next = nil, nil
}

func (c *refCache) advanceVictim(passed int) {
	below := c.dirtyBelow + passed
	pg := c.victim.prev
	for pg != nil && pg.dirty && below < scanLimit {
		below++
		pg = pg.prev
	}
	if below >= scanLimit {
		pg = nil
	}
	c.victim, c.dirtyBelow = pg, below
}

func (c *refCache) moveToFront(pg *refPg) {
	if c.head != pg {
		c.lruRemove(pg)
		c.lruPushFront(pg)
	}
}

func (c *refCache) page(key PageKey) *refPg {
	f := c.files[FileKey{key.FS, key.Ino}]
	if f == nil || key.Index >= uint64(len(f.pages)) {
		return nil
	}
	return f.pages[key.Index]
}

func (c *refCache) fileInsert(pg *refPg) {
	fk := FileKey{pg.key.FS, pg.key.Ino}
	f := c.files[fk]
	if f == nil {
		f = &refFile{}
		c.files[fk] = f
	}
	for uint64(len(f.pages)) <= pg.key.Index {
		f.pages = append(f.pages, nil)
	}
	f.pages[pg.key.Index] = pg
	f.n++
	c.n++
}

func (c *refCache) fileRemove(pg *refPg) {
	fk := FileKey{pg.key.FS, pg.key.Ino}
	f := c.files[fk]
	f.pages[pg.key.Index] = nil
	f.n--
	c.n--
	if f.n == 0 {
		delete(c.files, fk)
	}
}

func (c *refCache) dirtyAdd(pg *refPg) {
	c.files[FileKey{pg.key.FS, pg.key.Ino}].dirty++
	c.dirtyN++
}

func (c *refCache) dirtyDel(pg *refPg) {
	c.files[FileKey{pg.key.FS, pg.key.Ino}].dirty--
	c.dirtyN--
}

func (c *refCache) Lookup(key PageKey) (*refPg, bool) {
	pg, ok := c.Touch(key)
	if !ok {
		c.stats.Misses++
	}
	return pg, ok
}

func (c *refCache) Touch(key PageKey) (*refPg, bool) {
	pg := c.page(key)
	if pg == nil {
		return nil, false
	}
	c.stats.Hits++
	c.moveToFront(pg)
	return pg, true
}

func (c *refCache) Insert(p *sim.Proc, key PageKey, version uint64) *refPg {
	if pg := c.page(key); pg != nil {
		c.moveToFront(pg)
		return pg
	}
	if c.makeRoom(p) {
		if pg := c.page(key); pg != nil {
			c.moveToFront(pg)
			return pg
		}
	}
	pg := &refPg{key: key, ver: version, resident: true}
	c.lruPushFront(pg)
	c.fileInsert(pg)
	c.stats.Inserts++
	c.emit(EventAdded, pg)
	return pg
}

func (c *refCache) makeRoom(p *sim.Proc) (blocked bool) {
	for c.n >= c.cfg.CapacityPages {
		victim := c.pickVictim()
		if victim == nil {
			blocked = true
			tail := c.tail
			c.stats.DirtyEvictions++
			_ = c.SyncFile(p, tail.key.Ino)
			victim = c.pickVictim()
			if victim == nil {
				c.writebackOne(p, tail)
				if tail.dirty && tail.resident {
					c.stats.LostPages++
				}
				victim = tail
			}
		}
		c.removePage(victim)
		c.stats.Evictions++
	}
	return blocked
}

func (c *refCache) pickVictim() *refPg {
	if c.victim != nil {
		return c.victim
	}
	pg := c.tail
	for i := 0; pg != nil && i < scanLimit; i++ {
		if !pg.dirty {
			c.victim, c.dirtyBelow = pg, i
			return pg
		}
		pg = pg.prev
	}
	return nil
}

func (c *refCache) writebackOne(p *sim.Proc, pg *refPg) {
	if pg.quar {
		return
	}
	key, ver := pg.key, pg.ver
	n, err := c.be.WritebackPages(p, key.Ino, []uint64{key.Index})
	c.stats.WritebackPages += int64(n)
	if n > 0 {
		c.markCleanIf(key, ver)
	}
	if err != nil {
		c.wbFailed(err, key.Ino, []uint64{key.Index}[n:], []uint64{ver}[n:])
	}
}

// removePage unlinks a resident page and fires Removed; a page that is
// no longer resident (reclaim's held tail, evicted by a concurrent
// process) only fires the event again.
func (c *refCache) removePage(pg *refPg) {
	if pg.resident {
		c.lruRemove(pg)
		if pg.quar {
			c.unquarantine(pg)
		} else if pg.dirty {
			c.dirtyDel(pg)
		}
		pg.dirty = false
		c.fileRemove(pg)
		pg.resident = false
	}
	c.emit(EventRemoved, pg)
}

func (c *refCache) MarkDirty(pg *refPg, version uint64) {
	pg.ver = version
	if pg.dirty {
		return
	}
	pg.dirty = true
	if pg == c.victim {
		c.advanceVictim(1)
	}
	pg.dirtyAt = c.eng.Now()
	c.dirtyAdd(pg)
	c.emit(EventDirtied, pg)
	if float64(c.dirtyN) > c.cfg.DirtyBackgroundRatio*float64(c.cfg.CapacityPages) {
		c.kick.WakeAll()
	}
}

func (c *refCache) markCleanIf(key PageKey, version uint64) {
	pg := c.page(key)
	if pg == nil || !pg.dirty || pg.quar || pg.ver != version {
		return
	}
	pg.dirty = false
	if c.victim != nil && pg.stamp < c.victim.stamp {
		c.victim = nil
	}
	c.dirtyDel(pg)
	c.emit(EventFlushed, pg)
}

func (c *refCache) Remove(key PageKey) {
	if pg := c.page(key); pg != nil {
		c.removePage(pg)
	}
}

func (c *refCache) RemoveFile(ino uint64) int {
	f := c.files[FileKey{1, ino}]
	if f == nil {
		return 0
	}
	n := 0
	for _, pg := range f.pages {
		if pg != nil {
			c.removePage(pg)
			c.stats.RemovedByDelete++
			n++
		}
	}
	return n
}

func (c *refCache) flushable(ino uint64, minAge sim.Time) (idx, vers []uint64) {
	now := c.eng.Now()
	for _, pg := range c.files[FileKey{1, ino}].pages {
		if pg != nil && pg.dirty && !pg.quar && now-pg.dirtyAt >= minAge {
			idx = append(idx, pg.key.Index)
			vers = append(vers, pg.ver)
		}
	}
	return idx, vers
}

// writeback sends one file's staged pages to the backend and applies
// the outcome.
func (c *refCache) writeback(p *sim.Proc, ino uint64, idx, vers []uint64) error {
	n, err := c.be.WritebackPages(p, ino, idx)
	c.stats.WritebackPages += int64(n)
	for i := 0; i < n; i++ {
		c.markCleanIf(PageKey{1, ino, idx[i]}, vers[i])
	}
	if err != nil {
		c.wbFailed(err, ino, idx[n:], vers[n:])
	}
	return err
}

func (c *refCache) SyncFile(p *sim.Proc, ino uint64) error {
	f := c.files[FileKey{1, ino}]
	if f == nil || f.dirty == 0 {
		return nil
	}
	idx, vers := c.flushable(ino, 0)
	return c.writeback(p, ino, idx, vers)
}

func (c *refCache) Sync(p *sim.Proc) { c.flushExpired(p, 0) }

func (c *refCache) flusher(p *sim.Proc) {
	for {
		c.timer.ArmDeferred(c.cfg.WritebackInterval)
		c.kick.Wait(p, "flusher interval")
		if float64(c.dirtyN) > c.cfg.DirtyBackgroundRatio*float64(c.cfg.CapacityPages) {
			c.flushExpired(p, 0)
		} else {
			c.flushExpired(p, c.cfg.DirtyExpire)
		}
	}
}

// flushExpired stages every file's expired pages, in file key order,
// before writing any of them back.
func (c *refCache) flushExpired(p *sim.Proc, minAge sim.Time) {
	var inos []uint64
	for fk, f := range c.files {
		if f.dirty > 0 {
			inos = append(inos, fk.Ino)
		}
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	type batch struct {
		ino       uint64
		idx, vers []uint64
	}
	var bs []batch
	for _, ino := range inos {
		if idx, vers := c.flushable(ino, minAge); len(idx) > 0 {
			bs = append(bs, batch{ino, idx, vers})
		}
	}
	for _, b := range bs {
		_ = c.writeback(p, b.ino, b.idx, b.vers)
	}
}

func (c *refCache) wbFailed(err error, ino uint64, idx, vers []uint64) {
	c.stats.WritebackErrors++
	permanent := errors.Is(err, storage.ErrWriteFault)
	if !permanent && !storage.IsTransient(err) {
		return
	}
	for i, ix := range idx {
		pg := c.page(PageKey{1, ino, ix})
		if pg == nil || !pg.dirty || pg.quar {
			continue
		}
		if permanent && pg.ver == vers[i] {
			pg.quar = true
			c.dirtyDel(pg)
			c.quar = append(c.quar, pg.key)
			c.stats.QuarantineEvents++
			continue
		}
		pg.dirtyAt = c.eng.Now()
	}
}

func (c *refCache) DropVolatile() int {
	n := 0
	for pg := c.head; pg != nil; n++ {
		next := pg.next
		if pg.dirty && !pg.quar {
			c.dirtyDel(pg)
		}
		pg.dirty, pg.quar = false, false
		c.fileRemove(pg)
		pg.resident = false
		pg.prev, pg.next = nil, nil
		pg = next
	}
	c.head, c.tail, c.victim = nil, nil, nil
	c.quar = c.quar[:0]
	return n
}

func (c *refCache) Requeue(key PageKey) bool {
	pg := c.page(key)
	if pg == nil || !pg.quar {
		return false
	}
	c.unquarantine(pg)
	pg.dirtyAt = c.eng.Now()
	c.dirtyAdd(pg)
	c.stats.RequeuedPages++
	c.kick.WakeAll()
	return true
}

func (c *refCache) unquarantine(pg *refPg) {
	pg.quar = false
	for i, k := range c.quar {
		if k == pg.key {
			c.quar = append(c.quar[:i], c.quar[i+1:]...)
			break
		}
	}
}
