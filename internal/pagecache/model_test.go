package pagecache

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"duet/internal/sim"
	"duet/internal/storage"
)

// Differential test of the cache against a reference pager: a
// slice-ordered LRU whose reclaim is, literally, "first clean page
// within 128 of the tail, else sync the tail's file". Both sides are
// driven with the same operation stream from one process (nothing
// blocks, so the flusher never runs) and must agree on the event
// sequence — which carries the victim sequence — the writeback calls,
// the LRU order with every page's state, the quarantine list and Stats.

// scriptBackend is the environment both sides write back to: a call
// persists the leading indices up to the first page with a scripted
// fault and returns that fault. It logs every call.
type scriptBackend struct {
	fault map[PageKey]error
	log   []string
}

func (b *scriptBackend) WritebackPages(_ *sim.Proc, ino uint64, indices []uint64) (int, error) {
	b.log = append(b.log, fmt.Sprint(ino, indices))
	for n, idx := range indices {
		if err := b.fault[key(ino, idx)]; err != nil {
			return n, err
		}
	}
	return len(indices), nil
}

type refPage struct {
	key         PageKey
	ver         uint64
	dirty, quar bool
}

// refPager is the reference model. lru[0] is the coldest page.
type refPager struct {
	capacity int
	lru      []*refPage
	quar     []PageKey
	be       *scriptBackend
	stats    Stats
	events   []string
}

func (m *refPager) emit(ev EventType, pg *refPage) {
	m.stats.EventsDispatched++
	m.events = append(m.events, fmt.Sprint(ev, pg.key))
}

func (m *refPager) find(k PageKey) (int, *refPage) {
	for i, pg := range m.lru {
		if pg.key == k {
			return i, pg
		}
	}
	return -1, nil
}

// file returns the file's resident pages in index order.
func (m *refPager) file(ino uint64) []*refPage {
	var out []*refPage
	for _, pg := range m.lru {
		if pg.key.Ino == ino {
			out = append(out, pg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.Index < out[j].key.Index })
	return out
}

// promote moves the page at LRU position i to the hot end.
func (m *refPager) promote(i int) {
	m.lru = append(append(m.lru[:i:i], m.lru[i+1:]...), m.lru[i])
}

func (m *refPager) lookup(k PageKey) bool {
	i, pg := m.find(k)
	if pg == nil {
		m.stats.Misses++
		return false
	}
	m.stats.Hits++
	m.promote(i)
	return true
}

func (m *refPager) drop(pg *refPage) {
	i, _ := m.find(pg.key)
	m.lru = append(m.lru[:i:i], m.lru[i+1:]...)
	if pg.quar {
		m.unquarantine(pg)
	}
	m.emit(EventRemoved, pg)
}

func (m *refPager) unquarantine(pg *refPage) {
	pg.quar = false
	for i, k := range m.quar {
		if k == pg.key {
			m.quar = append(m.quar[:i:i], m.quar[i+1:]...)
			break
		}
	}
}

func (m *refPager) pick() *refPage {
	for i := 0; i < len(m.lru) && i < 128; i++ {
		if pg := m.lru[i]; !pg.dirty {
			return pg
		}
	}
	return nil
}

// writeback sends pgs (one file, index order) to the backend and applies
// the outcome: the persisted prefix comes clean, a permanent fault
// quarantines the rest, a transient one leaves it dirty.
func (m *refPager) writeback(pgs []*refPage) {
	if len(pgs) == 0 {
		return
	}
	idx := make([]uint64, len(pgs))
	for i, pg := range pgs {
		idx[i] = pg.key.Index
	}
	n, err := m.be.WritebackPages(nil, pgs[0].key.Ino, idx)
	m.stats.WritebackPages += int64(n)
	for _, pg := range pgs[:n] {
		pg.dirty = false
		m.emit(EventFlushed, pg)
	}
	if err == nil {
		return
	}
	m.stats.WritebackErrors++
	if errors.Is(err, storage.ErrWriteFault) {
		for _, pg := range pgs[n:] {
			pg.quar = true
			m.quar = append(m.quar, pg.key)
			m.stats.QuarantineEvents++
		}
	}
}

func flushable(pgs []*refPage) []*refPage {
	var out []*refPage
	for _, pg := range pgs {
		if pg.dirty && !pg.quar {
			out = append(out, pg)
		}
	}
	return out
}

func (m *refPager) syncFile(ino uint64) { m.writeback(flushable(m.file(ino))) }

func (m *refPager) syncAll() {
	inos := map[uint64]bool{}
	for _, pg := range flushable(m.lru) {
		inos[pg.key.Ino] = true
	}
	order := make([]uint64, 0, len(inos))
	for ino := range inos {
		order = append(order, ino)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, ino := range order {
		m.syncFile(ino)
	}
}

func (m *refPager) insert(k PageKey, ver uint64) {
	if i, pg := m.find(k); pg != nil {
		m.promote(i) // resident: promoted, no hit counted
		return
	}
	for len(m.lru) >= m.capacity {
		victim := m.pick()
		if victim == nil {
			tail := m.lru[0]
			m.stats.DirtyEvictions++
			m.syncFile(tail.key.Ino)
			if victim = m.pick(); victim == nil {
				if !tail.quar {
					m.writeback([]*refPage{tail})
				}
				if tail.dirty {
					m.stats.LostPages++
				}
				victim = tail
			}
		}
		m.drop(victim)
		m.stats.Evictions++
	}
	pg := &refPage{key: k, ver: ver}
	m.lru = append(m.lru, pg)
	m.stats.Inserts++
	m.emit(EventAdded, pg)
}

func (m *refPager) markDirty(pg *refPage, ver uint64) {
	pg.ver = ver
	if !pg.dirty {
		pg.dirty = true
		m.emit(EventDirtied, pg)
	}
}

func (m *refPager) requeue(k PageKey) {
	if _, pg := m.find(k); pg != nil && pg.quar {
		m.unquarantine(pg)
		m.stats.RequeuedPages++
	}
}

// keyHook records events with their keys, in the model's format.
type keyHook struct{ events []string }

func (h *keyHook) PageEvent(ev EventType, key PageKey, _ bool) {
	h.events = append(h.events, fmt.Sprint(ev, key))
}

func (h *keyHook) PageRun(r *Run) {
	r.Each(func(ev EventType, key PageKey) { h.events = append(h.events, fmt.Sprint(ev, key)) })
}

// lruPages lists the resident pages from the LRU tail (the coldest) to
// the head.
func (c *Cache) lruPages() []PageKey {
	var out []PageKey
	for id := c.segs[0].prev; id != 0; id = c.segs[id].prev {
		s := &c.segs[id]
		for i := s.lo; i < s.hi(); i++ {
			out = append(out, PageKey{s.f.key.FS, s.f.key.Ino, i})
		}
	}
	return out
}

// checkVictimCursor recomputes the coldest clean page by an unbounded
// walk from the tail and compares it with the cached cursor whenever the
// cursor is marked valid; it also checks that the (stamp, index) pairs
// order the list.
func (c *Cache) checkVictimCursor() error {
	below := 0
	var coldest *PageKey
	for id := c.segs[0].prev; id != 0; id = c.segs[id].prev {
		s := &c.segs[id]
		if h := s.prev; h != 0 && !(s.stamp < c.segs[h].stamp || s.stamp == c.segs[h].stamp && s.f == c.segs[h].f && s.hi() <= c.segs[h].lo) {
			return fmt.Errorf("segments %+v and %+v are out of (stamp, index) order", *s, c.segs[h])
		}
		for i := s.lo; i < s.hi() && coldest == nil; i++ {
			if s.f.state[i] != 0 {
				below++
			} else {
				coldest = &PageKey{s.f.key.FS, s.f.key.Ino, i}
			}
		}
	}
	if c.victimSeg == 0 {
		return nil // cursor invalid: the next pickVictim re-primes it
	}
	v := &c.segs[c.victimSeg]
	got := PageKey{v.f.key.FS, v.f.key.Ino, c.victimIdx}
	if coldest == nil || got != *coldest || c.dirtyBelow != below || below >= scanLimit ||
		c.victimIdx < v.lo || c.victimIdx >= v.hi() {
		return fmt.Errorf("cursor (%v in %+v, %d), scan finds (%v, %d)", got, *v, c.dirtyBelow, coldest, below)
	}
	return nil
}

// checkIndex verifies the per-file indexes against the LRU, which is the
// independent record of what is resident: the segments are linked both
// ways, each is non-empty and its pages point at it in its file's index,
// the per-file and global counts add up, the dirty tree holds exactly
// the files with pages to write back, the free list holds the rest of
// the segments, and the memo points at a live index. It costs what the
// LRU walk costs; checkSlots is the part that has to look at every slot.
func (c *Cache) checkIndex() error {
	type count struct{ n, dirty int }
	files := map[*fileIndex]count{}
	pages, dirtyN, dirtyFiles, live := 0, 0, 0, 0
	var next int32
	for id := c.segs[0].prev; id != 0; next, id = id, c.segs[id].prev {
		s := &c.segs[id]
		if s.next != next || s.n <= 0 || s.f == nil {
			return fmt.Errorf("segment %d %+v: broken link (colder neighbour %d) or empty", id, *s, next)
		}
		live++
		f := s.f
		for i := s.lo; i < s.hi(); i++ {
			if !f.resident(i) || f.seg[i] != id {
				return fmt.Errorf("page %v of segment %d is not in its slot of its file's index", PageKey{f.key.FS, f.key.Ino, i}, id)
			}
			ct := files[f]
			ct.n++
			if f.state[i] == pgDirty {
				ct.dirty++
			}
			files[f] = ct
			pages++
		}
	}
	if next != c.segs[0].next {
		return fmt.Errorf("the walk from the tail ends at segment %d, the head is %d", next, c.segs[0].next)
	}
	free := 0
	for id := c.segFree; id != 0; id = c.segs[id].next {
		free++
	}
	if live+free != len(c.segs)-1 {
		return fmt.Errorf("%d segments in the LRU and %d free, of %d", live, free, len(c.segs)-1)
	}
	for f, ct := range files {
		if c.files.Get(f.key) != f {
			return fmt.Errorf("file %v: the table does not map its key to its index", f.key)
		}
		if f.n != ct.n || f.dirty != ct.dirty {
			return fmt.Errorf("file %v: index counts (n %d, dirty %d), its pages count (%d, %d)", f.key, f.n, f.dirty, ct.n, ct.dirty)
		}
		if _, in := c.dirty.Get(f.key); in != (ct.dirty > 0) {
			return fmt.Errorf("file %v: %d pages to write back, in the dirty tree: %v", f.key, ct.dirty, in)
		}
		if ct.dirty > 0 {
			dirtyFiles++
		}
		dirtyN += ct.dirty
	}
	if pages != c.Len() || len(files) != c.files.Len() || dirtyN != c.DirtyLen() || dirtyFiles != c.dirty.Len() {
		return fmt.Errorf("LRU holds %d pages of %d files, %d to write back in %d files; Len() = %d, the table holds %d files, DirtyLen() = %d, the dirty tree %d files",
			pages, len(files), dirtyN, dirtyFiles, c.Len(), c.files.Len(), c.DirtyLen(), c.dirty.Len())
	}
	if f := c.lastFile; f != nil && c.files.Get(f.key) != f {
		return fmt.Errorf("memo points at a released index (last key %v)", f.key)
	}
	if c.noneSet && c.files.Get(c.none) != nil {
		return fmt.Errorf("file %v is remembered absent but has an index", c.none)
	}
	if len(c.holds) != 0 {
		return fmt.Errorf("%d holds outlive reclaim", len(c.holds))
	}
	return nil
}

// checkSlots looks at every slot up to the capacity of every index, live
// and pooled: a live index holds its count of pages and no more, and no
// state for a page it does not hold (so, after checkIndex, nothing stale
// and nothing past its length), a pooled one nothing at all, and the
// pool is within its bound.
func (c *Cache) checkSlots() error {
	occupied := func(f *fileIndex) (n int, err error) {
		if cap(f.ver) != cap(f.seg) || cap(f.state) != cap(f.seg) || cap(f.dirtyAt) != cap(f.seg) {
			return 0, fmt.Errorf("file %v: arrays of capacities %d, %d, %d, %d", f.key, cap(f.seg), cap(f.ver), cap(f.state), cap(f.dirtyAt))
		}
		st := f.state[:cap(f.state)]
		for i, id := range f.seg[:cap(f.seg)] {
			if id != 0 {
				n++
			} else if st[i] != 0 {
				return 0, fmt.Errorf("file %v: page %d is not resident but has state %d", f.key, i, st[i])
			}
		}
		return n, nil
	}
	for _, f := range c.files.vals {
		if f == nil {
			continue
		}
		if n, err := occupied(f); err != nil || n != f.n {
			return errors.Join(err, fmt.Errorf("file %v: %d occupied slots for %d pages (len %d, cap %d)", f.key, n, f.n, len(f.seg), cap(f.seg)))
		}
	}
	pooled := 0
	for _, f := range c.flFree {
		if n, err := occupied(f); err != nil || f.n != 0 || f.dirty != 0 || len(f.seg) != 0 || n != 0 {
			return errors.Join(err, fmt.Errorf("pooled index (last key %v) is not empty: n %d, dirty %d, len %d, %d occupied slots", f.key, f.n, f.dirty, len(f.seg), n))
		}
		pooled += cap(f.seg)
	}
	if pooled != c.flFreeCap || pooled > poolEntriesPerPage*c.cfg.CapacityPages {
		return fmt.Errorf("pool holds %d entries, accounted %d, bound %d", pooled, c.flFreeCap, poolEntriesPerPage*c.cfg.CapacityPages)
	}
	return nil
}

// runDifferential drives the cache and the model with the op stream
// encoded in data (three bytes per op) and fails on the first divergence.
// parked dirty pages are placed at the LRU tail first.
func runDifferential(t testing.TB, capacity, parked int, data []byte) {
	e := sim.New(1)
	cfg := DefaultConfig(capacity)
	cfg.DirtyBackgroundRatio = 2 // never kick the flusher: this test owns all writeback
	c := New(e, cfg)
	hook := &keyHook{}
	c.AddHook(hook)
	cbe := &scriptBackend{fault: map[PageKey]error{}}
	c.RegisterFS(1, cbe)
	m := &refPager{capacity: capacity, be: &scriptBackend{fault: map[PageKey]error{}}}

	step := 0
	check := func(op string) {
		t.Helper()
		if err := c.checkVictimCursor(); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		if err := c.checkIndex(); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		// The sparse files make a full slot scan cost far more than the
		// step it checks; a stale slot stays stale until it is looked at.
		if step%32 == 0 || len(data) < 6 {
			if err := c.checkSlots(); err != nil {
				t.Fatalf("step %d (%s, or up to 31 steps earlier): %v", step, op, err)
			}
		}
		if !reflect.DeepEqual(hook.events, m.events) {
			t.Fatalf("step %d (%s): events diverge:\n cache %v\n model %v", step, op, tail(hook.events), tail(m.events))
		}
		if !reflect.DeepEqual(cbe.log, m.be.log) {
			t.Fatalf("step %d (%s): writeback calls diverge:\n cache %v\n model %v", step, op, tail(cbe.log), tail(m.be.log))
		}
		if *c.Stats() != m.stats {
			t.Fatalf("step %d (%s): stats diverge:\n cache %+v\n model %+v", step, op, *c.Stats(), m.stats)
		}
		lru := c.lruPages()
		if len(lru) != len(m.lru) || c.Len() != len(lru) {
			t.Fatalf("step %d (%s): %d pages in the LRU, %d in the table, model has %d", step, op, len(lru), c.Len(), len(m.lru))
		}
		for i, k := range lru {
			ver, dirty, ok := c.Peek(k)
			quar := ok && c.files.Get(FileKey{k.FS, k.Ino}).state[k.Index]&pgQuar != 0
			if r := m.lru[i]; k != r.key || !ok || ver != r.ver || dirty != r.dirty || quar != r.quar {
				t.Fatalf("step %d (%s): LRU position %d: cache %v@%d dirty %v quarantined %v (cached %v), model %+v", step, op, i, k, ver, dirty, quar, ok, *r)
			}
		}
		if q := c.Quarantined(nil); !reflect.DeepEqual(q, append([]PageKey(nil), m.quar...)) {
			t.Fatalf("step %d (%s): quarantine lists diverge: cache %v, model %v", step, op, q, m.quar)
		}
		hook.events, m.events = hook.events[:0], m.events[:0]
		cbe.log, m.be.log = cbe.log[:0], m.be.log[:0]
	}

	e.Go("differential", func(p *sim.Proc) {
		defer e.Stop()
		read := func(k PageKey, ver uint64) {
			if !c.Lookup(k) {
				c.Insert(p, k, ver)
			}
			if !m.lookup(k) {
				m.insert(k, ver)
			}
		}
		dirty := func(r *refPage, ver uint64) {
			c.MarkDirty(r.key, ver)
			m.markDirty(r, ver)
		}
		syncFile := func(ino uint64) {
			_ = c.SyncFile(p, 1, ino)
			m.syncFile(ino)
		}
		syncAll := func() {
			c.Sync(p)
			m.syncAll()
		}
		for i := 0; i < parked; i++ {
			read(key(100+uint64(i/16), uint64(i)), 1) // 16 to a file, so one SyncFile frees few
			dirty(m.lru[len(m.lru)-1], 2)
		}
		for i := parked; i < capacity; i++ {
			read(key(99, uint64(i)), 1)
		}
		check("park")
		span := uint64(4 * capacity) // three reads in four miss once the cache is full
		churnKey := func(xy uint64) PageKey { return key(1+xy%span/64%8, xy%span) }
		for ; len(data) >= 3; data = data[3:] {
			step++
			op, x, y := data[0]%32, uint64(data[1]), uint64(data[2])
			xy := x<<8 | y
			ver := uint64(step + 2)
			var at *refPage // a resident chosen by LRU position
			if len(m.lru) > 0 {
				at = m.lru[xy%uint64(len(m.lru))]
			}
			name := "read"
			switch {
			case op < 16 || at == nil:
				read(churnKey(xy), ver)
			case op == 16:
				name = "insert"
				k := churnKey(xy)
				if x%2 == 0 {
					k = at.key
				}
				c.Insert(p, k, ver)
				m.insert(k, ver)
			case op == 17:
				name = "hit near tail"
				read(m.lru[int(x%4)%len(m.lru)].key, ver)
			case op <= 20:
				name = "dirty"
				dirty(at, ver)
			case op == 21:
				name = "dirty coldest clean"
				for _, r := range m.lru {
					if !r.dirty {
						dirty(r, ver)
						break
					}
				}
			case op == 22 && x < 32:
				name = "sync"
				syncAll()
			case op <= 23:
				name = "syncfile"
				syncFile(at.key.Ino)
			case op == 24:
				name = "remove"
				c.Remove(at.key)
				m.drop(at)
			case op == 25 && x < 16:
				name = "removefile"
				c.RemoveFile(1, at.key.Ino)
				for _, r := range m.file(at.key.Ino) {
					m.drop(r)
					m.stats.RemovedByDelete++
				}
			case op <= 26:
				name = "fault"
				err := storage.ErrWriteFault
				if y%4 == 0 {
					err = storage.ErrTransient
				}
				cbe.fault[at.key], m.be.fault[at.key] = err, err
			case op == 27:
				name = "repair+requeue"
				clear(cbe.fault)
				clear(m.be.fault)
				if len(m.quar) > 0 {
					k := m.quar[int(xy)%len(m.quar)]
					c.Requeue(k)
					m.requeue(k)
				}
			case op == 28 && x < 4:
				name = "dropvolatile"
				c.DropVolatile()
				m.lru, m.quar = nil, nil
			case op == 29 && x < 128:
				name = "sparse"
				// High index first, then low: the file's index is sized by
				// the first and must still find the second.
				ino := 50 + x%4
				read(key(ino, 1024+y), ver)
				read(key(ino, y%16), ver)
			case op == 29:
				name = "quarantine rounds"
				// A page behind a permanent fault is quarantined by the
				// first writeback that reaches it and skipped by every
				// SyncFile and flush round after that, repaired or not,
				// until it is requeued.
				k := at.key
				cbe.fault[k], m.be.fault[k] = storage.ErrWriteFault, storage.ErrWriteFault
				dirty(at, ver)
				syncFile(k.Ino)
				syncAll()
				delete(cbe.fault, k)
				delete(m.be.fault, k)
				syncFile(k.Ino)
				if y%2 == 0 {
					c.Requeue(k)
					m.requeue(k)
					syncAll()
				}
			case op == 30:
				name = "iteratefile"
				// Visit one file in index order while the callback removes
				// the page it was handed: none, the odd ones, or all of
				// them — and in the last mode, once the file is empty,
				// inserts a page of a fresh file while the iteration is
				// still running.
				ino, mode := at.key.Ino, y%4
				want := m.file(ino)
				i := 0
				c.IterateFile(1, ino, func(k PageKey, dirty bool) bool {
					if i >= len(want) || k != want[i].key || dirty != want[i].dirty {
						t.Fatalf("step %d (iteratefile): visit %d is %v (dirty %v), model file is %v", step, i, k, dirty, refKeys(want))
					}
					r := want[i]
					i++
					if mode >= 2 || mode == 1 && r.key.Index%2 == 1 {
						c.Remove(k)
						m.drop(r)
					}
					if mode == 3 && i == len(want) {
						// Past the page just removed: where a walk that kept
						// going over the released index would find it.
						k := key(1000+uint64(step), r.key.Index+1+x%64)
						c.Insert(p, k, ver)
						m.insert(k, ver)
					}
					return true
				})
				if i != len(want) {
					t.Fatalf("step %d (iteratefile): visited %d of %v", step, i, refKeys(want))
				}
			default: // op 31, and op 28 at x >= 4
				name = "iterate"
				// Every page in (ino, index) order; the callback may mutate
				// the cache, here by removing the page that would be next.
				want := append([]*refPage(nil), m.lru...)
				sort.Slice(want, func(i, j int) bool {
					a, b := want[i].key, want[j].key
					return a.Ino < b.Ino || a.Ino == b.Ino && a.Index < b.Index
				})
				i, removed := 0, 0
				c.Iterate(func(k PageKey, dirty bool) bool {
					if i >= len(want) || k != want[i].key || dirty != want[i].dirty {
						t.Fatalf("step %d (iterate): visit %d is %v (dirty %v), want %v", step, i, k, dirty, refKeys(want[min(i, len(want)):]))
					}
					i++
					if x < 64 && i%3 == 0 && i < len(want) && removed < 8 {
						c.Remove(want[i].key)
						m.drop(want[i])
						i++
						removed++
					}
					return true
				})
				if i != len(want) {
					t.Fatalf("step %d (iterate): visited %d of %d pages", step, i, len(want))
				}
			}
			check(name)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func refKeys(pgs []*refPage) []PageKey {
	out := make([]PageKey, len(pgs))
	for i, pg := range pgs {
		out[i] = pg.key
	}
	return out
}

func tail(s []string) []string {
	if len(s) > 12 {
		return s[len(s)-12:]
	}
	return s
}

// TestDifferentialAgainstReferencePager runs seeded random op streams,
// over parked-dirty tails on both sides of the 128-page reclaim window.
func TestDifferentialAgainstReferencePager(t *testing.T) {
	for _, parked := range []int{0, 1, 64, 127, 128, 129, 500, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("parked=%d/seed=%d", parked, seed), func(t *testing.T) {
				data := make([]byte, 3*3000)
				rand.New(rand.NewSource(seed)).Read(data)
				runDifferential(t, parked+200, parked, data)
			})
		}
	}
}

// FuzzVictimCursor feeds arbitrary op streams to the same differential,
// on a cache small enough that the reclaim window covers most of it.
func FuzzVictimCursor(f *testing.F) {
	seed := make([]byte, 3*400)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed, uint8(100))
	f.Add([]byte{8, 0, 0, 8, 0, 0, 0, 1, 2, 9, 0, 0}, uint8(140))
	f.Fuzz(func(t *testing.T, data []byte, parked uint8) {
		// Many short streams find more than few long ones: every op is
		// followed by a full comparison of both sides.
		data = data[:min(len(data), 3*600)]
		runDifferential(t, int(parked)+40, int(parked), data)
	})
}
