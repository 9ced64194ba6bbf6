package pagecache

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"duet/internal/sim"
)

// recordingHook collects events for assertions.
type recordingHook struct {
	events []string
	byType map[EventType]int
}

func newRecordingHook() *recordingHook {
	return &recordingHook{byType: map[EventType]int{}}
}

func (h *recordingHook) PageEvent(ev EventType, _ PageKey, _ bool) {
	h.events = append(h.events, ev.String())
	h.byType[ev]++
}

func (h *recordingHook) PageRun(r *Run) {
	r.Each(func(ev EventType, key PageKey) { h.PageEvent(ev, key, false) })
}

// nullBackend counts writebacks without doing I/O.
type nullBackend struct {
	pagesWritten int
}

func (b *nullBackend) WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error) {
	b.pagesWritten += len(indices)
	return len(indices), nil
}

// harness bundles an engine, cache, backend and hook for tests.
type harness struct {
	e    *sim.Engine
	c    *Cache
	b    *nullBackend
	hook *recordingHook
}

func newHarness(capacity int) *harness {
	e := sim.New(1)
	c := New(e, DefaultConfig(capacity))
	b := &nullBackend{}
	c.RegisterFS(1, b)
	h := newRecordingHook()
	c.AddHook(h)
	return &harness{e: e, c: c, b: b, hook: h}
}

// in runs fn as a sim process and completes the simulation.
func (h *harness) in(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	h.e.Go("test", func(p *sim.Proc) {
		// Stop via defer so a t.Fatal inside fn still ends the run.
		defer h.e.Stop()
		fn(p)
	})
	if err := h.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func key(ino, idx uint64) PageKey { return PageKey{FS: 1, Ino: ino, Index: idx} }

func TestInsertLookupEvents(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 7)
		if ver, dirty, ok := h.c.Peek(key(1, 0)); !ok || ver != 7 || dirty {
			t.Errorf("page = version %d, dirty %v, cached %v", ver, dirty, ok)
		}
		if !h.c.Lookup(key(1, 0)) {
			t.Error("Lookup failed")
		}
		if h.c.Lookup(key(1, 1)) {
			t.Error("Lookup of absent page succeeded")
		}
		// Re-insert is idempotent and fires no second Added.
		h.c.Insert(p, key(1, 0), 99)
		if ver, _, _ := h.c.Peek(key(1, 0)); ver != 7 {
			t.Error("re-insert must not clobber version")
		}
	})
	if h.hook.byType[EventAdded] != 1 {
		t.Errorf("Added events = %d, want 1", h.hook.byType[EventAdded])
	}
	if h.c.Stats().Hits != 1 || h.c.Stats().Misses != 1 {
		t.Errorf("stats = %+v", *h.c.Stats())
	}
}

func TestLRUEviction(t *testing.T) {
	h := newHarness(3)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 0)
		h.c.Insert(p, key(1, 1), 0)
		h.c.Insert(p, key(1, 2), 0)
		h.c.Lookup(key(1, 0)) // promote 0; 1 is now coldest
		h.c.Insert(p, key(1, 3), 0)
		if h.c.Contains(key(1, 1)) {
			t.Error("coldest page (1,1) should have been evicted")
		}
		for _, idx := range []uint64{0, 2, 3} {
			if !h.c.Contains(key(1, idx)) {
				t.Errorf("page (1,%d) should remain", idx)
			}
		}
	})
	if h.hook.byType[EventRemoved] != 1 {
		t.Errorf("Removed events = %d, want 1", h.hook.byType[EventRemoved])
	}
	if h.c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d", h.c.Stats().Evictions)
	}
}

func TestEvictionPrefersClean(t *testing.T) {
	h := newHarness(3)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 0)
		h.c.Insert(p, key(1, 1), 0)
		h.c.Insert(p, key(1, 2), 0)
		h.c.MarkDirty(key(1, 0), 1) // dirtying (1,0) doesn't change LRU position
		h.c.Insert(p, key(1, 3), 0)
		if !h.c.Contains(key(1, 0)) {
			t.Error("dirty coldest page should be skipped by reclaim")
		}
		if h.c.Contains(key(1, 1)) {
			t.Error("clean (1,1) should have been evicted instead")
		}
	})
	if h.b.pagesWritten != 0 {
		t.Error("no writeback should have occurred")
	}
}

func TestAllDirtyForcesWriteback(t *testing.T) {
	h := newHarness(2)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 0)
		h.c.Insert(p, key(1, 1), 0)
		h.c.MarkDirty(key(1, 0), 1)
		h.c.MarkDirty(key(1, 1), 1)
		h.c.Insert(p, key(1, 2), 0)
		if h.c.Len() != 2 {
			t.Errorf("Len = %d", h.c.Len())
		}
	})
	// Reclaim under all-dirty pressure writes back the victim's whole file
	// in one batch (both pages here) before evicting the coldest.
	if h.b.pagesWritten != 2 {
		t.Errorf("pagesWritten = %d, want the victim file's 2 dirty pages", h.b.pagesWritten)
	}
	if h.c.Stats().DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", h.c.Stats().DirtyEvictions)
	}
	if h.hook.byType[EventFlushed] != 2 {
		t.Errorf("Flushed = %d", h.hook.byType[EventFlushed])
	}
}

func TestDirtyFlushCycle(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1)
		h.c.MarkDirty(key(1, 0), 2)
		h.c.MarkDirty(key(1, 0), 3) // second dirty: no extra event
		if h.c.DirtyLen() != 1 {
			t.Errorf("DirtyLen = %d", h.c.DirtyLen())
		}
		// Wait past dirty expire + writeback interval for the flusher.
		p.Sleep(40 * sim.Second)
		ver, dirty, _ := h.c.Peek(key(1, 0))
		if dirty {
			t.Error("page still dirty after expire")
		}
		if ver != 3 {
			t.Errorf("version = %d", ver)
		}
	})
	if h.hook.byType[EventDirtied] != 1 {
		t.Errorf("Dirtied = %d, want 1", h.hook.byType[EventDirtied])
	}
	if h.hook.byType[EventFlushed] != 1 {
		t.Errorf("Flushed = %d, want 1", h.hook.byType[EventFlushed])
	}
	if h.b.pagesWritten != 1 {
		t.Errorf("pagesWritten = %d", h.b.pagesWritten)
	}
}

func TestFlusherHonoursDirtyExpire(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1)
		h.c.MarkDirty(key(1, 0), 2)
		p.Sleep(10 * sim.Second) // several flusher runs, but page is young
		if _, dirty, _ := h.c.Peek(key(1, 0)); !dirty {
			t.Error("page flushed before dirty expire")
		}
	})
}

func TestSyncFileImmediate(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 4; i++ {
			h.c.Insert(p, key(5, i), 1)
			h.c.MarkDirty(key(5, i), 2)
		}
		h.c.Insert(p, key(6, 0), 1)
		h.c.MarkDirty(key(6, 0), 2)
		if err := h.c.SyncFile(p, 1, 5); err != nil {
			t.Fatal(err)
		}
		if h.c.DirtyLen() != 1 {
			t.Errorf("DirtyLen = %d, want only file 6's page", h.c.DirtyLen())
		}
	})
	if h.b.pagesWritten != 4 {
		t.Errorf("pagesWritten = %d, want 4", h.b.pagesWritten)
	}
}

func TestSyncAll(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 3; i++ {
			h.c.Insert(p, key(i+1, 0), 1)
			h.c.MarkDirty(key(i+1, 0), 2)
		}
		h.c.Sync(p)
		if h.c.DirtyLen() != 0 {
			t.Errorf("DirtyLen = %d", h.c.DirtyLen())
		}
	})
}

func TestRemoveFile(t *testing.T) {
	h := newHarness(10)
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 3; i++ {
			h.c.Insert(p, key(7, i), 1)
		}
		h.c.Insert(p, key(7, 1), 1)
		h.c.MarkDirty(key(7, 1), 2)
		if n := h.c.RemoveFile(1, 7); n != 3 {
			t.Errorf("RemoveFile = %d, want 3", n)
		}
		if h.c.FilePages(1, 7) != 0 {
			t.Error("file pages remain")
		}
		if h.c.DirtyLen() != 0 {
			t.Error("dirty page not dropped with file")
		}
	})
	if h.b.pagesWritten != 0 {
		t.Error("file deletion must not write back")
	}
	if h.hook.byType[EventRemoved] != 3 {
		t.Errorf("Removed = %d", h.hook.byType[EventRemoved])
	}
}

func TestIterateFileOrder(t *testing.T) {
	h := newHarness(20)
	h.in(t, func(p *sim.Proc) {
		for _, i := range []uint64{5, 1, 3, 2, 4} {
			h.c.Insert(p, key(9, i), 1)
		}
		h.c.Insert(p, key(8, 0), 1)
		var got []uint64
		h.c.IterateFile(1, 9, func(k PageKey, _ bool) bool {
			got = append(got, k.Index)
			return true
		})
		want := []uint64{1, 2, 3, 4, 5}
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
		if h.c.FilePages(1, 9) != 5 {
			t.Errorf("FilePages = %d", h.c.FilePages(1, 9))
		}
	})
}

// TestIterateFileIndexReleasedMidWalk removes a file's last page from
// inside IterateFile and then brings in a page of another file, which
// takes over the released index while the walk is still holding its
// slice: the walk must end there, not visit the newcomer.
func TestIterateFileIndexReleasedMidWalk(t *testing.T) {
	h := newHarness(20)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(9, 2), 1)
		h.c.Insert(p, key(9, 10), 1)
		h.c.Remove(key(9, 10)) // the index stays 11 long
		var got []PageKey
		h.c.IterateFile(1, 9, func(k PageKey, _ bool) bool {
			got = append(got, k)
			h.c.Remove(k)
			h.c.Insert(p, key(8, 5), 1)
			return true
		})
		if len(got) != 1 || got[0] != key(9, 2) {
			t.Errorf("visited %v, want only %v", got, key(9, 2))
		}
		if !h.c.Contains(key(8, 5)) || h.c.FilePages(1, 9) != 0 || h.c.FilePages(1, 8) != 1 {
			t.Errorf("file 9 holds %d pages, file 8 holds %d", h.c.FilePages(1, 9), h.c.FilePages(1, 8))
		}
		if err := errors.Join(h.c.checkIndex(), h.c.checkSlots()); err != nil {
			t.Error(err)
		}
	})
}

// indexCapacity returns the slice capacity held by the indexes of
// resident files and by the pool, and the number of resident files.
func (c *Cache) indexCapacity() (live, pooled, files int) {
	for _, f := range c.files.vals {
		if f != nil {
			live += cap(f.seg)
			files++
		}
	}
	for _, f := range c.flFree {
		pooled += cap(f.seg)
	}
	return live, pooled, files
}

// TestIndexMemoryBound reads single pages at random places of many large
// files through a small cache — the access pattern that makes dense
// per-file indexes as large as they get, and leaves the largest emptied
// ones behind — and then drains the cache. At every step the indexes of
// resident files hold at most twice (slice growth rounds up) the size of
// those files, and the pool at most its fixed share of the cache
// capacity however many indexes were emptied.
func TestIndexMemoryBound(t *testing.T) {
	const (
		capacity  = 1024
		files     = 4096
		filePages = 4096
	)
	e := sim.New(1)
	c := New(e, DefaultConfig(capacity))
	c.RegisterFS(1, &nullBackend{})
	rng := rand.New(rand.NewSource(1))
	maxPooled := 0
	check := func(step int) {
		live, pooled, resident := c.indexCapacity()
		if live > 2*resident*filePages || pooled > poolEntriesPerPage*capacity {
			t.Fatalf("step %d: %d resident files hold %d index entries (bound %d), the pool %d (bound %d)",
				step, resident, live, 2*resident*filePages, pooled, poolEntriesPerPage*capacity)
		}
		maxPooled = max(maxPooled, pooled)
	}
	e.Go("test", func(p *sim.Proc) {
		defer e.Stop()
		for step := 0; step < 20*capacity; step++ {
			k := key(uint64(1+rng.Intn(files)), uint64(rng.Intn(filePages)))
			if !c.Touch(k) {
				c.Insert(p, k, 1)
			}
			check(step)
		}
		if maxPooled == 0 {
			t.Error("the pool never held an index: the bound was not exercised")
		}
		for ino := uint64(1); ino <= files; ino++ {
			c.RemoveFile(1, ino)
			check(-int(ino))
		}
		if live, _, resident := c.indexCapacity(); live != 0 || resident != 0 || c.Len() != 0 {
			t.Errorf("drained cache still holds %d pages in %d files, %d index entries", c.Len(), resident, live)
		}
		if err := errors.Join(c.checkIndex(), c.checkSlots()); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIterateWholeCache(t *testing.T) {
	h := newHarness(20)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(2, 1), 1)
		h.c.Insert(p, key(1, 5), 1)
		h.c.Insert(p, key(1, 2), 1)
		var got []PageKey
		h.c.Iterate(func(k PageKey, _ bool) bool {
			got = append(got, k)
			return true
		})
		if len(got) != 3 {
			t.Fatalf("got %d pages", len(got))
		}
		if got[0] != key(1, 2) || got[1] != key(1, 5) || got[2] != key(2, 1) {
			t.Errorf("order = %v", got)
		}
	})
}

func TestRedirtiedPageStaysDirty(t *testing.T) {
	e := sim.New(1)
	c := New(e, Config{CapacityPages: 10, DirtyExpire: sim.Second, WritebackInterval: sim.Second})
	slow := &slowBackend{e: e, delay: 500 * sim.Millisecond}
	c.RegisterFS(1, slow)
	redirtied := false
	e.Go("test", func(p *sim.Proc) {
		c.Insert(p, key(1, 0), 1)
		c.MarkDirty(key(1, 0), 2)
		// The flusher starts writing back v2 at t=1s and finishes at
		// t=1.5s. Re-dirty mid-writeback at t=1.2s.
		p.Sleep(1200 * sim.Millisecond)
		c.MarkDirty(key(1, 0), 3)
		redirtied = true
		p.Sleep(400 * sim.Millisecond) // writeback of v2 has completed
		ver, dirty, _ := c.Peek(key(1, 0))
		if !dirty {
			t.Error("page re-dirtied during writeback must stay dirty")
		}
		if ver != 3 {
			t.Errorf("version = %d, want 3", ver)
		}
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !redirtied {
		t.Fatal("test never reached redirty point")
	}
}

type slowBackend struct {
	e     *sim.Engine
	delay sim.Time
}

func (b *slowBackend) WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error) {
	p.Sleep(b.delay)
	return len(indices), nil
}

func TestRemoveHook(t *testing.T) {
	h := newHarness(10)
	h.c.RemoveHook(h.hook)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1)
	})
	if len(h.hook.events) != 0 {
		t.Errorf("hook still received %v", h.hook.events)
	}
}

// TestQuickResidencyInvariant property: after any sequence of inserts and
// removes, Len equals the number of distinct keys present, never exceeds
// capacity, and per-file counts sum to Len.
func TestQuickResidencyInvariant(t *testing.T) {
	const capacity = 16
	f := func(ops []struct {
		Ino uint8
		Idx uint8
		Del bool
	}) bool {
		e := sim.New(1)
		c := New(e, DefaultConfig(capacity))
		c.RegisterFS(1, &nullBackend{})
		ok := true
		e.Go("drive", func(p *sim.Proc) {
			for _, op := range ops {
				k := PageKey{1, uint64(op.Ino % 4), uint64(op.Idx % 64)}
				if op.Del {
					c.Remove(k)
				} else {
					c.Insert(p, k, 1)
				}
				if c.Len() > capacity {
					ok = false
					return
				}
			}
			sum := 0
			for ino := uint64(0); ino < 4; ino++ {
				sum += c.FilePages(1, ino)
			}
			if sum != c.Len() {
				ok = false
			}
			e.Stop()
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEventTypeString(t *testing.T) {
	names := map[EventType]string{
		EventAdded: "Added", EventRemoved: "Removed",
		EventDirtied: "Dirtied", EventFlushed: "Flushed",
	}
	for ev, want := range names {
		if ev.String() != want {
			t.Errorf("%d.String() = %q", ev, ev.String())
		}
	}
}

// funcHook adapts a closure to the Hook interface.
type funcHook struct {
	fn func(ev EventType, key PageKey)
}

func (h *funcHook) PageEvent(ev EventType, key PageKey, _ bool) { h.fn(ev, key) }

func (h *funcHook) PageRun(r *Run) { r.Each(h.fn) }

// TestRemoveHookDuringDispatch is the regression test for hook removal
// from inside a PageEvent callback. With a splice-under-iteration
// implementation, hook A removing itself shifts hook B into A's slot
// and the dispatch loop skips B for the in-flight event. Copy-on-write
// removal must deliver the current event to every hook that was
// registered when it fired, and stop delivering to the removed hook
// afterwards.
func TestRemoveHookDuringDispatch(t *testing.T) {
	h := newHarness(10)
	h.c.RemoveHook(h.hook) // drop the harness hook; this test counts its own
	var aCalls, bCalls int
	var a, b *funcHook
	a = &funcHook{fn: func(EventType, PageKey) {
		aCalls++
		h.c.RemoveHook(a) // self-removal mid-dispatch
	}}
	b = &funcHook{fn: func(EventType, PageKey) { bCalls++ }}
	h.c.AddHook(a)
	h.c.AddHook(b)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1) // fires Added: a removes itself, b must still see it
		h.c.Insert(p, key(1, 1), 1) // a is gone, only b sees it
	})
	if aCalls != 1 {
		t.Errorf("removed hook called %d times, want 1 (the in-flight event only)", aCalls)
	}
	if bCalls != 2 {
		t.Errorf("surviving hook called %d times, want 2 (must not be skipped by the removal)", bCalls)
	}
}

// TestRemoveHookRefreshesInterest: removing the only interested hook
// must drop the cache's interest mask back to zero so later events are
// filtered before dispatch.
func TestRemoveHookRefreshesInterest(t *testing.T) {
	h := newHarness(10)
	h.c.RemoveHook(h.hook)
	if h.c.interest != 0 {
		t.Fatalf("interest = %#x after removing only hook, want 0", h.c.interest)
	}
	base := h.c.Stats().EventsFiltered
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1)
	})
	if got := h.c.Stats().EventsFiltered - base; got == 0 {
		t.Error("event was dispatched despite empty interest mask")
	}
}

// TestEvictionRaceReinsert pins the eviction-race contract of reclaim's
// hold: while reclaim is blocked writing back its LRU-tail candidate, a
// concurrent process may evict that page and re-insert the same key.
// The raced double-eviction must re-report the removal (both parties
// observed it) but leave the freshly inserted page fully intact — in
// its file's index and the writeback set — so a later SyncFile
// cannot lose its data.
func TestEvictionRaceReinsert(t *testing.T) {
	e := sim.New(1)
	c := New(e, DefaultConfig(2))
	b := &slowBackend{e: e, delay: 10 * sim.Millisecond}
	c.RegisterFS(1, b)
	h := newRecordingHook()
	c.AddHook(h)
	k1, k2, k3 := key(1, 0), key(1, 1), key(2, 0)
	e.Go("inserter", func(p *sim.Proc) {
		c.Insert(p, k1, 1)
		c.MarkDirty(k1, 1)
		c.Insert(p, k2, 2)
		c.MarkDirty(k2, 2)
		// Cache full, everything dirty: this insert blocks in reclaim
		// writing back the tail (k1).
		c.Insert(p, k3, 3)
	})
	e.Go("racer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // let the inserter block first
		c.Remove(k1)
		c.Insert(p, k1, 10)
		c.MarkDirty(k1, 10)
	})
	e.Go("stopper", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(k1) {
		t.Fatal("re-inserted page lost by raced double-eviction")
	}
	ver, dirty, ok := c.Peek(k1)
	if !ok || ver != 10 {
		t.Fatalf("Peek(k1) = version %d, cached %v; want the re-inserted page (version 10)", ver, ok)
	}
	if !dirty {
		t.Error("re-inserted page lost its dirty bit")
	}
	// The re-inserted page must still be reachable through the per-file
	// index, or SyncFile would silently skip it.
	seen := false
	c.IterateFile(1, 1, func(k PageKey, dirty bool) bool {
		seen = seen || k == k1 && dirty
		return true
	})
	if !seen {
		t.Error("re-inserted page missing from the per-file index")
	}
	if err := errors.Join(c.checkIndex(), c.checkVictimCursor()); err != nil {
		t.Error(err)
	}
}

// TestInsertRaceSameKey pins Insert's behaviour when reclaim blocks: two
// processes miss on the same key while the reclaim window is all dirty,
// so both block in makeRoom's writeback. The first to resume inserts the
// page; the second must find it and leave it, not insert a second page
// under the same key — its later eviction would report Removed for a key
// that is still cached.
func TestInsertRaceSameKey(t *testing.T) {
	e := sim.New(1)
	c := New(e, DefaultConfig(2))
	c.RegisterFS(1, &slowBackend{e: e, delay: 10 * sim.Millisecond})
	h := &keyHook{}
	c.AddHook(h)
	k1, k2, k3 := key(1, 0), key(1, 1), key(2, 0)
	e.Go("first", func(p *sim.Proc) {
		c.Insert(p, k1, 1)
		c.MarkDirty(k1, 1)
		c.Insert(p, k2, 2)
		c.MarkDirty(k2, 2)
		c.Insert(p, k3, 3) // blocks writing back file 1
	})
	e.Go("second", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // let the first block
		c.Insert(p, k3, 4)
		// Push everything else out: an orphan would surface here as a
		// Removed for k3 while k3 stays cached.
		c.Insert(p, key(3, 0), 5)
		c.Lookup(k3)
		c.Insert(p, key(3, 1), 6)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	added, removed := 0, 0
	for _, ev := range h.events {
		switch ev {
		case fmt.Sprint(EventAdded, k3):
			added++
		case fmt.Sprint(EventRemoved, k3):
			removed++
		}
	}
	if added != 1 || removed != 0 {
		t.Errorf("k3: %d Added, %d Removed events, want 1 and 0: %v", added, removed, h.events)
	}
	if ver, _, ok := c.Peek(k3); !ok || ver != 3 {
		t.Errorf("k3 should be cached at the winner's version 3, got %d, %v", ver, ok)
	}
	if n := len(c.lruPages()); n != c.Len() {
		t.Errorf("%d pages in the LRU, %d in the table", n, c.Len())
	}
	if err := c.checkIndex(); err != nil {
		t.Error(err)
	}
}
