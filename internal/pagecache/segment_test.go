package pagecache

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"duet/internal/sim"
	"duet/internal/storage"
)

// The segment LRU against refCache, the per-page cache it replaced: both
// are driven with one op stream, each on its own engine, and after every
// op they must agree on the events, victims included, the writeback
// calls, the stats, the LRU order with every page's version, dirty bit
// and quarantine bit, and the quarantine list. Writeback takes virtual
// time, so the flusher runs and concurrent processes race reclaim.

// diffBackend logs each writeback call, takes delay to complete it, and
// persists the leading indices up to the first page with a scripted
// fault, which it returns.
type diffBackend struct {
	delay sim.Time
	fault map[PageKey]error
	log   []string
}

func (b *diffBackend) WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error) {
	b.log = append(b.log, fmt.Sprint(p.Now(), ino, indices))
	p.Sleep(b.delay)
	for n, idx := range indices {
		if err := b.fault[key(ino, idx)]; err != nil {
			return n, err
		}
	}
	return len(indices), nil
}

// cacheSide is what the op stream needs of a cache.
type cacheSide interface {
	// readRun inserts the pages of [lo, lo+n) in index order, page lo+j
	// at version ver+j: a page cached already is promoted.
	readRun(p *sim.Proc, ino, lo uint64, n int, ver uint64)
	touchRun(ino, lo uint64, n int) int
	write(p *sim.Proc, k PageKey, ver uint64)
	markDirty(k PageKey, ver uint64)
	remove(k PageKey)
	removeFile(ino uint64) int
	syncFile(p *sim.Proc, ino uint64)
	sync(p *sim.Proc)
	dropVolatile() int
	requeue(k PageKey) bool
	lru() []PageKey
	// state renders the cache and the events since the last call.
	state() string
	check() error
}

// segSide is the segment LRU, driven as the filesystems drive it: a read
// inserts runs and falls back to Insert where InsertRun stops, before a
// page cached already or one whose room only writeback can make.
type segSide struct {
	c *Cache
	h *interestKeyHook
}

func (s segSide) readRun(p *sim.Proc, ino, lo uint64, n int, ver uint64) {
	var vers []uint64
	for k := 0; k < n; {
		vers = vers[:0]
		for j := k; j < n; j++ {
			vers = append(vers, ver+uint64(j))
		}
		m := s.c.InsertRun(1, ino, lo+uint64(k), vers)
		if m < len(vers) {
			s.c.Insert(p, key(ino, lo+uint64(k+m)), vers[m])
			m++
		}
		k += m
	}
}

func (s segSide) touchRun(ino, lo uint64, n int) int { return s.c.TouchRun(1, ino, lo, n) }

func (s segSide) write(p *sim.Proc, k PageKey, ver uint64) {
	if !s.c.Lookup(k) {
		s.c.Insert(p, k, ver)
	}
	s.c.MarkDirty(k, ver)
}

func (s segSide) markDirty(k PageKey, ver uint64)  { s.c.MarkDirty(k, ver) }
func (s segSide) remove(k PageKey)                 { s.c.Remove(k) }
func (s segSide) removeFile(ino uint64) int        { return s.c.RemoveFile(1, ino) }
func (s segSide) syncFile(p *sim.Proc, ino uint64) { _ = s.c.SyncFile(p, 1, ino) }
func (s segSide) sync(p *sim.Proc)                 { s.c.Sync(p) }
func (s segSide) dropVolatile() int                { return s.c.DropVolatile() }
func (s segSide) requeue(k PageKey) bool           { return s.c.Requeue(k) }
func (s segSide) lru() []PageKey                   { return s.c.lruPages() }

func (s segSide) state() string {
	var b strings.Builder
	for _, k := range s.c.lruPages() {
		ver, dirty, _ := s.c.Peek(k)
		fmt.Fprintf(&b, "%v@%d/%v/%v ", k, ver, dirty, s.c.quarantined(k))
	}
	fmt.Fprintf(&b, "\nlen %d dirty %d quarantined %v\nstats %+v\nevents %v",
		s.c.Len(), s.c.DirtyLen(), s.c.Quarantined(nil), *s.c.Stats(), s.h.events)
	s.h.events = s.h.events[:0]
	return b.String()
}

// check runs the segment LRU's own invariants; reclaim may hold a page
// across the op boundary, so holds are not checked here.
func (s segSide) check() error {
	holds := s.c.holds
	s.c.holds = nil
	defer func() { s.c.holds = holds }()
	return errors.Join(s.c.checkVictimCursor(), s.c.checkIndex(), s.c.checkSlots())
}

// refSide is the per-page reference, driven page by page.
type refSide struct{ c *refCache }

func (s refSide) readRun(p *sim.Proc, ino, lo uint64, n int, ver uint64) {
	for j := 0; j < n; j++ {
		s.c.Insert(p, key(ino, lo+uint64(j)), ver+uint64(j))
	}
}

func (s refSide) touchRun(ino, lo uint64, n int) int {
	j := 0
	for j < n {
		if _, ok := s.c.Touch(key(ino, lo+uint64(j))); !ok {
			break
		}
		j++
	}
	return j
}

func (s refSide) write(p *sim.Proc, k PageKey, ver uint64) {
	pg, ok := s.c.Lookup(k)
	if !ok {
		pg = s.c.Insert(p, k, ver)
	}
	s.c.MarkDirty(pg, ver)
}

func (s refSide) markDirty(k PageKey, ver uint64)  { s.c.MarkDirty(s.c.page(k), ver) }
func (s refSide) remove(k PageKey)                 { s.c.Remove(k) }
func (s refSide) removeFile(ino uint64) int        { return s.c.RemoveFile(ino) }
func (s refSide) syncFile(p *sim.Proc, ino uint64) { _ = s.c.SyncFile(p, ino) }
func (s refSide) sync(p *sim.Proc)                 { s.c.Sync(p) }
func (s refSide) dropVolatile() int                { return s.c.DropVolatile() }
func (s refSide) requeue(k PageKey) bool           { return s.c.Requeue(k) }
func (s refSide) check() error                     { return nil }

func (s refSide) lru() []PageKey {
	var out []PageKey
	for pg := s.c.tail; pg != nil; pg = pg.prev {
		out = append(out, pg.key)
	}
	return out
}

func (s refSide) state() string {
	var b strings.Builder
	for pg := s.c.tail; pg != nil; pg = pg.prev {
		fmt.Fprintf(&b, "%v@%d/%v/%v ", pg.key, pg.ver, pg.dirty, pg.quar)
	}
	fmt.Fprintf(&b, "\nlen %d dirty %d quarantined %v\nstats %+v\nevents %v",
		s.c.n, s.c.dirtyN, append([]PageKey(nil), s.c.quar...), s.c.stats, s.c.events)
	s.c.events = s.c.events[:0]
	return b.String()
}

// playSegmentOps drives one side with the op stream in data, four bytes
// an op, and returns a snapshot after each op: its state and writeback
// calls, or the error its invariants report.
func playSegmentOps(t testing.TB, seg bool, capacity int, interest uint8, data []byte) []string {
	e := sim.New(1)
	cfg := DefaultConfig(capacity)
	cfg.DirtyExpire = 2 * sim.Second
	cfg.WritebackInterval = sim.Second
	be := &diffBackend{delay: 2 * sim.Millisecond, fault: map[PageKey]error{}}
	var side cacheSide
	if seg {
		c := New(e, cfg)
		c.RegisterFS(1, be)
		h := &interestKeyHook{interest: interest}
		c.AddHook(h)
		side = segSide{c, h}
	} else {
		side = refSide{newRefCache(e, cfg, be, interest)}
	}
	var snaps []string
	e.Go("driver", func(p *sim.Proc) {
		defer e.Stop()
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			op, a, b, c := data[0]%16, uint64(data[1]), uint64(data[2]), uint64(data[3])
			ver := uint64(1000 * (step + 1))
			ino, lo, n := 1+a%6, b%48, 1+int(c%24)
			lru := side.lru()
			var at PageKey // a resident page chosen by LRU position, the tail most often
			if len(lru) > 0 {
				at = lru[int(b*b/256)%len(lru)]
			}
			switch {
			case op < 4:
				side.readRun(p, ino, lo, n, ver)
			case op == 4:
				side.touchRun(ino, lo, n)
			case op <= 6:
				for j := 0; j < n%8+1; j++ {
					side.write(p, key(ino, lo+uint64(j)), ver+uint64(j))
				}
			case op == 7:
				// Dirty the coldest pages, so that the reclaim window runs
				// out of clean ones.
				for j, k := range lru[:min(int(a%160)+1, len(lru))] {
					side.markDirty(k, ver+uint64(j))
				}
			case op == 8:
				p.Sleep(sim.Time(a) * 20 * sim.Millisecond)
			case op == 9 && a%2 == 0:
				side.sync(p)
			case op == 9:
				side.syncFile(p, ino)
			case op == 10 && a < 40:
				side.removeFile(ino)
			case op == 10 && len(lru) > 0:
				side.remove(at)
			case op == 11 && len(lru) > 0:
				err := storage.ErrWriteFault
				if a%4 == 0 {
					err = storage.ErrTransient
				}
				be.fault[at] = err
			case op == 12:
				clear(be.fault)
				for _, k := range lru {
					if side.requeue(k) && a%2 == 0 {
						break
					}
				}
			case op == 13 && a < 12:
				side.dropVolatile()
			case op >= 13:
				// A second process races this one's reclaim: once the next
				// op is blocked in writeback, it evicts the page reclaim is
				// holding, maybe brings it back dirty, and reads a run.
				e.Go("racer", func(p *sim.Proc) {
					p.Sleep(sim.Millisecond)
					if lru := side.lru(); len(lru) > 0 {
						side.remove(lru[0])
						if a%2 == 0 {
							side.write(p, lru[0], ver+500)
						}
					}
					side.readRun(p, ino+1, lo, n, ver+600)
				})
			}
			if err := side.check(); err != nil {
				snaps = append(snaps, fmt.Sprintf("op %d: %v", op, err))
				return
			}
			snaps = append(snaps, fmt.Sprintf("op %d\n%s\nwriteback %v", op, side.state(), be.log))
			be.log = be.log[:0]
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// runSegmentDifferential plays data on both caches and fails at the
// first op after which they differ.
func runSegmentDifferential(t testing.TB, capacity int, interest uint8, data []byte) {
	want := playSegmentOps(t, false, capacity, interest, data)
	got := playSegmentOps(t, true, capacity, interest, data)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "(no snapshot)"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("capacity %d interest %04b: step %d:\nper-page reference:\n%s\nsegment LRU:\n%s", capacity, interest, i, want[i], g)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("segment LRU took %d steps, the reference %d", len(got), len(want))
	}
}

// TestSegmentLRUMatchesPerPage runs seeded random op streams through
// both caches, on caches inside and larger than the 128-page reclaim
// window, with hooks that want every event (runs reach them in one call)
// or only some (events one by one).
func TestSegmentLRUMatchesPerPage(t *testing.T) {
	for _, capacity := range []int{24, 100, 300} {
		for _, interest := range []uint8{AllEvents, 1 << EventAdded} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("cap%d/interest%04b/seed%d", capacity, interest, seed), func(t *testing.T) {
					data := make([]byte, 4*600)
					rand.New(rand.NewSource(seed)).Read(data)
					runSegmentDifferential(t, capacity, interest, data)
				})
			}
		}
	}
}

// FuzzSegmentLRU feeds arbitrary op streams to the same differential.
func FuzzSegmentLRU(f *testing.F) {
	seed := make([]byte, 4*300)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed, uint8(40), true)
	f.Add([]byte{7, 95, 0, 0, 14, 0, 0, 0, 0, 1, 2, 30}, uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, capacity uint8, all bool) {
		interest := uint8(1 << EventAdded)
		if all {
			interest = AllEvents
		}
		runSegmentDifferential(t, int(capacity)+8, interest, data[:min(len(data), 4*400)])
	})
}

// TestRacedDoubleEviction pins the branch of reclaim where the page it
// holds leaves the cache while it is blocked: reclaim finds the window
// all dirty, holds the tail page and writes its file back, and a
// concurrent process evicts the page and reads it back dirty. The
// writeback fails transiently, so the window is still all dirty and
// reclaim falls back to a forced writeback of the page it held — at the
// version it left with — and reports its eviction again, as the
// concurrent process did, leaving the page now cached intact. Both
// caches must tell it the same way.
func TestRacedDoubleEviction(t *testing.T) {
	k1, k2, k3 := key(1, 0), key(1, 1), key(2, 0)
	play := func(seg bool) string {
		e := sim.New(1)
		fb := &faultBackend{errs: []error{storage.ErrTransient, storage.ErrTransient}, persist: []int{0, 0}}
		be := &slowFaultBackend{faultBackend: fb, delay: 10 * sim.Millisecond}
		var side cacheSide
		if seg {
			c := New(e, DefaultConfig(2))
			c.RegisterFS(1, be)
			h := &interestKeyHook{interest: AllEvents}
			c.AddHook(h)
			side = segSide{c, h}
		} else {
			side = refSide{newRefCache(e, DefaultConfig(2), be, AllEvents)}
		}
		e.Go("reclaimer", func(p *sim.Proc) {
			side.write(p, k1, 1)
			side.write(p, k2, 2)
			side.readRun(p, k3.Ino, k3.Index, 1, 3) // blocks writing back file 1
		})
		e.Go("racer", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			side.remove(k1)
			side.write(p, k1, 10)
		})
		e.Go("stopper", func(p *sim.Proc) {
			p.Sleep(sim.Second)
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := side.check(); err != nil {
			t.Fatal(err)
		}
		return side.state()
	}
	want, got := play(false), play(true)
	if got != want {
		t.Fatalf("per-page reference:\n%s\nsegment LRU:\n%s", want, got)
	}
	if n := strings.Count(got, fmt.Sprint(EventRemoved, k1)); n != 2 {
		t.Errorf("k1 reported removed %d times, want 2 (the racer's eviction and reclaim's):\n%s", n, got)
	}
	if !strings.Contains(got, fmt.Sprintf("%v@10/false/false", k1)) {
		t.Errorf("the page read back under k1 (version 10, since written back) is not cached:\n%s", got)
	}
	if !strings.Contains(got, "Evictions:2 DirtyEvictions:2") || !strings.Contains(got, "LostPages:0") {
		t.Errorf("want two evictions, both through writeback, and no lost page:\n%s", got)
	}
}

// slowFaultBackend is faultBackend with a delay per call, so that other
// processes run while a writeback is in flight.
type slowFaultBackend struct {
	*faultBackend
	delay sim.Time
}

func (b *slowFaultBackend) WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error) {
	p.Sleep(b.delay)
	return b.faultBackend.WritebackPages(p, ino, indices)
}
