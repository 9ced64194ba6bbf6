package pagecache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"duet/internal/sim"
)

// interestKeyHook is keyHook with a chosen interest mask.
type interestKeyHook struct {
	keyHook
	interest uint8
}

func (h *interestKeyHook) EventInterest() uint8 { return h.interest }

// runOp is one step of TestInsertRunMatchesInserts' op stream.
type runOp struct {
	kind    int // 0 read a range, 1 dirty the coldest pages, 2 sync a file, 3 hit
	ino     uint64
	lo, n   uint64
	ver     uint64
	howMany int
}

// readRange is the per-page read of pages [lo, lo+n): every page not
// cached goes in by Insert, as ReadCount did page by page.
func readRange(p *sim.Proc, c *Cache, op runOp) {
	for j := uint64(0); j < op.n; j++ {
		k := PageKey{1, op.ino, op.lo + j}
		if !c.Contains(k) {
			c.Insert(p, k, op.ver+j)
		}
	}
}

// readRangeRuns is the same read a run at a time, as ReadCount does it:
// the longest run of uncached pages goes in by InsertRun, the page where
// it stops by Insert, and the pages after that are looked at afresh. It
// counts the runs InsertRun cut short.
func readRangeRuns(p *sim.Proc, c *Cache, op runOp, cut *int) {
	vers := make([]uint64, 0, op.n)
	for k := uint64(0); k < op.n; {
		if c.Contains(PageKey{1, op.ino, op.lo + k}) {
			k++
			continue
		}
		vers = vers[:0]
		for j := k; j < op.n && !c.Contains(PageKey{1, op.ino, op.lo + j}); j++ {
			vers = append(vers, op.ver+j)
		}
		n := c.InsertRun(1, op.ino, op.lo+k, vers)
		if n < len(vers) {
			*cut++
			c.Insert(p, PageKey{1, op.ino, op.lo + k + uint64(n)}, vers[n])
			n++
		}
		k += uint64(n)
	}
}

// snapshot renders what the two read paths must agree on: the LRU from
// the tail with each page's version and dirty bit, the stats and the
// events the hook saw since the last snapshot. The victim cursor may be
// unset on one side where it is primed on the other, so it is checked
// for what it claims, not compared.
func snapshot(t *testing.T, c *Cache, h *keyHook) string {
	if err := c.checkVictimCursor(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, k := range c.lruPages() {
		ver, dirty, _ := c.Peek(k)
		fmt.Fprintf(&b, "%v@%d/%v ", k, ver, dirty)
	}
	fmt.Fprintf(&b, "\nstats %+v\nevents %v", *c.Stats(), h.events)
	h.events = h.events[:0]
	return b.String()
}

// TestInsertRunMatchesInserts drives one op stream through the
// per-page read and through InsertRun, on two caches, and requires the
// same LRU order, stats and event stream after every op.
// Ranges are read over files that are partly cached, and the coldest
// pages are dirtied in bulk now and then, so runs start with free room,
// evict, run into cached pages and are cut short where the reclaim
// window is all dirty. The hook records a run's events through Run.Each,
// so a run reported as all its Removed events before its Added ones
// fails here. It runs with interest in every event (one PageRun per
// run), in Added only and in none (events emitted or filtered one by
// one, as Insert does).
func TestInsertRunMatchesInserts(t *testing.T) {
	const capacity = 48
	for _, interest := range []uint8{AllEvents, 1 << EventAdded, 0} {
		cut, victims := 0, 0
		for seed := int64(1); seed <= 16; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var ops []runOp
			for i := 0; i < 300; i++ {
				op := runOp{ino: uint64(1 + rng.Intn(4)), ver: uint64(1000 * (i + 1))}
				switch r := rng.Intn(20); {
				case r < 14:
					op.lo, op.n = uint64(rng.Intn(64)), uint64(1+rng.Intn(40))
				case r < 17:
					op.kind, op.howMany = 1, 1+rng.Intn(capacity)
				case r < 19:
					op.kind = 2
				default:
					op.kind, op.lo = 3, uint64(rng.Intn(64))
				}
				ops = append(ops, op)
			}
			play := func(runs bool) []string {
				e := sim.New(1)
				cfg := DefaultConfig(capacity)
				cfg.DirtyBackgroundRatio = 2 // no threshold flushes: the ops own writeback
				c := New(e, cfg)
				c.RegisterFS(1, &nullBackend{})
				h := &interestKeyHook{interest: interest}
				c.AddHook(h)
				var snaps []string
				e.Go("reader", func(p *sim.Proc) {
					defer e.Stop()
					for _, op := range ops {
						switch op.kind {
						case 0:
							before := c.Stats().Evictions
							if runs {
								readRangeRuns(p, c, op, &cut)
								victims += int(c.Stats().Evictions - before)
							} else {
								readRange(p, c, op)
							}
						case 1:
							lru := c.lruPages()
							for _, k := range lru[:min(op.howMany, len(lru))] {
								ver, _, _ := c.Peek(k)
								c.MarkDirty(k, ver+1)
							}
						case 2:
							_ = c.SyncFile(p, 1, op.ino)
						case 3:
							c.Lookup(PageKey{1, op.ino, op.lo})
						}
						snaps = append(snaps, snapshot(t, c, &h.keyHook))
					}
				})
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				return snaps
			}
			want, got := play(false), play(true)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("interest %04b seed %d op %d (%+v):\nper page:\n%s\nruns:\n%s", interest, seed, i, ops[i], want[i], got[i])
				}
			}
		}
		if cut == 0 || victims == 0 {
			t.Errorf("interest %04b: %d runs cut short by a dirty reclaim window, %d victims: the stream misses a case", interest, cut, victims)
		}
	}
}
