package pagecache

import (
	"strconv"
	"testing"

	"duet/internal/sim"
)

// benchCache builds a cache without hooks for hot-path benchmarks. The
// engine never runs; benchmark bodies call cache methods from a fake
// process context, which is fine as long as nothing blocks (capacity is
// kept above the working set so Insert never evicts through writeback,
// and flushes use the allocation-free null backend).
func benchCache(capacity int) (*Cache, *sim.Engine) {
	e := sim.New(1)
	c := New(e, DefaultConfig(capacity))
	c.RegisterFS(1, &nullBackend{})
	return c, e
}

// run executes fn inside a sim process and drives the engine to
// completion, so blocking cache paths (writeback) work.
func run(b *testing.B, e *sim.Engine, fn func(p *sim.Proc)) {
	b.Helper()
	e.Go("bench", func(p *sim.Proc) {
		defer e.Stop()
		fn(p)
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInsertLookupDirtyFlush cycles a page through the full hot
// path: insert, lookup (LRU promotion), dirty (rbtree insert), sync
// (writeback + flush event), remove. Steady state must not allocate:
// pages recycle through the arena, dirty-tree nodes through the rbtree
// free list, and writeback staging through the batch pool.
func BenchmarkInsertLookupDirtyFlush(b *testing.B) {
	c, e := benchCache(4096)
	run(b, e, func(p *sim.Proc) {
		// Warm the pools.
		for i := 0; i < 128; i++ {
			cycle(p, c, uint64(i%4))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(p, c, uint64(i%4))
		}
	})
}

func cycle(p *sim.Proc, c *Cache, ino uint64) {
	k := PageKey{FS: 1, Ino: ino, Index: 7}
	pg := c.Insert(p, k, 1)
	pg, _ = c.Lookup(k)
	c.MarkDirty(pg, 2)
	_ = c.SyncFile(p, k.FS, k.Ino)
	c.Remove(k)
}

// BenchmarkInsertSequential measures streaming inserts into a full
// cache: every insert evicts the coldest clean page and recycles its
// struct, the common case for scan-heavy workloads.
func BenchmarkInsertSequential(b *testing.B) {
	c, e := benchCache(1024)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < 2048; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: uint64(i)}, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: uint64(2048 + i)}, 1)
		}
	})
}

// BenchmarkLookupHit measures the promote-on-hit path.
func BenchmarkLookupHit(b *testing.B) {
	c, e := benchCache(1024)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < 512; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: uint64(i)}, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Lookup(PageKey{FS: 1, Ino: 1, Index: uint64(i % 512)})
		}
	})
}

// countingInterestHook reports no interest in any event type; emit must
// skip it entirely.
type countingInterestHook struct {
	interest uint8
	calls    int64
}

func (h *countingInterestHook) PageEvent(ev EventType, pg *Page) { h.calls++ }
func (h *countingInterestHook) EventInterest() uint8             { return h.interest }

// BenchmarkEmitNoInterest measures the event hot path with a hook
// installed whose interest mask is empty — the baseline configuration
// of every experiment (Duet attached, no sessions). The dirty/flush
// cycle must stay allocation-free and never call the hook.
func BenchmarkEmitNoInterest(b *testing.B) {
	c, e := benchCache(4096)
	h := &countingInterestHook{interest: 0}
	c.AddHook(h)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			cycle(p, c, uint64(i%4))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(p, c, uint64(i%4))
		}
	})
	if h.calls != 0 {
		b.Fatalf("hook called %d times despite empty interest", h.calls)
	}
}

// BenchmarkEmitAllInterest is the same cycle with a hook that wants
// every event, isolating the dispatch cost itself.
func BenchmarkEmitAllInterest(b *testing.B) {
	c, e := benchCache(4096)
	h := &countingInterestHook{interest: AllEvents}
	c.AddHook(h)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			cycle(p, c, uint64(i%4))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(p, c, uint64(i%4))
		}
	})
	if h.calls == 0 {
		b.Fatal("hook never called")
	}
}

// TestHotPathAllocFree asserts the steady-state allocation contract the
// arena, rbtree free list, and batch pool exist to provide: zero
// allocations per insert/lookup/dirty/flush/remove cycle, with and
// without an uninterested hook installed. CI runs this as a regression
// gate (see .github/workflows/ci.yml).
func TestHotPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		hook bool
	}{{"bare", false}, {"uninterested-hook", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c, e := benchCache(4096)
			h := &countingInterestHook{interest: 0}
			if tc.hook {
				c.AddHook(h)
			}
			var avg float64
			e.Go("alloc-test", func(p *sim.Proc) {
				defer e.Stop()
				for i := 0; i < 128; i++ {
					cycle(p, c, uint64(i%4))
				}
				avg = testing.AllocsPerRun(200, func() {
					cycle(p, c, 1)
				})
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if avg != 0 {
				t.Errorf("hot path allocates %.1f allocs/op, want 0", avg)
			}
			if h.calls != 0 {
				t.Errorf("uninterested hook called %d times", h.calls)
			}
		})
	}
}

// parkDirtyTail fills an empty cache to capacity with parked dirty pages
// (16 to a file) at the LRU tail and clean pages of file 1 above them,
// and returns the next unused index of file 1. This is the shape a
// log-appending workload leaves behind: dirty pages that aged to the
// tail and sit there until the flusher gets to them, with reclaim
// taking its victims from just above.
func parkDirtyTail(p *sim.Proc, c *Cache, parked int) uint64 {
	for i := 0; i < parked; i++ {
		pg := c.Insert(p, PageKey{FS: 1, Ino: 100 + uint64(i/16), Index: uint64(i)}, 1)
		c.MarkDirty(pg, 2)
	}
	next := uint64(0)
	for ; c.Len() < c.Config().CapacityPages; next++ {
		c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next}, 1)
	}
	return next
}

// BenchmarkEvictDirtyTail measures steady insert churn into a full
// cache with a parked dirty tail. The cost per insert must not depend on
// the tail's length: the clean-victim cursor stays above the parked
// pages instead of walking past them on every eviction. (A tail longer
// than the reclaim window is written back by the first inserts, file by
// file, after which that case is the empty-tail one.)
func BenchmarkEvictDirtyTail(b *testing.B) {
	for _, parked := range []int{0, 64, 127, 1000} {
		b.Run(strconv.Itoa(parked), func(b *testing.B) {
			c, e := benchCache(8192)
			run(b, e, func(p *sim.Proc) {
				next := parkDirtyTail(p, c, parked)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next}, 1)
					next++
				}
			})
		})
	}
}

// TestEvictionAllocFree asserts that steady-state eviction (insert into
// a full cache, clean victim) does not allocate: the evicted page's
// struct must be recycled into the one being inserted. It holds with
// dirty pages parked below the victim too.
func TestEvictionAllocFree(t *testing.T) {
	for _, parked := range []int{0, 100} {
		c, e := benchCache(1024)
		var avg float64
		e.Go("alloc-test", func(p *sim.Proc) {
			defer e.Stop()
			next := parkDirtyTail(p, c, parked)
			for warm := next + 1024; next < warm; next++ {
				c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next}, 1)
			}
			avg = testing.AllocsPerRun(200, func() {
				c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next}, 1)
				next++
			})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if avg != 0 {
			t.Errorf("eviction path with %d parked dirty pages allocates %.1f allocs/op, want 0", parked, avg)
		}
		if c.DirtyLen() != parked {
			t.Errorf("%d of the %d parked pages are still dirty", c.DirtyLen(), parked)
		}
	}
}
