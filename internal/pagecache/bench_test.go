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
// segments recycle through their free list and file indexes through
// the pool, dirty-tree nodes through the rbtree free list, and
// writeback staging through the batch pool.
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
	c.Insert(p, k, 1)
	c.Lookup(k)
	c.MarkDirty(k, 2)
	_ = c.SyncFile(p, k.FS, k.Ino)
	c.Remove(k)
}

// BenchmarkInsertSequential measures streaming inserts into a full
// cache: every insert evicts the coldest clean page and recycles its
// struct, the common case for scan-heavy workloads. The stream wraps at
// the size of the largest file any workload builds (the webserver log,
// workload.logRotatePages): a file's index is as long as the file, so an
// endless file would measure slice growth, which no workload pays.
func BenchmarkInsertSequential(b *testing.B) {
	const filePages = 4096
	c, e := benchCache(1024)
	run(b, e, func(p *sim.Proc) {
		for i := 0; i < filePages; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: uint64(i)}, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Insert(p, PageKey{FS: 1, Ino: 1, Index: uint64(i % filePages)}, 1)
		}
	})
}

// BenchmarkReadMissChurn is the read path of a scan over a file set far
// larger than the cache, page by page and file by file (the hdd-maint
// shape): look the page up, miss, check again as the filesystem does
// once its device read returns, insert, evict. Unlike the benchmarks
// above, cache and file set are as large as a workload's, so that the
// indexes do not sit in the CPU cache.
func BenchmarkReadMissChurn(b *testing.B) {
	const (
		capacity  = 32768
		files     = 6144
		filePages = 128
	)
	c, e := benchCache(capacity)
	run(b, e, func(p *sim.Proc) {
		n := uint64(0)
		read := func() {
			k := PageKey{FS: 1, Ino: 1 + n/filePages%files, Index: n % filePages}
			n++
			if !c.Touch(k) && !c.Contains(k) {
				c.Insert(p, k, 1)
			}
		}
		for i := 0; i < 2*capacity; i++ {
			read()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read()
		}
	})
}

// BenchmarkFlushExpired measures one flusher round over a cache a fifth
// dirty, the background-ratio threshold, with the dirty pages in one
// large file, in 64, or spread thinly over 1024. One op dirties the
// pages again and flushes them all.
func BenchmarkFlushExpired(b *testing.B) {
	const capacity = 8192
	for _, files := range []int{1, 64, 1024} {
		b.Run("files="+strconv.Itoa(files), func(b *testing.B) {
			c, e := benchCache(capacity)
			run(b, e, func(p *sim.Proc) {
				var dirty []PageKey
				for i := 0; i < capacity; i++ {
					k := PageKey{FS: 1, Ino: uint64(1 + i%files), Index: uint64(i / files)}
					c.Insert(p, k, 1)
					if i%5 == 0 {
						dirty = append(dirty, k)
					}
				}
				ver := uint64(1)
				round := func() {
					ver++
					for _, k := range dirty {
						c.MarkDirty(k, ver)
					}
					c.Sync(p)
				}
				round()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
			})
		})
	}
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

func (h *countingInterestHook) PageEvent(EventType, PageKey, bool) { h.calls++ }
func (h *countingInterestHook) PageRun(*Run)                       { h.calls++ }
func (h *countingInterestHook) EventInterest() uint8               { return h.interest }

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
// segment free list, index pool, rbtree free list, and batch pool exist
// to provide: zero
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
		k := PageKey{FS: 1, Ino: 100 + uint64(i/16), Index: uint64(i)}
		c.Insert(p, k, 1)
		c.MarkDirty(k, 2)
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
// file, after which that case is the empty-tail one.) The churn wraps at
// twice the cache size, like BenchmarkInsertSequential and for its
// reason: by then the low indexes are long evicted.
func BenchmarkEvictDirtyTail(b *testing.B) {
	const capacity = 8192
	for _, parked := range []int{0, 64, 127, 1000} {
		b.Run(strconv.Itoa(parked), func(b *testing.B) {
			c, e := benchCache(capacity)
			run(b, e, func(p *sim.Proc) {
				next := parkDirtyTail(p, c, parked)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Insert(p, PageKey{FS: 1, Ino: 1, Index: next % (2 * capacity)}, 1)
					next++
				}
			})
		})
	}
}

// TestEvictionAllocFree asserts that steady-state eviction (insert into
// a full cache, clean victim) does not allocate: the victim's segment,
// when it empties, is recycled for the page being inserted, and the
// file index slots are reused. It holds with dirty pages parked below
// the victim too.
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
