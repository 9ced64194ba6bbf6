package core

import (
	"testing"

	"duet/internal/cowfs"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Micro-benchmarks for the hook and fetch hot paths — the real-CPU costs
// behind the Figure 9 overhead numbers.

type benchEnv struct {
	e    *sim.Engine
	fs   *cowfs.FS
	c    *pagecache.Cache
	d    *Duet
	sess *Session
	keys []pagecache.PageKey
}

func newBenchEnv(b *testing.B, mask Mask) *benchEnv {
	b.Helper()
	e := sim.New(1)
	disk := storage.NewDisk(e, "sda", storage.DefaultSSD(1<<16), newFIFO())
	c := pagecache.New(e, pagecache.DefaultConfig(1<<14))
	fs := cowfs.New(e, 1, disk, c)
	d := New(c)
	ad := AttachCow(d, fs)
	f, err := fs.PopulateFile("/f", 1<<12, 1, e.DeriveRand("pop"))
	if err != nil {
		b.Fatal(err)
	}
	env := &benchEnv{e: e, fs: fs, c: c, d: d}
	e.Go("setup", func(p *sim.Proc) {
		defer e.Stop()
		if err := fs.ReadFile(p, f.Ino, storage.ClassNormal, "b"); err != nil {
			b.Error(err)
			return
		}
		c.IterateFile(1, uint64(f.Ino), func(key pagecache.PageKey, _ bool) bool {
			env.keys = append(env.keys, key)
			return true
		})
		sess, err := d.RegisterBlock(ad, mask)
		if err != nil {
			b.Error(err)
			return
		}
		env.sess = sess
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	return env
}

func BenchmarkHookEventDelivery(b *testing.B) {
	env := newBenchEnv(b, EvtDirtied|EvtFlushed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.d.PageEvent(pagecache.EventDirtied, env.keys[i%len(env.keys)], true)
	}
}

func BenchmarkHookStateDelivery(b *testing.B) {
	env := newBenchEnv(b, StExists|StModified)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.d.PageEvent(pagecache.EventDirtied, env.keys[i%len(env.keys)], true)
	}
}

func BenchmarkFetchDrain(b *testing.B) {
	env := newBenchEnv(b, EventBits)
	buf := make([]Item, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.d.PageEvent(pagecache.EventDirtied, env.keys[i%len(env.keys)], true)
		if i%256 == 255 {
			for env.sess.FetchInto(buf) == len(buf) {
			}
		}
	}
}

func BenchmarkSetDoneCheckDone(b *testing.B) {
	env := newBenchEnv(b, EventBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i % (1 << 20))
		env.sess.SetDone(id)
		if !env.sess.CheckDone(id) {
			b.Fatal("done bit lost")
		}
		env.sess.UnsetDone(id)
	}
}

// countingFS is a stub filesystem whose only job is to count FIBMAP
// translations.
type countingFS struct{ fibmaps int }

func (f *countingFS) FSID() pagecache.FSID                 { return 1 }
func (f *countingFS) Fibmap(ino, idx uint64) (int64, bool) { f.fibmaps++; return int64(idx), true }
func (f *countingFS) FibmapRun(ino, idx, n uint64) (int64, uint64) {
	f.fibmaps++
	return int64(idx), n
}
func (f *countingFS) Within(ino, root uint64) (string, bool) { return "", false }
func (f *countingFS) IsDir(ino uint64) bool                  { return false }
func (f *countingFS) DeviceBlocks() int64                    { return 1 << 20 }

// BenchmarkHookTwoBlockSessions delivers events to two block-task
// sessions on one filesystem and checks the resolve-once rule: the page
// is translated to its block once per event, not once per session.
func BenchmarkHookTwoBlockSessions(b *testing.B) {
	e := sim.New(1)
	d := New(pagecache.New(e, pagecache.DefaultConfig(1<<12)))
	fs := &countingFS{}
	d.AttachFS(fs)
	for i := 0; i < 2; i++ {
		if _, err := d.RegisterBlock(fs, EvtDirtied|EvtFlushed); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]pagecache.PageKey, 1<<12)
	for i := range keys {
		keys[i] = pagecache.PageKey{FS: 1, Ino: 2, Index: uint64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PageEvent(pagecache.EventDirtied, keys[i%len(keys)], true)
	}
	b.StopTimer()
	if fs.fibmaps != b.N {
		b.Fatalf("%d FIBMAP translations for %d events, want one per event", fs.fibmaps, b.N)
	}
}

// newMultiEnv registers n block-task sessions (0 is the baseline: hook
// attached, nobody listening — the configuration every non-Duet
// experiment run pays for).
func newMultiEnv(b *testing.B, n int, mask Mask) (*benchEnv, []*Session) {
	b.Helper()
	env := newBenchEnv(b, mask)
	sessions := []*Session{env.sess}
	if n == 0 {
		env.sess.Close()
		sessions = nil
	}
	for len(sessions) < n {
		sess, err := env.d.RegisterBlock(AttachCow(env.d, env.fs), mask)
		if err != nil {
			b.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	return env, sessions
}

// benchCacheEmit cycles one page through insert+remove via the cache, so
// events travel the full emit path including the interest-mask check.
func benchCacheEmit(b *testing.B, nSessions int) {
	env, sessions := newMultiEnv(b, nSessions, EventBits)
	key := pagecache.PageKey{FS: 1, Ino: 1 << 30, Index: 0}
	buf := make([]Item, 256)
	env.e.Go("bench", func(p *sim.Proc) {
		defer env.e.Stop()
		for i := 0; i < 256; i++ {
			env.c.Insert(p, key, 1)
			env.c.Remove(key)
		}
		drain := func() {
			for _, s := range sessions {
				for s.FetchInto(buf) == len(buf) {
				}
			}
		}
		drain()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.c.Insert(p, key, 1)
			env.c.Remove(key)
			if i%128 == 127 {
				drain()
			}
		}
		b.StopTimer()
	})
	if err := env.e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCacheEmit0Sessions(b *testing.B) { benchCacheEmit(b, 0) }
func BenchmarkCacheEmit1Session(b *testing.B)  { benchCacheEmit(b, 1) }
func BenchmarkCacheEmit4Sessions(b *testing.B) { benchCacheEmit(b, 4) }

// TestEmitZeroSessionsAllocFree pins the baseline contract: with Duet
// attached but no session registered, a page's insert/remove round trip
// through the cache performs zero allocations and never reaches the
// hook's fan-out (the interest mask filters the dispatch).
func TestEmitZeroSessionsAllocFree(t *testing.T) {
	e := sim.New(1)
	disk := storage.NewDisk(e, "sda", storage.DefaultSSD(1<<16), newFIFO())
	c := pagecache.New(e, pagecache.DefaultConfig(1<<12))
	fs := cowfs.New(e, 1, disk, c)
	d := New(c)
	_ = AttachCow(d, fs)
	key := pagecache.PageKey{FS: 1, Ino: 42, Index: 0}
	var avg float64
	e.Go("alloc-test", func(p *sim.Proc) {
		defer e.Stop()
		for i := 0; i < 64; i++ {
			c.Insert(p, key, 1)
			c.Remove(key)
		}
		avg = testing.AllocsPerRun(200, func() {
			c.Insert(p, key, 1)
			c.Remove(key)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("zero-session emit allocates %.1f allocs/op, want 0", avg)
	}
	if got := d.Stats().HookCalls; got != 0 {
		t.Errorf("HookCalls = %d with no sessions, want 0", got)
	}
	if f := c.Stats().EventsFiltered; f == 0 {
		t.Error("no events were filtered by the interest mask")
	}
}

// TestDescriptorRecycling pins the descriptor free list: a steady
// deliver-then-fetch cycle must reuse freed itemDescs instead of
// allocating new ones.
func TestDescriptorRecycling(t *testing.T) {
	e := sim.New(1)
	disk := storage.NewDisk(e, "sda", storage.DefaultSSD(1<<16), newFIFO())
	c := pagecache.New(e, pagecache.DefaultConfig(1<<12))
	fs := cowfs.New(e, 1, disk, c)
	d := New(c)
	ad := AttachCow(d, fs)
	sess, err := d.RegisterBlock(ad, EventBits)
	if err != nil {
		t.Fatal(err)
	}
	key := pagecache.PageKey{FS: 1, Ino: 42, Index: 0}
	buf := make([]Item, 16)
	var avg float64
	e.Go("alloc-test", func(p *sim.Proc) {
		defer e.Stop()
		for i := 0; i < 64; i++ {
			c.Insert(p, key, 1)
			c.Remove(key)
			sess.FetchInto(buf)
		}
		avg = testing.AllocsPerRun(200, func() {
			c.Insert(p, key, 1)
			c.Remove(key)
			sess.FetchInto(buf)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("deliver+fetch cycle allocates %.1f allocs/op, want 0", avg)
	}
	st := d.Stats()
	if st.DescFrees == 0 || st.CurDescs != 0 {
		t.Errorf("descriptor accounting: frees=%d cur=%d", st.DescFrees, st.CurDescs)
	}
}

// BenchmarkHookLargeTable is the hook path at the size hdd-maint runs it:
// three block sessions over 700k live descriptors, a window of cached
// pages sliding through 128-page files, whole files at a time in no
// particular inode order. One op evicts a page and inserts another (two
// hook calls, each fanned out to the three sessions), and the sessions
// fetch every 256 ops, which frees the evicted pages' descriptors. The
// other benchmarks here run on tables that fit in the CPU cache; this one
// does not.
func BenchmarkHookLargeTable(b *testing.B) {
	const (
		live      = 700_000
		filePages = 128
		files     = 5504 // a little more than live/filePages: the window moves
		stride    = 2731 // coprime to files: scatters consecutive files over the inode space
	)
	e := sim.New(1)
	d := New(pagecache.New(e, pagecache.DefaultConfig(1<<15)))
	fs := &countingFS{}
	d.AttachFS(fs)
	var sessions [3]*Session
	for i := range sessions {
		s, err := d.RegisterBlock(fs, StExists)
		if err != nil {
			b.Fatal(err)
		}
		sessions[i] = s
	}
	buf := make([]Item, 256)
	fetch := func() {
		for _, s := range sessions {
			for s.FetchInto(buf) == len(buf) {
			}
		}
	}
	event := func(ev pagecache.EventType, n int) {
		file := n / filePages % files
		key := pagecache.PageKey{FS: 1, Ino: uint64(1 + file*stride%files), Index: uint64(n % filePages)}
		d.PageEvent(ev, key, ev == pagecache.EventDirtied)
	}
	for n := 0; n < live; n++ {
		event(pagecache.EventAdded, n)
		if n%4096 == 4095 {
			fetch() // keeps the queues, which only the set-up fills, short
		}
	}
	fetch()
	if got := d.Stats().CurDescs; got != live {
		b.Fatalf("CurDescs = %d after set-up, want %d", got, live)
	}
	step := func(i int) {
		event(pagecache.EventRemoved, i)
		event(pagecache.EventAdded, i+live)
		if i%256 == 255 {
			fetch()
		}
	}
	for i := 0; i < 4*filePages; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(4*filePages + i)
	}
}
