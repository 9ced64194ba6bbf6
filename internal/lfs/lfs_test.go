package lfs

import (
	"errors"
	"fmt"
	"testing"

	"duet/internal/iosched"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Small geometry so tests exercise segment transitions quickly.
const (
	testSegBlocks = 16
	testSegs      = 32
	testBlocks    = testSegBlocks * testSegs
)

type env struct {
	e     *sim.Engine
	disk  *storage.Disk
	cache *pagecache.Cache
	fs    *FS
}

func newEnv(cachePages int) *env {
	e := sim.New(1)
	disk := storage.NewDisk(e, "nvme0", storage.DefaultSSD(testBlocks), iosched.NewCFQ())
	// A quiet flusher (no dirty-background kicks) keeps log placement
	// exactly as the tests' explicit Sync calls dictate.
	cc := pagecache.DefaultConfig(cachePages)
	cc.DirtyBackgroundRatio = 1.0
	cache := pagecache.New(e, cc)
	fs := New(e, 2, disk, cache, Config{SegBlocks: testSegBlocks, ReservedSegs: 2})
	return &env{e: e, disk: disk, cache: cache, fs: fs}
}

func (v *env) in(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	v.e.Go("test", func(p *sim.Proc) {
		// Stop via defer so a t.Fatal inside fn still ends the run.
		defer v.e.Stop()
		fn(p)
	})
	if err := v.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateLookupDelete(t *testing.T) {
	v := newEnv(256)
	f, err := v.fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.fs.Create("a"); !errors.Is(err, ErrExists) {
		t.Errorf("dup create: %v", err)
	}
	got, err := v.fs.Lookup("a")
	if err != nil || got.Ino != f.Ino {
		t.Errorf("lookup: %v %v", got, err)
	}
	if err := v.fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.fs.Lookup("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup after delete: %v", err)
	}
}

func TestWriteFlushPlacesInLog(t *testing.T) {
	v := newEnv(256)
	f, _ := v.fs.Create("a")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, 8); err != nil {
			t.Fatal(err)
		}
		// Before flush: no on-device placement.
		if _, ok := v.fs.Fibmap(f.Ino, 0); ok {
			t.Error("page mapped before flush")
		}
		v.fs.Sync(p)
	})
	// After flush: pages 0..7 occupy the first log segment sequentially.
	for idx := int64(0); idx < 8; idx++ {
		b, ok := v.fs.Fibmap(f.Ino, idx)
		if !ok || b != idx {
			t.Errorf("page %d at block %d (ok=%v), want %d", idx, b, ok, idx)
		}
	}
	seg := v.fs.Segment(0)
	if seg.Valid != 8 || seg.State != SegOpen {
		t.Errorf("segment 0: valid=%d state=%d", seg.Valid, seg.State)
	}
	if ino, idx, ok := v.fs.SlotOwner(3); !ok || ino != f.Ino || idx != 3 {
		t.Errorf("SlotOwner(3) = %d,%d,%v", ino, idx, ok)
	}
}

func TestOverwriteInvalidatesOldCopy(t *testing.T) {
	v := newEnv(256)
	f, _ := v.fs.Create("a")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, testSegBlocks); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p) // fills segment 0 exactly
		if err := v.fs.Write(p, f.Ino, 0, 4); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p) // new copies appended to segment 1
	})
	if got := v.fs.Stats().Invalidations; got != 4 {
		t.Errorf("Invalidations = %d, want 4", got)
	}
	if v.fs.Segment(0).Valid != testSegBlocks-4 {
		t.Errorf("segment 0 valid = %d", v.fs.Segment(0).Valid)
	}
	b, _ := v.fs.Fibmap(f.Ino, 0)
	if v.fs.SegOf(b) != 1 {
		t.Errorf("rewritten page landed in segment %d, want 1", v.fs.SegOf(b))
	}
}

func TestSegmentFreesWhenEmptied(t *testing.T) {
	v := newEnv(256)
	f, _ := v.fs.Create("a")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, testSegBlocks); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		freeBefore := v.fs.FreeSegments()
		// Rewrite everything: all of segment 0 becomes invalid.
		if err := v.fs.Write(p, f.Ino, 0, testSegBlocks); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		if v.fs.Segment(0).State != SegFree {
			t.Errorf("segment 0 state = %d, want free", v.fs.Segment(0).State)
		}
		if v.fs.FreeSegments() != freeBefore {
			t.Errorf("free segments = %d, want %d", v.fs.FreeSegments(), freeBefore)
		}
	})
	if v.fs.Stats().SegsFreed == 0 {
		t.Error("no segment was freed")
	}
}

func TestReadBackContent(t *testing.T) {
	v := newEnv(256)
	f, _ := v.fs.Create("a")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, 10); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		v.cache.RemoveFile(v.fs.ID(), uint64(f.Ino))
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatal(err)
		}
		for idx := int64(0); idx < 10; idx++ {
			ver, _, ok := v.cache.Peek(v.fs.pageKey(f.Ino, idx))
			if !ok || ver != f.vers[idx] {
				t.Errorf("page %d: cached=%v version mismatch", idx, ok)
			}
		}
	})
}

func TestHoleRead(t *testing.T) {
	v := newEnv(256)
	f, _ := v.fs.Create("a")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 5, 1); err != nil {
			t.Fatal(err)
		}
		before := v.disk.Stats().Owner("t").BlocksRead
		if err := v.fs.Read(p, f.Ino, 0, 5, storage.ClassNormal, "t"); err != nil {
			t.Fatal(err)
		}
		if v.disk.Stats().Owner("t").BlocksRead != before {
			t.Error("hole read performed I/O")
		}
	})
}

func TestDeleteInvalidates(t *testing.T) {
	v := newEnv(256)
	f, _ := v.fs.Create("a")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, 8); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		if err := v.fs.Delete("a"); err != nil {
			t.Fatal(err)
		}
	})
	if v.fs.Segment(0).Valid != 0 {
		t.Errorf("segment 0 valid = %d after delete", v.fs.Segment(0).Valid)
	}
}

// fillFS writes files to bring segment occupancy up, then invalidates a
// portion by rewriting, creating cleanable segments.
func fillFS(t *testing.T, v *env, p *sim.Proc, files, pagesEach int) []*Inode {
	t.Helper()
	var inodes []*Inode
	for i := 0; i < files; i++ {
		f, err := v.fs.Create(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.fs.Write(p, f.Ino, 0, int64(pagesEach)); err != nil {
			t.Fatal(err)
		}
		inodes = append(inodes, f)
	}
	v.fs.Sync(p)
	return inodes
}

func TestGCCleansSparsestSegment(t *testing.T) {
	v := newEnv(256)
	var gc *GC
	v.in(t, func(p *sim.Proc) {
		files := fillFS(t, v, p, 4, testSegBlocks) // fills segments 0..3
		// Invalidate most of file 1's segment (segment 1).
		if err := v.fs.Write(p, files[1].Ino, 0, testSegBlocks-2); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		gc = v.fs.StartGC(GCConfig{
			Interval:       50 * sim.Millisecond,
			IdleAfter:      5 * sim.Millisecond,
			UrgentFreeSegs: 0,
			WindowSegs:     4096,
		})
		p.Sleep(40 * sim.Second) // idle: GC gets plenty of turns; flusher runs
	})
	if len(gc.Records) == 0 {
		t.Fatal("GC never cleaned")
	}
	first := gc.Records[0]
	if first.SegIdx != 1 {
		t.Errorf("first victim = segment %d, want 1 (sparsest)", first.SegIdx)
	}
	if first.BlocksMoved != 2 {
		t.Errorf("moved %d blocks, want 2", first.BlocksMoved)
	}
}

func TestGCUsesCachedBlocks(t *testing.T) {
	v := newEnv(256)
	v.in(t, func(p *sim.Proc) {
		files := fillFS(t, v, p, 2, testSegBlocks)
		// Invalidate half of segment 0, then cache the remaining valid
		// blocks by reading them.
		if err := v.fs.Write(p, files[0].Ino, 0, testSegBlocks/2); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		if err := v.fs.Read(p, files[0].Ino, testSegBlocks/2, testSegBlocks/2, storage.ClassNormal, "w"); err != nil {
			t.Fatal(err)
		}
		if got := v.fs.CachedValidBlocks(0); got != testSegBlocks/2 {
			t.Fatalf("CachedValidBlocks = %d", got)
		}
		gc := v.fs.StartGC(GCConfig{Interval: 50 * sim.Millisecond, IdleAfter: 5 * sim.Millisecond})
		p.Sleep(10 * sim.Second)
		if len(gc.Records) == 0 {
			t.Fatal("GC never ran")
		}
		r := gc.Records[0]
		if r.SegIdx != 0 {
			t.Fatalf("victim = %d", r.SegIdx)
		}
		if r.BlocksCached != testSegBlocks/2 || r.BlocksRead != 0 {
			t.Errorf("cached=%d read=%d; all valid blocks were cached", r.BlocksCached, r.BlocksRead)
		}
	})
}

func TestGCIdleGating(t *testing.T) {
	v := newEnv(256)
	v.in(t, func(p *sim.Proc) {
		files := fillFS(t, v, p, 2, testSegBlocks)
		if err := v.fs.Write(p, files[0].Ino, 0, 4); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		gc := v.fs.StartGC(GCConfig{Interval: 20 * sim.Millisecond, IdleAfter: 50 * sim.Millisecond, UrgentFreeSegs: 0})
		// Keep the device busy with normal I/O; GC must not run.
		for i := 0; i < 200; i++ {
			if err := v.fs.ReadFile(p, files[1].Ino, storage.ClassNormal, "w"); err != nil {
				t.Fatal(err)
			}
			v.cache.RemoveFile(v.fs.ID(), uint64(files[1].Ino)) // force misses
			p.Sleep(5 * sim.Millisecond)
		}
		if len(gc.Records) != 0 {
			t.Errorf("GC ran %d times under load", len(gc.Records))
		}
		// Go idle: GC should clean.
		p.Sleep(5 * sim.Second)
		if len(gc.Records) == 0 {
			t.Error("GC never ran when idle")
		}
	})
}

func TestGCCustomCost(t *testing.T) {
	v := newEnv(256)
	v.in(t, func(p *sim.Proc) {
		files := fillFS(t, v, p, 3, testSegBlocks)
		// Make segments 0 and 1 equally sparse.
		if err := v.fs.Write(p, files[0].Ino, 0, 8); err != nil {
			t.Fatal(err)
		}
		if err := v.fs.Write(p, files[1].Ino, 0, 8); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		// Custom cost prefers segment 1 strongly.
		cost := func(fs *FS, si int) float64 {
			if si == 1 {
				return 0
			}
			return float64(fs.Segment(si).Valid)
		}
		gc := v.fs.StartGC(GCConfig{Interval: 50 * sim.Millisecond, IdleAfter: 5 * sim.Millisecond, Cost: cost})
		p.Sleep(5 * sim.Second)
		if len(gc.Records) == 0 || gc.Records[0].SegIdx != 1 {
			t.Errorf("records = %+v, want segment 1 first", gc.Records)
		}
	})
}

func TestUrgentCleaningUnderPressure(t *testing.T) {
	v := newEnv(1024)
	v.in(t, func(p *sim.Proc) {
		// Nearly fill the device, then keep rewriting with immediate
		// flushes: without cleaning the log would run out of free
		// segments. The GC is idle-gated out (IdleAfter: 1h), so only the
		// urgent free-segment watermark can save it.
		f, _ := v.fs.Create("big")
		total := int64(testBlocks * 13 / 16)
		if err := v.fs.Write(p, f.Ino, 0, total); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		gc := v.fs.StartGC(GCConfig{Interval: 10 * sim.Millisecond, IdleAfter: sim.Hour, UrgentFreeSegs: 4})
		rng := p.Rand()
		for i := 0; i < 400; i++ {
			off := rng.Int63n(total - 8)
			if err := v.fs.Write(p, f.Ino, off, 8); err != nil {
				t.Fatal(err)
			}
			v.fs.Sync(p)
			p.Sleep(20 * sim.Millisecond)
		}
		if len(gc.Records) == 0 {
			t.Error("urgent GC never triggered")
		}
		urgent := 0
		for _, r := range gc.Records {
			if r.Urgent {
				urgent++
			}
		}
		if urgent == 0 {
			t.Error("no urgent cleanings despite idle-gated config")
		}
	})
}

func TestMeanCleanTime(t *testing.T) {
	g := &GC{}
	if g.MeanCleanTime() != 0 {
		t.Error("empty mean should be 0")
	}
	g.Records = []CleanRecord{{Duration: 2 * sim.Millisecond}, {Duration: 4 * sim.Millisecond}}
	if g.MeanCleanTime() != 3*sim.Millisecond {
		t.Errorf("mean = %v", g.MeanCleanTime())
	}
}

func TestValidBlockAccounting(t *testing.T) {
	v := newEnv(1024)
	v.in(t, func(p *sim.Proc) {
		f, _ := v.fs.Create("f")
		rng := p.Rand()
		for i := 0; i < 100; i++ {
			off := rng.Int63n(64)
			if err := v.fs.Write(p, f.Ino, off, 1+rng.Int63n(4)); err != nil {
				t.Fatal(err)
			}
			if i%10 == 0 {
				v.fs.Sync(p)
			}
		}
		v.fs.Sync(p)
		// Invariant: sum of segment Valid counts equals the number of
		// mapped file pages.
		valid := 0
		for i := 0; i < v.fs.Segments(); i++ {
			valid += v.fs.Segment(i).Valid
		}
		mapped := 0
		for idx := int64(0); idx < f.SizePg; idx++ {
			if _, ok := v.fs.Fibmap(f.Ino, idx); ok {
				mapped++
			}
		}
		if valid != mapped {
			t.Errorf("segment valid sum %d != mapped pages %d", valid, mapped)
		}
	})
}

// With no cleaner and no free segment left, writeback falls back to
// scattered in-place writes into invalid slots; the result must stay
// consistent and read back the latest version of every page.
func TestInPlaceFallbackWhenLogFull(t *testing.T) {
	v := newEnv(1024)
	f, _ := v.fs.Create("f")
	const pages = (testSegs - 2) * testSegBlocks
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, pages); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		// Two segments' worth of scattered overwrites fill the last two
		// free segments; the stride leaves every old segment partly valid.
		for idx := int64(0); idx < 2*testSegBlocks; idx++ {
			if err := v.fs.Write(p, f.Ino, idx*(testSegBlocks-1), 1); err != nil {
				t.Fatal(err)
			}
		}
		v.fs.Sync(p)
		if n := v.fs.FreeSegments(); n != 0 {
			t.Fatalf("%d free segments after filling the log, want 0", n)
		}
		for round := int64(0); round < 3; round++ {
			for idx := round; idx < pages; idx += 7 + round {
				if err := v.fs.Write(p, f.Ino, idx, 1); err != nil {
					t.Fatal(err)
				}
			}
			v.fs.Sync(p)
		}
		if v.fs.Stats().InPlaceWrites == 0 {
			t.Fatal("no in-place writes with the log full")
		}
		if err := v.fs.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		v.cache.RemoveFile(v.fs.ID(), uint64(f.Ino))
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatal(err)
		}
		for idx := int64(0); idx < pages; idx++ {
			ver, _, ok := v.cache.Peek(v.fs.pageKey(f.Ino, idx))
			if !ok || ver != f.vers[idx] {
				t.Fatalf("page %d: cached=%v, want version %d", idx, ok, f.vers[idx])
			}
		}
	})
}

// TestFibmapMemoForgetsDeleted reads block maps through the inode memo
// of two files that share a memo slot, deletes the one the memo holds,
// and requires Fibmap of the deleted file to fail while the other still
// maps. FibmapRun reports a file written in one go as one run.
func TestFibmapMemoForgetsDeleted(t *testing.T) {
	v := newEnv(256)
	v.in(t, func(p *sim.Proc) {
		var files []*Inode
		for k := 0; k < 9; k++ {
			f, err := v.fs.Create(fmt.Sprintf("f%d", k))
			if err != nil {
				t.Fatal(err)
			}
			if err := v.fs.Write(p, f.Ino, 0, 4); err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		v.fs.Sync(p)
		live, gone := files[0], files[8]
		if live.Ino%8 != gone.Ino%8 {
			t.Fatalf("inodes %d and %d do not share a memo slot", live.Ino, gone.Ino)
		}
		if _, ok := v.fs.Fibmap(live.Ino, 0); !ok {
			t.Fatal("live file has no block")
		}
		if b, m := v.fs.FibmapRun(gone.Ino, 0, 8); m != 4 || b != gone.blocks[0] {
			t.Fatalf("FibmapRun = block %d, run %d; want block %d, run 4", b, m, gone.blocks[0])
		}
		if err := v.fs.Delete(gone.Name); err != nil {
			t.Fatal(err)
		}
		if b, ok := v.fs.Fibmap(gone.Ino, 0); ok {
			t.Errorf("Fibmap of deleted inode %d = block %d", gone.Ino, b)
		}
		if _, m := v.fs.FibmapRun(gone.Ino, 0, 4); m != 0 {
			t.Errorf("FibmapRun of deleted inode %d maps %d pages", gone.Ino, m)
		}
		if _, ok := v.fs.Fibmap(live.Ino, 0); !ok {
			t.Error("the live file sharing the slot lost its block")
		}
	})
}
