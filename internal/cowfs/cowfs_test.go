package cowfs

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"duet/internal/iosched"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

const testBlocks = 1 << 16 // 256 MiB device

type env struct {
	e     *sim.Engine
	disk  *storage.Disk
	cache *pagecache.Cache
	fs    *FS
}

func newEnv(cachePages int) *env { return newEnvBlocks(cachePages, testBlocks) }

func newEnvBlocks(cachePages int, blocks int64) *env {
	e := sim.New(1)
	disk := storage.NewDisk(e, "sda", storage.DefaultHDD(blocks), iosched.NewCFQ())
	cache := pagecache.New(e, pagecache.DefaultConfig(cachePages))
	fs := New(e, 1, disk, cache)
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
	// Every test run leaves the accounting structures consistent: extent
	// maps, refcounts, and the two-level free index must agree.
	if err := v.fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNamespace(t *testing.T) {
	v := newEnv(1024)
	if _, err := v.fs.MkdirAll("/data/a/b"); err != nil {
		t.Fatal(err)
	}
	f, err := v.fs.Create("/data/a/b/file1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.fs.Create("/data/a/b/file1"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := v.fs.Lookup("/data/a/b/file1"); err != nil {
		t.Errorf("lookup: %v", err)
	}
	if _, err := v.fs.Lookup("/data/zzz"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup: %v", err)
	}
	if _, err := v.fs.Create("/data/a/b/file1/x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("create under file: %v", err)
	}
	path, err := v.fs.PathOf(f.Ino)
	if err != nil || path != "/data/a/b/file1" {
		t.Errorf("PathOf = %q, %v", path, err)
	}
	root, _ := v.fs.Lookup("/")
	if root.Ino != RootIno {
		t.Errorf("root ino = %d", root.Ino)
	}
	if p, _ := v.fs.PathOf(RootIno); p != "/" {
		t.Errorf("PathOf(root) = %q", p)
	}
}

func TestWithin(t *testing.T) {
	v := newEnv(1024)
	dataDir, _ := v.fs.MkdirAll("/data/sub")
	f, _ := v.fs.Create("/data/sub/f")
	g, _ := v.fs.Create("/other")
	data, _ := v.fs.Lookup("/data")

	if rel, ok := v.fs.Within(f.Ino, data.Ino); !ok || rel != "sub/f" {
		t.Errorf("Within = %q,%v", rel, ok)
	}
	if rel, ok := v.fs.Within(dataDir.Ino, data.Ino); !ok || rel != "sub" {
		t.Errorf("Within(dir) = %q,%v", rel, ok)
	}
	if _, ok := v.fs.Within(g.Ino, data.Ino); ok {
		t.Error("file outside dir reported within")
	}
	if rel, ok := v.fs.Within(data.Ino, data.Ino); !ok || rel != "" {
		t.Errorf("Within(self) = %q,%v", rel, ok)
	}
}

func TestPopulateAndRead(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(2))
	f, err := v.fs.PopulateFile("/f", 32, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Extents) != 1 {
		t.Errorf("extents = %d, want 1", len(f.Extents))
	}
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatal(err)
		}
		if v.cache.FilePages(1, uint64(f.Ino)) != 32 {
			t.Errorf("cached pages = %d", v.cache.FilePages(1, uint64(f.Ino)))
		}
		// Second read is served from cache: no new device I/O.
		before := v.disk.Stats().Owner("t").BlocksRead
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatal(err)
		}
		if after := v.disk.Stats().Owner("t").BlocksRead; after != before {
			t.Errorf("second read did I/O: %d -> %d", before, after)
		}
	})
	if v.fs.Stats().MissPages != 32 {
		t.Errorf("MissPages = %d", v.fs.Stats().MissPages)
	}
}

func TestPopulateFragmented(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(3))
	f, err := v.fs.PopulateFile("/frag", 64, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Extents) < 8 {
		t.Errorf("extents = %d, want >= 8", len(f.Extents))
	}
	// All pages must still map.
	for idx := int64(0); idx < 64; idx++ {
		if _, ok := v.fs.Fibmap(f.Ino, idx); !ok {
			t.Fatalf("page %d unmapped", idx)
		}
	}
	if v.fs.AllocatedBlocks() != 64 {
		t.Errorf("allocated = %d", v.fs.AllocatedBlocks())
	}
}

func TestWriteCOW(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(4))
	f, _ := v.fs.PopulateFile("/f", 16, 1, rng)
	oldBlock, _ := v.fs.Fibmap(f.Ino, 5)
	oldVer := f.PageVers[5]
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 5, 1); err != nil {
			t.Fatal(err)
		}
	})
	newBlock, ok := v.fs.Fibmap(f.Ino, 5)
	if !ok || newBlock == oldBlock {
		t.Errorf("COW: block %d -> %d", oldBlock, newBlock)
	}
	if v.fs.Allocated(oldBlock) {
		t.Error("old block should be freed (no snapshot)")
	}
	if f.PageVers[5] == oldVer {
		t.Error("version not bumped")
	}
	// A mid-file overwrite splits the single extent into three.
	if len(f.Extents) != 3 {
		t.Errorf("extents = %d, want 3 after mid-file COW", len(f.Extents))
	}
	if v.fs.AllocatedBlocks() != 16 {
		t.Errorf("allocated = %d, want 16", v.fs.AllocatedBlocks())
	}
}

func TestAppendExtends(t *testing.T) {
	v := newEnv(1024)
	f, _ := v.fs.Create("/log")
	v.in(t, func(p *sim.Proc) {
		for k := 0; k < 4; k++ {
			if err := v.fs.Append(p, f.Ino, 2); err != nil {
				t.Fatal(err)
			}
		}
	})
	if f.SizePg != 8 {
		t.Errorf("size = %d", f.SizePg)
	}
	for idx := int64(0); idx < 8; idx++ {
		if _, ok := v.fs.Fibmap(f.Ino, idx); !ok {
			t.Fatalf("page %d unmapped after append", idx)
		}
	}
}

func TestWritebackReachesMedium(t *testing.T) {
	v := newEnv(1024)
	f, _ := v.fs.Create("/f")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, 4); err != nil {
			t.Fatal(err)
		}
		v.fs.Sync(p)
		// Drop pages and read back: checksums must verify.
		v.cache.RemoveFile(1, uint64(f.Ino))
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatalf("read-back after sync: %v", err)
		}
	})
	if w := v.disk.Stats().Owner("writeback").BlocksWritten; w != 4 {
		t.Errorf("writeback blocks = %d", w)
	}
}

// tornWriteback tears every writeback request after its first block.
type tornWriteback struct{}

func (tornWriteback) Evaluate(now sim.Time, r *storage.Request, attempt int) storage.FaultOutcome {
	if r.Write && r.Owner == "writeback" {
		return storage.FaultOutcome{Err: &storage.TornWriteError{Persisted: 1}}
	}
	return storage.FaultOutcome{}
}

func TestCorruptionDetectedOnRead(t *testing.T) {
	// Both ways a block's medium content can differ from its stored
	// checksum: injected silent corruption, and a torn writeback whose
	// unpersisted pages were then lost from memory. A read and a scrub
	// check must both report each.
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(5))
	f, _ := v.fs.PopulateFile("/f", 8, 1, rng)
	b, _ := v.fs.Fibmap(f.Ino, 3)
	v.fs.CorruptBlock(b)
	torn, _ := v.fs.Create("/torn")
	v.in(t, func(p *sim.Proc) {
		err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t")
		if !errors.Is(err, ErrCorruption) {
			t.Errorf("read of corrupted block: %v", err)
		}
		if err := v.fs.CheckBlock(b); !errors.Is(err, ErrCorruption) {
			t.Errorf("check of corrupted block: %v", err)
		}

		if err := v.fs.Write(p, torn.Ino, 0, 2); err != nil {
			t.Fatal(err)
		}
		v.disk.SetFaultInjector(tornWriteback{})
		n, err := v.fs.WritebackPages(p, uint64(torn.Ino), []uint64{0, 1})
		v.disk.SetFaultInjector(nil)
		if n != 1 || err == nil {
			t.Fatalf("torn writeback persisted %d pages, err %v; want 1 and an error", n, err)
		}
		v.cache.RemoveFile(v.fs.ID(), uint64(torn.Ino)) // the dirty page 1 is lost
		kept, _ := v.fs.Fibmap(torn.Ino, 0)
		lost, _ := v.fs.Fibmap(torn.Ino, 1)
		if err := v.fs.CheckBlock(kept); err != nil {
			t.Errorf("check of the persisted block: %v", err)
		}
		if err := v.fs.CheckBlock(lost); !errors.Is(err, ErrCorruption) {
			t.Errorf("check of the torn block: %v", err)
		}
		if _, err := v.fs.ReadCount(p, torn.Ino, 0, 2, storage.ClassNormal, "t"); !errors.Is(err, ErrCorruption) {
			t.Errorf("read of the torn block: %v", err)
		}
	})
	if got := v.fs.Stats().Corruptions; got != 2 {
		t.Errorf("Corruptions = %d, want 2", got)
	}
	if got := v.fs.Stats().ScrubErrors; got != 2 {
		t.Errorf("ScrubErrors = %d, want 2", got)
	}
}

func TestVerifyAndRepair(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(6))
	f, _ := v.fs.PopulateFile("/f", 8, 1, rng)
	b, _ := v.fs.Fibmap(f.Ino, 2)
	v.fs.CorruptBlock(b)
	v.in(t, func(p *sim.Proc) {
		did, err := v.fs.VerifyBlock(p, b, storage.ClassIdle, "scrub")
		if !did || !errors.Is(err, ErrCorruption) {
			t.Errorf("VerifyBlock = %v, %v", did, err)
		}
		if err := v.fs.RepairBlock(p, b, storage.ClassIdle, "scrub"); err != nil {
			t.Fatalf("repair: %v", err)
		}
		did, err = v.fs.VerifyBlock(p, b, storage.ClassIdle, "scrub")
		if !did || err != nil {
			t.Errorf("after repair: %v, %v", did, err)
		}
		// Unallocated block: no I/O, no error.
		free, _, _ := v.fs.free.runs.Max()
		did, err = v.fs.VerifyBlock(p, free, storage.ClassIdle, "scrub")
		if did || err != nil {
			t.Errorf("unallocated verify = %v, %v", did, err)
		}
	})
}

func TestVerifySkipsDirtyBlocks(t *testing.T) {
	v := newEnv(1024)
	f, _ := v.fs.Create("/f")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, 1); err != nil {
			t.Fatal(err)
		}
		b, _ := v.fs.Fibmap(f.Ino, 0)
		// The medium copy is stale (never written); verification must
		// skip it rather than flag false corruption.
		did, err := v.fs.VerifyBlock(p, b, storage.ClassIdle, "scrub")
		if did || err != nil {
			t.Errorf("dirty-block verify = %v, %v", did, err)
		}
		v.fs.Sync(p)
		did, err = v.fs.VerifyBlock(p, b, storage.ClassIdle, "scrub")
		if !did || err != nil {
			t.Errorf("clean-block verify = %v, %v", did, err)
		}
	})
}

func TestVerifyRange(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(7))
	f, _ := v.fs.PopulateFile("/f", 16, 1, rng)
	start := f.Extents[0].Phys
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.VerifyRange(p, start, 16, storage.ClassIdle, "scrub"); err != nil {
			t.Fatal(err)
		}
	})
	b, _ := v.fs.Fibmap(f.Ino, 4)
	v.fs.CorruptBlock(b)
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.VerifyRange(p, start, 16, storage.ClassIdle, "scrub"); !errors.Is(err, ErrCorruption) {
			t.Errorf("VerifyRange on corrupted = %v", err)
		}
	})
}

func TestSnapshotSharingAndCOW(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(8))
	v.fs.MkdirAll("/data")
	f, _ := v.fs.PopulateFile("/data/f", 8, 1, rng)
	var snap *Snapshot
	v.in(t, func(p *sim.Proc) {
		var err error
		snap, err = v.fs.CreateSnapshot(p, "/data", "/snap0")
		if err != nil {
			t.Fatal(err)
		}
		if snap.Blocks != 8 {
			t.Errorf("snapshot blocks = %d", snap.Blocks)
		}
		// Shared: no extra space consumed.
		if got := v.fs.AllocatedBlocks(); got != 8 {
			t.Errorf("allocated = %d, want 8 (shared)", got)
		}
		if !v.fs.SharedWithSnapshot(snap, f.Ino, 3) {
			t.Error("page 3 should be shared")
		}
		// Overwrite breaks sharing for that page only.
		if err := v.fs.Write(p, f.Ino, 3, 1); err != nil {
			t.Fatal(err)
		}
		if v.fs.SharedWithSnapshot(snap, f.Ino, 3) {
			t.Error("page 3 still reported shared after COW")
		}
		if !v.fs.SharedWithSnapshot(snap, f.Ino, 4) {
			t.Error("page 4 lost sharing")
		}
		if got := v.fs.AllocatedBlocks(); got != 9 {
			t.Errorf("allocated = %d, want 9 after COW", got)
		}
		// Snapshot file still readable with original content.
		snapIno := snap.LiveToSnap[f.Ino]
		if err := v.fs.ReadFile(p, Ino(snapIno), storage.ClassIdle, "backup"); err != nil {
			t.Fatalf("snapshot read: %v", err)
		}
	})
}

func TestSnapshotDeleteReleasesBlocks(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(9))
	v.fs.MkdirAll("/data")
	f, _ := v.fs.PopulateFile("/data/f", 8, 1, rng)
	v.in(t, func(p *sim.Proc) {
		snap, err := v.fs.CreateSnapshot(p, "/data", "/snap0")
		if err != nil {
			t.Fatal(err)
		}
		if err := v.fs.Write(p, f.Ino, 0, 8); err != nil { // full COW
			t.Fatal(err)
		}
		if got := v.fs.AllocatedBlocks(); got != 16 {
			t.Errorf("allocated = %d, want 16", got)
		}
		if err := v.fs.DeleteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if got := v.fs.AllocatedBlocks(); got != 8 {
			t.Errorf("allocated = %d, want 8 after snapshot delete", got)
		}
	})
}

func TestSnapshotCommitsDirtyPages(t *testing.T) {
	v := newEnv(1024)
	v.fs.MkdirAll("/data")
	f, _ := v.fs.Create("/data/f")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, f.Ino, 0, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := v.fs.CreateSnapshot(p, "/data", "/snap0"); err != nil {
			t.Fatal(err)
		}
		if v.cache.DirtyLen() != 0 {
			t.Errorf("dirty pages after snapshot = %d", v.cache.DirtyLen())
		}
		// Medium content must match for all of f's blocks.
		for idx := int64(0); idx < 4; idx++ {
			b, _ := v.fs.Fibmap(f.Ino, idx)
			if v.fs.diskVer[b] != f.PageVers[idx] {
				t.Errorf("page %d not committed", idx)
			}
		}
	})
}

func TestDefragMergesExtents(t *testing.T) {
	v := newEnv(2048)
	rng := rand.New(rand.NewSource(10))
	f, _ := v.fs.PopulateFile("/f", 64, 8, rng)
	if len(f.Extents) < 8 {
		t.Fatalf("setup: extents = %d", len(f.Extents))
	}
	v.in(t, func(p *sim.Proc) {
		res, err := v.fs.DefragFile(p, f.Ino, storage.ClassIdle, "defrag")
		if err != nil {
			t.Fatal(err)
		}
		if res.PagesTotal != 64 || res.PagesRead != 64 || res.AlreadyDirty != 0 {
			t.Errorf("res = %+v", res)
		}
		v.fs.Sync(p)
	})
	if len(f.Extents) != 1 {
		t.Errorf("extents after defrag = %d", len(f.Extents))
	}
	// Defrag writes are billed to the defragmenter, not the flusher.
	if w := v.disk.Stats().Owner("defrag").BlocksWritten; w != 64 {
		t.Errorf("defrag-owned writes = %d", w)
	}
	v.in(t, func(p *sim.Proc) {
		// Read back verifies checksums at the new location.
		v.cache.RemoveFile(1, uint64(f.Ino))
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatalf("read-back: %v", err)
		}
	})
}

func TestDefragSavesCachedReads(t *testing.T) {
	v := newEnv(2048)
	rng := rand.New(rand.NewSource(11))
	f, _ := v.fs.PopulateFile("/f", 32, 6, rng)
	v.in(t, func(p *sim.Proc) {
		// Warm half the file in cache.
		if err := v.fs.Read(p, f.Ino, 0, 16, storage.ClassNormal, "w"); err != nil {
			t.Fatal(err)
		}
		res, err := v.fs.DefragFile(p, f.Ino, storage.ClassIdle, "defrag")
		if err != nil {
			t.Fatal(err)
		}
		if res.PagesRead != 16 {
			t.Errorf("PagesRead = %d, want 16 (half cached)", res.PagesRead)
		}
	})
}

func TestFragmentedFilesListing(t *testing.T) {
	v := newEnv(2048)
	rng := rand.New(rand.NewSource(12))
	v.fs.MkdirAll("/data")
	v.fs.PopulateFile("/data/ok", 32, 1, rng)
	frag, _ := v.fs.PopulateFile("/data/frag", 32, 8, rng)
	data, _ := v.fs.Lookup("/data")
	got := v.fs.FragmentedFiles(data.Ino)
	if len(got) != 1 || got[0].Ino != frag.Ino {
		t.Errorf("FragmentedFiles = %v", got)
	}
	if v.fs.FragmentedExtents(frag.Ino) < 8 {
		t.Errorf("FragmentedExtents = %d", v.fs.FragmentedExtents(frag.Ino))
	}
}

func TestRenameHooks(t *testing.T) {
	v := newEnv(1024)
	v.fs.MkdirAll("/data/in")
	v.fs.MkdirAll("/out")
	f, _ := v.fs.Create("/out/f")
	type move struct {
		ino                  Ino
		oldParent, newParent Ino
	}
	var moves []move
	v.fs.AddVFSHook(vfsHookFunc(func(ino Ino, isDir bool, op, np Ino) {
		moves = append(moves, move{ino, op, np})
	}))
	if err := v.fs.Rename("/out/f", "/data/in/f2"); err != nil {
		t.Fatal(err)
	}
	in, _ := v.fs.Lookup("/data/in")
	out, _ := v.fs.Lookup("/out")
	if len(moves) != 1 || moves[0].ino != f.Ino || moves[0].oldParent != out.Ino || moves[0].newParent != in.Ino {
		t.Errorf("moves = %+v", moves)
	}
	if f.Name != "f2" {
		t.Errorf("name = %q", f.Name)
	}
	if p, _ := v.fs.PathOf(f.Ino); p != "/data/in/f2" {
		t.Errorf("path = %q", p)
	}
	// Illegal: move dir into own subtree.
	if err := v.fs.Rename("/data", "/data/in/oops"); err == nil {
		t.Error("moving dir into own subtree should fail")
	}
}

type vfsHookFunc func(ino Ino, isDir bool, oldParent, newParent Ino)

func (f vfsHookFunc) Moved(ino Ino, isDir bool, op, np Ino) { f(ino, isDir, op, np) }

func TestDeleteFreesBlocksAndPages(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(13))
	f, _ := v.fs.PopulateFile("/f", 16, 2, rng)
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatal(err)
		}
		if err := v.fs.Delete("/f"); err != nil {
			t.Fatal(err)
		}
	})
	if v.fs.AllocatedBlocks() != 0 {
		t.Errorf("allocated = %d after delete", v.fs.AllocatedBlocks())
	}
	if v.cache.FilePages(1, uint64(f.Ino)) != 0 {
		t.Error("pages remain after delete")
	}
	if _, err := v.fs.Lookup("/f"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup after delete: %v", err)
	}
}

func TestFilesUnderInodeOrder(t *testing.T) {
	v := newEnv(1024)
	v.fs.MkdirAll("/data/d1")
	v.fs.MkdirAll("/data/d2")
	a, _ := v.fs.Create("/data/d2/z")
	b, _ := v.fs.Create("/data/d1/a")
	c, _ := v.fs.Create("/data/top")
	v.fs.Create("/outside")
	data, _ := v.fs.Lookup("/data")
	files := v.fs.FilesUnder(data.Ino)
	if len(files) != 3 {
		t.Fatalf("files = %d", len(files))
	}
	// Sorted by inode number regardless of depth or name.
	want := []Ino{a.Ino, b.Ino, c.Ino}
	for i, w := range want {
		if files[i].Ino != w {
			t.Errorf("files[%d].Ino = %d, want %d", i, files[i].Ino, w)
		}
	}
}

func TestNoSpace(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(14))
	if _, err := v.fs.PopulateFile("/big", testBlocks+1, 1, rng); !errors.Is(err, ErrNoSpace) {
		t.Errorf("over-populate: %v", err)
	}
}

// An overwrite or a defragmentation that cannot get its blocks must leave
// the file exactly as it was. Both release the old coverage before they
// allocate, so they have to know beforehand that the allocation will fit:
// into the free blocks plus the ones the release hands straight back,
// which is none of them for blocks a snapshot shares or, under
// durability, for any block (frees wait for the next commit).
func TestFailedOverwriteLeavesFileIntact(t *testing.T) {
	const filePages, spare = 8, 4
	cases := []struct {
		name     string
		durable  bool
		snapshot bool
		writeLen int64 // an overwrite from page 0 that must not fit
	}{
		{"grow-past-free-space", false, false, filePages + spare + 1},
		{"shared-with-snapshot", false, true, filePages},
		{"frees-deferred", true, false, filePages},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := newEnv(1024)
			rng := rand.New(rand.NewSource(15))
			if _, err := v.fs.MkdirAll("/data"); err != nil {
				t.Fatal(err)
			}
			f, err := v.fs.PopulateFile("/data/f", filePages, 2, rng)
			if err != nil {
				t.Fatal(err)
			}
			v.in(t, func(p *sim.Proc) {
				if tc.snapshot {
					if _, err := v.fs.CreateSnapshot(p, "/data", "/snap"); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := v.fs.PopulateFile("/fill", v.fs.FreeBlocks()-spare, 1, rng); err != nil {
					t.Fatal(err)
				}
				if tc.durable {
					v.fs.EnableDurability()
				}
				extents := slices.Clone(f.Extents)
				vers := slices.Clone(f.PageVers)
				gen, size := f.Gen, f.SizePg

				if err := v.fs.Write(p, f.Ino, 0, tc.writeLen); !errors.Is(err, ErrNoSpace) {
					t.Fatalf("overwrite of %d pages with %d free: %v, want ErrNoSpace", tc.writeLen, spare, err)
				}
				if tc.snapshot || tc.durable { // rewriting the file in place cannot fit either
					if _, err := v.fs.DefragFile(p, f.Ino, storage.ClassIdle, "defrag"); !errors.Is(err, ErrNoSpace) {
						t.Fatalf("defragmentation with %d free: %v, want ErrNoSpace", spare, err)
					}
				}
				if !slices.Equal(f.Extents, extents) || !slices.Equal(f.PageVers, vers) || f.Gen != gen || f.SizePg != size {
					t.Errorf("failed overwrite changed the file: extents %v -> %v, gen %d -> %d, size %d -> %d",
						extents, f.Extents, gen, f.Gen, size, f.SizePg)
				}
				if got := v.fs.FreeBlocks(); got != spare {
					t.Errorf("free blocks = %d after the failed overwrite, want %d", got, spare)
				}
				// Every page still comes off the device and verifies; a
				// hole would be served as a zero page without I/O.
				v.cache.RemoveFile(v.fs.ID(), uint64(f.Ino))
				missed, err := v.fs.ReadCount(p, f.Ino, 0, filePages, storage.ClassNormal, "test")
				if err != nil || missed != filePages {
					t.Errorf("read back after failed overwrite: %d device reads (want %d), err %v", missed, filePages, err)
				}
				// An overwrite that does fit still works.
				if !tc.snapshot && !tc.durable {
					if err := v.fs.Write(p, f.Ino, 0, filePages+spare); err != nil {
						t.Errorf("overwrite into free + released blocks: %v", err)
					}
				}
			})
		})
	}
}

func TestHoleReads(t *testing.T) {
	v := newEnv(1024)
	f, _ := v.fs.Create("/sparse")
	v.in(t, func(p *sim.Proc) {
		// Write page 4 only; pages 0-3 are holes.
		if err := v.fs.Write(p, f.Ino, 4, 1); err != nil {
			t.Fatal(err)
		}
		before := v.disk.Stats().Owner("t").BlocksRead
		if err := v.fs.Read(p, f.Ino, 0, 4, storage.ClassNormal, "t"); err != nil {
			t.Fatal(err)
		}
		if after := v.disk.Stats().Owner("t").BlocksRead; after != before {
			t.Error("hole read performed I/O")
		}
	})
}

// TestRefcountConservation is an invariant test: after a random mix of
// operations, the allocated-block count derived from refcounts equals the
// blocks reachable from live extents plus snapshot extents, and the free
// list is consistent.
func TestRefcountConservation(t *testing.T) {
	v := newEnv(4096)
	rng := rand.New(rand.NewSource(15))
	v.fs.MkdirAll("/data")
	var files []*Inode
	for i := 0; i < 10; i++ {
		f, err := v.fs.PopulateFile("/data/f"+string(rune('a'+i)), int64(4+rng.Intn(28)), 1+rng.Intn(4), rng)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	var snaps []*Snapshot
	v.in(t, func(p *sim.Proc) {
		for op := 0; op < 300; op++ {
			f := files[rng.Intn(len(files))]
			switch rng.Intn(5) {
			case 0, 1:
				off := rng.Int63n(f.SizePg)
				n := 1 + rng.Int63n(f.SizePg-off)
				if err := v.fs.Write(p, f.Ino, off, n); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "w"); err != nil {
					t.Fatal(err)
				}
			case 3:
				if len(snaps) < 3 {
					s, err := v.fs.CreateSnapshot(p, "/data", "/snap"+string(rune('0'+len(snaps))))
					if err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps, s)
				}
			case 4:
				if len(snaps) > 0 {
					s := snaps[len(snaps)-1]
					snaps = snaps[:len(snaps)-1]
					if err := v.fs.DeleteSnapshot(s); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Invariant: sum of refcounts equals total extent references.
		var refSum int64
		for _, r := range v.fs.refs {
			refSum += int64(r)
		}
		var extRefs int64
		inos := make([]Ino, 0, len(v.fs.inodes))
		for ino := range v.fs.inodes {
			inos = append(inos, ino)
		}
		for _, ino := range inos {
			i := v.fs.inodes[ino]
			for _, e := range i.Extents {
				extRefs += e.Len
			}
		}
		if refSum != extRefs {
			t.Errorf("refcount sum %d != extent references %d", refSum, extRefs)
		}
		// Free accounting: freeBlocks + allocated = device size.
		var freeSum int64
		v.fs.free.runs.Ascend(nil, func(s, l int64) bool { freeSum += l; return true })
		if freeSum != v.fs.FreeBlocks() {
			t.Errorf("free tree sum %d != freeBlocks %d", freeSum, v.fs.FreeBlocks())
		}
		if v.fs.FreeBlocks()+v.fs.AllocatedBlocks() != testBlocks {
			t.Errorf("free %d + allocated %d != %d", v.fs.FreeBlocks(), v.fs.AllocatedBlocks(), int64(testBlocks))
		}
	})
}

// TestReadBackAfterRandomWrites checks end-to-end content integrity: any
// sequence of writes followed by sync, cache drop, and read-back must
// verify every checksum.
func TestReadBackAfterRandomWrites(t *testing.T) {
	v := newEnv(4096)
	rng := rand.New(rand.NewSource(16))
	f, _ := v.fs.PopulateFile("/f", 128, 3, rng)
	v.in(t, func(p *sim.Proc) {
		for op := 0; op < 50; op++ {
			off := rng.Int63n(128)
			n := min64(1+rng.Int63n(16), 128-off)
			if err := v.fs.Write(p, f.Ino, off, n); err != nil {
				t.Fatal(err)
			}
		}
		v.fs.Sync(p)
		v.cache.RemoveFile(1, uint64(f.Ino))
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatalf("read-back: %v", err)
		}
		// Every cached page version must match the inode's record.
		for idx := int64(0); idx < 128; idx++ {
			pg, ok := v.cache.Peek(v.fs.pageKey(f.Ino, idx))
			if !ok {
				t.Fatalf("page %d not cached", idx)
			}
			if pg.Version != uint64(f.PageVers[idx]) {
				t.Errorf("page %d version %d != %d", idx, pg.Version, f.PageVers[idx])
			}
		}
	})
}

func TestDeleteDuringReadIsNotCorruption(t *testing.T) {
	// Deleting a file while a reader is blocked on the device must
	// surface as ErrNotFound, not as a false silent-corruption report
	// (the freed blocks' checksums are cleared by the delete).
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(77))
	f, _ := v.fs.PopulateFile("/victim", 64, 1, rng)
	v.in(t, func(p *sim.Proc) {
		v.e.Go("deleter", func(dp *sim.Proc) {
			dp.Sleep(sim.Millisecond) // land mid-read
			if err := v.fs.Delete("/victim"); err != nil {
				t.Errorf("delete: %v", err)
			}
		})
		err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t")
		if err == nil {
			// The read may have completed before the deleter ran; that is
			// a valid interleaving only if the file still existed — but
			// the deleter always runs mid-read here (reads take ms).
			t.Fatal("read of deleted file succeeded")
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})
	if v.fs.Stats().Corruptions != 0 {
		t.Errorf("false corruption reports: %d", v.fs.Stats().Corruptions)
	}
}

// TestWriteBlockedInInsertIsNotCorruption: a write that blocks in a
// cache insert (reclaim writes back dirty pages) must not leave a block
// of its run looking corrupt to a verifier that runs meanwhile. The
// cache holds four dirty pages, so the write's first insert blocks; the
// run reuses the blocks of a deleted file, whose medium still holds the
// old versions.
func TestWriteBlockedInInsertIsNotCorruption(t *testing.T) {
	v := newEnv(4)
	rng := rand.New(rand.NewSource(1))
	if _, err := v.fs.PopulateFile("/old", 8, 1, rng); err != nil {
		t.Fatal(err)
	}
	dirty, _ := v.fs.Create("/dirty")
	v.in(t, func(p *sim.Proc) {
		if err := v.fs.Write(p, dirty.Ino, 0, 4); err != nil {
			t.Fatal(err)
		}
		if err := v.fs.Delete("/old"); err != nil {
			t.Fatal(err)
		}
		f, _ := v.fs.Create("/new")
		v.e.Go("scrub", func(sp *sim.Proc) {
			sp.Sleep(sim.Microsecond) // land while the write blocks
			var run []int64
			for idx := int64(0); idx < 4; idx++ {
				b, ok := v.fs.Fibmap(f.Ino, idx)
				if !ok {
					t.Fatalf("page %d of the new file is unmapped", idx)
				}
				run = append(run, b)
				if err := v.fs.CheckBlock(b); err != nil {
					t.Errorf("page %d: CheckBlock: %v", idx, err)
				}
			}
			if _, err := v.fs.VerifyBlock(sp, run[2], storage.ClassIdle, "scrub"); err != nil {
				t.Errorf("page 2: VerifyBlock: %v", err)
			}
		})
		if err := v.fs.Write(p, f.Ino, 0, 4); err != nil {
			t.Fatal(err)
		}
	})
	if n := v.fs.Stats().ScrubErrors; n != 0 {
		t.Errorf("%d false checksum failures", n)
	}
}

func TestOverwriteDuringReadKeepsFreshData(t *testing.T) {
	// A COW overwrite while a reader is blocked must not let the stale
	// device data clobber the newer cached page.
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(78))
	f, _ := v.fs.PopulateFile("/f", 64, 1, rng)
	v.in(t, func(p *sim.Proc) {
		v.e.Go("writer", func(wp *sim.Proc) {
			wp.Sleep(sim.Millisecond)
			if err := v.fs.Write(wp, f.Ino, 0, 64); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		if err := v.fs.ReadFile(p, f.Ino, storage.ClassNormal, "t"); err != nil {
			t.Fatalf("read: %v", err)
		}
		// Every cached page must carry the post-write version.
		for idx := int64(0); idx < 64; idx++ {
			pg, ok := v.cache.Peek(v.fs.pageKey(f.Ino, idx))
			if ok && pg.Version != uint64(f.PageVers[idx]) {
				t.Fatalf("page %d version %d != latest %d (stale read clobbered cache)",
					idx, pg.Version, f.PageVers[idx])
			}
		}
	})
}

func TestReadCountRevalidatesRemaps(t *testing.T) {
	// A reader blocked in a miss run's device read while another process
	// remaps or deletes the file must not cache what it read from a block
	// the page no longer maps to, nor call a deleted file corrupt. The
	// reader reads at idle priority on a slowed device, so the mutator's
	// own I/O goes first and its change lands while the read is in flight.
	cases := []struct {
		name   string
		extent int  // PopulateFile's extent count
		snap   bool // snapshot the file's directory before the read
		mutate func(p *sim.Proc, v *env, f *Inode) error
		gone   bool
	}{
		{"cow-overwrite", 4, true, func(p *sim.Proc, v *env, f *Inode) error {
			// Straddle the first two extents, then write the new pages
			// back and drop them. The snapshot keeps the old blocks and
			// their checksums, so only the page's mapping tells the
			// reader that what it read is stale.
			if err := v.fs.Write(p, f.Ino, 8, 16); err != nil {
				return err
			}
			if err := v.cache.SyncFile(p, v.fs.ID(), uint64(f.Ino)); err != nil {
				return err
			}
			v.cache.RemoveFile(v.fs.ID(), uint64(f.Ino))
			return nil
		}, false},
		{"in-place-rewrite", 1, false, func(p *sim.Proc, v *env, f *Inode) error {
			// The file's one extent, referenced once: the rewrite frees it
			// and gets the same blocks back in the same extent slot.
			e := f.Extents[0]
			if v.fs.refs[e.Phys] != 1 {
				t.Fatalf("block %d has %d references, want 1", e.Phys, v.fs.refs[e.Phys])
			}
			if err := v.fs.Write(p, f.Ino, 0, f.SizePg); err != nil {
				return err
			}
			if got := f.Extents[0].Phys; got != e.Phys {
				t.Fatalf("rewrite moved the extent from block %d to %d", e.Phys, got)
			}
			return nil
		}, false},
		{"defragment", 4, false, func(p *sim.Proc, v *env, f *Inode) error {
			_, err := v.fs.DefragFile(p, f.Ino, storage.ClassNormal, "defrag")
			return err
		}, false},
		{"delete", 4, false, func(p *sim.Proc, v *env, f *Inode) error {
			return v.fs.Delete("/d/f")
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New(1)
			disk := storage.NewDisk(e, "sda", storage.DefaultHDD(testBlocks).Slowed(8), iosched.NewCFQ())
			cache := pagecache.New(e, pagecache.DefaultConfig(1024))
			v := &env{e: e, disk: disk, cache: cache, fs: New(e, 1, disk, cache)}
			if _, err := v.fs.MkdirAll("/d"); err != nil {
				t.Fatal(err)
			}
			f, err := v.fs.PopulateFile("/d/f", 64, tc.extent, rand.New(rand.NewSource(79)))
			if err != nil {
				t.Fatal(err)
			}
			v.in(t, func(p *sim.Proc) {
				if tc.snap {
					if _, err := v.fs.CreateSnapshot(p, "/d", "/snap"); err != nil {
						t.Fatal(err)
					}
				}
				landed := false
				v.e.Go("mutator", func(mp *sim.Proc) {
					mp.Sleep(sim.Millisecond)
					if err := tc.mutate(mp, v, f); err != nil {
						t.Errorf("%s: %v", tc.name, err)
					}
					landed = true
				})
				_, err := v.fs.ReadCount(p, f.Ino, 0, f.SizePg, storage.ClassIdle, "t")
				if !landed {
					t.Fatalf("%s did not land while the read was in flight", tc.name)
				}
				if tc.gone {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("err = %v, want ErrNotFound", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				for idx := int64(0); idx < f.SizePg; idx++ {
					pg, ok := v.cache.Peek(v.fs.pageKey(f.Ino, idx))
					if ok && !pg.Dirty && pg.Version != uint64(f.PageVers[idx]) {
						t.Fatalf("clean page %d has version %d, file has %d", idx, pg.Version, f.PageVers[idx])
					}
				}
			})
			if got := v.fs.Stats().Corruptions; got != 0 {
				t.Errorf("false corruption reports: %d", got)
			}
		})
	}
}

func TestReleasedFSPanics(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a released filesystem did not panic", what)
			}
		}()
		fn()
	}
	v := newEnv(1024)
	f, err := v.fs.PopulateFile("/f", 8, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := v.fs.Fibmap(f.Ino, 0)
	v.fs.Release()
	mustPanic("CheckBlock", func() { _ = v.fs.CheckBlock(b) })
	v.e.Go("user", func(p *sim.Proc) {
		defer v.e.Stop()
		mustPanic("Read", func() { _ = v.fs.Read(p, f.Ino, 0, 8, storage.ClassNormal, "t") })
		mustPanic("Write", func() { _ = v.fs.Write(p, f.Ino, 0, 1) })
	})
	if err := v.e.Run(); err != nil {
		t.Fatal(err)
	}

	// A later filesystem of the same size takes the released state (the
	// pool may drop an entry, so try a few times) and finds it zeroed.
	for try := 0; ; try++ {
		w := newEnv(1024)
		if _, err := w.fs.PopulateFile("/f", 8, 1, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
		held := &w.fs.refs[0]
		w.fs.Release()
		u := newEnv(1024)
		if &u.fs.refs[0] != held {
			if try == 20 {
				t.Fatal("a released filesystem's state was never reused")
			}
			continue
		}
		for blk := range u.fs.refs {
			if u.fs.refs[blk] != 0 || u.fs.want[blk] != 0 || u.fs.diskVer[blk] != 0 || u.fs.rev[blk] != 0 {
				t.Fatalf("reused block %d state not zeroed", blk)
			}
		}
		return
	}
}

func TestChildrenSortedCacheInvalidation(t *testing.T) {
	// The sorted name order is cached on the directory inode; every
	// create, delete, and rename must invalidate it. Interleave mutations
	// with listings so a stale cache would surface as a wrong order.
	v := newEnv(64)
	dir, err := v.fs.MkdirAll("/d")
	if err != nil {
		t.Fatal(err)
	}
	names := func() []string {
		var out []string
		for _, c := range v.fs.ChildrenSorted(dir) {
			out = append(out, c.Name)
		}
		return out
	}
	want := func(exp ...string) {
		t.Helper()
		got := names()
		if len(got) != len(exp) {
			t.Fatalf("listing = %v, want %v", got, exp)
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("listing = %v, want %v", got, exp)
			}
		}
	}
	mustCreate := func(p string) {
		t.Helper()
		if _, err := v.fs.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("/d/c")
	mustCreate("/d/a")
	want("a", "c")
	want("a", "c") // repeat listing: served from the cached order
	mustCreate("/d/b")
	want("a", "b", "c")
	if err := v.fs.Delete("/d/a"); err != nil {
		t.Fatal(err)
	}
	want("b", "c")
	if err := v.fs.Rename("/d/c", "/d/z"); err != nil {
		t.Fatal(err)
	}
	want("b", "z")
	// Rename across directories invalidates both the source and the
	// destination listing.
	if _, err := v.fs.MkdirAll("/e"); err != nil {
		t.Fatal(err)
	}
	if err := v.fs.Rename("/d/z", "/e/z"); err != nil {
		t.Fatal(err)
	}
	want("b")
	eDir, err := v.fs.Lookup("/e")
	if err != nil {
		t.Fatal(err)
	}
	kids := v.fs.ChildrenSorted(eDir)
	if len(kids) != 1 || kids[0].Name != "z" {
		t.Fatalf("destination listing wrong: %v", kids)
	}
	mustCreate("/d/aa")
	want("aa", "b")
}
