package cowfs

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"duet/internal/sim"
	"duet/internal/storage"
)

// cowCycle pushes one file through the full data path: COW overwrite
// (splice out old extents, allocate new ones), writeback, cache drop,
// and a device read of everything back. Steady state must not allocate:
// run buffers, miss staging, writeback staging, free-index nodes, and
// bitmap chunks all recycle through their pools.
func cowCycle(p *sim.Proc, v *env, ino Ino) {
	const pages = 32
	if err := v.fs.Write(p, ino, 0, pages); err != nil {
		panic(err)
	}
	if err := v.cache.SyncFile(p, v.fs.ID(), uint64(ino)); err != nil {
		panic(err)
	}
	v.cache.RemoveFile(v.fs.ID(), uint64(ino))
	if _, err := v.fs.ReadCount(p, ino, 0, pages, storage.ClassNormal, "bench"); err != nil {
		panic(err)
	}
	v.cache.RemoveFile(v.fs.ID(), uint64(ino))
}

// readMissPages is the size of the read-miss file: four extents of 64
// pages, so a whole-file read is four coalesced device reads.
const readMissPages = 256

// readMissFile populates the read-miss file on the medium, uncached.
func readMissFile(v *env) *Inode {
	f, err := v.fs.PopulateFile("/cold", readMissPages, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	return f
}

// readMiss reads the whole file from the device and drops it again: the
// miss path of every cold read (staging, coalesced device reads, the
// revalidation after each, one cache insert per page).
func readMiss(p *sim.Proc, v *env, f *Inode) {
	missed, err := v.fs.ReadCount(p, f.Ino, 0, f.SizePg, storage.ClassNormal, "bench")
	if err != nil {
		panic(err)
	}
	if missed != f.SizePg {
		panic(fmt.Sprintf("read missed %d of %d pages", missed, f.SizePg))
	}
	v.cache.RemoveFile(v.fs.ID(), uint64(f.Ino))
}

// BenchmarkReadMissRun measures cold whole-file reads, per page.
func BenchmarkReadMissRun(b *testing.B) {
	benchInProc(b, func(p *sim.Proc, v *env) func() {
		f := readMissFile(v)
		return func() { readMiss(p, v, f) }
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*readMissPages), "ns/page")
}

// BenchmarkWriteOverwriteRead measures the write → writeback → read
// cycle that dominates every cowfs experiment.
func BenchmarkWriteOverwriteRead(b *testing.B) {
	benchInProc(b, func(p *sim.Proc, v *env) func() {
		f, err := v.fs.Create("/f")
		if err != nil {
			b.Fatal(err)
		}
		return func() { cowCycle(p, v, f.Ino) }
	})
}

// churn allocates a multi-block region at a random hint and frees it,
// exercising findFit, carve, and the merge paths of the two-level free
// index under fragmentation. It frees each run in one derefRange, as the
// filesystem does; perBlock frees the same runs a block at a time
// instead, the worst case for run merging (every block but the first
// merges into the run the previous call just filed).
func churn(fs *FS, rng *rand.Rand, rb *runBuf, perBlock bool) {
	runs, err := fs.allocate(7, rng.Int63n(testBlocks), rb.runs[:0])
	if err != nil {
		panic(err)
	}
	rb.runs = runs
	for _, r := range runs {
		if !perBlock {
			fs.derefRange(r.phys, r.len)
			continue
		}
		for blk := r.phys; blk < r.phys+r.len; blk++ {
			fs.derefRange(blk, 1)
		}
	}
}

// BenchmarkAllocateFreeChurn measures raw free-space index throughput:
// allocate at a random hint, then free by run and, as the worst case,
// block by block. Node and chunk pools must make both allocation-free.
func BenchmarkAllocateFreeChurn(b *testing.B) {
	for _, perBlock := range []bool{false, true} {
		name := "free=run"
		if perBlock {
			name = "free=block"
		}
		b.Run(name, func(b *testing.B) {
			v := newEnv(64)
			rng := rand.New(rand.NewSource(1))
			rb := v.fs.getRunBuf()
			for i := 0; i < 2048; i++ {
				churn(v.fs, rng, rb, perBlock)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn(v.fs, rng, rb, perBlock)
			}
		})
	}
}

// benchFilePages is the file size of the free-heavy benchmarks below.
const benchFilePages = 64

// refragment re-cuts a contiguous file's extent map into k equal extents
// by giving each piece a generation of its own — the map k partial
// overwrites leave behind, without moving a block — so the next
// whole-file overwrite has k extents to release.
func refragment(i *Inode, k int64) {
	e := i.Extents[0]
	if len(i.Extents) != 1 || e.Len%k != 0 {
		panic("refragment: file is not one extent divisible by k")
	}
	per := e.Len / k
	i.Extents = i.Extents[:0]
	for j := int64(0); j < k; j++ {
		i.Extents = append(i.Extents, Extent{Logical: e.Logical + j*per, Phys: e.Phys + j*per, Len: per, Gen: e.Gen - uint64(j)})
	}
}

// overwriteWhole is the fileserver's whole-file overwrite: every extent
// of the file is released and the file re-allocated in one write.
func overwriteWhole(p *sim.Proc, v *env, i *Inode, extents int64) {
	refragment(i, extents)
	if err := v.fs.Write(p, i.Ino, 0, benchFilePages); err != nil {
		panic(err)
	}
}

// deleteRecreate is the fileserver's other free-heavy operation: delete a
// file, create a new one in its place and fill it.
func deleteRecreate(p *sim.Proc, v *env) {
	if err := v.fs.Delete("/f"); err != nil {
		panic(err)
	}
	f, err := v.fs.Create("/f")
	if err != nil {
		panic(err)
	}
	if err := v.fs.Write(p, f.Ino, 0, benchFilePages); err != nil {
		panic(err)
	}
}

// commitChurn is the durable cycle: an overwrite defers the old blocks,
// the commit that follows drains them back to the allocator.
func commitChurn(p *sim.Proc, v *env, ino Ino) {
	if err := v.fs.Write(p, ino, 0, benchFilePages); err != nil {
		panic(err)
	}
	if err := v.fs.Commit(p); err != nil {
		panic(err)
	}
}

// durableOverwritePages is the file size of the durable-overwrite cycle:
// one cluster-repair shard.
const durableOverwritePages = 256

// durableOverwrite is one commit cycle of the cluster-repair node's write
// path: 64 one-page overwrites, spread over a file of one-page extents,
// then a commit. Each overwrite covers exactly one extent; n carries the
// spread from one cycle to the next.
func durableOverwrite(p *sim.Proc, v *env, ino Ino, n *int64) {
	for k := 0; k < 64; k++ {
		*n++
		if err := v.fs.Write(p, ino, *n*97%durableOverwritePages, 1); err != nil {
			panic(err)
		}
	}
	if err := v.fs.Commit(p); err != nil {
		panic(err)
	}
}

// durableShard makes a durable file of one-page extents, each written by
// a write of its own (a generation of its own, so none merge).
func durableShard(p *sim.Proc, v *env) *Inode {
	f, err := v.fs.Create("/f")
	if err != nil {
		panic(err)
	}
	for idx := int64(0); idx < durableOverwritePages; idx++ {
		if err := v.fs.Write(p, f.Ino, idx, 1); err != nil {
			panic(err)
		}
	}
	v.fs.Sync(p)
	v.fs.EnableDurability()
	return f
}

// benchFile makes the benchmarks' file and fills it.
func benchFile(p *sim.Proc, v *env) *Inode {
	f, err := v.fs.Create("/f")
	if err != nil {
		panic(err)
	}
	if err := v.fs.Write(p, f.Ino, 0, benchFilePages); err != nil {
		panic(err)
	}
	return f
}

// benchFileDurable is benchFile on the medium and in the first checkpoint.
func benchFileDurable(p *sim.Proc, v *env) *Inode {
	f := benchFile(p, v)
	v.fs.Sync(p)
	v.fs.EnableDurability()
	return f
}

// benchInProc runs op b.N times inside a simulated process on a
// 4096-page cache, after setup and 64 warm-up operations. The timer
// covers the b.N operations only: the invariant check after them
// allocates, once per benchmark run, and inside the timer it would show
// as a B/op that shrinks as -benchtime grows.
func benchInProc(b *testing.B, setup func(p *sim.Proc, v *env) func()) {
	v := newEnv(4096)
	v.e.Go("bench", func(p *sim.Proc) {
		defer v.e.Stop()
		op := setup(p, v)
		for i := 0; i < 64; i++ {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
	})
	if err := v.e.Run(); err != nil {
		b.Fatal(err)
	}
	if err := v.fs.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOverwriteWholeFile measures a whole-file overwrite of a file
// held in 1 or 16 extents: splice, run-wise release, re-allocation.
func BenchmarkOverwriteWholeFile(b *testing.B) {
	for _, extents := range []int64{1, 16} {
		b.Run(fmt.Sprintf("extents=%d", extents), func(b *testing.B) {
			benchInProc(b, func(p *sim.Proc, v *env) func() {
				f := benchFile(p, v)
				return func() { overwriteWhole(p, v, f, extents) }
			})
		})
	}
}

// BenchmarkDeleteRecreate measures delete + create + fill. The new file's
// own objects (inode, page versions, extent slice, path) are allocated
// each time; the block release and re-allocation are not.
func BenchmarkDeleteRecreate(b *testing.B) {
	benchInProc(b, func(p *sim.Proc, v *env) func() {
		benchFile(p, v)
		return func() { deleteRecreate(p, v) }
	})
}

// BenchmarkCommitChurn measures durable write → commit → drain. The
// checkpoint recycles its predecessor's entries and map, so a warm cycle
// allocates nothing.
func BenchmarkCommitChurn(b *testing.B) {
	benchInProc(b, func(p *sim.Proc, v *env) func() {
		f := benchFileDurable(p, v)
		return func() { commitChurn(p, v, f.Ino) }
	})
}

// BenchmarkDurableOverwrite measures one commit cycle of a durable
// 256-extent file: 64 one-page overwrites and a commit. It runs per
// cycle, not per write, so a commit that allocates shows in allocs/op.
func BenchmarkDurableOverwrite(b *testing.B) {
	benchInProc(b, func(p *sim.Proc, v *env) func() {
		f := durableShard(p, v)
		var n int64
		return func() { durableOverwrite(p, v, f.Ino, &n) }
	})
}

// TestCowHotPathAllocFree is the CI regression gate for the paths above:
// zero allocations per operation once pools are warm (see
// .github/workflows/ci.yml).
func TestCowHotPathAllocFree(t *testing.T) {
	t.Run("write-sync-read", func(t *testing.T) {
		v := newEnv(4096)
		f, err := v.fs.Create("/f")
		if err != nil {
			t.Fatal(err)
		}
		var avg float64
		v.e.Go("alloc-test", func(p *sim.Proc) {
			defer v.e.Stop()
			for i := 0; i < 64; i++ {
				cowCycle(p, v, f.Ino)
			}
			avg = testing.AllocsPerRun(100, func() {
				cowCycle(p, v, f.Ino)
			})
		})
		if err := v.e.Run(); err != nil {
			t.Fatal(err)
		}
		if avg != 0 {
			t.Errorf("write/sync/read cycle allocates %.1f allocs/op, want 0", avg)
		}
		if err := v.fs.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
	// The free-heavy operations: a whole-file overwrite releasing 1 or 16
	// extents, a delete, a durable overwrite whose commit misses the file
	// (so the drain keeps what the carried entry references), and the
	// durable one-page overwrite cycle. Recreating the deleted file
	// allocates by design (a new inode with its slices), so the gate
	// measures around it.
	inProc := func(t *testing.T, fn func(p *sim.Proc, v *env)) {
		v := newEnv(4096)
		v.in(t, func(p *sim.Proc) { fn(p, v) })
	}
	for _, extents := range []int64{1, 16} {
		t.Run(fmt.Sprintf("overwrite-whole-file/extents=%d", extents), func(t *testing.T) {
			inProc(t, func(p *sim.Proc, v *env) {
				f := benchFile(p, v)
				for i := 0; i < 64; i++ {
					overwriteWhole(p, v, f, extents)
				}
				if avg := testing.AllocsPerRun(100, func() { overwriteWhole(p, v, f, extents) }); avg != 0 {
					t.Errorf("whole-file overwrite allocates %.1f allocs/op, want 0", avg)
				}
			})
		})
	}
	t.Run("delete", func(t *testing.T) {
		inProc(t, func(p *sim.Proc, v *env) {
			f := benchFile(p, v)
			// Measure the way testing.AllocsPerRun does, on one P: with
			// more, another goroutine's allocation inside the window
			// (MemStats.Mallocs is process-wide) is charged to the delete.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var ms runtime.MemStats
			var mallocs uint64
			for i := 0; i < 164; i++ {
				refragment(f, 16)
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				if err := v.fs.deleteInode(f); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				if i >= 64 { // warm
					mallocs += ms.Mallocs - before
				}
				f = benchFile(p, v)
			}
			if mallocs != 0 {
				t.Errorf("100 deletes of a 16-extent file made %d allocations, want 0", mallocs)
			}
		})
	})
	t.Run("defer-drain", func(t *testing.T) {
		// Every data writeback fails transiently, so each commit finds the
		// file dirty and carries its first checkpoint entry over: the drain
		// frees the blocks of the overwrite before last and keeps the ones
		// that entry references deferred for ever.
		inProc(t, func(p *sim.Proc, v *env) {
			f := benchFileDurable(p, v)
			v.disk.SetFaultInjector(&failWriteback{armed: true})
			defer v.disk.SetFaultInjector(nil)
			for i := 0; i < 64; i++ {
				commitChurn(p, v, f.Ino)
			}
			if avg := testing.AllocsPerRun(100, func() { commitChurn(p, v, f.Ino) }); avg != 0 {
				t.Errorf("durable overwrite + missed commit allocates %.1f allocs/op, want 0", avg)
			}
			if got := v.fs.deferredBlocks; got != benchFilePages {
				t.Errorf("%d blocks still deferred, want the checkpoint's %d", got, benchFilePages)
			}
		})
	})
	t.Run("durable-overwrite", func(t *testing.T) {
		inProc(t, func(p *sim.Proc, v *env) {
			f := durableShard(p, v)
			var n int64
			for i := 0; i < 64; i++ {
				durableOverwrite(p, v, f.Ino, &n)
			}
			if avg := testing.AllocsPerRun(20, func() { durableOverwrite(p, v, f.Ino, &n) }); avg != 0 {
				t.Errorf("64 durable one-page overwrites and a commit allocate %.1f times, want 0", avg)
			}
			if got := len(f.Extents); got != durableOverwritePages {
				t.Errorf("file has %d extents, want %d one-page extents", got, durableOverwritePages)
			}
		})
	})
	t.Run("read-miss", func(t *testing.T) {
		inProc(t, func(p *sim.Proc, v *env) {
			f := readMissFile(v)
			for i := 0; i < 64; i++ {
				readMiss(p, v, f)
			}
			if avg := testing.AllocsPerRun(100, func() { readMiss(p, v, f) }); avg != 0 {
				t.Errorf("cold whole-file read allocates %.1f allocs/op, want 0", avg)
			}
		})
	})
	t.Run("allocate-free", func(t *testing.T) {
		v := newEnv(64)
		rng := rand.New(rand.NewSource(1))
		rb := v.fs.getRunBuf()
		for _, perBlock := range []bool{false, true} {
			for i := 0; i < 2048; i++ {
				churn(v.fs, rng, rb, perBlock)
			}
			avg := testing.AllocsPerRun(200, func() {
				churn(v.fs, rng, rb, perBlock)
			})
			if avg != 0 {
				t.Errorf("allocate/free churn (per block: %v) allocates %.1f allocs/op, want 0", perBlock, avg)
			}
		}
		if err := v.fs.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}
