package gcduet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"duet/internal/core"
	"duet/internal/lfs"
	"duet/internal/machine"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// refTracker is the tracker's bookkeeping as it was first written, one
// map entry per counted page: the reference apply is compared against.
type refTracker struct {
	fs          *lfs.FS
	cachedBySeg []int
	lastSeg     map[[2]uint64]int // (inode, page index) -> segment counted under
}

func (t *refTracker) apply(it core.Item) {
	id := [2]uint64{it.PageIno, it.PageIdx}
	seg := t.fs.SegOf(int64(it.ID))
	if old, counted := t.lastSeg[id]; counted && old != seg {
		t.cachedBySeg[old]--
		delete(t.lastSeg, id)
	}
	exists := it.Flags.Has(core.StExists)
	if !exists && it.Flags.Has(core.EvtFlushed) {
		exists = t.fs.Cache().Contains(pagecache.PageKey{FS: t.fs.ID(), Ino: it.PageIno, Index: it.PageIdx})
	}
	if exists {
		if _, counted := t.lastSeg[id]; !counted {
			t.lastSeg[id] = seg
			t.cachedBySeg[seg]++
		}
	} else if old, counted := t.lastSeg[id]; counted {
		t.cachedBySeg[old]--
		delete(t.lastSeg, id)
	}
}

// TestHarvestAgainstMapReference feeds the tracker and the reference the
// item stream of a random file workload — writes that grow files, reads,
// syncs that relocate blocks, cache drops, deletions and re-creations —
// mixed with arbitrary items no workload would produce, and compares the
// per-segment counts after every step. The tracker must also hold a row
// for exactly the files it counts pages of.
func TestHarvestAgainstMapReference(t *testing.T) {
	const (
		segBlocks = 16
		segs      = 1024 // room for the whole run: no cleaner, so the tracker is the session's only reader
	)
	for seed := int64(1); seed <= 3; seed++ {
		m, err := machine.NewLFS(
			machine.Config{Seed: seed, DeviceBlocks: segBlocks * segs, CachePages: 64, Device: machine.SSD},
			lfs.Config{SegBlocks: segBlocks, ReservedSegs: 2},
		)
		if err != nil {
			t.Fatal(err)
		}
		run(t, m, func(p *sim.Proc) {
			tr, err := Attach(m.Eng, m.Duet, m.Adapter, m.FS)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Detach()
			ref := &refTracker{fs: m.FS, cachedBySeg: make([]int, segs), lastSeg: map[[2]uint64]int{}}
			rng := rand.New(rand.NewSource(seed))
			buf := make([]core.Item, 64)
			applied := int64(0)
			both := func(it core.Item) {
				tr.apply(it)
				ref.apply(it)
				applied++
			}
			for step := 0; step < 500; step++ {
				name := string(rune('a' + rng.Intn(6)))
				f, err := m.FS.Lookup(name)
				op := rng.Intn(10)
				switch {
				case err != nil:
					op = -1
					if f, err = m.FS.Create(name); err != nil {
						t.Fatal(err)
					}
					fallthrough
				case op < 3:
					// Overwrite or extend; files stay under 40 pages.
					off := rng.Int63n(min(f.SizePg, 30) + 1)
					if err := m.FS.Write(p, f.Ino, off, 1+rng.Int63n(8)); err != nil {
						t.Fatal(err)
					}
				case op < 5:
					if err := m.FS.Read(p, f.Ino, rng.Int63n(f.SizePg+1), 1+rng.Int63n(16), storage.ClassNormal, "w"); err != nil {
						t.Fatal(err)
					}
				case op == 5:
					m.FS.Sync(p)
				case op == 6:
					m.Cache.RemoveFile(m.FS.ID(), uint64(f.Ino))
				case op == 7:
					if err := m.FS.Delete(name); err != nil {
						t.Fatal(err)
					}
				default:
					// Arbitrary items: live, deleted and never-created
					// inodes, indexes past the end of the file, any block.
					for i := 0; i < 8; i++ {
						both(core.Item{
							ID:      uint64(rng.Intn(segBlocks * segs)),
							Flags:   []core.Mask{core.StExists, 0, core.EvtFlushed, core.StExists | core.EvtFlushed}[rng.Intn(4)],
							PageIno: uint64(1 + rng.Intn(12)),
							PageIdx: uint64(rng.Intn(48)),
						})
					}
				}
				for {
					n := tr.session.FetchInto(buf)
					for _, it := range buf[:n] {
						both(it)
					}
					if n < len(buf) {
						break
					}
				}
				if !reflect.DeepEqual(tr.cachedBySeg, ref.cachedBySeg) {
					t.Fatalf("seed %d step %d (%s, op %d): per-segment counts diverge", seed, step, name, op)
				}
				if tr.EventsApplied != applied {
					t.Fatalf("seed %d step %d: EventsApplied = %d, %d items applied", seed, step, tr.EventsApplied, applied)
				}
				if err := tr.checkRows(ref.lastSeg); err != nil {
					t.Fatalf("seed %d step %d (%s, op %d): %v", seed, step, name, op, err)
				}
			}
			if applied < 1000 {
				t.Errorf("seed %d: only %d items applied", seed, applied)
			}
		})
	}
}

// checkRows compares the rows with the reference's map cell by cell, and
// checks that no row outlives its last counted page.
func (t *Tracker) checkRows(want map[[2]uint64]int) error {
	cells := 0
	for ino, r := range t.rows {
		n := 0
		for idx, c := range r.cells {
			if c == 0 {
				continue
			}
			n++
			if seg, ok := want[[2]uint64{ino, uint64(idx)}]; !ok || seg != int(c-1) {
				return fmt.Errorf("page (%d, %d) counted under segment %d, reference: %d (counted: %v)", ino, idx, c-1, seg, ok)
			}
		}
		if n != r.n || n == 0 || r.ino != ino {
			return fmt.Errorf("row of inode %d counts %d pages, holds %d", ino, r.n, n)
		}
		cells += n
	}
	if cells != len(want) {
		return fmt.Errorf("rows count %d pages, reference %d", cells, len(want))
	}
	if t.last != nil && t.rows[t.last.ino] != t.last {
		return fmt.Errorf("memo points at a dropped row (inode %d)", t.last.ino)
	}
	return nil
}

// BenchmarkHarvest applies the item stream of the lfs-gc shape: 238 files
// of 384 pages read whole, one after the other, through a 4096-page
// cache, so that a window of counted pages slides through the files. One
// op is one page leaving the window and one entering it, every eighth of
// them flushed to another segment straight away. A file's row is made
// when its first page is counted and dropped with its last, once per
// 384 ops.
func BenchmarkHarvest(b *testing.B) {
	const (
		segBlocks = 512
		segs      = 256
		files     = 238
		filePages = 384
		window    = 4096
	)
	m, err := machine.NewLFS(
		machine.Config{Seed: 1, DeviceBlocks: segBlocks * segs, CachePages: window, Device: machine.SSD},
		lfs.Config{SegBlocks: segBlocks, ReservedSegs: 8},
	)
	if err != nil {
		b.Fatal(err)
	}
	var tr *Tracker
	m.Eng.Go("fill", func(p *sim.Proc) {
		defer m.Eng.Stop()
		for i := 0; i < files; i++ {
			f, err := m.FS.Create(fmt.Sprint("f", i))
			if err == nil {
				err = m.FS.Write(p, f.Ino, 0, filePages)
			}
			if err != nil {
				b.Error(err)
				return
			}
			m.FS.Sync(p)
		}
		tr, err = Attach(m.Eng, m.Duet, m.Adapter, m.FS)
		if err != nil {
			b.Error(err)
		}
	})
	if err := m.Eng.Run(); err != nil || tr == nil {
		b.Fatal("set-up failed: ", err)
	}
	item := func(n int, flags core.Mask, moved int) core.Item {
		file, idx := n/filePages%files, n%filePages
		return core.Item{
			ID:      uint64((file*filePages + idx + moved*segBlocks) % (segBlocks * segs)),
			Flags:   flags,
			PageIno: uint64(1 + file), // lfs numbers inodes from 1 in creation order
			PageIdx: uint64(idx),
		}
	}
	step := func(i int) {
		tr.apply(item(i, 0, 0))
		tr.apply(item(i+window, core.StExists, 0))
		if i%8 == 7 {
			tr.apply(item(i+window, core.StExists|core.EvtFlushed, 1))
		}
	}
	for i := -window; i < 0; i++ {
		tr.apply(item(i+window, core.StExists, 0))
	}
	for i := 0; i < files*filePages; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(files*filePages + i)
	}
	b.StopTimer()
	if len(tr.rows) > window/filePages+2 {
		b.Fatalf("%d rows for a window of %d pages", len(tr.rows), window)
	}
	total := 0
	for _, c := range tr.cachedBySeg {
		total += c
	}
	if total != window {
		b.Fatalf("segments count %d cached pages, the window holds %d", total, window)
	}
}
