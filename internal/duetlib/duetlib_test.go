package duetlib

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"duet/internal/core"
	"duet/internal/pagecache"
	"duet/internal/sim"
)

func TestPrioQueueBasics(t *testing.T) {
	q := NewPrioQueue()
	if _, _, ok := q.DequeueMax(); ok {
		t.Error("dequeue on empty succeeded")
	}
	q.Update(1, 10)
	q.Update(2, 30)
	q.Update(3, 20)
	if q.Len() != 3 {
		t.Errorf("Len = %d", q.Len())
	}
	if id, prio, ok := q.PeekMax(); !ok || id != 2 || prio != 30 {
		t.Errorf("PeekMax = %d,%f,%v", id, prio, ok)
	}
	var order []uint64
	for {
		id, _, ok := q.DequeueMax()
		if !ok {
			break
		}
		order = append(order, id)
	}
	want := []uint64{2, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPrioQueueUpdateMoves(t *testing.T) {
	q := NewPrioQueue()
	q.Update(1, 10)
	q.Update(2, 20)
	q.Update(1, 30) // promote
	if id, _, _ := q.PeekMax(); id != 1 {
		t.Errorf("PeekMax = %d after promote", id)
	}
	if p, ok := q.Priority(1); !ok || p != 30 {
		t.Errorf("Priority = %f,%v", p, ok)
	}
	q.Update(1, 30) // no-op update
	if q.Len() != 2 {
		t.Errorf("Len = %d after no-op", q.Len())
	}
	if !q.Remove(1) {
		t.Error("Remove failed")
	}
	if q.Remove(1) {
		t.Error("double Remove succeeded")
	}
	if id, _, _ := q.PeekMax(); id != 2 {
		t.Errorf("PeekMax = %d after remove", id)
	}
}

func TestPrioQueueTiesAscendingID(t *testing.T) {
	q := NewPrioQueue()
	for _, id := range []uint64{5, 3, 9} {
		q.Update(id, 1.0)
	}
	var order []uint64
	for {
		id, _, ok := q.DequeueMax()
		if !ok {
			break
		}
		order = append(order, id)
	}
	want := []uint64{3, 5, 9}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestQuickPrioQueueAgainstSort property: dequeuing everything yields
// items sorted by (priority desc, id asc), with the last Update winning.
func TestQuickPrioQueueAgainstSort(t *testing.T) {
	type op struct {
		ID   uint8
		Prio uint8
	}
	f := func(ops []op) bool {
		q := NewPrioQueue()
		model := map[uint64]float64{}
		for _, o := range ops {
			q.Update(uint64(o.ID), float64(o.Prio))
			model[uint64(o.ID)] = float64(o.Prio)
		}
		type kv struct {
			id   uint64
			prio float64
		}
		var want []kv
		for id, p := range model {
			want = append(want, kv{id, p})
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].prio != want[b].prio {
				return want[a].prio > want[b].prio
			}
			return want[a].id < want[b].id
		})
		for _, w := range want {
			id, prio, ok := q.DequeueMax()
			if !ok || id != w.id || prio != w.prio {
				return false
			}
		}
		_, _, ok := q.DequeueMax()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFileTrackerApply(t *testing.T) {
	tr := NewFileTracker()
	changed := tr.Apply([]core.Item{
		{ID: 7, PageIdx: 0, Flags: core.StExists},
		{ID: 7, PageIdx: 1, Flags: core.StExists | core.StModified},
		{ID: 9, PageIdx: 0, Flags: core.StExists},
	})
	if len(changed) != 2 || changed[0] != 7 || changed[1] != 9 {
		t.Errorf("changed = %v", changed)
	}
	if tr.CachedPages(7) != 2 || tr.DirtyPages(7) != 1 {
		t.Errorf("file 7: cached=%d dirty=%d", tr.CachedPages(7), tr.DirtyPages(7))
	}
	// Page eviction clears residency.
	tr.Apply([]core.Item{{ID: 7, PageIdx: 1, Flags: 0}})
	if tr.CachedPages(7) != 1 || tr.DirtyPages(7) != 0 {
		t.Errorf("after evict: cached=%d dirty=%d", tr.CachedPages(7), tr.DirtyPages(7))
	}
	tr.Forget(7)
	if tr.CachedPages(7) != 0 {
		t.Error("Forget did not clear")
	}
	files := tr.Files()
	if len(files) != 1 || files[0] != 9 {
		t.Errorf("Files = %v", files)
	}
}

func TestFileTrackerIdempotent(t *testing.T) {
	tr := NewFileTracker()
	it := core.Item{ID: 1, PageIdx: 5, Flags: core.StExists}
	tr.Apply([]core.Item{it})
	tr.Apply([]core.Item{it})
	if tr.CachedPages(1) != 1 {
		t.Errorf("CachedPages = %d after duplicate events", tr.CachedPages(1))
	}
}

// mapTracker is the nested-map tracker FileTracker replaced, kept as the
// reference model for TestFileTrackerMatchesMapModel.
type mapTracker struct {
	pages, dirty map[uint64]map[uint64]bool
}

func (m *mapTracker) apply(items []core.Item) []uint64 {
	mark := func(sets map[uint64]map[uint64]bool, ino, idx uint64, on bool) {
		s := sets[ino]
		if on {
			if s == nil {
				s = map[uint64]bool{}
				sets[ino] = s
			}
			s[idx] = true
			return
		}
		delete(s, idx)
		if len(s) == 0 {
			delete(sets, ino)
		}
	}
	changed := map[uint64]bool{}
	for _, it := range items {
		mark(m.pages, it.ID, it.PageIdx, it.Flags.Has(core.StExists))
		mark(m.dirty, it.ID, it.PageIdx, it.Flags.Has(core.StModified))
		changed[it.ID] = true
	}
	out := make([]uint64, 0, len(changed))
	for ino := range changed {
		out = append(out, ino)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func (m *mapTracker) files() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for ino := range m.pages {
		out = append(out, ino)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestFileTrackerMatchesMapModel drives FileTracker and the nested-map
// tracker with the same random item streams (runs of one file's pages,
// every flag combination, pages past the end of a file's bitset, and
// Forget between batches): Apply's inodes, Files and every count agree,
// and the tracker holds exactly the files with a resident or dirty page.
func TestFileTrackerMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	flags := []core.Mask{0, core.StExists, core.StModified, core.StExists | core.StModified}
	for round := 0; round < 200; round++ {
		tr := NewFileTracker()
		model := &mapTracker{pages: map[uint64]map[uint64]bool{}, dirty: map[uint64]map[uint64]bool{}}
		for batch := 0; batch < 20; batch++ {
			var items []core.Item
			for n := rng.Intn(64); len(items) < n; {
				ino := uint64(rng.Intn(6))
				for run := 1 + rng.Intn(4); run > 0; run-- {
					idx := uint64(rng.Intn(4)) // few pages, so files empty out
					if rng.Intn(8) == 0 {
						idx = uint64(rng.Intn(300))
					}
					items = append(items, core.Item{ID: ino, PageIdx: idx, Flags: flags[rng.Intn(len(flags))]})
				}
			}
			got, want := tr.Apply(items), model.apply(items)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d batch %d: Apply = %v, want %v", round, batch, got, want)
			}
			if rng.Intn(4) == 0 {
				ino := uint64(rng.Intn(6))
				tr.Forget(ino)
				delete(model.pages, ino)
				delete(model.dirty, ino)
			}
			if got, want := tr.Files(), model.files(); !slices.Equal(got, want) {
				t.Fatalf("round %d batch %d: Files = %v, want %v", round, batch, got, want)
			}
			for ino := uint64(0); ino < 6; ino++ {
				if tr.CachedPages(ino) != len(model.pages[ino]) || tr.DirtyPages(ino) != len(model.dirty[ino]) {
					t.Fatalf("round %d batch %d: inode %d cached %d dirty %d, want %d and %d", round, batch, ino,
						tr.CachedPages(ino), tr.DirtyPages(ino), len(model.pages[ino]), len(model.dirty[ino]))
				}
				_, held := tr.files[ino]
				if want := model.pages[ino] != nil || model.dirty[ino] != nil; held != want {
					t.Fatalf("round %d batch %d: tracker holds inode %d: %v, want %v", round, batch, ino, held, want)
				}
			}
		}
	}
}

// flatFS is a filesystem stub: every inode is a file under directory 1.
type flatFS struct{}

func (flatFS) FSID() pagecache.FSID                         { return 1 }
func (flatFS) Fibmap(ino, idx uint64) (int64, bool)         { return int64(ino<<12 | idx), true }
func (flatFS) FibmapRun(ino, idx, _ uint64) (int64, uint64) { return int64(ino<<12 | idx), 1 }
func (flatFS) Within(ino, root uint64) (string, bool)       { return "", true }
func (flatFS) IsDir(ino uint64) bool                        { return ino == 1 }
func (flatFS) DeviceBlocks() int64                          { return 1 << 20 }

// TestPrioUpdateForgetsFilesPrioMarksDone: a file that prio marks done
// (as tasks do with non-targets) leaves nothing in the tracker, since
// its later events are suppressed and would never remove its pages.
func TestPrioUpdateForgetsFilesPrioMarksDone(t *testing.T) {
	d := core.New(pagecache.New(sim.New(1), pagecache.DefaultConfig(64)))
	d.AttachFS(flatFS{})
	s, err := d.RegisterFile(flatFS{}, 1, core.StExists)
	if err != nil {
		t.Fatal(err)
	}
	for _, ino := range []uint64{7, 8} {
		for idx := uint64(0); idx < 3; idx++ {
			d.PageEvent(pagecache.EventAdded, pagecache.PageKey{FS: 1, Ino: ino, Index: idx}, false)
		}
	}
	tr, q := NewFileTracker(), NewPrioQueue()
	n := PrioUpdate(s, tr, q, func(ino uint64, t *FileTracker) float64 {
		if ino == 7 {
			s.SetDone(ino) // a non-target
			return 0
		}
		return float64(t.CachedPages(ino))
	})
	if n != 6 {
		t.Fatalf("PrioUpdate fetched %d items, want 6", n)
	}
	if got := tr.CachedPages(7); got != 0 {
		t.Errorf("tracker holds %d pages of the file prio marked done", got)
	}
	if files := tr.Files(); len(files) != 1 || files[0] != 8 {
		t.Errorf("tracked files = %v, want [8]", files)
	}
	if id, _, ok := q.DequeueMax(); !ok || id != 8 || q.Len() != 0 {
		t.Errorf("queue held %d (ok %v) and %d more, want only 8", id, ok, q.Len())
	}
}
