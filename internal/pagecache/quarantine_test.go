package pagecache

import (
	"testing"

	"duet/internal/sim"
	"duet/internal/storage"
)

// faultBackend scripts one outcome per WritebackPages call: errs[i] is
// the error, persist[i] the count reported as durably written (-1 = all).
// Calls beyond the script succeed in full. always, when non-nil, overrides
// the script and fails every call with no progress.
type faultBackend struct {
	errs    []error
	persist []int
	always  error
	calls   int
}

func (b *faultBackend) WritebackPages(p *sim.Proc, ino uint64, indices []uint64) (int, error) {
	i := b.calls
	b.calls++
	if b.always != nil {
		return 0, b.always
	}
	if i >= len(b.errs) || b.errs[i] == nil {
		return len(indices), nil
	}
	n := len(indices)
	if i < len(b.persist) && b.persist[i] >= 0 {
		n = b.persist[i]
	}
	return n, b.errs[i]
}

// quarantined reports whether the page is cached and held out of
// writeback after a permanent write fault.
func (c *Cache) quarantined(k PageKey) bool {
	f, ok := c.page(k)
	return ok && f.state[k.Index]&pgQuar != 0
}

func newFaultHarness(capacity int, b *faultBackend) *harness {
	e := sim.New(1)
	c := New(e, DefaultConfig(capacity))
	c.RegisterFS(1, b)
	h := newRecordingHook()
	c.AddHook(h)
	return &harness{e: e, c: c, hook: h}
}

func TestPermanentFaultQuarantinesAndRequeues(t *testing.T) {
	fb := &faultBackend{errs: []error{storage.ErrWriteFault}, persist: []int{0}}
	h := newFaultHarness(8, fb)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1)
		h.c.MarkDirty(key(1, 0), 2)
		if err := h.c.SyncFile(p, 1, 1); err == nil {
			t.Fatal("SyncFile should report the write fault")
		}
		if !h.c.quarantined(key(1, 0)) {
			t.Fatal("page not quarantined after permanent fault")
		}
		if _, dirty, _ := h.c.Peek(key(1, 0)); !dirty {
			t.Error("quarantined page must keep its dirty data")
		}
		if h.c.DirtyLen() != 0 {
			t.Errorf("DirtyLen = %d: quarantined page still on writeback path", h.c.DirtyLen())
		}
		if h.c.QuarantinedLen() != 1 {
			t.Errorf("QuarantinedLen = %d, want 1", h.c.QuarantinedLen())
		}

		// Further syncs must skip the quarantined page entirely.
		if err := h.c.SyncFile(p, 1, 1); err != nil {
			t.Errorf("sync with only quarantined pages: %v", err)
		}
		if fb.calls != 1 {
			t.Errorf("backend called %d times; quarantined page retried", fb.calls)
		}

		// Requeue (fault repaired): page returns to the writeback set and the
		// next sync persists it.
		if !h.c.Requeue(key(1, 0)) {
			t.Fatal("Requeue failed")
		}
		if h.c.quarantined(key(1, 0)) || h.c.DirtyLen() != 1 {
			t.Error("requeued page not back on the writeback path")
		}
		if err := h.c.SyncFile(p, 1, 1); err != nil {
			t.Fatalf("sync after requeue: %v", err)
		}
		if _, dirty, _ := h.c.Peek(key(1, 0)); dirty {
			t.Error("page still dirty after successful writeback")
		}
	})
	st := h.c.Stats()
	if st.WritebackErrors != 1 || st.QuarantineEvents != 1 || st.RequeuedPages != 1 {
		t.Errorf("stats = errors %d, quarantined %d, requeued %d; want 1/1/1",
			st.WritebackErrors, st.QuarantineEvents, st.RequeuedPages)
	}
	if st.LostPages != 0 {
		t.Errorf("LostPages = %d, want 0", st.LostPages)
	}
}

// FileDirty answers from counters, not a walk: it must agree with "some
// resident page of the file is dirty" through every state a file's pages
// pass, quarantine included (quarantined pages are dirty, but the index's
// dirty count leaves them out).
func TestFileDirty(t *testing.T) {
	fb := &faultBackend{errs: []error{nil, storage.ErrWriteFault}, persist: []int{-1, 0}}
	h := newFaultHarness(16, fb)
	h.in(t, func(p *sim.Proc) {
		check := func(what string, ino uint64, want bool) {
			t.Helper()
			if got := h.c.FileDirty(1, ino); got != want {
				t.Errorf("%s: FileDirty(ino %d) = %v, want %v", what, ino, got, want)
			}
			walked := false
			h.c.IterateFile(1, ino, func(_ PageKey, dirty bool) bool {
				walked = walked || dirty
				return true
			})
			if walked != want {
				t.Errorf("%s: a walk of ino %d finds dirty = %v, want %v", what, ino, walked, want)
			}
		}
		check("no resident page", 1, false)
		for i := uint64(0); i < 3; i++ {
			h.c.Insert(p, key(1, i), 1)
		}
		check("clean file", 1, false)
		h.c.MarkDirty(key(1, 1), 2)
		check("dirty file", 1, true)
		if h.c.FileDirty(2, 1) {
			t.Error("a dirty page of fs 1 made the same inode of fs 2 dirty")
		}
		if err := h.c.SyncFile(p, 1, 1); err != nil {
			t.Fatal(err)
		}
		check("cleaned by writeback", 1, false)

		for i := uint64(0); i < 2; i++ {
			h.c.Insert(p, key(2, i), 1)
			h.c.MarkDirty(key(2, i), 2)
		}
		if err := h.c.SyncFile(p, 1, 2); err == nil {
			t.Fatal("SyncFile should report the write fault")
		}
		if h.c.QuarantinedLen() != 2 || h.c.DirtyLen() != 0 {
			t.Fatalf("QuarantinedLen %d, DirtyLen %d: want both pages quarantined", h.c.QuarantinedLen(), h.c.DirtyLen())
		}
		check("only quarantined pages", 2, true)
		check("a neighbour of a quarantined file", 1, false)
		for _, k := range h.c.Quarantined(nil) {
			h.c.Requeue(k)
		}
		check("requeued", 2, true)
		if err := h.c.SyncFile(p, 1, 2); err != nil {
			t.Fatal(err)
		}
		check("requeued and written back", 2, false)
	})
}

func TestTransientFaultRedirtiesForRetry(t *testing.T) {
	fb := &faultBackend{errs: []error{storage.ErrTransient}, persist: []int{0}}
	h := newFaultHarness(8, fb)
	h.in(t, func(p *sim.Proc) {
		h.c.Insert(p, key(1, 0), 1)
		h.c.MarkDirty(key(1, 0), 2)
		if err := h.c.SyncFile(p, 1, 1); err == nil {
			t.Fatal("SyncFile should report the transient fault")
		}
		if h.c.quarantined(key(1, 0)) {
			t.Error("transient fault must not quarantine")
		}
		if _, dirty, _ := h.c.Peek(key(1, 0)); !dirty || h.c.DirtyLen() != 1 {
			t.Error("page should stay dirty for retry")
		}
		// Retry succeeds (script exhausted).
		if err := h.c.SyncFile(p, 1, 1); err != nil {
			t.Fatalf("retry: %v", err)
		}
		if _, dirty, _ := h.c.Peek(key(1, 0)); dirty {
			t.Error("page dirty after successful retry")
		}
	})
}

func TestPartialPersistCleansPrefixOnly(t *testing.T) {
	// The backend persists 2 of 4 pages then fails transiently: the
	// persisted prefix must come clean, the remainder stays dirty.
	fb := &faultBackend{errs: []error{storage.ErrTransient}, persist: []int{2}}
	h := newFaultHarness(8, fb)
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 4; i++ {
			h.c.Insert(p, key(1, i), 1)
			h.c.MarkDirty(key(1, i), 2)
		}
		if err := h.c.SyncFile(p, 1, 1); err == nil {
			t.Fatal("SyncFile should report the fault")
		}
		for i := uint64(0); i < 4; i++ {
			_, dirty, ok := h.c.Peek(key(1, i))
			if !ok {
				t.Fatalf("page %d missing", i)
			}
			wantDirty := i >= 2
			if dirty != wantDirty {
				t.Errorf("page %d dirty = %v, want %v", i, dirty, wantDirty)
			}
		}
		if h.c.DirtyLen() != 2 {
			t.Errorf("DirtyLen = %d, want 2", h.c.DirtyLen())
		}
	})
}

func TestForcedEvictionOfQuarantinedPageCountsLost(t *testing.T) {
	// Every writeback fails permanently and the cache is saturated with
	// dirty pages: reclaim has no clean victim, quarantines the lot, and
	// is forced to drop one page's data — which must be counted, never
	// silently swallowed.
	fb := &faultBackend{always: storage.ErrWriteFault}
	h := newFaultHarness(2, fb)
	h.in(t, func(p *sim.Proc) {
		for i := uint64(0); i < 2; i++ {
			h.c.Insert(p, key(1, i), 1)
			h.c.MarkDirty(key(1, i), 2)
		}
		h.c.Insert(p, key(1, 9), 1) // forces eviction
		if h.c.Len() != 2 {
			t.Errorf("Len = %d, want 2", h.c.Len())
		}
	})
	st := h.c.Stats()
	if st.LostPages != 1 {
		t.Errorf("LostPages = %d, want 1", st.LostPages)
	}
	if st.QuarantineEvents == 0 {
		t.Error("no pages quarantined on the way down")
	}
}
