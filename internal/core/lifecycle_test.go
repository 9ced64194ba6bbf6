package core

import (
	"fmt"
	"math/rand"
	"testing"

	"duet/internal/cowfs"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Tests of the descriptor lifecycle: a descriptor lives only while a
// session has it queued or holds state for its cached page.

// TestReusedSlotStartsClean closes a state session that has reported a
// page and opens another in the same slot: the page's next Added is new
// to the newcomer, whether or not another session keeps the descriptor.
func TestReusedSlotStartsClean(t *testing.T) {
	for _, bystander := range []bool{false, true} {
		t.Run(fmt.Sprintf("bystander=%v", bystander), func(t *testing.T) {
			d := New(pagecache.New(sim.New(1), pagecache.DefaultConfig(64)))
			fs := &moveFS{outside: map[uint64]bool{}}
			d.AttachFS(fs)
			var other *Session
			if bystander {
				other, _ = d.RegisterFile(fs, 1, StExists)
			}
			key := pagecache.PageKey{FS: 1, Ino: 7, Index: 3}
			first, _ := d.RegisterFile(fs, 1, StExists)
			d.PageEvent(pagecache.EventAdded, key, false)
			drain(first)
			if other != nil {
				drain(other)
			}
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}
			// Added again, as a page removed while no session was
			// listening and read back would be.
			next, _ := d.RegisterFile(fs, 1, StExists)
			if next.ID() != first.ID() {
				t.Fatalf("new session in slot %d, want the closed slot %d", next.ID(), first.ID())
			}
			d.PageEvent(pagecache.EventAdded, key, false)
			if items := drain(next); len(items) != 1 || !items[0].Flags.Has(StExists) {
				t.Errorf("reused slot fetched %v, want one Exists item", items)
			}
			if _, err := d.table.check(&d.stats); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDonePageLeavesNoDescriptor fetches each page once, marks its block
// done and evicts it: the eviction is suppressed, and must still take the
// session's state for the page with it.
func TestDonePageLeavesNoDescriptor(t *testing.T) {
	d := New(pagecache.New(sim.New(1), pagecache.DefaultConfig(64)))
	fs := &moveFS{}
	d.AttachFS(fs)
	s, _ := d.RegisterBlock(fs, StExists)
	for i := uint64(0); i < 1000; i++ {
		key := pagecache.PageKey{FS: 1, Ino: 2 + i/64, Index: i % 64}
		d.PageEvent(pagecache.EventAdded, key, false)
		items := drain(s)
		if len(items) != 1 {
			t.Fatalf("page %d: fetched %d items, want 1", i, len(items))
		}
		s.SetDone(items[0].ID)
		d.PageEvent(pagecache.EventRemoved, key, false)
	}
	if got := d.Stats().CurDescs; got != 0 {
		t.Errorf("CurDescs = %d after every done page left the cache, want 0", got)
	}
	if _, err := d.table.check(&d.stats); err != nil {
		t.Error(err)
	}
}

// TestDescriptorsBoundedByCacheAndQueues reads files through a small
// cache, ten times its size and more, while a block session and a file
// session, both subscribed to Exists, mark done everything they fetch.
// After every read and every fetch, the live descriptors are at most the
// cached pages plus the queued ones (§4.2's bound).
func TestDescriptorsBoundedByCacheAndQueues(t *testing.T) {
	const (
		cachePages = 64
		files      = 96
		filePages  = 8
		reads      = 3000
	)
	v := newEnv(cachePages)
	v.fs.MkdirAll("/data")
	var inos []cowfs.Ino
	for i := 0; i < files; i++ {
		inos = append(inos, v.mustPopulate(t, fmt.Sprintf("/data/f%03d", i), filePages).Ino)
	}
	data, _ := v.fs.Lookup("/data")
	rng := rand.New(rand.NewSource(1))
	v.in(t, func(p *sim.Proc) {
		blk, _ := v.d.RegisterBlock(v.ad, StExists)
		file, _ := v.d.RegisterFile(v.ad, uint64(data.Ino), StExists)
		sessions := []*Session{blk, file}
		check := func(when string, i int) {
			t.Helper()
			bound := int64(v.cache.Len())
			for _, s := range sessions {
				bound += int64(s.QueueLen())
			}
			if got := v.d.Stats().CurDescs; got > bound {
				t.Fatalf("%s %d: CurDescs = %d > cached pages %d + queued %d",
					when, i, got, v.cache.Len(), bound-int64(v.cache.Len()))
			}
		}
		buf := make([]Item, 8)
		pagesRead := 0
		for i := 0; i < reads; i++ {
			n := int64(1 + rng.Intn(4))
			off := rng.Int63n(filePages - n + 1)
			if err := v.fs.Read(p, inos[rng.Intn(files)], off, n, storage.ClassNormal, "w"); err != nil {
				t.Fatal(err)
			}
			pagesRead += int(n)
			check("read", i)
			s := sessions[i%2]
			for _, it := range buf[:s.FetchInto(buf[:1+rng.Intn(len(buf))])] {
				s.SetDone(it.ID)
			}
			check("fetch", i)
		}
		if pagesRead < 10*cachePages {
			t.Fatalf("read %d pages through a %d-page cache: no churn", pagesRead, cachePages)
		}
		if v.d.Stats().PeakDescs == 0 {
			t.Fatal("no descriptor was ever allocated")
		}
	})
}
