package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"duet/internal/pagecache"
	"duet/internal/sim"
)

// check verifies the table's structure: every descriptor sits at
// descs[key.idx] of the fileDescs the file table maps its file to, the
// per-file counts add up to Stats.CurDescs, the memo points at a live
// fileDescs, the file remembered absent is absent, and pooled ones are
// empty and within the pool's budget. It returns the descriptors by key.
func (t *descTable) check(st *Stats) (map[itemKey]*itemDesc, error) {
	all := map[itemKey]*itemDesc{}
	for _, k := range t.byFile.AppendKeys(nil) {
		fd := t.byFile.Get(k)
		if fd.key != k {
			return nil, fmt.Errorf("file %v is filed under %v", fd.key, k)
		}
		n := 0
		for idx, desc := range fd.descs[:cap(fd.descs)] {
			if desc == nil {
				continue
			}
			if idx >= len(fd.descs) || desc.key != (itemKey{fd.key.FS, fd.key.Ino, uint64(idx)}) {
				return nil, fmt.Errorf("file %v slot %d (len %d) holds descriptor %v", fd.key, idx, len(fd.descs), desc.key)
			}
			all[desc.key] = desc
			n++
		}
		if n != fd.n || n == 0 {
			return nil, fmt.Errorf("file %v: %d descriptors, counted %d", fd.key, n, fd.n)
		}
	}
	if int64(len(all)) != st.CurDescs || st.DescAllocs-st.DescFrees != st.CurDescs || st.PeakDescs < st.CurDescs {
		return nil, fmt.Errorf("%d descriptors in the table, stats %+v", len(all), *st)
	}
	if fd := t.last; fd != nil && t.byFile.Get(fd.key) != fd {
		return nil, fmt.Errorf("memo points at a released fileDescs (last key %v)", fd.key)
	}
	if t.noneSet && t.byFile.Get(t.none) != nil {
		return nil, fmt.Errorf("file %v is remembered absent but has an entry", t.none)
	}
	pooled := 0
	for _, fd := range t.fdFree {
		for _, desc := range fd.descs[:cap(fd.descs)] {
			if desc != nil {
				return nil, fmt.Errorf("pooled fileDescs (last key %v) still holds %v", fd.key, desc.key)
			}
		}
		if fd.n != 0 || len(fd.descs) != 0 {
			return nil, fmt.Errorf("pooled fileDescs (last key %v) is not empty", fd.key)
		}
		pooled += cap(fd.descs)
	}
	if pooled != t.fdFreeCap || pooled > t.poolBudget {
		return nil, fmt.Errorf("pool holds %d entries, accounted %d, budget %d", pooled, t.fdFreeCap, t.poolBudget)
	}
	return all, nil
}

// fileKeys returns the keys of one file's descriptors in index order.
func fileKeys(all map[itemKey]*itemDesc, fs pagecache.FSID, ino uint64) []itemKey {
	var out []itemKey
	for k := range all {
		if k.fs == fs && k.ino == ino {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// sparseIdx draws page indexes that make indexes sparse: mostly low, some
// far up, in no order.
func sparseIdx(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return uint64(300 + rng.Intn(8))
	case 1:
		return uint64(40 + rng.Intn(8))
	}
	return uint64(rng.Intn(8))
}

// moveFS is a filesystem stub for file sessions: every inode is a file
// under the directory 1 unless it has been moved outside.
type moveFS struct{ outside map[uint64]bool }

func (f *moveFS) FSID() pagecache.FSID                 { return 1 }
func (f *moveFS) Fibmap(ino, idx uint64) (int64, bool) { return int64(ino<<12 | idx), true }

// FibmapRun maps a file's first 4096 pages to consecutive blocks and
// answers one page at a time past them, where ino<<12|idx is not
// consecutive.
func (f *moveFS) FibmapRun(ino, idx, n uint64) (int64, uint64) {
	if idx >= 1<<12 {
		return int64(ino<<12 | idx), 1
	}
	return int64(ino<<12 | idx), min(n, 1<<12-idx)
}
func (f *moveFS) IsDir(ino uint64) bool { return ino == 1 }
func (f *moveFS) DeviceBlocks() int64   { return 1 << 20 }
func (f *moveFS) Within(ino, root uint64) (string, bool) {
	return "", !f.outside[ino]
}

// TestDescTableAgainstMap checks the descriptor table against a
// map[itemKey] model, first on its own and then under sessions.
func TestDescTableAgainstMap(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		// Random getOrCreate/get/free: the table and the map must hold the
		// same descriptors under the same keys, each file's in index
		// order, and count them alike.
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tab := descTable{poolBudget: 64}
			var st, want Stats
			model := map[itemKey]*itemDesc{}
			for step := 0; step < 4000; step++ {
				k := itemKey{1, uint64(1 + rng.Intn(6)), sparseIdx(rng)}
				switch op := rng.Intn(8); {
				case op < 4:
					desc := tab.getOrCreate(k, &st)
					if prev, ok := model[k]; ok && prev != desc {
						t.Fatalf("seed %d step %d: getOrCreate(%v) replaced a live descriptor", seed, step, k)
					} else if !ok {
						model[k] = desc
						want.DescAllocs++
						want.CurDescs++
						want.PeakDescs = max(want.PeakDescs, want.CurDescs)
					}
					if desc.key != k {
						t.Fatalf("seed %d step %d: getOrCreate(%v) returned %v", seed, step, k, desc.key)
					}
				case op < 7:
					// Free one of the file's descriptors, often the last.
					if keys := fileKeys(model, k.fs, k.ino); len(keys) > 0 {
						k = keys[rng.Intn(len(keys))]
						tab.free(model[k], &st)
						delete(model, k)
						want.DescFrees++
						want.CurDescs--
					}
				}
				if got := tab.get(k); got != model[k] {
					t.Fatalf("seed %d step %d: get(%v) = %p, model %p", seed, step, k, got, model[k])
				}
				if st != want {
					t.Fatalf("seed %d step %d: stats %+v, model %+v", seed, step, st, want)
				}
				all, err := tab.check(&st)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if len(all) != len(model) {
					t.Fatalf("seed %d step %d: table holds %d descriptors, model %d", seed, step, len(all), len(model))
				}
				for k, desc := range model {
					if all[k] != desc {
						t.Fatalf("seed %d step %d: %v: table %p, model %p", seed, step, k, all[k], desc)
					}
				}
				// The walk SetDone and move handling take.
				if fd := tab.file(pagecache.FileKey{FS: k.fs, Ino: k.ino}); fd != nil {
					var walk []itemKey
					for _, desc := range fd.descs {
						if desc != nil {
							walk = append(walk, desc.key)
						}
					}
					if want := fileKeys(model, k.fs, k.ino); fmt.Sprint(walk) != fmt.Sprint(want) {
						t.Fatalf("seed %d step %d: file walk %v, model %v", seed, step, walk, want)
					}
				}
			}
		}
	})

	t.Run("sessions", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			ops := make([]byte, 8000)
			rand.New(rand.NewSource(seed)).Read(ops)
			runSessionModel(t, ops)
		}
	})

	t.Run("SetDone frees the last descriptor mid-loop", func(t *testing.T) {
		// Descriptors that SetDone brings up to date and nobody else
		// needs are freed inside its walk, and freeing the file's last
		// one releases the fileDescs being walked. Sessions free such
		// descriptors as soon as they reach that state, so the test
		// builds it by hand: pages reported as cached and gone since,
		// with the news not queued yet.
		d := New(pagecache.New(sim.New(1), pagecache.DefaultConfig(64)))
		fs := &moveFS{outside: map[uint64]bool{}}
		d.AttachFS(fs)
		s, _ := d.RegisterFile(fs, 1, StExists)
		for _, idx := range []uint64{300, 3, 41} {
			d.table.getOrCreate(itemKey{1, 7, idx}, &d.stats).flags[s.id] = fRepExists
		}
		s.SetDone(7)
		if got := d.Stats().CurDescs; got != 0 || d.table.file(pagecache.FileKey{FS: 1, Ino: 7}) != nil {
			t.Errorf("CurDescs = %d after SetDone, file still indexed: %v", got, d.table.file(pagecache.FileKey{FS: 1, Ino: 7}) != nil)
		}
		if _, err := d.table.check(&d.stats); err != nil {
			t.Error(err)
		}
	})
}

// FuzzSessionModel runs the session model on arbitrary op streams.
func FuzzSessionModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(runSessionModel)
}

// opStream hands out a fuzz input's bytes as small numbers; an exhausted
// stream gives zeros.
type opStream []byte

func (s *opStream) intn(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0]) % n
	*s = (*s)[1:]
	return v
}

// pageIdx draws indexes the way sparseIdx does.
func (s *opStream) pageIdx() uint64 {
	v := uint64(s.intn(256))
	switch v % 4 {
	case 0:
		return 300 + v/4%8
	case 1:
		return 40 + v/4%8
	}
	return v / 4 % 8
}

// runSessionModel drives three sessions (two file sessions, one of them
// with state, and a block session with state) through the events,
// fetches, done-marking, renames and session turnover an op stream
// spells out, keeping its own model of which pages are cached. After
// every operation the table must pass check, no descriptor may carry a
// closed slot's bits, and every descriptor must be queued for a session
// or hold an active session's state for a cached page. SetDone, Close,
// the suppressed Removed of a done page and the move-out path are
// predicted from the descriptors as they were before the call.
func runSessionModel(t *testing.T, ops []byte) {
	in := opStream(ops)
	d := New(pagecache.New(sim.New(1), pagecache.DefaultConfig(64)))
	d.table.poolBudget = 64
	fs := &moveFS{outside: map[uint64]bool{}}
	d.AttachFS(fs)
	masks := []Mask{EventBits, StExists | StModified, EvtAdded | EvtFlushed | StExists}
	sessions := make([]*Session, len(masks))
	open := func(i int) {
		var err error
		if i == 2 {
			sessions[i], err = d.RegisterBlock(fs, masks[i])
		} else {
			sessions[i], err = d.RegisterFile(fs, 1, masks[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range masks {
		open(i)
	}
	cached := map[itemKey]bool{}
	// itemOf is the item a session tracks a page under.
	itemOf := func(s *Session, k itemKey) uint64 {
		if s.kind == blockTask {
			blk, _ := fs.Fibmap(k.ino, k.idx)
			return uint64(blk)
		}
		return k.ino
	}
	neededBy := func(desc *itemDesc, sessions []*Session) bool {
		for _, s := range sessions {
			if needsDesc(desc.flags[s.id], s.mask) {
				return true
			}
		}
		return false
	}
	invariants := func(all map[itemKey]*itemDesc) error {
		for k, desc := range all {
			for slot, s := range d.sessions {
				if s == nil && (desc.flags[slot] != 0 || desc.queued&(1<<uint(slot)) != 0) {
					return fmt.Errorf("%v carries closed slot %d: flags %08b, queued %b", k, slot, desc.flags[slot], desc.queued)
				}
			}
			if desc.queued == 0 && (!cached[k] || !neededBy(desc, d.active)) {
				return fmt.Errorf("%v (cached %v) is neither queued nor holding a session's state for a cached page", k, cached[k])
			}
		}
		return nil
	}
	upToDate := func(f uint8) uint8 {
		f &^= fEventBits
		cur := (f >> curShift) & twoStateBit
		return f&^(twoStateBit<<repShift) | cur<<repShift
	}
	buf := make([]Item, 8)
	for step := 0; len(in) > 0; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
		}
		before, err := d.table.check(&d.stats)
		if err != nil {
			fail("%v", err)
		}
		if err := invariants(before); err != nil {
			fail("%v", err)
		}
		flagsBefore := map[itemKey][MaxSessions]uint8{}
		for k, desc := range before {
			flagsBefore[k] = desc.flags
		}
		ino := uint64(2 + in.intn(5))
		switch op := in.intn(16); {
		case op < 8:
			ev := pagecache.EventType(in.intn(4))
			k := itemKey{1, ino, in.pageIdx()}
			// A page leaving the cache while its item is done takes each
			// state session's byte with it.
			var forget []*Session
			if ev == pagecache.EventRemoved {
				for _, s := range sessions {
					if s.mask&StateBits != 0 && s.CheckDone(itemOf(s, k)) {
						forget = append(forget, s)
					}
				}
			}
			d.PageEvent(ev, pagecache.PageKey{FS: 1, Ino: k.ino, Index: k.idx}, ev == pagecache.EventDirtied)
			switch ev {
			case pagecache.EventAdded, pagecache.EventDirtied:
				cached[k] = true
			case pagecache.EventRemoved:
				delete(cached, k)
			}
			for _, s := range forget {
				if desc := d.table.get(k); desc != nil && desc.flags[s.id] != 0 {
					fail("Removed of %v, done for session %d, left flags %08b", k, s.id, desc.flags[s.id])
				}
			}
		case op < 11:
			sessions[in.intn(len(sessions))].FetchInto(buf[:1+in.intn(len(buf))])
		case op == 11:
			s := sessions[in.intn(len(sessions))]
			s.UnsetDone(itemOf(s, itemKey{1, ino, in.pageIdx()}))
		case op == 12:
			// Close clears the slot everywhere and frees what the
			// sessions left open do not need.
			i := in.intn(len(sessions))
			s := sessions[i]
			bit := uint32(1) << uint(s.id)
			var rest []*Session
			for _, a := range d.active {
				if a != s {
					rest = append(rest, a)
				}
			}
			keep := map[itemKey]bool{}
			for k, desc := range before {
				keep[k] = desc.queued&^bit != 0 || neededBy(desc, rest)
			}
			if err := s.Close(); err != nil {
				fail("%v", err)
			}
			all, err := d.table.check(&d.stats)
			if err != nil {
				fail("after Close: %v", err)
			}
			for k, want := range keep {
				if (all[k] != nil) != want {
					fail("Close of session %d: %v kept %v, want %v", s.id, k, all[k] != nil, want)
				}
			}
			if err := invariants(all); err != nil {
				fail("after Close: %v", err)
			}
			open(i)
		case op == 13:
			// Move in (a no-op unless the file was outside).
			delete(fs.outside, ino)
			d.FileMoved(1, ino, false, 99, 1)
		case op == 14:
			// Move out: every descriptor of the file not yet queued for a
			// session tracking it joins the queue, in index order.
			fs.outside[ino] = true
			type tail struct {
				s    *Session
				from int
				want []itemKey
			}
			var tails []tail
			for _, fsess := range sessions[:2] {
				tl := tail{s: fsess, from: len(fsess.queue)}
				if fsess.relevant.Test(ino) {
					for _, k := range fileKeys(before, 1, ino) {
						desc := before[k]
						f := desc.flags[fsess.id]&^(fCurExists|fCurModif) | uint8(fsess.mask)&uint8(EvtRemoved)
						if desc.queued&(1<<uint(fsess.id)) == 0 && pendingFor(f, fsess.mask) {
							tl.want = append(tl.want, k)
						}
					}
				}
				tails = append(tails, tl)
			}
			d.FileMoved(1, ino, false, 1, 99)
			for _, tl := range tails {
				var got []itemKey
				for _, desc := range tl.s.queue[tl.from:] {
					got = append(got, desc.key)
				}
				if fmt.Sprint(got) != fmt.Sprint(tl.want) {
					fail("move-out of %d queued %v for session %d, want %v", ino, got, tl.s.id, tl.want)
				}
			}
		default:
			// SetDone: a file session brings each descriptor of the file
			// up to date, freeing it if that leaves nobody needing it; a
			// block session touches no descriptor.
			s := sessions[in.intn(len(sessions))]
			id := itemOf(s, itemKey{1, ino, in.pageIdx()})
			wasDone := s.CheckDone(id)
			frees := d.stats.DescFrees
			s.SetDone(id)
			if wasDone || s.kind == blockTask {
				for k, desc := range before {
					if d.table.get(k) != desc || desc.flags != flagsBefore[k] {
						fail("SetDone(%d) on session %d changed %v", id, s.id, k)
					}
				}
				break
			}
			freed := int64(0)
			for _, k := range fileKeys(before, 1, ino) {
				want := upToDate(flagsBefore[k][s.id])
				if got := d.table.get(k); got != nil {
					if got != before[k] || got.flags[s.id] != want {
						fail("SetDone(%d): %v has flags %08b, want %08b", ino, k, got.flags[s.id], want)
					}
				} else {
					freed++
				}
			}
			if d.stats.DescFrees-frees != freed {
				fail("SetDone(%d): DescFrees moved by %d, %d of the file's descriptors are gone", ino, d.stats.DescFrees-frees, freed)
			}
		}
	}
	all, err := d.table.check(&d.stats)
	if err == nil {
		err = invariants(all)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexMemoryBound is the page cache's test of the same name, for
// the descriptor table under a block session that keeps a descriptor per
// cached page: single pages read at random places of many large files
// through a small cache, then everything removed. At every step the
// live fileDescs hold at most twice (slice growth rounds up) the size of
// their files, and the pool stays within its budget.
func TestIndexMemoryBound(t *testing.T) {
	const (
		capacity  = 1024
		files     = 4096
		filePages = 4096
	)
	e := sim.New(1)
	c := pagecache.New(e, pagecache.DefaultConfig(capacity))
	d := New(c)
	fs := &moveFS{}
	d.AttachFS(fs)
	sess, err := d.RegisterBlock(fs, StExists)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Item, 256)
	rng := rand.New(rand.NewSource(1))
	maxPooled := 0
	check := func(step int) {
		live, nfiles := 0, 0
		for _, k := range d.table.byFile.AppendKeys(nil) {
			live += cap(d.table.byFile.Get(k).descs)
			nfiles++
		}
		pooled := 0
		for _, fd := range d.table.fdFree {
			pooled += cap(fd.descs)
		}
		maxPooled = max(maxPooled, pooled)
		if live > 2*nfiles*filePages || pooled > d.table.poolBudget {
			t.Fatalf("step %d: %d files hold %d descriptor slots (bound %d), the pool %d (budget %d)",
				step, nfiles, live, 2*nfiles*filePages, pooled, d.table.poolBudget)
		}
	}
	e.Go("test", func(p *sim.Proc) {
		defer e.Stop()
		for step := 0; step < 20*capacity; step++ {
			k := pagecache.PageKey{FS: 1, Ino: uint64(1 + rng.Intn(files)), Index: uint64(rng.Intn(filePages))}
			if !c.Touch(k) {
				c.Insert(p, k, 1)
			}
			if step%64 == 0 {
				for sess.FetchInto(buf) == len(buf) {
				}
			}
			check(step)
		}
		if maxPooled == 0 {
			t.Error("the pool never held a fileDescs: the bound was not exercised")
		}
		for ino := uint64(1); ino <= files; ino++ {
			c.RemoveFile(1, ino)
			for sess.FetchInto(buf) == len(buf) {
			}
			check(-int(ino))
		}
		if got := d.Stats().CurDescs; got != 0 {
			t.Errorf("CurDescs = %d after everything was removed and fetched", got)
		}
		if _, err := d.table.check(&d.stats); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
