package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"duet/internal/pagecache"
	"duet/internal/sim"
)

// FuzzRunEvents runs the run-events model on arbitrary op streams.
func FuzzRunEvents(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(runRunEvents)
}

// TestRunEventsMatchPageEvents runs the run-events model on a few long
// random op streams.
func TestRunEventsMatchPageEvents(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(ops)
		runRunEvents(t, ops)
	}
}

// runSide is one Duet of the run-events model with its sessions.
type runSide struct {
	d        *Duet
	sessions []*Session
}

// dump renders everything the two sides must agree on: the framework
// counters, each session's counters, queue and degraded range, and every
// descriptor's bytes and queued bits by key.
func (r *runSide) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\n", r.d.stats)
	for _, s := range r.sessions {
		fmt.Fprintf(&b, "session %d: seen %d suppressed %d dropped %d lossy %v [%d %d %v %v] queue",
			s.id, s.EventsSeen, s.SuppressedDone, s.Dropped, s.lossy, s.degLo, s.degHi, s.degSet, s.degAll)
		for _, desc := range s.queue[s.qhead:] {
			fmt.Fprintf(&b, " %v", desc.key)
		}
		b.WriteString("\n")
	}
	var keys []string
	for _, fk := range r.d.table.byFile.AppendKeys(nil) {
		for _, desc := range r.d.table.byFile.Get(fk).descs {
			if desc != nil {
				keys = append(keys, fmt.Sprintf("%v %v %b", desc.key, desc.flags, desc.queued))
			}
		}
	}
	sort.Strings(keys)
	b.WriteString(strings.Join(keys, "\n"))
	return b.String()
}

// runRunEvents drives two Duets with the same sessions through the same
// op stream: page events, fetches and done-marking, where one side gets
// every run of Added events (with the victims evicted for it) as single
// PageEvent calls in the order pagecache.Run.Each gives, and the other
// gets it as one PageRun call. The sessions are two block sessions (one
// with state) and two file sessions (one with state, one with a short
// queue that drops), and done-marking covers ranges, so that many runs
// are inert for some sessions and live for others. After every op both
// sides must hold the same counters, queues and descriptors, and fetches
// must return the same items in the same order.
func runRunEvents(t *testing.T, ops []byte) {
	in := opStream(ops)
	fs := &moveFS{outside: map[uint64]bool{6: true}}
	masks := []Mask{EvtAdded | EvtDirtied, StExists | EvtAdded, StExists | StModified, EventBits}
	newSide := func() *runSide {
		d := New(pagecache.New(sim.New(1), pagecache.DefaultConfig(64)))
		d.table.poolBudget = 64
		d.AttachFS(fs)
		r := &runSide{d: d}
		for i, m := range masks {
			var s *Session
			var err error
			if i < 2 {
				s, err = d.RegisterBlock(fs, m)
			} else {
				s, err = d.RegisterFile(fs, 1, m)
			}
			if err != nil {
				t.Fatal(err)
			}
			r.sessions = append(r.sessions, s)
		}
		r.sessions[3].MaxItems = 6
		return r
	}
	pages, runs := newSide(), newSide()
	itemOf := func(s *Session, ino, idx uint64) uint64 {
		if s.kind == blockTask {
			blk, _ := fs.Fibmap(ino, idx)
			return uint64(blk)
		}
		return ino
	}
	var mixed, inert int
	bufA, bufB := make([]Item, 8), make([]Item, 8)
	for step := 0; len(in) > 0; step++ {
		ino := uint64(2 + in.intn(5))
		var what string
		switch op := in.intn(16); {
		case op < 7:
			r := pagecache.Run{Range: pagecache.Range{FS: 1, Ino: ino, Lo: in.pageIdx(), N: 1 + in.intn(12)}}
			// Victims come in runs of one file's consecutive pages, as the
			// LRU gives them back, with a stray page now and then.
			for nv := in.intn(r.N + 1); r.Evicted < nv; {
				v := pagecache.Range{FS: 1, Ino: uint64(2 + in.intn(5)), Lo: in.pageIdx()}
				v.N = min(1+in.intn(6), nv-r.Evicted)
				r.Victims = append(r.Victims, v)
				r.Evicted += v.N
			}
			what = fmt.Sprintf("run %+v", r)
			r.Each(func(ev pagecache.EventType, key pagecache.PageKey) {
				pages.d.PageEvent(ev, key, false)
			})
			runs.d.PageRun(&r)
			switch len(runs.d.live) {
			case 0:
				inert++
			case len(runs.sessions):
			default:
				mixed++
			}
		case op < 9:
			ev := pagecache.EventType(in.intn(4))
			key := pagecache.PageKey{FS: 1, Ino: ino, Index: in.pageIdx()}
			what = fmt.Sprintf("%v %v", ev, key)
			for _, side := range []*runSide{pages, runs} {
				side.d.PageEvent(ev, key, ev == pagecache.EventDirtied)
			}
		case op < 12:
			i, n := in.intn(len(masks)), 1+in.intn(len(bufA))
			what = fmt.Sprintf("fetch %d from session %d", n, i)
			na := pages.sessions[i].FetchInto(bufA[:n])
			nb := runs.sessions[i].FetchInto(bufB[:n])
			if !reflect.DeepEqual(bufA[:na], bufB[:nb]) {
				t.Fatalf("step %d: %s: per-page events fetch %v, runs fetch %v", step, what, bufA[:na], bufB[:nb])
			}
		case op < 15:
			// Mark a range of pages' items done (a block session's blocks,
			// or a file session's file).
			i, lo, n := in.intn(len(masks)), in.pageIdx(), uint64(1+in.intn(24))
			what = fmt.Sprintf("session %d done ino %d [%d, %d)", i, ino, lo, lo+n)
			for _, side := range []*runSide{pages, runs} {
				s := side.sessions[i]
				for idx := lo; idx < lo+n; idx++ {
					s.SetDone(itemOf(s, ino, idx))
				}
			}
		default:
			i, idx := in.intn(len(masks)), in.pageIdx()
			what = fmt.Sprintf("session %d undone ino %d page %d", i, ino, idx)
			for _, side := range []*runSide{pages, runs} {
				s := side.sessions[i]
				s.UnsetDone(itemOf(s, ino, idx))
			}
		}
		if a, b := pages.dump(), runs.dump(); a != b {
			t.Fatalf("step %d: %s:\nper-page events:\n%s\nruns:\n%s", step, what, a, b)
		}
		if _, err := runs.d.table.check(&runs.d.stats); err != nil {
			t.Fatalf("step %d: %s: %v", step, what, err)
		}
	}
	if len(ops) >= 4000 && (mixed == 0 || inert == 0) {
		t.Errorf("%d runs inert for every session, %d for some: the stream misses a case", inert, mixed)
	}
}
