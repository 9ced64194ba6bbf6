package machine

import (
	"testing"

	"duet/internal/obs"
	"duet/internal/sim"
)

// buildCrashable assembles a small machine with durability armed and a
// writer that keeps dirtying pages, for crash/recover tests.
func buildCrashable(t *testing.T, o *obs.Obs) *Machine {
	t.Helper()
	m, err := New(Config{
		Seed:              5,
		DeviceBlocks:      1 << 12,
		CachePages:        256,
		WritebackInterval: 50 * sim.Millisecond,
		DirtyExpire:       20 * sim.Millisecond,
		Obs:               o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Populate(DefaultPopulateSpec("/data", 256)); err != nil {
		t.Fatal(err)
	}
	m.EnableDurability()
	return m
}

// startChurn spawns a writer + committer so every phase of the test has
// dirty pages flowing through writeback and commits to lose at a crash.
func startChurn(t *testing.T, m *Machine) {
	t.Helper()
	root, err := m.FS.Lookup("/data")
	if err != nil {
		t.Fatal(err)
	}
	files := m.FS.FilesUnder(root.Ino)
	if len(files) == 0 {
		t.Fatal("no files")
	}
	m.Eng.Go("writer", func(p *sim.Proc) {
		for i := 0; !p.Engine().Stopping(); i++ {
			f := files[i%len(files)]
			if f.SizePg > 0 {
				_ = m.FS.Write(p, f.Ino, int64(i)%f.SizePg, 1)
			}
			p.Sleep(sim.Millisecond)
		}
	})
	m.Eng.Go("committer", func(p *sim.Proc) {
		for !p.Engine().Stopping() {
			p.Sleep(25 * sim.Millisecond)
			_ = m.FS.Commit(p)
		}
	})
}

// TestRepeatedCrashRecover is the repeated-crash regression test: after
// a SECOND crash of the same machine, the recovered machine must still
// (a) run background writeback — the interval timer must be armed and
// firing — and (b) have observability attached to every rebuilt
// component. Only the first recovery path was exercised before this
// test existed.
func TestRepeatedCrashRecover(t *testing.T) {
	o := &obs.Obs{Trace: obs.NewTracer(obs.DefaultTraceEvents), Metrics: obs.NewRegistry()}
	m := buildCrashable(t, o)

	for crash := 1; crash <= 2; crash++ {
		startChurn(t, m)
		if err := m.Eng.RunFor(120 * sim.Millisecond); err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
		nm, err := m.Recover()
		if err != nil {
			t.Fatalf("recover %d: %v", crash, err)
		}
		m = nm
		// Exactly one Duet hook may be attached to the rebuilt cache: a
		// leftover from the discarded pre-remount Duet would silently
		// double page-event dispatch on every recovered machine.
		if n := m.Cache.HookCount(); n != 1 {
			t.Fatalf("recovery %d left %d page-event hooks on the cache (want 1)", crash, n)
		}
	}

	// (a) Writeback must still happen on its own: dirty one page, run
	// with no committer or sync, and require the interval flusher to
	// have written it back.
	root, err := m.FS.Lookup("/data")
	if err != nil {
		t.Fatal(err)
	}
	files := m.FS.FilesUnder(root.Ino)
	m.Eng.Go("dirty-once", func(p *sim.Proc) {
		for _, f := range files {
			if f.SizePg > 0 {
				_ = m.FS.Write(p, f.Ino, 0, 1)
				return
			}
		}
	})
	if err := m.Eng.RunFor(sim.Second); err != nil {
		t.Fatal(err)
	}
	if wb := m.Cache.Stats().WritebackPages; wb == 0 {
		t.Errorf("after second recovery the interval flusher never wrote back (WritebackPages=0)")
	}

	// (b) Observability must be attached to the rebuilt components: the
	// metrics collection must see the new stack's activity, and the
	// engine must still carry the tracer.
	reg := obs.NewRegistry()
	m.CollectMetrics(reg)
	if v := reg.Counter("pagecache.writeback_pages").Value(); v == 0 {
		t.Errorf("pagecache metrics missing after second recovery (writeback_pages=0)")
	}
	if v := reg.Counter("cowfs.writes_pages").Value(); v == 0 {
		t.Errorf("cowfs metrics missing after second recovery (writes_pages=0)")
	}
	if m.Eng.Dom().Tracer() == nil {
		t.Errorf("engine tracer detached after second recovery")
	}
}
