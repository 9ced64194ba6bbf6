package scrub

import (
	"testing"

	"duet/internal/cowfs"
	"duet/internal/machine"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/trace"
	"duet/internal/workload"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{
		Seed:         1,
		DeviceBlocks: 1 << 16,
		CachePages:   4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Populate(machine.DefaultPopulateSpec("/data", 8192)); err != nil {
		t.Fatal(err)
	}
	return m
}

func run(t *testing.T, m *machine.Machine, fn func(p *sim.Proc)) {
	t.Helper()
	m.Eng.Go("test", func(p *sim.Proc) {
		// Stop via defer so a t.Fatal inside fn still ends the run.
		defer m.Eng.Stop()
		fn(p)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineScrubsEverything(t *testing.T) {
	m := newMachine(t)
	s := New(m.FS, DefaultConfig())
	run(t, m, func(p *sim.Proc) {
		if err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	r := s.Report
	if !r.Completed {
		t.Error("not completed")
	}
	if r.WorkTotal != m.FS.AllocatedBlocks() {
		t.Errorf("WorkTotal = %d, want %d", r.WorkTotal, m.FS.AllocatedBlocks())
	}
	if r.WorkDone != r.WorkTotal {
		t.Errorf("WorkDone = %d / %d", r.WorkDone, r.WorkTotal)
	}
	if r.Saved != 0 {
		t.Errorf("baseline Saved = %d", r.Saved)
	}
	if r.ReadBlocks < r.WorkTotal {
		t.Errorf("ReadBlocks = %d < allocated %d", r.ReadBlocks, r.WorkTotal)
	}
	if r.Errors != 0 {
		t.Errorf("Errors = %d", r.Errors)
	}
}

func TestOpportunisticSavesCachedBlocks(t *testing.T) {
	m := newMachine(t)
	files := m.FS.FilesUnder(mustLookup(t, m, "/data"))
	s := NewOpportunistic(m.FS, DefaultConfig(), m.Duet, m.Adapter)
	var warmed int64
	run(t, m, func(p *sim.Proc) {
		// Warm a quarter of the files, then scrub. The foreground reads
		// verified those blocks, so the scrubber can skip them.
		for i, f := range files {
			if i%4 != 0 {
				continue
			}
			if err := m.FS.ReadFile(p, f.Ino, storage.ClassNormal, "workload"); err != nil {
				t.Fatal(err)
			}
			warmed += f.SizePg
		}
		if err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	r := s.Report
	if !r.Completed || r.WorkDone != r.WorkTotal {
		t.Errorf("completed=%v done=%d/%d", r.Completed, r.WorkDone, r.WorkTotal)
	}
	if r.Saved == 0 {
		t.Fatal("no savings despite warm cache")
	}
	// Savings should be close to the warmed page count (some pages may
	// have been evicted before the registration scan).
	if r.Saved < warmed/2 {
		t.Errorf("Saved = %d, want near %d", r.Saved, warmed)
	}
	if r.ReadBlocks+r.Saved < r.WorkTotal {
		t.Errorf("reads %d + saved %d < total %d", r.ReadBlocks, r.Saved, r.WorkTotal)
	}
	if r.ReadBlocks >= r.WorkTotal {
		t.Errorf("ReadBlocks = %d, expected savings to reduce I/O below %d", r.ReadBlocks, r.WorkTotal)
	}
}

func TestOpportunisticColdEqualsBaseline(t *testing.T) {
	mb := newMachine(t)
	sb := New(mb.FS, DefaultConfig())
	run(t, mb, func(p *sim.Proc) {
		if err := sb.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	mo := newMachine(t)
	so := NewOpportunistic(mo.FS, DefaultConfig(), mo.Duet, mo.Adapter)
	run(t, mo, func(p *sim.Proc) {
		if err := so.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	if so.Report.Saved != 0 {
		t.Errorf("cold-cache Duet run saved %d", so.Report.Saved)
	}
	if so.Report.ReadBlocks != sb.Report.ReadBlocks {
		t.Errorf("cold Duet reads %d != baseline %d", so.Report.ReadBlocks, sb.Report.ReadBlocks)
	}
}

func TestScrubFindsAndRepairsCorruption(t *testing.T) {
	m := newMachine(t)
	files := m.FS.FilesUnder(mustLookup(t, m, "/data"))
	f := files[3]
	blk, ok := m.FS.Fibmap(f.Ino, 0)
	if !ok {
		t.Fatal("fibmap failed")
	}
	m.FS.CorruptBlock(blk)
	s := New(m.FS, DefaultConfig())
	run(t, m, func(p *sim.Proc) {
		if err := s.Run(p); err != nil {
			t.Fatal(err)
		}
		// After repair the file reads cleanly.
		if err := m.FS.ReadFile(p, f.Ino, storage.ClassNormal, "check"); err != nil {
			t.Errorf("read after repair: %v", err)
		}
	})
	if s.Report.Errors != 1 {
		t.Errorf("Errors = %d, want 1", s.Report.Errors)
	}
}

func TestScrubFindsLatentSectorError(t *testing.T) {
	m := newMachine(t)
	files := m.FS.FilesUnder(mustLookup(t, m, "/data"))
	blk, _ := m.FS.Fibmap(files[0].Ino, 1)
	m.Disk.InjectBadBlock(blk)
	s := New(m.FS, DefaultConfig())
	run(t, m, func(p *sim.Proc) {
		if err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	if s.Report.Errors != 1 {
		t.Errorf("Errors = %d, want 1", s.Report.Errors)
	}
	if !s.Report.Completed {
		t.Error("scrub should survive a bad block")
	}
}

func TestDirtiedBlocksRescrubbed(t *testing.T) {
	m := newMachine(t)
	files := m.FS.FilesUnder(mustLookup(t, m, "/data"))
	s := NewOpportunistic(m.FS, DefaultConfig(), m.Duet, m.Adapter)
	run(t, m, func(p *sim.Proc) {
		// Concurrent writer keeps dirtying a file while the scrubber runs.
		m.Eng.Go("writer", func(wp *sim.Proc) {
			for i := 0; i < 20; i++ {
				if err := m.FS.Write(wp, files[0].Ino, 0, 2); err != nil {
					return
				}
				wp.Sleep(10 * sim.Millisecond)
			}
		})
		if err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	if !s.Report.Completed {
		t.Error("scrub did not complete")
	}
}

func mustLookup(t *testing.T, m *machine.Machine, path string) cowfs.Ino {
	t.Helper()
	i, err := m.FS.Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	return i.Ino
}

// TestStarvedRunEndsAtStop: an opportunistic scrub behind an
// unthrottled fileserver never gets its idle-class reads served, so the
// window closes while it waits in its first chunk. Its report must still
// end where the run was stopped, not at virtual time zero.
func TestStarvedRunEndsAtStop(t *testing.T) {
	m := newMachine(t)
	files := m.FS.FilesUnder(mustLookup(t, m, "/data"))
	gen, err := workload.New(m.Eng, m.FS, files, workload.Config{
		Personality: workload.Fileserver,
		Dir:         "/data",
		Coverage:    1,
		Dist:        trace.ByName("uniform"),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewOpportunistic(m.FS, DefaultConfig(), m.Duet, m.Adapter)
	gen.Start(m.Eng)
	m.Eng.Go("scrub", func(p *sim.Proc) {
		if err := s.Run(p); err != nil {
			t.Error(err)
		}
	})
	const window = 5 * sim.Second
	if err := m.Eng.RunFor(window); err != nil {
		t.Fatal(err)
	}
	r := s.Report
	if r.Completed || r.ReadBlocks != 0 {
		t.Fatalf("the scrub was not starved: completed %v, %d blocks read", r.Completed, r.ReadBlocks)
	}
	if r.End != window || r.End < r.Start {
		t.Errorf("starved run: Start %v, End %v, want End at the stop instant %v", r.Start, r.End, window)
	}
}
