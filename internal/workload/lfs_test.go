package workload

import (
	"testing"

	"duet/internal/lfs"
	"duet/internal/machine"
	"duet/internal/sim"
)

func newLFSMachine(t *testing.T) *machine.LFSMachine {
	t.Helper()
	m, err := machine.NewLFS(
		machine.Config{Seed: 1, DeviceBlocks: 1 << 14, CachePages: 512, Device: machine.SSD},
		lfs.Config{SegBlocks: 64, ReservedSegs: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// setupFiles writes the test population; call from inside a sim process.
func setupFiles(t *testing.T, m *machine.LFSMachine, p *sim.Proc) []*lfs.Inode {
	t.Helper()
	var files []*lfs.Inode
	for i := 0; i < 40; i++ {
		f, err := m.FS.Create(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FS.Write(p, f.Ino, 0, 32); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	m.FS.Sync(p)
	return files
}

func TestFileserverOnLFS(t *testing.T) {
	m := newLFSMachine(t)
	var stats *Stats
	m.Eng.Go("main", func(p *sim.Proc) {
		files := setupFiles(t, m, p)
		g, err := NewLFS(m.Eng, m.FS, files, Config{
			Personality: Fileserver,
			OpsPerSec:   100,
			Name:        "fs-lfs",
		})
		if err != nil {
			t.Error(err)
			m.Eng.Stop()
			return
		}
		g.Start(m.Eng)
		p.Sleep(20 * sim.Second)
		stats = g.Stats()
		m.Eng.Stop()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Ops < 500 {
		t.Fatalf("ops = %d", stats.Ops)
	}
	if stats.Errors != 0 {
		t.Errorf("errors = %d", stats.Errors)
	}
	ratio := float64(stats.Reads) / float64(stats.Writes)
	if ratio < 0.25 || ratio > 1.0 {
		t.Errorf("read:write = %.2f, want ~0.5", ratio)
	}
	if stats.Deletes == 0 {
		t.Error("fileserver on lfs should churn files")
	}
	// The log-structured fs invalidates on every overwrite flush.
	if m.FS.Stats().Invalidations == 0 {
		t.Error("no invalidations despite overwrites")
	}
}

func TestLFSCoverage(t *testing.T) {
	m := newLFSMachine(t)
	var stats *Stats
	m.Eng.Go("main", func(p *sim.Proc) {
		files := setupFiles(t, m, p)
		g, err := NewLFS(m.Eng, m.FS, files, Config{
			Personality: Webserver,
			Coverage:    0.25,
			OpsPerSec:   200,
			Name:        "ws-lfs",
		})
		if err != nil {
			t.Error(err)
			m.Eng.Stop()
			return
		}
		var total int64
		for _, f := range files {
			total += f.SizePg
		}
		covered := g.CoveredPages()
		if covered <= 0 || covered >= total {
			t.Errorf("covered pages = %d of %d", covered, total)
		}
		if g.CoveredFiles() != nil {
			t.Error("CoveredFiles should be nil for lfs targets")
		}
		g.Start(m.Eng)
		p.Sleep(10 * sim.Second)
		stats = g.Stats()
		m.Eng.Stop()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Ops == 0 {
		t.Error("no ops")
	}
}
