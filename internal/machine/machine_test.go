package machine

import (
	"math/rand"
	"testing"

	"duet/internal/core"
	"duet/internal/lfs"
	"duet/internal/sim"
	"duet/internal/storage"
)

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{DeviceBlocks: 0, CachePages: 10},
		{DeviceBlocks: 100, CachePages: 0},
		{DeviceBlocks: 100, CachePages: 10, Scheduler: "bogus"},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: config accepted: %+v", i, c)
		}
	}
	if _, err := New(Config{DeviceBlocks: 100, CachePages: 10, Device: "floppy"}); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	m, err := New(Config{Seed: 1, DeviceBlocks: 4096, CachePages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if m.Disk.Model().Name() != "hdd" {
		t.Errorf("default device = %s", m.Disk.Model().Name())
	}
	if m.Duet == nil || m.Adapter == nil || m.FS == nil {
		t.Error("machine not fully assembled")
	}
}

func TestModelOverride(t *testing.T) {
	slow := storage.DefaultHDD(4096).Slowed(4)
	m, err := New(Config{Seed: 1, DeviceBlocks: 4096, CachePages: 128, Model: slow})
	if err != nil {
		t.Fatal(err)
	}
	if m.Disk.Model() != storage.Model(slow) {
		t.Error("model override ignored")
	}
	// Slowed scales every latency by the factor (within integer-nanosecond
	// rounding of the per-component scaling).
	base := storage.DefaultHDD(4096)
	r := &storage.Request{Block: 2048, Count: 1}
	got, want := slow.ServiceTime(r, 0), base.ServiceTime(r, 0).Scale(4)
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*sim.Microsecond {
		t.Errorf("Slowed service time %v, want ~%v", got, want)
	}
}

func TestIdleGraceWiring(t *testing.T) {
	m, err := New(Config{Seed: 1, DeviceBlocks: 1 << 16, CachePages: 128, IdleGrace: 44 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Behavioural check: an idle request on a fresh machine (lastNormal=0)
	// completes only after the configured grace.
	var doneAt sim.Time
	m.Eng.Go("idle", func(p *sim.Proc) {
		if err := m.Disk.Read(p, 0, 1, storage.ClassIdle, "m"); err != nil {
			t.Error(err)
		}
		doneAt = p.Now()
		m.Eng.Stop()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt < 44*sim.Millisecond {
		t.Errorf("idle I/O at %v, want >= 44ms grace", doneAt)
	}
}

func TestPopulateSpecSizing(t *testing.T) {
	spec := DefaultPopulateSpec("/data", 3200)
	if spec.Files != 100 || spec.MeanFilePages != 32 {
		t.Errorf("spec = %+v", spec)
	}
	m, err := New(Config{Seed: 1, DeviceBlocks: 1 << 15, CachePages: 256})
	if err != nil {
		t.Fatal(err)
	}
	files, err := m.Populate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 100 {
		t.Fatalf("files = %d", len(files))
	}
	var total int64
	frag := 0
	for _, f := range files {
		total += f.SizePg
		if len(f.Extents) >= spec.FragmentExtents {
			frag++
		}
	}
	// Mean 32 pages: total should be within 2x of the target.
	if total < 1600 || total > 6400 {
		t.Errorf("total pages = %d, want ~3200", total)
	}
	// ~10% fragmented.
	if frag == 0 || frag > 30 {
		t.Errorf("fragmented files = %d, want ~10", frag)
	}
	if m.FS.AllocatedBlocks() != total {
		t.Errorf("allocated %d != total %d", m.FS.AllocatedBlocks(), total)
	}
}

func TestPopulateDeterministic(t *testing.T) {
	build := func() []int64 {
		m, err := New(Config{Seed: 99, DeviceBlocks: 1 << 15, CachePages: 256})
		if err != nil {
			t.Fatal(err)
		}
		files, err := m.Populate(DefaultPopulateSpec("/data", 3200))
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int64
		for _, f := range files {
			sizes = append(sizes, f.SizePg)
		}
		return sizes
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("populate not deterministic at file %d", i)
		}
	}
}

func TestAddSecondFilesystems(t *testing.T) {
	m, err := New(Config{Seed: 1, DeviceBlocks: 1 << 15, CachePages: 256})
	if err != nil {
		t.Fatal(err)
	}
	fs2, ad2, err := m.AddCowFS("sdb", 1<<14, HDD)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.ID() == m.FS.ID() {
		t.Error("second fs shares FSID")
	}
	if ad2.FSID() != fs2.ID() {
		t.Error("adapter FSID mismatch")
	}
	fs3, ad3, err := m.AddCowFS("nvme0", 1<<14, SSD)
	if err != nil {
		t.Fatal(err)
	}
	if fs3.ID() == fs2.ID() || ad3.FSID() != fs3.ID() {
		t.Error("third fs FSID wiring wrong")
	}
}

func TestGammaishBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sum := 0
	for i := 0; i < 10000; i++ {
		v := gammaish(rng, 32)
		if v < 1 || v > 512 {
			t.Fatalf("size %d out of bounds", v)
		}
		sum += v
	}
	mean := float64(sum) / 10000
	if mean < 24 || mean > 40 {
		t.Errorf("mean = %.1f, want ~32", mean)
	}
}

func TestNewLFSMachine(t *testing.T) {
	m, err := NewLFS(Config{Seed: 1, DeviceBlocks: 1 << 14, CachePages: 128},
		lfs.Config{SegBlocks: 64, ReservedSegs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.FS.Segments() != (1<<14)/64 {
		t.Errorf("segments = %d", m.FS.Segments())
	}
	if m.Adapter.FSID() != m.FS.ID() {
		t.Error("adapter mismatch")
	}
}

// TestBaselineEventFiltering asserts the global-interest-mask contract
// at the assembled-machine level: with Duet loaded but no session
// registered, every page event is filtered before hook dispatch, and
// opening a session flips the mask so events start reaching the hook.
func TestBaselineEventFiltering(t *testing.T) {
	m, err := New(Config{Seed: 1, DeviceBlocks: 4096, CachePages: 128})
	if err != nil {
		t.Fatal(err)
	}
	files, err := m.Populate(DefaultPopulateSpec("/data", 256))
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.Go("reader", func(p *sim.Proc) {
		defer m.Eng.Stop()
		if err := m.FS.ReadFile(p, files[0].Ino, storage.ClassNormal, "t"); err != nil {
			t.Error(err)
			return
		}
		st := m.Cache.Stats()
		if st.EventsDispatched == 0 {
			t.Error("no page events raised; test is vacuous")
			return
		}
		if hooks := m.Duet.Stats().HookCalls; st.EventsFiltered != st.EventsDispatched || hooks != 0 {
			t.Errorf("baseline: dispatched=%d filtered=%d hookCalls=%d; want all filtered, zero hook calls",
				st.EventsDispatched, st.EventsFiltered, hooks)
		}
		filtered := st.EventsFiltered

		sess, err := m.Duet.RegisterBlock(m.Adapter, core.EventBits)
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		if err := m.FS.ReadFile(p, files[1].Ino, storage.ClassNormal, "t"); err != nil {
			t.Error(err)
			return
		}
		if m.Duet.Stats().HookCalls == 0 {
			t.Error("with an active session, no events reached the hook")
		}
		if f2 := m.Cache.Stats().EventsFiltered; f2 != filtered {
			t.Errorf("events still filtered with an active session: %d -> %d", filtered, f2)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}
