package machine

import (
	"fmt"

	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/faults"
	"duet/internal/lfs"
	"duet/internal/pagecache"
	"duet/internal/storage"
)

// Fault injection and crash recovery at the machine level. A "crash" in
// the simulator is the end of an engine: virtual-time engines cannot
// restart once their processes are abandoned, so recovery builds an
// entirely new machine — fresh engine, device, cache, and Duet — and
// remounts the filesystem from the dead machine's durable state. That is
// exactly the semantics of a power cut: everything in memory is gone,
// only the medium and the checkpoint survive.

// AttachFaults arms deterministic fault injection on the machine's
// device and returns the injector (for inspection). The plan is
// evaluated per request; a nil or zero plan leaves the device fault-free.
func (m *Machine) AttachFaults(plan faults.Plan) *faults.Injector {
	inj := faults.NewInjector(plan)
	inj.Attach(m.Disk)
	return inj
}

// AttachFaults arms fault injection on the LFS machine's device.
func (m *LFSMachine) AttachFaults(plan faults.Plan) *faults.Injector {
	inj := faults.NewInjector(plan)
	inj.Attach(m.Disk)
	return inj
}

// EnableDurability arms checkpointing on the machine's filesystem; it
// must be called before Recover can be used. Fault-free experiments
// never call it, so their behavior is unchanged.
func (m *Machine) EnableDurability() { m.FS.EnableDurability() }

// EnableDurability arms checkpointing on the LFS machine's filesystem.
func (m *LFSMachine) EnableDurability() { m.FS.EnableDurability() }

// Recover simulates remounting after a crash: it captures the dead
// machine's durable state (checkpoint + medium) and assembles a new
// machine around it. Call after the crashed engine has stopped (e.g.
// RunFor returned at the crash instant). Fault injection is NOT carried
// over — attach a new plan to the recovered machine if the device should
// stay faulty. Grown bad blocks do carry over: they are medium damage.
func (m *Machine) Recover() (*Machine, error) {
	if !m.FS.DurabilityEnabled() {
		return nil, fmt.Errorf("machine: Recover without EnableDurability")
	}
	img := m.FS.CrashImage()
	cfg := m.Cfg
	nm, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// Replace the freshly created filesystem with the remounted one.
	fs, err := cowfs.Remount(nm.Eng, 1, nm.Disk, nm.Cache, img)
	if err != nil {
		return nil, fmt.Errorf("machine: recover: %w", err)
	}
	nm.FS = fs
	// New hooked its Duet into the new cache; that instance is being
	// replaced, so detach it first — otherwise every recovery leaves an
	// orphaned hook double-dispatching page events to a dead Duet (and a
	// second crash of the same machine doubles it again).
	nm.Cache.RemoveHook(nm.Duet)
	nm.Duet = core.New(nm.Cache)
	nm.Adapter = core.AttachCow(nm.Duet, fs)
	// New wired the engine/disk/cache, but the remounted fs and fresh
	// Duet replaced the instrumented ones — re-attach them.
	if o := cfg.Obs; o != nil {
		fs.EnableObs(o)
		nm.Duet.EnableObs(nm.Eng, o)
	}
	if err := fs.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("machine: recovered fs inconsistent: %w", err)
	}
	return nm, nil
}

// Recover is the LFS machine's crash-recovery path: remount from the
// checkpoint, roll the durable summary log forward, verify invariants.
func (m *LFSMachine) Recover(fscfg lfs.Config) (*LFSMachine, error) {
	if !m.FS.DurabilityEnabled() {
		return nil, fmt.Errorf("machine: Recover without EnableDurability")
	}
	img := m.FS.CrashImage()
	cfg := m.Cfg
	nm, err := NewLFS(cfg, fscfg)
	if err != nil {
		return nil, err
	}
	fs, err := lfs.Remount(nm.Eng, 1, nm.Disk, nm.Cache, fscfg, img)
	if err != nil {
		return nil, fmt.Errorf("machine: recover: %w", err)
	}
	nm.FS = fs
	// Detach the Duet NewLFS hooked in before replacing it (see Recover).
	nm.Cache.RemoveHook(nm.Duet)
	nm.Duet = core.New(nm.Cache)
	nm.Adapter = core.AttachLFS(nm.Duet, fs)
	// Re-attach observability to the components NewLFS did not build.
	if o := cfg.Obs; o != nil {
		fs.EnableObs(o)
		nm.Duet.EnableObs(nm.Eng, o)
	}
	if err := fs.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("machine: recovered lfs inconsistent: %w", err)
	}
	return nm, nil
}

// Robustness aggregates the fault, retry, and recovery counters of one
// machine into the flat record duetbench exports (the "robustness"
// object of BENCH_<scale>.json).
type Robustness struct {
	TransientFaults int64 `json:"transient_faults"`
	PermanentFaults int64 `json:"permanent_faults"`
	TornWrites      int64 `json:"torn_writes"`
	Stalls          int64 `json:"stalls"`
	Retries         int64 `json:"retries"`
	Timeouts        int64 `json:"timeouts"`
	WritebackErrors int64 `json:"writeback_errors"`
	Quarantined     int64 `json:"quarantined_pages"`
	Requeued        int64 `json:"requeued_pages"`
	LostPages       int64 `json:"lost_pages"`
	DegradedSess    int64 `json:"degraded_sessions"`
	Commits         int64 `json:"commits"`

	// Cluster-tier counters, zero for single-machine runs: machine
	// kills injected, shard repairs completed, shard-time spent below
	// full replication, and acknowledged blocks missing from any
	// replica after repair (the invariant — must stay zero).
	Kills             int64 `json:"kills"`
	Repairs           int64 `json:"repairs"`
	DegradedUs        int64 `json:"degraded_us"`
	ClusterLostBlocks int64 `json:"cluster_lost_blocks"`
}

func robustness(d *storage.Disk, c *pagecache.Cache, du *core.Duet, commits int64) Robustness {
	ds := d.Stats()
	cs := c.Stats()
	return Robustness{
		TransientFaults: ds.TransientFaults,
		PermanentFaults: ds.PermanentFaults,
		TornWrites:      ds.TornWrites,
		Stalls:          ds.Stalls,
		Retries:         ds.Retries,
		Timeouts:        ds.Timeouts,
		WritebackErrors: cs.WritebackErrors,
		Quarantined:     cs.QuarantineEvents,
		Requeued:        cs.RequeuedPages,
		LostPages:       cs.LostPages,
		DegradedSess:    du.Stats().DegradedSessions,
		Commits:         commits,
	}
}

// Robustness reports the machine's fault and recovery counters.
func (m *Machine) Robustness() Robustness {
	return robustness(m.Disk, m.Cache, m.Duet, m.FS.Stats().Commits)
}

// Robustness reports the LFS machine's fault and recovery counters.
func (m *LFSMachine) Robustness() Robustness {
	return robustness(m.Disk, m.Cache, m.Duet, m.FS.Stats().Commits)
}

// Add merges another machine's counters (multi-run aggregation).
func (r *Robustness) Add(o Robustness) {
	r.TransientFaults += o.TransientFaults
	r.PermanentFaults += o.PermanentFaults
	r.TornWrites += o.TornWrites
	r.Stalls += o.Stalls
	r.Retries += o.Retries
	r.Timeouts += o.Timeouts
	r.WritebackErrors += o.WritebackErrors
	r.Quarantined += o.Quarantined
	r.Requeued += o.Requeued
	r.LostPages += o.LostPages
	r.DegradedSess += o.DegradedSess
	r.Commits += o.Commits
	r.Kills += o.Kills
	r.Repairs += o.Repairs
	r.DegradedUs += o.DegradedUs
	r.ClusterLostBlocks += o.ClusterLostBlocks
}
