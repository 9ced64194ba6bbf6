package machine

import (
	"fmt"

	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/obs"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Stack is one complete storage stack — device, scheduler, page cache,
// cowfs, and Duet — assembled on an existing event domain of a shared
// engine. It is the building block of the cluster tier: each cluster
// node hosts one Stack on its own domain, and all cross-node traffic
// goes over Ports.
//
// Unlike Machine, a Stack does not own its engine, so a crash cannot be
// modeled by abandoning the engine (machine.Recover's trick). Instead
// Remount rebuilds the stack in place on the live engine, which is what
// lets one node of a cluster power-cycle while its peers keep serving.
type Stack struct {
	Host    sim.Host
	Disk    *storage.Disk
	Cache   *pagecache.Cache
	FS      *cowfs.FS
	Duet    *core.Duet
	Adapter *core.CowAdapter
	// Obs is the stack's private observability handle (nil when
	// disabled): its tracer exports as the node's own trace process, and
	// registries merge commutatively at collection.
	Obs *obs.Obs

	cfg Config
}

// NewStack assembles a stack on h (typically a dedicated domain of a
// sharded engine). cfg sizes the stack exactly as it sizes a Machine;
// cfg.Obs, when live, seeds a private per-domain handle as NewSharded
// does for its shards.
func NewStack(h sim.Host, cfg Config, diskName string) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		var err error
		model, err = newModel(cfg.Device, cfg.DeviceBlocks)
		if err != nil {
			return nil, err
		}
	}
	disk := cfg.newDisk(h, diskName, model)
	cache := pagecache.New(h, cfg.cacheConfig())
	fs := cowfs.New(h, 1, disk, cache)
	d := core.New(cache)
	ad := core.AttachCow(d, fs)
	s := &Stack{
		Host: h, Disk: disk, Cache: cache, FS: fs,
		Duet: d, Adapter: ad, cfg: cfg,
	}
	if o := cfg.Obs; o != nil && (o.Trace != nil || o.Metrics != nil) {
		s.Obs = &obs.Obs{}
		if o.Trace != nil {
			s.Obs.Trace = obs.NewTracer(obs.DefaultTraceEvents)
			h.Dom().SetTracer(s.Obs.Trace)
		}
		if o.Metrics != nil {
			s.Obs.Metrics = obs.NewRegistry()
		}
		disk.EnableObs(s.Obs)
		cache.EnableObs(s.Obs)
		fs.EnableObs(s.Obs)
		d.EnableObs(h, s.Obs)
	}
	return s, nil
}

// Crash models the power-cut instant for an in-engine crash: all
// volatile state — every cached page, dirty or not — is discarded
// without writeback. The abandoned flusher keeps ticking but has
// nothing to write, so nothing that should have died gets persisted.
// The durable side (medium + last checkpoint) is untouched; call
// Remount to bring the stack back.
func (s *Stack) Crash() {
	s.Cache.DropVolatile()
}

// Remount rebuilds the stack in place after Crash: a fresh cache and a
// fresh Duet around the filesystem remounted from its last durable
// checkpoint, on the same device (grown bad blocks are medium damage
// and survive). The old cache and Duet are abandoned, not stopped —
// their flusher keeps firing as deterministic no-ops on an empty cache,
// exactly like the dead engine procs machine.Recover leaves behind.
// Observability is re-attached to every rebuilt component, and the
// recovered filesystem must pass its invariant check.
func (s *Stack) Remount() error {
	if !s.FS.DurabilityEnabled() {
		return fmt.Errorf("machine: Stack.Remount without EnableDurability")
	}
	img := s.FS.CrashImage()
	cache := pagecache.New(s.Host, s.cfg.cacheConfig())
	fs, err := cowfs.Remount(s.Host, 1, s.Disk, cache, img)
	if err != nil {
		return fmt.Errorf("machine: stack remount: %w", err)
	}
	d := core.New(cache)
	ad := core.AttachCow(d, fs)
	if o := s.Obs; o != nil {
		cache.EnableObs(o)
		fs.EnableObs(o)
		d.EnableObs(s.Host, o)
	}
	if err := fs.CheckInvariants(); err != nil {
		return fmt.Errorf("machine: remounted stack inconsistent: %w", err)
	}
	s.Cache, s.FS, s.Duet, s.Adapter = cache, fs, d, ad
	return nil
}

// CollectMetrics publishes the stack's counters into a private scratch
// registry and merges it into r, so identically named instruments
// across stacks sum instead of racing SetCounter's max-absorb.
func (s *Stack) CollectMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	scratch := obs.NewRegistry()
	s.Disk.PublishMetrics(scratch)
	s.Cache.PublishMetrics(scratch)
	s.Duet.PublishMetrics(scratch)
	s.FS.PublishMetrics(scratch)
	r.Merge(scratch)
}

// Robustness reports the stack's fault and recovery counters in the
// same shape as Machine.Robustness.
func (s *Stack) Robustness() Robustness {
	return robustness(s.Disk, s.Cache, s.Duet, s.FS.Stats().Commits)
}
