package machine

import (
	"fmt"

	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/faults"
	"duet/internal/obs"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Stack is one complete storage stack — device, scheduler, page cache,
// cowfs, and Duet hooked into the cache — on one event domain. It is the
// only place such a stack is assembled: a Machine is an engine plus one
// Stack on its default domain, and each cluster node hosts one on its
// own domain.
//
// A stack survives a power cut in one of two ways, which share one
// remount (recover): Machine.Recover abandons the dead engine and
// remounts onto a fresh machine, and Remount rebuilds the stack in
// place on the live engine, which is what lets one node of a cluster
// power-cycle while its peers keep serving.
type Stack struct {
	Host    sim.Host
	Disk    *storage.Disk
	Cache   *pagecache.Cache
	FS      *cowfs.FS
	Duet    *core.Duet
	Adapter *core.CowAdapter
	// Obs is the handle the stack records into (nil when disabled). A
	// Machine's stack records into the run's Config.Obs; any other
	// stack gets a private handle, whose tracer exports as the stack's
	// own trace process and whose registry CollectMetrics merges.
	Obs *obs.Obs

	cfg Config
}

// NewStack assembles a stack on h (typically a dedicated domain of a
// shared engine). cfg sizes the stack exactly as it sizes a Machine;
// cfg.Obs, when live, seeds a private handle of the same shape.
func NewStack(h sim.Host, cfg Config, diskName string) (*Stack, error) {
	var o *obs.Obs
	if live(cfg.Obs) {
		o = &obs.Obs{}
		if cfg.Obs.Trace != nil {
			o.Trace = obs.NewTracer(obs.DefaultTraceEvents)
		}
		if cfg.Obs.Metrics != nil {
			o.Metrics = obs.NewRegistry()
		}
	}
	return newStack(h, cfg, diskName, o)
}

// newStack validates cfg and assembles disk → cache → fs → Duet on h,
// recording into o. Obs is enabled only once every component exists:
// a tracer set earlier would trace the cache's flusher proc.
func newStack(h sim.Host, cfg Config, diskName string, o *obs.Obs) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := cfg.model()
	if err != nil {
		return nil, err
	}
	s := &Stack{Host: h, cfg: cfg}
	s.Disk = cfg.newDisk(h, diskName, model)
	s.Cache = pagecache.New(h, cfg.cacheConfig())
	s.mount(cowfs.New(h, 1, s.Disk, s.Cache))
	if live(o) {
		s.Obs = o
		enableObs(h, o, s.Disk, s.Cache, s.FS, s.Duet)
	}
	return s, nil
}

// mount hooks a fresh Duet into the stack's cache and attaches fs to it.
func (s *Stack) mount(fs *cowfs.FS) {
	s.FS, s.Duet = fs, core.New(s.Cache)
	s.Adapter = core.AttachCow(s.Duet, fs)
}

// live reports whether o asks for any recording at all.
func live(o *obs.Obs) bool { return o != nil && (o.Trace != nil || o.Metrics != nil) }

// enableObs sets h's domain tracer and hands the live handle o to an
// assembled stack's components, device first. Every subsystem guards
// its probes behind one nil check, so recording costs nothing until
// then. SetTracer is only called with a concrete non-nil tracer — a
// non-nil interface holding a nil pointer would defeat the engine's nil
// checks.
func enableObs(h sim.Host, o *obs.Obs, disk *storage.Disk, cache *pagecache.Cache,
	fs interface{ EnableObs(*obs.Obs) }, d *core.Duet) {
	if o.Trace != nil {
		h.Dom().SetTracer(o.Trace)
	}
	disk.EnableObs(o)
	cache.EnableObs(o)
	fs.EnableObs(o)
	d.EnableObs(h, o)
}

// AttachFaults arms deterministic fault injection on the stack's device
// and returns the injector (for inspection). The plan is evaluated per
// request; a nil or zero plan leaves the device fault-free.
func (s *Stack) AttachFaults(plan faults.Plan) *faults.Injector {
	inj := faults.NewInjector(plan)
	inj.Attach(s.Disk)
	return inj
}

// EnableDurability arms checkpointing on the stack's filesystem; it
// must be called before either crash path can remount. Fault-free
// experiments never call it, so their behavior is unchanged.
func (s *Stack) EnableDurability() { s.FS.EnableDurability() }

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
// exactly like the dead engine procs Machine.Recover leaves behind.
func (s *Stack) Remount() error {
	img, err := s.crashImage()
	if err != nil {
		return err
	}
	s.Cache = pagecache.New(s.Host, s.cfg.cacheConfig())
	return s.recover(img)
}

// crashImage captures the durable state a remount starts from.
func (s *Stack) crashImage() (*cowfs.CrashImage, error) {
	if !s.FS.DurabilityEnabled() {
		return nil, fmt.Errorf("machine: remount without EnableDurability")
	}
	return s.FS.CrashImage(), nil
}

// recover is the remount both crash models share: the filesystem
// remounted from img onto the stack's device and cache, a fresh Duet
// hooked in, obs re-attached to every rebuilt component, and the
// invariant check the recovered filesystem must pass.
func (s *Stack) recover(img *cowfs.CrashImage) error {
	fs, err := cowfs.Remount(s.Host, 1, s.Disk, s.Cache, img)
	if err != nil {
		return fmt.Errorf("machine: remount: %w", err)
	}
	s.mount(fs)
	if o := s.Obs; o != nil {
		s.Cache.EnableObs(o)
		fs.EnableObs(o)
		s.Duet.EnableObs(s.Host, o)
	}
	if err := fs.CheckInvariants(); err != nil {
		return fmt.Errorf("machine: remounted fs inconsistent: %w", err)
	}
	return nil
}

// CollectMetrics publishes the stack's counters into a scratch registry
// and merges that, then the stack's private registry, into r: Merge
// sums, so identically named instruments across stacks add up instead
// of racing SetCounter's max-absorb. A Machine records into the run's
// registry directly and collects through Machine.CollectMetrics.
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
	if s.Obs != nil && s.Obs.Metrics != nil {
		r.Merge(s.Obs.Metrics)
	}
}
