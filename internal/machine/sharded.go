package machine

import (
	"fmt"
	"math/rand"

	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/obs"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// A ShardedMachine is the multi-device form of Machine: N fully
// independent storage stacks — device, I/O scheduler, page cache,
// filesystem, and Duet instance — each on its own event domain, plus a
// coordinator on the engine's default domain. The stacks share no
// mutable state; the coordinator talks to shards only through Ports,
// whose latency models the cross-device control path (an IPC hop, not a
// function call).
//
// This mirrors the paper's setting scaled out: each shard is "a machine"
// running foreground work plus Duet-scheduled maintenance, and the
// coordinator aggregates their progress — the topology a multi-disk
// storage server or a rack-level maintenance scheduler has.
type ShardedMachine struct {
	Cfg    ShardedConfig
	Eng    *sim.Engine
	Shards []*Shard
}

// Shard is one independent storage stack on its own event domain.
type Shard struct {
	Index   int
	Dom     *sim.Domain
	Disk    *storage.Disk
	Cache   *pagecache.Cache
	FS      *cowfs.FS
	Duet    *core.Duet
	Adapter *core.CowAdapter
	// Obs is the shard's own observability handle (nil when disabled):
	// its tracer exports as the shard's own trace process, and the
	// registries merge commutatively at collection.
	Obs *obs.Obs
	// Report carries shard → coordinator progress messages.
	Report *sim.Port[ShardReport]
	// Ctl carries coordinator → shard commands.
	Ctl *sim.Port[ShardCommand]
}

// ShardCommand is a coordinator → shard control message.
type ShardCommand struct {
	// Kind names the command ("start", "stop", ...); the experiment
	// defines the vocabulary.
	Kind string
	// Arg is a command-specific argument.
	Arg int64
}

// ShardReport is a shard → coordinator progress message.
type ShardReport struct {
	Shard int
	// Kind names the report ("progress", "done", ...).
	Kind string
	// Value is a report-specific counter (e.g. work items completed).
	Value int64
	// At is the shard-local virtual time of the report.
	At sim.Time
}

// ShardedConfig sizes a sharded machine. The embedded Config describes
// each shard's stack (DeviceBlocks and CachePages are per shard, not
// totals). Model, if set, is shared by every shard, so it must be
// stateless (the built-in HDD/SSD models are).
type ShardedConfig struct {
	Config
	// Shards is the number of independent stacks (>= 1).
	Shards int
	// PortLatency is the coordinator↔shard message latency. Default 1ms.
	PortLatency sim.Time
}

// NewSharded assembles a sharded machine.
func NewSharded(cfg ShardedConfig) (*ShardedMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("machine: Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.PortLatency == 0 {
		cfg.PortLatency = sim.Millisecond
	}
	if cfg.PortLatency <= 0 {
		return nil, fmt.Errorf("machine: PortLatency must be positive")
	}
	e := sim.New(cfg.Seed)
	m := &ShardedMachine{Cfg: cfg, Eng: e}
	for i := 0; i < cfg.Shards; i++ {
		model := cfg.Model
		if model == nil {
			var err error
			model, err = newModel(cfg.Device, cfg.DeviceBlocks)
			if err != nil {
				return nil, err
			}
		}
		dom := e.NewDomain(fmt.Sprintf("shard%d", i))
		disk := cfg.newDisk(dom, fmt.Sprintf("sd%c", 'a'+i%26), model)
		cache := pagecache.New(dom, cfg.cacheConfig())
		fs := cowfs.New(dom, 1, disk, cache)
		d := core.New(cache)
		ad := core.AttachCow(d, fs)
		sh := &Shard{
			Index: i, Dom: dom, Disk: disk, Cache: cache,
			FS: fs, Duet: d, Adapter: ad,
			Report: sim.NewPort[ShardReport](dom, e, fmt.Sprintf("report%d", i), cfg.PortLatency),
			Ctl:    sim.NewPort[ShardCommand](e, dom, fmt.Sprintf("ctl%d", i), cfg.PortLatency),
		}
		if o := cfg.Obs; o != nil && (o.Trace != nil || o.Metrics != nil) {
			sh.Obs = &obs.Obs{}
			if o.Trace != nil {
				sh.Obs.Trace = obs.NewTracer(obs.DefaultTraceEvents)
				dom.SetTracer(sh.Obs.Trace)
			}
			if o.Metrics != nil {
				sh.Obs.Metrics = obs.NewRegistry()
			}
			disk.EnableObs(sh.Obs)
			cache.EnableObs(sh.Obs)
			fs.EnableObs(sh.Obs)
			d.EnableObs(dom, sh.Obs)
		}
		m.Shards = append(m.Shards, sh)
	}
	// The coordinator's own domain carries the run-level tracer.
	if o := cfg.Obs; o != nil && o.Trace != nil {
		e.SetTracer(o.Trace)
	}
	return m, nil
}

// Populate fills every shard's filesystem with the same spec but
// shard-independent randomness (domain-scoped DeriveRand), returning the
// created files per shard.
func (m *ShardedMachine) Populate(spec PopulateSpec) ([][]*cowfs.Inode, error) {
	files := make([][]*cowfs.Inode, len(m.Shards))
	for i, sh := range m.Shards {
		f, err := PopulateFS(sh.FS, spec, sh.Dom.DeriveRand("populate:"+spec.Dir))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		files[i] = f
	}
	return files, nil
}

// PopulateShardFS is PopulateFS with an explicit rand, exposed for
// callers that populate shards with differing specs.
func PopulateShardFS(fs *cowfs.FS, spec PopulateSpec, rng *rand.Rand) ([]*cowfs.Inode, error) {
	return PopulateFS(fs, spec, rng)
}

// CollectMetrics absorbs the engine plus every shard's counters into r.
// Each shard publishes its absolute counters into a private scratch
// registry first, then merges; Merge sums counters, so identically-named
// instruments (the per-shard caches, say) aggregate across shards
// instead of racing SetCounter's max-absorb.
func (m *ShardedMachine) CollectMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	publishEngine(r, m.Eng)
	for _, sh := range m.Shards {
		scratch := obs.NewRegistry()
		sh.Disk.PublishMetrics(scratch)
		sh.Cache.PublishMetrics(scratch)
		sh.Duet.PublishMetrics(scratch)
		sh.FS.PublishMetrics(scratch)
		r.Merge(scratch)
	}
}

// TraceProcesses returns the machine's tracers in deterministic order —
// coordinator first, then shards by index — for WriteTraceMulti. Empty
// when tracing is off.
func (m *ShardedMachine) TraceProcesses(prefix string) []obs.TraceProcess {
	var procs []obs.TraceProcess
	if o := m.Cfg.Obs; o != nil && o.Trace != nil {
		procs = append(procs, obs.TraceProcess{Name: prefix + " coord", T: o.Trace})
	}
	for _, sh := range m.Shards {
		if sh.Obs != nil && sh.Obs.Trace != nil {
			procs = append(procs, obs.TraceProcess{
				Name: fmt.Sprintf("%s shard%d", prefix, sh.Index), T: sh.Obs.Trace,
			})
		}
	}
	return procs
}

// EventStats sums page-event dispatch counters across shards.
func (m *ShardedMachine) EventStats() EventStats {
	var total EventStats
	for _, sh := range m.Shards {
		s := eventStats(sh.Cache, sh.Duet)
		total.Dispatched += s.Dispatched
		total.Filtered += s.Filtered
		total.HookCalls += s.HookCalls
	}
	return total
}
