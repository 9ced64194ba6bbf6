package machine

import (
	"fmt"

	"duet/internal/cowfs"
	"duet/internal/obs"
	"duet/internal/sim"
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

// Shard is one independent storage stack on its own event domain (its
// Host), plus the two ports that connect it to the coordinator.
type Shard struct {
	*Stack
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
		dom := e.NewDomain(fmt.Sprintf("shard%d", i))
		st, err := NewStack(dom, cfg.Config, fmt.Sprintf("sd%c", 'a'+i%26))
		if err != nil {
			return nil, err
		}
		m.Shards = append(m.Shards, &Shard{
			Stack:  st,
			Report: sim.NewPort[ShardReport](dom, e, fmt.Sprintf("report%d", i), cfg.PortLatency),
			Ctl:    sim.NewPort[ShardCommand](e, dom, fmt.Sprintf("ctl%d", i), cfg.PortLatency),
		})
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
		f, err := PopulateFS(sh.FS, spec, sh.Host.DeriveRand("populate:"+spec.Dir))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		files[i] = f
	}
	return files, nil
}

// CollectMetrics absorbs the engine plus every shard's counters and
// private registry into r (see Stack.CollectMetrics).
func (m *ShardedMachine) CollectMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	PublishEngineMetrics(r, m.Eng)
	for _, sh := range m.Shards {
		sh.CollectMetrics(r)
	}
}

// TraceProcesses returns the machine's tracers in deterministic order —
// coordinator first, then shards by index — for WriteTraceMulti. Empty
// when tracing is off.
func (m *ShardedMachine) TraceProcesses(prefix string) []obs.TraceProcess {
	stacks := make([]*Stack, len(m.Shards))
	for i, sh := range m.Shards {
		stacks[i] = sh.Stack
	}
	return TraceProcesses(prefix, m.Cfg.Obs, "shard", stacks)
}
