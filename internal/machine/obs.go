package machine

import (
	"duet/internal/obs"
	"duet/internal/sim"
)

// Observability wiring. The machine is the one place that sees every
// subsystem, so it owns both halves of the integration: enableObs hands
// the shared obs handle to each component at assembly (tracing costs
// nothing until then — every subsystem guards its probes behind one nil
// check), and CollectMetrics absorbs each component's cumulative
// counters into a registry after (or during) a run. Absorption uses
// absolute values with max semantics, so collecting twice is safe.

// enableObs wires the obs handle into an assembled machine's engine
// and components. The Duet instance is wired by the caller (its hook
// needs the engine too). SetTracer is only called with a concrete
// non-nil tracer — a non-nil interface holding a nil pointer would
// defeat the engine's nil checks.
func enableObs(o *obs.Obs, e *sim.Engine, parts ...interface{ EnableObs(*obs.Obs) }) {
	if o == nil || (o.Trace == nil && o.Metrics == nil) {
		return
	}
	if o.Trace != nil {
		e.SetTracer(o.Trace)
	}
	for _, p := range parts {
		p.EnableObs(o)
	}
}

// PublishEngineMetrics exposes publishEngine for engine-owning layers
// outside this package (the cluster tier assembles its own engine but
// publishes the same kernel-level counters).
func PublishEngineMetrics(r *obs.Registry, e *sim.Engine) { publishEngine(r, e) }

// publishEngine absorbs the kernel-level quantities.
func publishEngine(r *obs.Registry, e *sim.Engine) {
	r.SetCounter("sim.procs_created", int64(e.ProcsCreated()))
	r.SetCounter("sim.callbacks_created", int64(e.CallbacksCreated()))
	r.SetCounter("sim.timers_scheduled", int64(e.TimersScheduled()))
	r.SetCounter("sim.now_us", int64(e.Now()/sim.Microsecond))
}

// CollectMetrics absorbs every subsystem's counters into r: the engine,
// all disks (primary and added), the page cache, Duet, and all
// filesystems. Call after Run (or at any quiescent point).
func (m *Machine) CollectMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	publishEngine(r, m.Eng)
	m.Disk.PublishMetrics(r)
	for _, d := range m.extraDisks {
		d.PublishMetrics(r)
	}
	m.Cache.PublishMetrics(r)
	m.Duet.PublishMetrics(r)
	m.FS.PublishMetrics(r)
	for _, fs := range m.extraCow {
		fs.PublishMetrics(r)
	}
	for _, fs := range m.extraLFS {
		fs.PublishMetrics(r)
	}
}

// CollectMetrics absorbs every subsystem's counters into r.
func (m *LFSMachine) CollectMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	publishEngine(r, m.Eng)
	m.Disk.PublishMetrics(r)
	m.Cache.PublishMetrics(r)
	m.Duet.PublishMetrics(r)
	m.FS.PublishMetrics(r)
}
