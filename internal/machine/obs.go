package machine

import (
	"duet/internal/obs"
	"duet/internal/sim"
)

// Metric collection. A machine absorbs each component's cumulative
// counters into a registry after (or during) a run. A Machine records
// into the run's registry itself, so it publishes straight into it with
// absolute values and max semantics (collecting twice is safe); every
// other stack merges through Stack.CollectMetrics.

// PublishEngineMetrics absorbs the kernel-level quantities of e.
func PublishEngineMetrics(r *obs.Registry, e *sim.Engine) {
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
	PublishEngineMetrics(r, m.Eng)
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
}

// CollectMetrics absorbs every subsystem's counters into r.
func (m *LFSMachine) CollectMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	PublishEngineMetrics(r, m.Eng)
	m.Disk.PublishMetrics(r)
	m.Cache.PublishMetrics(r)
	m.Duet.PublishMetrics(r)
	m.FS.PublishMetrics(r)
}
