package experiments

import (
	"duet/internal/obs"
)

// Per-cell observability. Every cell records into its own obs handle,
// built from the run's Collector, and hands its registry and tracers
// back to its caller when it finishes. The caller folds them into the
// Collector on its own goroutine, in input order: grid callers after
// the grid returns, serial callers as each cell returns. So the merged
// registry and the trace list are pure functions of the run's inputs,
// at any worker count.

// Collector gathers a run's observations: the run-level metrics registry
// that cell registries merge into and, when tracing, every cell's trace
// processes in fold order. Calibration probes are excluded: they are
// shared across cells through the calibration memo, so charging their
// activity to any one cell would make the registry depend on memo state.
type Collector struct {
	Metrics *obs.Registry
	Traces  []obs.TraceProcess
	tracing bool
}

// NewCollector returns an empty collector. With tracing, each cell also
// fills its own bounded trace ring.
func NewCollector(tracing bool) *Collector {
	return &Collector{Metrics: obs.NewRegistry(), tracing: tracing}
}

// newObs builds the obs handle for one cell, or nil when the run has no
// collector (the default: every machine hot path keeps its probe-free
// branch).
func (c *RunConfig) newObs() *obs.Obs {
	if c.Obs == nil {
		return nil
	}
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	if c.Obs.tracing {
		o.Trace = obs.NewTracer(obs.DefaultTraceEvents)
	}
	return o
}

// cellObs is what a finished cell hands back to its caller: its
// registry, holding the machine's counters, and its named tracers. It is
// zero when the run has no collector.
type cellObs struct {
	reg    *obs.Registry
	traces []obs.TraceProcess
}

// observe closes a cell: m's counters are collected into the cell's
// registry, and the registry and tracers are bundled for the caller.
func observe(o *obs.Obs, m interface{ CollectMetrics(*obs.Registry) }, traces ...obs.TraceProcess) cellObs {
	if o == nil {
		return cellObs{}
	}
	m.CollectMetrics(o.Metrics)
	return cellObs{reg: o.Metrics, traces: traces}
}

// fold counts one finished cell and merges its observations into the
// run's collector; tracers with a nil T (tracing off) are skipped. It is
// the one place cells reach run-level state, and it must be called on
// the goroutine that runs the experiment, in input order.
func (c *RunConfig) fold(co cellObs) {
	cellsRun.Add(1)
	if c.Obs == nil || co.reg == nil {
		return
	}
	c.Obs.Metrics.Merge(co.reg)
	c.Obs.Metrics.Counter("grid.cells").Inc()
	for _, tp := range co.traces {
		if tp.T != nil {
			c.Obs.Traces = append(c.Obs.Traces, tp)
		}
	}
}

// cellTrace names a single-domain cell's tracer (nil T when tracing is
// off).
func cellTrace(o *obs.Obs, name string) obs.TraceProcess {
	if o == nil {
		return obs.TraceProcess{}
	}
	return obs.TraceProcess{Name: name, T: o.Trace}
}
