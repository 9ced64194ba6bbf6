package experiments

import (
	"sync"

	"duet/internal/obs"
)

// Per-cell observability. Grid cells run concurrently, so a single
// shared registry would interleave nondeterministically; instead every
// cell records into its own obs handle, and the cell's registry is
// merged into the run-level registry when the cell completes. The merge
// is commutative (counters sum, gauges take maxima, histograms add
// bucket-wise), so the merged result is identical no matter how the
// worker pool interleaves completions — mirroring the stdout
// determinism guarantee the grid already makes.
//
// Traces cannot be merged commutatively (they are ordered streams), so
// per-cell tracers are exported as separate trace processes. Grid cells
// reserve their position in the trace list up front, in input order
// (reserveTraceSlots), and serially-driven cells append as they finish;
// either way the trace file is a pure function of the run's inputs, so
// -trace no longer needs a single worker.

var obsCfg struct {
	mu      sync.Mutex
	enabled bool
	tracing bool
	reg     *obs.Registry
	cells   []obs.TraceProcess
}

// EnableObs switches subsequent experiment cells to record
// observability data, returning the run-level registry that cell
// metrics merge into. With tracing true, each cell also fills its own
// bounded trace ring, collected via CellTraces. Calibration probes are
// excluded — they are shared across cells through the calibration
// cache, so charging their activity to any one cell would make the
// merged registry depend on cache state.
func EnableObs(tracing bool) *obs.Registry {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	obsCfg.enabled = true
	obsCfg.tracing = tracing
	obsCfg.reg = obs.NewRegistry()
	obsCfg.cells = nil
	return obsCfg.reg
}

// DisableObs turns per-cell observability back off (tests use this to
// restore the package default).
func DisableObs() {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	obsCfg.enabled = false
	obsCfg.tracing = false
	obsCfg.reg = nil
	obsCfg.cells = nil
}

// ObsRegistry returns the run-level registry (nil unless EnableObs was
// called).
func ObsRegistry() *obs.Registry {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	return obsCfg.reg
}

// CellTraces returns the per-cell tracers collected so far, in
// deterministic order: grid cells at their reserved input-order slots,
// serially-driven cells in completion (= program) order. Slots whose
// cell errored out (or recorded nothing) are skipped.
func CellTraces() []obs.TraceProcess {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	var out []obs.TraceProcess
	for _, c := range obsCfg.cells {
		if c.T != nil {
			out = append(out, c)
		}
	}
	return out
}

// obsTracing reports whether per-cell tracing is active. The one
// remaining nondeterministic ordering — tab5's scan-level fan-out, which
// issues whole grids concurrently — consults this to fall back to serial
// scans while tracing.
func obsTracing() bool {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	return obsCfg.tracing
}

// reserveTraceSlots claims n consecutive positions in the trace list and
// returns the first index, or -1 when tracing is off. Reserving before
// the cells run pins the export order to grid input order.
func reserveTraceSlots(n int) int {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	if !obsCfg.tracing {
		return -1
	}
	base := len(obsCfg.cells)
	obsCfg.cells = append(obsCfg.cells, make([]obs.TraceProcess, n)...)
	return base
}

// putCellTrace stores a finished cell's tracer at its reserved slot, or
// appends when the cell had none (serially-driven cells).
func putCellTrace(slot int, tp obs.TraceProcess) {
	if slot >= 0 && slot < len(obsCfg.cells) {
		obsCfg.cells[slot] = tp
		return
	}
	obsCfg.cells = append(obsCfg.cells, tp)
}

// newCellObs builds the obs handle for one cell, or nil when
// observability is off (the default: every machine hot path keeps its
// probe-free branch).
func newCellObs() *obs.Obs {
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	if !obsCfg.enabled {
		return nil
	}
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	if obsCfg.tracing {
		o.Trace = obs.NewTracer(obs.DefaultTraceEvents)
	}
	return o
}

// foldCell folds one finished cell into the run-level state and counts
// it: c's counters are absorbed into the cell's registry, which merges
// into the run registry, and the cell's tracers join the trace list —
// at the cell's reserved slot when slot >= 0 (grid cells), else
// appended. Cells without a slot run serially inside their experiment,
// so appending preserves determinism. Tracers with a nil T (tracing
// off) are skipped.
func foldCell(o *obs.Obs, c interface{ CollectMetrics(*obs.Registry) }, slot int, traces ...obs.TraceProcess) {
	countCell()
	if o == nil {
		return
	}
	c.CollectMetrics(o.Metrics)
	obsCfg.mu.Lock()
	defer obsCfg.mu.Unlock()
	if obsCfg.reg != nil {
		obsCfg.reg.Merge(o.Metrics)
		obsCfg.reg.Counter("grid.cells").Inc()
	}
	for _, tp := range traces {
		if tp.T != nil {
			putCellTrace(slot, tp)
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
