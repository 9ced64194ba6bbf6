package sim

// Tracer is the minimal interface the kernel needs to report scheduling
// activity to an observability backend (internal/obs implements it).
// Defining the interface here keeps the kernel free of dependencies:
// obs depends on sim for Time, never the other way around.
//
// The engine guards every tracer touch behind a nil check, so the
// disabled path adds one predictable branch and zero allocations to
// park/Sleep — the contract the sim allocation gates enforce.
type Tracer interface {
	// Track registers (or resolves) a named track and returns its id.
	Track(name string) int32
	// Slice records a complete [start, end] span on a track.
	Slice(tid int32, cat, name string, start, end Time)
	// Instant records a point event.
	Instant(tid int32, cat, name string, ts Time)
}

// SetTracer attaches a tracer to the engine's default domain. Pass the
// concrete value only when tracing is enabled: a non-nil interface
// holding a nil tracer would defeat the engine's nil checks. Must be
// called before Run. Other domains take their own (Domain.SetTracer).
func (e *Engine) SetTracer(t Tracer) { e.d0.tracer = t }

// Tracer returns the default domain's tracer (nil when tracing is off).
func (e *Engine) Tracer() Tracer { return e.d0.tracer }

// ProcsCreated returns how many processes were ever created across all
// domains — one of the kernel-level quantities the metrics registry
// absorbs.
func (e *Engine) ProcsCreated() int {
	n := 0
	for _, d := range e.domains {
		n += len(d.procs)
	}
	return n
}

// CallbacksCreated returns how many callbacks were ever registered
// across all domains — the goroutine-free counterpart of ProcsCreated.
func (e *Engine) CallbacksCreated() int {
	n := 0
	for _, d := range e.domains {
		n += len(d.cbs)
	}
	return n
}

// TimersScheduled returns how many timed events were ever scheduled
// across all domains (every Sleep with a positive duration schedules
// exactly one; port message deliveries add one each).
func (e *Engine) TimersScheduled() uint64 {
	var n uint64
	for _, d := range e.domains {
		n += d.seq + d.deliveries
	}
	return n
}

// traceTID lazily registers the process's trace track. Track names are
// the process names, so processes spawned under the same name (timer
// helpers) share a track instead of exploding the track table.
func (p *Proc) traceTID(t Tracer) int32 {
	if p.tid == 0 {
		p.tid = t.Track(p.name)
	}
	return p.tid
}
