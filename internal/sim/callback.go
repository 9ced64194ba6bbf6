package sim

import (
	"fmt"
	"runtime/debug"
)

// TimerFunc is a callback body. It runs inline on the domain scheduler's
// goroutine at its due (time, seq) slot — no channel handoff, no
// park/resume, no goroutine — with the domain clock already advanced to
// the slot time. Returning a positive duration re-arms the callback that
// far in the future (drawing the next seq immediately, exactly where a
// goroutine proc's re-Sleep would); returning 0 leaves it quiescent
// until something arms or wakes it again.
type TimerFunc func(now Time) Time

// Callback is a goroutine-free simulated process: a handler invoked
// inline by the scheduler instead of a parked goroutine resumed over
// channels. It occupies the same deterministic slots a goroutine proc
// would — armed timers consume the domain's (time, seq) order and queued
// wakes ride the same FIFO run queue — so converting a proc that never
// blocks mid-handler to a Callback is invisible to the simulation.
//
// A Callback is strictly less expressive than a Proc: the handler must
// return instead of blocking (no Sleep/Wait/Recv inside), which is why
// components with blocking call stacks (e.g. the pagecache flusher
// calling into a blocking backend) stay goroutine procs. See
// DESIGN.md, "Procs and callbacks", for the decision rule.
//
// All methods must be called from the callback's own domain: from its
// handler, from a proc or callback of the same domain, or before Run.
type Callback struct {
	dom  *Domain
	name string
	id   int
	fn   TimerFunc

	// armed counts outstanding timer-heap entries. More than one may be
	// in flight when the owner arms again before an earlier timer fired
	// (the overlapping-kick pattern some timer procs rely on).
	armed int
	// queued marks an entry in the domain run queue (a deferred arm or a
	// wake), mirroring a proc's presence in the runq.
	queued bool
	// pendingArm, when positive, is a deferred arm: the runq entry draws
	// the seq when it is invoked, matching the slot a spawned timer proc
	// would have drawn it in (spawn pushes the proc on the runq; the
	// proc's Sleep runs only when that entry is reached).
	pendingArm Time

	// Wait state mirrors Proc's: a static reason recorded at Subscribe
	// time so wakes can emit the same blocked-interval trace slice a
	// parked proc would.
	waitReason string
	waitStart  Time
	tid        int32 // trace track id, assigned lazily (see trace.go)
}

// NewCallback registers a callback named name on h's domain. The name
// is its trace-track identity, exactly like a proc name: a callback
// replacing a proc keeps the trace byte-identical by keeping the name.
// Callbacks draw ids from a counter separate from pids, so introducing
// one never perturbs the pid-derived random streams of existing procs.
func NewCallback(h Host, name string, fn TimerFunc) *Callback {
	d := h.Dom()
	cb := &Callback{dom: d, name: name, id: d.nextCBID, fn: fn}
	d.nextCBID++
	d.cbs = append(d.cbs, cb)
	return cb
}

// Name returns the callback's name.
func (cb *Callback) Name() string { return cb.name }

// Dom returns the domain the callback runs on.
func (cb *Callback) Dom() *Domain { return cb.dom }

// Armed reports how many timer-heap entries the callback has in flight.
func (cb *Callback) Armed() int { return cb.armed }

// Arm schedules the callback to fire after delay, drawing the next
// sequence number now — the slot a proc calling Sleep(delay) at this
// point would occupy. delay must be positive (a callback cannot "yield";
// use ArmDeferred-style queueing or a wake for that).
func (cb *Callback) Arm(delay Time) {
	if delay <= 0 {
		panic("sim: Callback.Arm with non-positive delay")
	}
	d := cb.dom
	d.seq++
	d.timers.push(timer{at: d.now + delay, seq: d.seq, fire: cb, armAt: d.now})
	cb.armed++
}

// ArmDeferred schedules the arm itself through the run queue: a runq
// entry is pushed now, and the sequence number is drawn only when that
// entry is reached. This replicates, slot for slot, the classic
// "spawn a timer proc" pattern — Go pushes the proc on the runq, and its
// Sleep draws the seq when the proc first runs — so converting such a
// spawn to ArmDeferred keeps every later (time, seq) comparison, and
// therefore the whole simulation, byte-identical. Only one deferred arm
// may be outstanding at a time (the proc pattern cannot overlap either:
// each spawn is a distinct proc).
func (cb *Callback) ArmDeferred(delay Time) {
	if delay <= 0 {
		panic("sim: Callback.ArmDeferred with non-positive delay")
	}
	if cb.queued {
		panic("sim: Callback.ArmDeferred while already queued")
	}
	cb.pendingArm = delay
	cb.queued = true
	cb.dom.runq.push(runnable{cb: cb})
}

// Wake queues the handler through the run queue now, in the slot Go
// gives a new proc: starting a component with Wake instead of spawning
// it as a proc leaves every later (time, seq) draw where it was. The
// handler runs once the entries ahead of it have; a Wake while one is
// already queued is a no-op.
func (cb *Callback) Wake() { cb.schedule() }

// schedule pushes a wake onto the run queue, the callback analogue of
// Domain.ready on a parked proc. Called by WaitQueue/Future when the
// condition the callback subscribed to is established.
func (cb *Callback) schedule() {
	if cb.queued {
		return
	}
	cb.queued = true
	cb.dom.runq.push(runnable{cb: cb})
}

// invoke runs a runq entry for the callback: a deferred arm draws its
// seq, a wake emits the blocked-interval trace slice (mirroring park's)
// and runs the handler.
func (d *Domain) invoke(cb *Callback) {
	cb.queued = false
	if delay := cb.pendingArm; delay > 0 {
		cb.pendingArm = 0
		cb.Arm(delay)
		return
	}
	if t := d.tracer; t != nil && cb.waitReason != "" {
		// The subscribed interval, named by its wait reason, becomes one
		// virtual-time slice on the callback's track — the same record a
		// parked proc's park emits on wake.
		t.Slice(cb.traceTID(t), "sim", cb.waitReason, cb.waitStart, d.now)
	}
	cb.waitReason = ""
	d.runCB(cb)
}

// fire implements inlineEvent: a popped timer runs the handler inline.
// The trace slice spans [armAt, now] under the name "sleep", exactly
// the slice a sleeping proc's park would have recorded.
func (cb *Callback) fire(d *Domain, armAt Time) {
	cb.armed--
	if t := d.tracer; t != nil {
		t.Slice(cb.traceTID(t), "sim", "sleep", armAt, d.now)
	}
	d.runCB(cb)
}

// runCB runs the handler with the same panic conversion runProc gives
// goroutine procs, and re-arms when the handler returns a delay.
func (d *Domain) runCB(cb *Callback) {
	defer func() {
		if r := recover(); r != nil {
			d.eng.noteFailure(d, fmt.Errorf("sim: callback %q panicked: %v\n%s",
				cb.name, r, debug.Stack()))
		}
	}()
	if next := cb.fn(d.now); next > 0 {
		cb.Arm(next)
	}
}

// traceTID lazily registers the callback's trace track, sharing the
// proc naming scheme so a converted component keeps its track.
func (cb *Callback) traceTID(t Tracer) int32 {
	if cb.tid == 0 {
		cb.tid = t.Track(cb.name)
	}
	return cb.tid
}
