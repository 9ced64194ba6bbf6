package sim

import (
	"fmt"
	"math/rand"
)

// Domain is an event domain: a shard of the simulation with its own
// timer heap, sequence counter, process table and random streams, on
// the engine's one clock. A domain models one machine: state confined
// to it is touched only by its own events, and other domains reach it
// only through Ports, whose latency is the time a message takes to
// cross. The engine enforces that during Run (see own).
//
// A Domain is a Host: components constructed against a Domain live on
// that domain. The Engine's own Host methods delegate to its default
// domain, so single-domain code never mentions Domain at all.
type Domain struct {
	id   int
	name string
	eng  *Engine

	// seq is the local-timer tiebreaker for deterministic ordering:
	// Sleep timers take increasing values, so equal-time local timers
	// fire in schedule order. Port delivery timers carry a disjoint
	// canonical sequence space instead (bit 63 set — see port.go), so at
	// equal times local timers sort before deliveries.
	seq uint64
	// deliveries counts port messages sent to this domain, for the
	// TimersScheduled accounting (deliveries do not consume seq values).
	deliveries uint64
	timers     timerHeap
	procs      []*Proc // all procs ever created on this domain, in creation order
	nextPID    int
	// cbs lists every callback registered on this domain, in creation
	// order. Callback ids come from nextCBID, a counter disjoint from
	// nextPID: creating a callback never shifts the pid-derived random
	// streams of goroutine procs.
	cbs      []*Callback
	nextCBID int
	tracer   Tracer // nil unless observability is on (see trace.go)
}

// ID returns the domain's index in Engine.Domains (the default domain
// is 0).
func (d *Domain) ID() int { return d.id }

// Name returns the name given to NewDomain ("main" for the default
// domain).
func (d *Domain) Name() string { return d.name }

// Now returns the current virtual time. Every domain reads the engine's
// one clock: a domain's code runs only while its own events do, and at
// those moments the global time is its time.
func (d *Domain) Now() Time { return d.eng.now }

// Engine returns the engine this domain belongs to.
func (d *Domain) Engine() *Engine { return d.eng }

// Dom implements Host.
func (d *Domain) Dom() *Domain { return d }

// SetTracer attaches a tracer to this domain; a domain with its own
// tracer exports as its own trace process. Must be called before Run.
func (d *Domain) SetTracer(t Tracer) { d.tracer = t }

// Tracer returns the domain's tracer (nil when tracing is off).
func (d *Domain) Tracer() Tracer { return d.tracer }

// DeriveRand returns a deterministic random source for the named
// component on this domain. The default domain uses the engine-level
// derivation unchanged (so existing single-domain streams are stable);
// other domains mix in their name, making streams independent across
// domains even for identical component names.
func (d *Domain) DeriveRand(name string) *rand.Rand {
	if d.id == 0 {
		return d.eng.DeriveRand(name)
	}
	return d.eng.DeriveRand(name + "@" + d.name)
}

// Go creates a process on this domain that will run fn. It may be called
// before Run to seed the simulation, or during Run by this domain's own
// processes and callbacks; spawning onto a different domain panics (a
// Port carries the request instead). The new process starts after the
// caller next blocks.
func (d *Domain) Go(name string, fn func(*Proc)) *Proc {
	d.own("Go")
	e := d.eng
	p := &Proc{eng: e, dom: d, name: name, pid: d.nextPID}
	d.nextPID++
	d.procs = append(d.procs, p)
	if e.stopping {
		p.done = true
		return p
	}
	p.start(fn)
	d.ready(p)
	return p
}

// own panics when code running on another domain reaches into d during
// Run: the serial loop would silently run such a call, modelling an
// instantaneous cross-machine interaction that only a Port may carry.
// It guards Go, callback arms and wakes, and WaitQueue wakes.
func (d *Domain) own(op string) {
	if c := d.eng.cur; c != d && c != nil {
		panic(fmt.Sprintf("sim: %s on domain %q from domain %q (cross-domain calls go through a Port)",
			op, d.name, c.name))
	}
}

// fire implements timerEvent: a sleeping proc's timer readies it.
func (p *Proc) fire(d *Domain, _ Time) { d.ready(p) }

// ready marks p runnable now.
func (d *Domain) ready(p *Proc) {
	if p.done {
		return
	}
	d.eng.runq.push(runnable{p: p})
}

// Go spawns a process on the calling process's own domain — the safe
// default for component code, which may be hosted on any domain and must
// never spawn onto a different one.
func (p *Proc) Go(name string, fn func(*Proc)) *Proc { return p.dom.Go(name, fn) }

// ProcsCreated returns how many processes were ever created on this
// domain.
func (d *Domain) ProcsCreated() int { return len(d.procs) }

// CallbacksCreated returns how many callbacks were ever registered on
// this domain.
func (d *Domain) CallbacksCreated() int { return len(d.cbs) }

// TimersScheduled returns how many timed events were ever scheduled on
// this domain (sleeps plus port message deliveries).
func (d *Domain) TimersScheduled() uint64 { return d.seq + d.deliveries }
