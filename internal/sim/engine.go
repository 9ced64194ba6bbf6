package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
)

// Engine is a discrete-event scheduler. Processes (Proc) are coroutines
// the engine switches to directly (see coro.go), and callbacks
// (Callback) are handlers it invokes inline. Every process and callback
// belongs to exactly one event Domain. Exactly one of them runs at a
// time in the whole simulation, so simulated code needs no locking.
//
// Run is one serial event loop (see loop) for any number of domains:
// the run queue first, then the earliest timer of any domain. Domains
// keep their own timer heaps, sequence counters and random streams, and
// may interact only through Ports.
//
// Engines are not safe for concurrent use from outside the simulation:
// the only goroutines that may touch engine state are the one that
// calls Run and the process coroutines the engine itself resumes.
type Engine struct {
	seed     int64
	running  bool
	stopping bool // set by Stop or the first failure; every process observes it
	failure  error

	// now is the one virtual clock: every domain reads it.
	now Time
	// cur is the domain whose event is running (nil outside Run and
	// during shutdown); the cross-domain guard compares against it.
	cur *Domain
	// runq holds everything runnable at now, of any domain, in one FIFO.
	runq procRing
	// switches counts proc resumes, for the Gosched cadence (coro.go).
	switches uint32

	domains []*Domain
	d0      *Domain // the default domain
	nports  int     // ports created: the next port's canonical index
}

// ErrStopped is returned by Wait-style primitives when they are interrupted
// by engine shutdown. Domain code normally never sees it: shutdown unwinds
// processes with a private panic value instead.
var ErrStopped = errors.New("sim: engine stopped")

// Host is a place processes can be created: either the Engine itself
// (its default domain) or a specific Domain. Components take a Host so
// the machine wiring can assign each of them to an event domain without
// the component knowing about partitioning.
type Host interface {
	// Now returns the host domain's current virtual time.
	Now() Time
	// Go creates a process in the host domain.
	Go(name string, fn func(*Proc)) *Proc
	// DeriveRand returns a deterministic random source for the named
	// component, independent for distinct names (and distinct domains).
	DeriveRand(name string) *rand.Rand
	// Engine returns the underlying engine.
	Engine() *Engine
	// Dom returns the concrete domain.
	Dom() *Domain
}

// New creates an engine whose randomness derives from seed. Two engines
// built with the same seed and driven by the same code produce identical
// event sequences.
func New(seed int64) *Engine {
	e := &Engine{seed: seed}
	e.d0 = &Domain{id: 0, name: "main", eng: e}
	e.domains = []*Domain{e.d0}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Engine implements Host.
func (e *Engine) Engine() *Engine { return e }

// Dom returns the default domain.
func (e *Engine) Dom() *Domain { return e.d0 }

// Domains returns all domains in creation order (the default domain is
// always first).
func (e *Engine) Domains() []*Domain { return e.domains }

// SetWorkers does nothing: Run is serial. It remains only for callers
// that still pass a worker count.
func (e *Engine) SetWorkers(int) {}

// NewDomain creates a new event domain. Domains must be created before
// Run. Components hosted on distinct domains may interact only through
// Ports; reaching into another domain during Run panics (see Domain.own).
func (e *Engine) NewDomain(name string) *Domain {
	if e.running {
		panic("sim: NewDomain during Run")
	}
	d := &Domain{id: len(e.domains), name: name, eng: e}
	e.domains = append(e.domains, d)
	return d
}

// DeriveRand returns a deterministic random source for the named component.
// The stream depends only on the engine seed and the name, so adding a new
// component does not perturb the randomness seen by existing ones.
func (e *Engine) DeriveRand(name string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(e.seed)
	h *= 1099511628211
	return rand.New(rand.NewSource(int64(h)))
}

// Go creates a process in the default domain. It may be called before Run
// to seed the simulation, or by a running process to spawn concurrent
// work. The new process starts after the caller next blocks.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc { return e.d0.Go(name, fn) }

// Stop ends the simulation: once the running event returns, no further
// event runs, in any domain. It may be called from inside a process or
// callback, or between runs from the driving goroutine.
func (e *Engine) Stop() { e.stopping = true }

// Stopping reports whether Stop has been called (or a failure ended the
// run), for processes that poll it between steps.
func (e *Engine) Stopping() bool { return e.stopping }

// Run executes the simulation until it quiesces (no runnable process, no
// pending timer, and no undelivered port message), or until Stop is
// called. It returns the first process panic converted to an error, if
// any occurred.
func (e *Engine) Run() error {
	if e.running {
		return errors.New("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.loop()
	e.shutdown()
	return e.failure
}

// loop is the engine's one event loop, for any number of domains. The
// run queue (everything runnable now) goes first; when it is empty, the
// earliest timer of any domain fires, by (time, seq) with ties to the
// lowest domain id. Each domain's events therefore run in exactly the
// order its own serial loop would give them, and a port message sent at
// t lands at t+latency > t, which no domain has passed. It is the hot
// path of every simulation and must stay allocation-free per event.
func (e *Engine) loop() {
	for !e.stopping {
		if r, ok := e.runq.pop(); ok {
			if cb := r.cb; cb != nil {
				e.cur = cb.dom
				cb.dom.invoke(cb)
			} else {
				e.cur = r.p.dom
				e.resume(r.p)
			}
			continue
		}
		d := e.d0
		for _, o := range e.domains[1:] {
			if len(o.timers.a) > 0 && (len(d.timers.a) == 0 || o.timers.a[0].before(&d.timers.a[0])) {
				d = o
			}
		}
		tm, ok := d.timers.pop()
		if !ok {
			break // quiescent: every live proc is waiting on a condition
		}
		if tm.at > e.now {
			e.now = tm.at
		}
		e.cur = d
		tm.fire.fire(d, tm.armAt)
	}
}

// RunFor runs the simulation for at most d of virtual time: a stop
// timer on the default domain calls Stop at the deadline, so events due
// after it never run, and the clock reads the deadline afterwards
// unless the run stopped earlier.
func (e *Engine) RunFor(d Time) error {
	if d <= 0 {
		// A non-positive budget means "stop after the initial yield round";
		// only the goroutine form can express Sleep(0)'s double runq pass.
		e.Go("sim.stop-timer", func(p *Proc) {
			p.Sleep(d)
			e.Stop()
		})
		return e.Run()
	}
	// The stop timer needs no call stack, so it runs as a callback. The
	// deferred arm draws its seq exactly where a spawned proc's Sleep
	// would, so it sorts like the stop process it replaced.
	cb := NewCallback(e, "sim.stop-timer", func(Time) Time {
		e.Stop()
		return 0
	})
	cb.ArmDeferred(d)
	return e.Run()
}

// shutdown unwinds every live process so no goroutines leak. Nothing
// scheduled during the unwinding ever runs, so it is exempt from the
// cross-domain guard.
func (e *Engine) shutdown() {
	e.stopping = true
	e.cur = nil
	e.runq = procRing{}
	for _, d := range e.domains {
		d.timers = timerHeap{}
	}
	for {
		resumed := false
		for _, d := range e.domains {
			for _, p := range d.procs {
				if !p.done {
					e.resume(p)
					resumed = true
				}
			}
		}
		if !resumed {
			break
		}
	}
}

// noteFailure records a process or callback panic. The first failure
// stops the run.
func (e *Engine) noteFailure(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopping = true
}

// DumpWaiters returns a human-readable description of blocked processes,
// useful when a simulation quiesces unexpectedly.
func (e *Engine) DumpWaiters() string {
	var b strings.Builder
	for _, d := range e.domains {
		for _, p := range d.procs {
			switch {
			case p.done:
			case p.sleeping:
				fmt.Fprintf(&b, "proc %q: sleep until %s\n", p.name, p.sleepUntil)
			case p.waitReason != "":
				fmt.Fprintf(&b, "proc %q: %s\n", p.name, p.waitReason)
			}
		}
		for _, cb := range d.cbs {
			switch {
			case cb.waitReason != "":
				fmt.Fprintf(&b, "callback %q: %s\n", cb.name, cb.waitReason)
			case cb.armed > 0:
				fmt.Fprintf(&b, "callback %q: armed ×%d\n", cb.name, cb.armed)
			}
		}
	}
	return b.String()
}

// procKilled is the panic value used to unwind processes at shutdown.
type procKilled struct{}

// Proc is a simulated process. Every Proc method must be called from the
// process's own coroutine while it is the running process.
type Proc struct {
	eng  *Engine
	dom  *Domain
	name string
	pid  int
	// next resumes the process's coroutine until it parks or exits;
	// yield, called from inside it, parks it (see coro.go).
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	// Wait state is kept cheap to record: reasons are static strings and
	// sleeps store only the wake time; DumpWaiters formats on demand, so
	// the hot park/Sleep paths never build strings.
	waitReason string
	sleeping   bool
	sleepUntil Time
	rng        *rand.Rand // memoized by Rand
	tid        int32      // trace track id, assigned lazily (see trace.go)
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Dom returns the event domain this process belongs to.
func (p *Proc) Dom() *Domain { return p.dom }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Rand returns a deterministic random source scoped to this process. The
// source is created on first use and reused, so repeated calls continue
// one stream. Streams are independent across domains: pids are
// domain-local, and non-default domains mix their name into the
// derivation.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = p.dom.DeriveRand(fmt.Sprintf("proc:%s#%d", p.name, p.pid))
	}
	return p.rng
}

func runProc(p *Proc, fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); ok {
				return
			}
			p.eng.noteFailure(fmt.Errorf("sim: proc %q panicked: %v\n%s",
				p.name, r, debug.Stack()))
		}
	}()
	fn(p)
}

// park blocks the calling process until it is made runnable again. The
// reason must be a preformatted (ideally static) string: it is recorded
// unconditionally, so building it must not allocate on the hot path.
func (p *Proc) park(reason string) {
	e, d := p.eng, p.dom
	p.waitReason = reason
	var parkAt Time
	if d.tracer != nil {
		parkAt = e.now
	}
	p.yield(struct{}{})
	if t := d.tracer; t != nil {
		// The parked interval, named by its wait reason, becomes one
		// virtual-time slice on the process's track. Reasons are static
		// strings (see above), so recording never formats.
		name := reason
		if name == "" {
			name = "sleep"
		}
		t.Slice(p.traceTID(t), "sim", name, parkAt, e.now)
	}
	p.waitReason = ""
	p.sleeping = false
	if e.stopping {
		panic(procKilled{})
	}
}

// Sleep suspends the process for d of virtual time. Non-positive durations
// yield the processor and resume at the current time after other runnable
// processes have had a turn.
func (p *Proc) Sleep(t Time) {
	d := p.dom
	if t <= 0 {
		d.ready(p)
		p.park("yield")
		return
	}
	at := p.eng.now + t
	d.seq++
	d.timers.push(timer{at: at, seq: d.seq, fire: p})
	p.sleeping = true
	p.sleepUntil = at
	p.park("")
}

// Yield gives other runnable processes a turn without advancing time.
func (p *Proc) Yield() { p.Sleep(0) }

// timerEvent is what a popped timer does, run inline on the scheduler
// goroutine: a sleeping proc becomes runnable (Proc.fire), a port
// delivers its ripe messages (deliverRipe), a callback runs its handler
// (Callback.fire). armAt is the virtual time the timer was armed;
// callbacks span their trace slice over [armAt, now], the others
// ignore it.
type timerEvent interface {
	fire(d *Domain, armAt Time)
}

type timer struct {
	at    Time
	seq   uint64
	fire  timerEvent
	armAt Time
}

// before orders timers by (at, seq). It takes pointers: timers are
// 48-byte values, and copying two per compare shows in the heap's cost.
func (t *timer) before(u *timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// timerHeap is a 4-ary min-heap of timer values ordered by (at, seq).
// Storing values directly (instead of container/heap's boxed interface)
// keeps Sleep allocation-free, and the wider fan-out halves the tree
// depth paid by sift-down on the pop-heavy event loop.
type timerHeap struct {
	a []timer
}

func (h *timerHeap) Len() int { return len(h.a) }

func (h *timerHeap) push(t timer) {
	h.a = append(h.a, t)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.a[i].before(&h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *timerHeap) pop() (timer, bool) {
	n := len(h.a)
	if n == 0 {
		return timer{}, false
	}
	top := h.a[0]
	last := h.a[n-1]
	h.a[n-1] = timer{} // drop the event reference
	h.a = h.a[:n-1]
	n--
	if n > 0 {
		// Sift last down from the root, moving smaller children up into
		// the hole until last fits.
		i := 0
		for {
			min := -1
			first := 4*i + 1
			end := first + 4
			if end > n {
				end = n
			}
			for c := first; c < end; c++ {
				if min < 0 || h.a[c].before(&h.a[min]) {
					min = c
				}
			}
			if min < 0 || !h.a[min].before(&last) {
				break
			}
			h.a[i] = h.a[min]
			i = min
		}
		h.a[i] = last
	}
	return top, true
}

// runnable is one run-queue (or wait-queue) entry: a goroutine proc to
// resume or a callback to invoke. Exactly one field is set. Queues hold
// both kinds in one FIFO so procs and callbacks interleave in one
// deterministic order.
type runnable struct {
	p  *Proc
	cb *Callback
}

// procRing is a FIFO run queue backed by a power-of-two ring buffer, so
// the scheduler's pop-front is O(1) without the slice-shift reallocation
// churn of runq = runq[1:] + append.
type procRing struct {
	buf  []runnable
	head int
	n    int
}

func (r *procRing) len() int { return r.n }

func (r *procRing) push(v runnable) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *procRing) pop() (runnable, bool) {
	if r.n == 0 {
		return runnable{}, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = runnable{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

func (r *procRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]runnable, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
