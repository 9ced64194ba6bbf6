// Package iosched implements the I/O schedulers used in the paper's
// evaluation: a CFQ-like scheduler with an Idle priority class (the
// default configuration, §6.1.3), a Deadline-like scheduler without
// prioritization (the §6.5 ablation), and a trivial FIFO.
//
// Schedulers are pure queue structure: Dispatch runs inline in the
// disk's executor callback, so the dispatch kick (Submit → wake →
// Dispatch) is goroutine-free — a submit schedules the disk's callback
// on the run queue and the next slot dispatches, with no park/resume
// handshake anywhere on the path. A Dispatch that returns a positive
// wait (the idle-grace case) becomes the disk's single reusable grace
// timer rather than a spawned goroutine. See DESIGN.md, "Procs and
// callbacks".
package iosched

import (
	"duet/internal/sim"
	"duet/internal/storage"
)

// DefaultIdleGrace is how long the device must have been free of
// normal-class activity before idle-class I/O is dispatched. CFQ's idle
// class behaves similarly: idle I/O runs only once the disk has been idle
// for a while.
const DefaultIdleGrace = 2 * sim.Millisecond

// DefaultIdleSliceTime is how long one owner may keep dispatching
// idle-class requests before the slice rotates to another idle owner.
// Real CFQ gives each process a time slice; without slicing, concurrent
// maintenance streams would interleave request-by-request and thrash the
// head, and a budget in requests or blocks would hand seek-heavy streams
// a disproportionate share of device time.
const DefaultIdleSliceTime = 200 * sim.Millisecond

// queue is a FIFO of requests backed by one reusable slice. Popping
// advances a head index instead of re-slicing the base away, and the
// slice rewinds to the front whenever the queue drains — so steady
// traffic recycles a single backing array instead of forcing append to
// reallocate on every enqueue (the drained q = q[1:] slice has no spare
// capacity at its new base).
type queue struct {
	buf  []*storage.Request
	head int
}

func (q *queue) push(r *storage.Request) {
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	q.buf = append(q.buf, r)
}

func (q *queue) pop() *storage.Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return r
}

// length is nil-safe so callers can probe map entries that may not exist.
func (q *queue) length() int {
	if q == nil {
		return 0
	}
	return len(q.buf) - q.head
}

// CFQ dispatches normal-class requests FIFO and idle-class requests only
// when no normal request is pending and the device has seen no
// normal-class completion for the grace period. Once idle I/O gets a
// turn, requests from one owner run as a slice before rotating to the
// next idle owner.
type CFQ struct {
	IdleGrace     sim.Time
	IdleSliceTime sim.Time

	normal     queue
	idleOwners []string // round-robin order of owners with queues
	idleQ      map[string]*queue
	idleLen    int
	curOwner   string
	sliceStart sim.Time
	// anticipateUntil implements CFQ's slice_idle for the idle class:
	// synchronous tasks have at most one request outstanding, so when the
	// slice owner's queue empties the scheduler waits briefly for its
	// next request instead of rotating (and seeking) on every request.
	anticipateUntil sim.Time
}

// NewCFQ returns a CFQ scheduler with the default parameters.
func NewCFQ() *CFQ {
	return &CFQ{
		IdleGrace:     DefaultIdleGrace,
		IdleSliceTime: DefaultIdleSliceTime,
		idleQ:         map[string]*queue{},
		sliceStart:    -1,
	}
}

// Name implements storage.Scheduler.
func (s *CFQ) Name() string { return "cfq" }

// Add implements storage.Scheduler.
func (s *CFQ) Add(r *storage.Request) {
	if r.Class != storage.ClassIdle {
		s.normal.push(r)
		return
	}
	q, ok := s.idleQ[r.Owner]
	if !ok {
		s.idleOwners = append(s.idleOwners, r.Owner)
		q = &queue{}
		s.idleQ[r.Owner] = q
	}
	q.push(r)
	s.idleLen++
}

// popIdle dispatches from the current owner's time slice. When the
// owner's queue is momentarily empty but the slice has time left, it
// anticipates (returns nil with a wait hint) instead of rotating; the
// slice rotates when it expires or anticipation times out.
func (s *CFQ) popIdle(now sim.Time) (*storage.Request, sim.Time) {
	expired := s.sliceStart < 0 || now-s.sliceStart >= s.IdleSliceTime
	if q := s.idleQ[s.curOwner]; q.length() > 0 && !expired {
		s.anticipateUntil = 0
		s.idleLen--
		return q.pop(), 0
	}
	if !expired && s.curOwner != "" {
		// Anticipate the owner's next synchronous request for up to the
		// grace period (CFQ's slice_idle).
		if s.anticipateUntil == 0 {
			s.anticipateUntil = now + s.IdleGrace
		}
		if now < s.anticipateUntil {
			return nil, s.anticipateUntil - now
		}
	}
	// Rotate to the next owner with pending requests.
	s.anticipateUntil = 0
	for i, o := range s.idleOwners {
		if s.idleQ[o].length() > 0 && (o != s.curOwner || len(s.idleOwners) == 1) {
			s.idleOwners = append(s.idleOwners[i+1:], s.idleOwners[:i+1]...)
			s.curOwner = o
			s.sliceStart = now
			break
		}
	}
	q := s.idleQ[s.curOwner]
	if q.length() == 0 {
		// Only the current owner has requests (or rotation found none).
		for _, o := range s.idleOwners {
			if s.idleQ[o].length() > 0 {
				s.curOwner, s.sliceStart = o, now
				q = s.idleQ[o]
				break
			}
		}
	}
	if q.length() == 0 {
		return nil, 0
	}
	s.idleLen--
	return q.pop(), 0
}

// Dispatch implements storage.Scheduler.
func (s *CFQ) Dispatch(now, lastNormal sim.Time) (*storage.Request, sim.Time) {
	if s.normal.length() > 0 {
		return s.normal.pop(), 0
	}
	if s.idleLen > 0 {
		eligible := lastNormal + s.IdleGrace
		if now >= eligible {
			return s.popIdle(now)
		}
		return nil, eligible - now
	}
	return nil, 0
}

// Pending implements storage.Scheduler.
func (s *CFQ) Pending() int { return s.normal.length() + s.idleLen }

// Deadline ignores priority classes entirely (the property §6.5 exercises:
// "the Linux Deadline I/O scheduler ... does not allow prioritizing
// different streams of I/O"). Reads are preferred over writes, as in the
// real deadline scheduler, but maintenance and workload I/O compete as
// equals.
type Deadline struct {
	reads  queue
	writes queue
	// starve bounds how many reads may pass a queued write, mirroring
	// deadline's writes_starved tunable.
	starve int
	passed int
}

// NewDeadline returns a Deadline scheduler with the kernel's default
// writes_starved of 2.
func NewDeadline() *Deadline { return &Deadline{starve: 2} }

// Name implements storage.Scheduler.
func (s *Deadline) Name() string { return "deadline" }

// Add implements storage.Scheduler.
func (s *Deadline) Add(r *storage.Request) {
	if r.Write {
		s.writes.push(r)
	} else {
		s.reads.push(r)
	}
}

// Dispatch implements storage.Scheduler.
func (s *Deadline) Dispatch(_, _ sim.Time) (*storage.Request, sim.Time) {
	if s.reads.length() > 0 && (s.writes.length() == 0 || s.passed < s.starve) {
		s.passed++
		return s.reads.pop(), 0
	}
	if s.writes.length() > 0 {
		s.passed = 0
		return s.writes.pop(), 0
	}
	if s.reads.length() > 0 {
		return s.reads.pop(), 0
	}
	return nil, 0
}

// Pending implements storage.Scheduler.
func (s *Deadline) Pending() int { return s.reads.length() + s.writes.length() }

// FIFO services requests strictly in arrival order (Linux noop).
type FIFO struct {
	q queue
}

// NewFIFO returns a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements storage.Scheduler.
func (s *FIFO) Name() string { return "noop" }

// Add implements storage.Scheduler.
func (s *FIFO) Add(r *storage.Request) { s.q.push(r) }

// Dispatch implements storage.Scheduler.
func (s *FIFO) Dispatch(_, _ sim.Time) (*storage.Request, sim.Time) {
	if s.q.length() == 0 {
		return nil, 0
	}
	return s.q.pop(), 0
}

// Pending implements storage.Scheduler.
func (s *FIFO) Pending() int { return s.q.length() }

// ByName constructs a scheduler from its name; it returns nil for unknown
// names.
func ByName(name string) storage.Scheduler {
	switch name {
	case "cfq":
		return NewCFQ()
	case "deadline":
		return NewDeadline()
	case "noop", "fifo":
		return NewFIFO()
	}
	return nil
}
