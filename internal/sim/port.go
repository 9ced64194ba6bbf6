package sim

// portFlusher is the engine-side view of a port: at every window barrier
// the engine, running serially, moves sender-buffered messages into the
// receiver's timer wheel. Iterating ports in creation order makes the
// merge canonical.
type portFlusher interface {
	flush()
}

// Ports implement inlineEvent (engine.go): a popped delivery timer
// moves ripe messages into the inbox and wakes receivers, inline on the
// receiving domain's scheduler goroutine.
func (pt *Port[T]) fire(d *Domain, _ Time) { pt.deliverRipe(d) }

type portMsg[T any] struct {
	at Time
	v  T
}

// Delivery timers carry a canonical sequence number instead of a
// receiver-local counter value: bit 63 marks a delivery, the next 23
// bits are the port's creation index, and the low 40 bits count
// messages delivered on that port. The encoding is a pure function of
// (port, message index), so the (time, seq) order of a delivery against
// every other timer is independent of *when* the barrier flushed it —
// the property that makes barrier placement unobservable (the engine's
// windows and the fixed-lookahead reference in window_test.go flush at
// different rounds and produce byte-identical simulations). At equal
// times, local timers (seq < 2^63) sort before deliveries, and
// deliveries sort by (port creation order, send order).
const (
	deliverySeqBit   = uint64(1) << 63
	deliveryPortBits = 23
	deliveryMsgBits  = 63 - deliveryPortBits
)

func deliverySeq(portIdx int, msg uint64) uint64 {
	return deliverySeqBit |
		uint64(portIdx)<<deliveryMsgBits |
		msg&(uint64(1)<<deliveryMsgBits-1)
}

// Port is a one-way, timestamped channel between two domains — the only
// legal way for state to cross a domain boundary. A message sent at
// virtual time t is receivable at t+latency in the receiver's domain.
//
// The latency is not an implementation detail: it is the port's
// lookahead contribution. The engine's conservative window is bounded by
// the earliest time a sender could emit plus its port's latency, which
// is exactly why latency must be positive and fixed — a zero-latency
// port would collapse the window to nothing, and a variable one would
// break the sorted-delivery invariant the barrier merge relies on.
//
// Determinism: sends buffer on the sender's side in program order; the
// barrier (serial) hands each buffered batch to the receiver and arms
// one delivery timer per port at the head delivery time. Timers carry
// the canonical delivery sequence (see deliverySeq), so delivery order
// is a pure function of (virtual send time, port creation order, send
// order) and cannot depend on the worker count or the window protocol.
type Port[T any] struct {
	name    string
	from    *Domain
	to      *Domain
	latency Time
	idx     int // creation index in Engine.ports: the canonical tiebreak

	// out is written only by the sending domain during a window and
	// drained only by the barrier; the window/barrier alternation is the
	// synchronization.
	out []portMsg[T]

	// batches is a FIFO of flushed-but-not-ripe batches in delivery
	// order; batches[bhead] is the oldest and phead indexes into it.
	// Conservative windows guarantee every flush appends at times no
	// earlier than everything already pending (send times only grow
	// across a domain's windows, latency is fixed), so ripeness is
	// always a prefix. Consumed batch arrays recycle through free so
	// the steady-state barrier path never allocates.
	batches [][]portMsg[T]
	bhead   int
	phead   int
	free    [][]portMsg[T]

	// delivered counts messages handed to the inbox; the head pending
	// message's index is delivered, which deliverySeq turns into the
	// canonical timer sequence. armed says a delivery timer for the
	// current head is already in the receiver's heap — one per port at
	// a time, re-armed as the head moves.
	delivered uint64
	armed     bool

	inbox      []T
	ihead      int
	recvQ      WaitQueue
	recvReason string
}

// NewPort creates a port carrying T from one domain to another with the
// given fixed latency. Both hosts must belong to the same engine, the
// domains must differ, and latency must be positive; ports must be
// created before Run.
func NewPort[T any](from, to Host, name string, latency Time) *Port[T] {
	fd, td := from.Dom(), to.Dom()
	e := fd.eng
	switch {
	case e != td.eng:
		panic("sim: NewPort across engines")
	case fd == td:
		panic("sim: NewPort within one domain (use Chan)")
	case latency <= 0:
		panic("sim: NewPort latency must be positive (it bounds the lookahead window)")
	case e.running:
		panic("sim: NewPort during Run")
	case len(e.ports) >= 1<<deliveryPortBits:
		panic("sim: too many ports for the canonical delivery sequence encoding")
	}
	p := &Port[T]{
		name: name, from: fd, to: td, latency: latency,
		idx:        len(e.ports),
		recvReason: "port-recv " + name,
	}
	if e.minLat == 0 || latency < e.minLat {
		e.minLat = latency
	}
	e.ports = append(e.ports, p)
	e.portFrom = append(e.portFrom, int32(fd.id))
	e.portTo = append(e.portTo, int32(td.id))
	e.portLat = append(e.portLat, latency)
	return p
}

// Name returns the port's name.
func (pt *Port[T]) Name() string { return pt.name }

// Latency returns the port's fixed delivery latency.
func (pt *Port[T]) Latency() Time { return pt.latency }

// Send timestamps v at the caller's current time plus the port latency
// and buffers it for the next barrier. It never blocks: ports are
// unbounded, modeling an asynchronous link. The caller must run on the
// sending domain.
func (pt *Port[T]) Send(p *Proc, v T) {
	if p.dom != pt.from {
		panic("sim: Port.Send from wrong domain: " + p.name + " on " + pt.name)
	}
	pt.out = append(pt.out, portMsg[T]{at: p.dom.now + pt.latency, v: v})
}

// Recv blocks the calling process (which must run on the receiving
// domain) until a message ripens, then returns the oldest one.
func (pt *Port[T]) Recv(p *Proc) T {
	if p.dom != pt.to {
		panic("sim: Port.Recv from wrong domain: " + p.name + " on " + pt.name)
	}
	for pt.ihead >= len(pt.inbox) {
		pt.recvQ.Wait(p, pt.recvReason)
	}
	v := pt.inbox[pt.ihead]
	var zero T
	pt.inbox[pt.ihead] = zero
	pt.ihead++
	if pt.ihead == len(pt.inbox) {
		pt.inbox = pt.inbox[:0]
		pt.ihead = 0
	}
	return v
}

// TryRecv returns the oldest ripe message without blocking; ok is false
// when none has ripened yet.
func (pt *Port[T]) TryRecv() (v T, ok bool) {
	if pt.ihead >= len(pt.inbox) {
		return v, false
	}
	v = pt.inbox[pt.ihead]
	var zero T
	pt.inbox[pt.ihead] = zero
	pt.ihead++
	if pt.ihead == len(pt.inbox) {
		pt.inbox = pt.inbox[:0]
		pt.ihead = 0
	}
	return v, true
}

// Len returns the number of ripe, undelivered messages.
func (pt *Port[T]) Len() int { return len(pt.inbox) - pt.ihead }

// flush runs at the barrier, on the engine goroutine, with every domain
// parked. The whole sender buffer moves into the pending FIFO as one
// batch (no per-message work), the sender gets a recycled array back,
// and a single delivery timer is armed at the head delivery time.
func (pt *Port[T]) flush() {
	if len(pt.out) == 0 {
		return
	}
	pt.to.deliveries += uint64(len(pt.out))
	pt.batches = append(pt.batches, pt.out)
	if n := len(pt.free); n > 0 {
		pt.out = pt.free[n-1]
		pt.free[n-1] = nil
		pt.free = pt.free[:n-1]
	} else {
		pt.out = nil
	}
	pt.arm()
}

// arm pushes the head pending message's delivery timer into the
// receiver's heap, unless one is already in flight. The timer's
// sequence is canonical (deliverySeq), so arming earlier or later —
// at whichever barrier happened to flush it — cannot change where the
// delivery sorts.
func (pt *Port[T]) arm() {
	if pt.armed {
		return
	}
	head := pt.batches[pt.bhead][pt.phead]
	pt.to.timers.push(timer{at: head.at, seq: deliverySeq(pt.idx, pt.delivered), fire: pt})
	pt.armed = true
}

// deliverRipe moves every pending message with at <= now into the inbox
// and wakes one receiver per message. Ripe messages are always a prefix
// of the pending FIFO (see the batches comment), so this walks batches
// in order, recycling each consumed array, and re-arms the timer at the
// new head when unripe messages remain.
func (pt *Port[T]) deliverRipe(d *Domain) {
	pt.armed = false
	for pt.bhead < len(pt.batches) {
		b := pt.batches[pt.bhead]
		for pt.phead < len(b) && b[pt.phead].at <= d.now {
			pt.inbox = append(pt.inbox, b[pt.phead].v)
			b[pt.phead] = portMsg[T]{}
			pt.phead++
			pt.delivered++
			pt.recvQ.WakeOne()
		}
		if pt.phead < len(b) {
			break // head batch has unripe messages left
		}
		pt.batches[pt.bhead] = nil
		pt.free = append(pt.free, b[:0])
		pt.bhead++
		pt.phead = 0
	}
	if pt.bhead == len(pt.batches) {
		pt.batches = pt.batches[:0]
		pt.bhead = 0
	} else {
		pt.arm()
	}
}
