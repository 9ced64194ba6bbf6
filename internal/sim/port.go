package sim

// Ports implement timerEvent (engine.go): a popped delivery timer
// moves ripe messages into the inbox and wakes receivers, inline on the
// scheduler goroutine while the receiving domain's event runs.
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
// every other timer does not depend on when the timer was armed or on
// how many local timers the receiver drew meanwhile. At equal times,
// local timers (seq < 2^63) sort before deliveries, and deliveries sort
// by (port creation order, send order).
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
// The latency is positive and fixed. Positive, so a message always
// lands in the future, which no domain has reached; fixed, so messages
// ripen in send order and the ripe ones are always a prefix of the
// pending queue.
//
// Determinism: each port keeps at most one delivery timer in the
// receiver's heap, for the oldest pending message, carrying the
// canonical delivery sequence (see deliverySeq). Delivery order is a
// pure function of (virtual send time, port creation order, send
// order).
type Port[T any] struct {
	name    string
	from    *Domain
	to      *Domain
	latency Time
	idx     int // creation index: the canonical tiebreak

	// pending holds sent, undelivered messages in delivery order.
	pending []portMsg[T]
	// delivered counts messages handed to the inbox; the head pending
	// message's index is delivered, which deliverySeq turns into the
	// canonical timer sequence. armed says a delivery timer for the
	// current head is already in the receiver's heap.
	delivered uint64
	armed     bool

	inbox      []T
	ihead      int
	recvQ      WaitQueue
	recvReason string
	onDeliver  func(now Time)
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
		panic("sim: NewPort latency must be positive (a message must land in the future)")
	case e.running:
		panic("sim: NewPort during Run")
	case e.nports >= 1<<deliveryPortBits:
		panic("sim: too many ports for the canonical delivery sequence encoding")
	}
	p := &Port[T]{
		name: name, from: fd, to: td, latency: latency,
		idx:        e.nports,
		recvReason: "port-recv " + name,
	}
	e.nports++
	return p
}

// Name returns the port's name.
func (pt *Port[T]) Name() string { return pt.name }

// Send timestamps v at the current time plus the port latency and
// queues it for delivery. It never blocks: ports are unbounded,
// modeling an asynchronous link. The caller is anything that names its
// domain — a *Proc, or a *Domain for a callback's handler — and must
// run on the sending domain.
func (pt *Port[T]) Send(from interface{ Dom() *Domain }, v T) {
	d := from.Dom()
	if d != pt.from {
		panic("sim: Port.Send from wrong domain: " + d.name + " on " + pt.name)
	}
	pt.pending = append(pt.pending, portMsg[T]{at: d.eng.now + pt.latency, v: v})
	pt.to.deliveries++
	pt.arm()
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

// OnDeliver sets fn to run once per delivery on the receiving domain,
// after the delivery has moved its ripe messages into the inbox and
// woken their receivers; a delivery that moves nothing does not call
// it. It serves a receiver that polls the inbox instead of blocking in
// Recv, such as a server that wakes on a tick grid. fn runs inline in
// the delivery event, so the cross-domain guard applies to whatever it
// touches. Set it before Run.
func (pt *Port[T]) OnDeliver(fn func(now Time)) { pt.onDeliver = fn }

// Len returns the number of ripe, undelivered messages.
func (pt *Port[T]) Len() int { return len(pt.inbox) - pt.ihead }

// arm pushes the head pending message's delivery timer into the
// receiver's heap, unless one is already in flight.
func (pt *Port[T]) arm() {
	if pt.armed {
		return
	}
	pt.to.timers.push(timer{at: pt.pending[0].at, seq: deliverySeq(pt.idx, pt.delivered), fire: pt})
	pt.armed = true
}

// deliverRipe moves every pending message with at <= now into the inbox,
// wakes one receiver per message and runs the OnDeliver hook. The ripe
// messages are a prefix of pending; the rest shift to the front, so a
// stream that never fully drains reuses one bounded array, and the
// timer re-arms at the new head.
func (pt *Port[T]) deliverRipe(d *Domain) {
	pt.armed = false
	now := d.eng.now
	k := 0
	for ; k < len(pt.pending) && pt.pending[k].at <= now; k++ {
		pt.inbox = append(pt.inbox, pt.pending[k].v)
		pt.delivered++
		pt.recvQ.WakeOne()
	}
	n := copy(pt.pending, pt.pending[k:])
	clear(pt.pending[n:])
	pt.pending = pt.pending[:n]
	if n > 0 {
		pt.arm()
	}
	if k > 0 && pt.onDeliver != nil {
		pt.onDeliver(now)
	}
}
