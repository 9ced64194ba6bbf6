package sim

import "fmt"

// WaitQueue is a FIFO list of processes blocked on a condition. It is the
// building block for the other primitives. The usual pattern is:
//
//	for !condition {
//		q.Wait(p, "waiting for condition")
//	}
//
// Wakers call WakeOne or WakeAll after establishing the condition; woken
// processes re-check it, so spurious wakeups are harmless.
type WaitQueue struct {
	waiters procRing
}

// NewWaitQueue returns an empty queue. The host argument is kept for
// symmetry with the other constructors; a queue wakes each process onto
// that process's own domain, so it carries no engine reference itself.
func NewWaitQueue(h Host) *WaitQueue { return &WaitQueue{} }

// Wait blocks the calling process until it is woken. The reason string is
// surfaced by Engine.DumpWaiters for debugging stalled simulations; pass
// a static (preformatted) string — it is recorded on every park.
func (q *WaitQueue) Wait(p *Proc, reason string) {
	q.waiters.push(runnable{p: p})
	p.park(reason)
}

// Subscribe enqueues a callback as a waiter: the next WakeOne that
// reaches it schedules the callback's handler through the run queue —
// the same FIFO slot a parked proc would resume in, so mixing callback
// and goroutine waiters on one queue stays deterministic. A callback
// waits at most once per Subscribe (one-shot, like one Wait); the
// handler re-subscribes if it wants to keep listening. The reason
// string follows the Wait contract (static, surfaced by DumpWaiters,
// and the name of the blocked-interval trace slice emitted on wake).
func (q *WaitQueue) Subscribe(cb *Callback, reason string) {
	if cb.queued {
		panic("sim: WaitQueue.Subscribe on a queued callback")
	}
	cb.waitReason = reason
	cb.waitStart = cb.dom.eng.now
	q.waiters.push(runnable{cb: cb})
}

// WakeOne makes the longest-waiting process runnable. It reports whether a
// process was woken.
func (q *WaitQueue) WakeOne() bool {
	for {
		r, ok := q.waiters.pop()
		if !ok {
			return false
		}
		if r.cb != nil {
			r.cb.schedule()
			return true
		}
		if !r.p.done {
			r.p.dom.own("WaitQueue wake")
			r.p.dom.ready(r.p)
			return true
		}
	}
}

// WakeAll makes every waiting process runnable.
func (q *WaitQueue) WakeAll() {
	for q.WakeOne() {
	}
}

// Len returns the number of blocked processes.
func (q *WaitQueue) Len() int { return q.waiters.len() }

// Future is a one-shot completion carrying a value and an error. A process
// blocks on Wait until another process calls Complete. Completing twice
// panics; waiting after completion returns immediately.
type Future[T any] struct {
	done bool
	val  T
	err  error
	q    WaitQueue
}

// NewFuture returns an incomplete future bound to h's domain.
func NewFuture[T any](h Host) *Future[T] {
	return &Future[T]{}
}

// Complete resolves the future and wakes all waiters.
func (f *Future[T]) Complete(v T, err error) {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.val = v
	f.err = err
	f.q.WakeAll()
}

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the completed future's value and error; it panics on an
// incomplete future (use Wait to block).
func (f *Future[T]) Value() (T, error) {
	if !f.done {
		panic("sim: Future.Value before completion")
	}
	return f.val, f.err
}

// Reset returns a completed future to the incomplete state so the holder
// can reuse it for another round trip instead of allocating a new one.
// Resetting while processes still wait on the future would strand them,
// so that is a panic.
func (f *Future[T]) Reset() {
	if f.q.Len() != 0 {
		panic("sim: Future reset with processes waiting")
	}
	var zero T
	f.done = false
	f.val = zero
	f.err = nil
}

// Wait blocks until the future completes and returns its value and error.
func (f *Future[T]) Wait(p *Proc) (T, error) {
	for !f.done {
		f.q.Wait(p, "future")
	}
	return f.val, f.err
}

// Chan is a simulated channel: a FIFO of T with an optional capacity bound.
// Unlike native Go channels it participates in virtual time — senders and
// receivers block as sim processes. A capacity <= 0 means unbounded.
type Chan[T any] struct {
	buf    []T
	cap    int
	closed bool
	sendQ  WaitQueue
	recvQ  WaitQueue
	name   string
	// Wait reasons are preformatted here so blocking Send/Recv do not
	// build a string per park (see Proc.park).
	sendReason string
	recvReason string
}

// NewChan returns a channel with the given capacity (<= 0 for unbounded).
// Like every sync primitive here, a Chan is domain-local state: waking a
// blocked peer on another domain panics — cross-domain traffic uses Ports.
func NewChan[T any](h Host, capacity int, name string) *Chan[T] {
	return &Chan[T]{
		cap: capacity, name: name,
		sendReason: "send " + name, recvReason: "recv " + name,
	}
}

// Send enqueues v, blocking while the channel is full. Sending on a closed
// channel panics, mirroring native channel semantics.
func (c *Chan[T]) Send(p *Proc, v T) {
	for c.cap > 0 && len(c.buf) >= c.cap && !c.closed {
		c.sendQ.Wait(p, c.sendReason)
	}
	if c.closed {
		panic(fmt.Sprintf("sim: send on closed channel %s", c.name))
	}
	c.buf = append(c.buf, v)
	c.recvQ.WakeOne()
}

// Recv dequeues a value, blocking while the channel is empty. The second
// result is false when the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	for len(c.buf) == 0 && !c.closed {
		c.recvQ.Wait(p, c.recvReason)
	}
	if len(c.buf) == 0 {
		var zero T
		return zero, false
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	c.sendQ.WakeOne()
	return v, true
}

// TryRecv dequeues without blocking; ok is false if nothing was available.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) == 0 {
		return v, false
	}
	v = c.buf[0]
	c.buf = c.buf[1:]
	c.sendQ.WakeOne()
	return v, true
}

// Close marks the channel closed and wakes all blocked processes.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.sendQ.WakeAll()
	c.recvQ.WakeAll()
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// WaitGroup tracks completion of a set of processes over virtual time.
type WaitGroup struct {
	n int
	q WaitQueue
}

// NewWaitGroup returns a wait group bound to h's domain.
func NewWaitGroup(h Host) *WaitGroup { return &WaitGroup{} }

// Add increments the counter by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.q.WakeAll()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.q.Wait(p, "waitgroup")
	}
}
