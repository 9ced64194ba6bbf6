package sim

import (
	"fmt"
	"testing"
)

// The kernel's hot paths: the context switch (park/resume), the timer
// path (Sleep → heap push → pop → ready), and the port path between
// domains. Every simulated I/O pays the first two, so allocs/op here
// multiply into every experiment.
// BenchmarkProcHandoff vs BenchmarkCallbackTimer is the A/B the
// goroutine-free executor exists for: the same periodic event with and
// without the coroutine switch to a parked proc.

// BenchmarkProcHandoff measures the proc timer round trip: one process
// repeatedly sleeping a positive duration, so each iteration pays a
// heap push, a quiescent pop, and a park/resume (two coroutine
// switches).
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCallbackTimer measures the same periodic event on the
// inline executor: a self-re-arming callback pays the heap push and
// pop but runs on the scheduler's own goroutine — no coroutine switch,
// no allocation. The gap to BenchmarkProcHandoff is
// the per-event saving of every converted component.
func BenchmarkCallbackTimer(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	n := 0
	cb := NewCallback(e, "ticker", func(now Time) Time {
		n++
		if n >= b.N {
			return 0
		}
		return Microsecond
	})
	cb.Arm(Microsecond)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContextSwitch measures the pure switch: two processes
// alternating via Yield (Sleep(0)), which exercises the run queue without
// the timer heap.
func BenchmarkContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	for w := 0; w < 2; w++ {
		e.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerChurn keeps a wide timer heap busy: many processes with
// staggered periods, so pushes and pops interleave deep in the heap the
// way a loaded machine (flusher + scheduler + workload timers) does.
func BenchmarkTimerChurn(b *testing.B) {
	b.ReportAllocs()
	const procs = 64
	e := New(1)
	for w := 0; w < procs; w++ {
		period := Time(w%7+1) * Microsecond
		e.Go(fmt.Sprintf("t%d", w), func(p *Proc) {
			for i := 0; i < b.N/procs; i++ {
				p.Sleep(period)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWaitQueue measures the blocking-primitive path (park with a
// static reason + FIFO wake), the pattern every Chan/WaitGroup
// operation reduces to.
func BenchmarkWaitQueue(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	q := NewWaitQueue(e)
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Wait(p, "bench")
		}
	})
	e.Go("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for q.WakeOne() {
			}
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPortPath measures one busy port's work: 64 sends, their
// delivery timer fired, and the inbox drained. The CI allocation gate
// holds it at 0 allocs/op: pending and the inbox reuse their arrays.
func BenchmarkPortPath(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	pt := NewPort[int](e, e.NewDomain("rx"), "p", Millisecond)
	portCycle(b, e, pt) // warm the buffer capacities
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		portCycle(b, e, pt)
	}
}

// BenchmarkMultiDomainTicks is the serial loop under a cluster-shaped
// load: five domains each with a callback re-arming every 1 ms (the node
// tick grid), plus a ping-pong pair of ports between two of them. One
// op is one virtual millisecond: five ticks, the heap-head scan across
// domains, and the port traffic in flight.
func BenchmarkMultiDomainTicks(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	doms := []*Domain{e.Dom()}
	for i := 1; i < 5; i++ {
		doms = append(doms, e.NewDomain(fmt.Sprintf("d%d", i)))
	}
	ticks := 0
	for _, d := range doms {
		NewCallback(d, "tick", func(Time) Time {
			if ticks++; ticks == 5*b.N {
				e.Stop()
			}
			return Millisecond
		}).Arm(Millisecond)
	}
	ping := NewPort[int](doms[0], doms[1], "ping", 300*Microsecond)
	pong := NewPort[int](doms[1], doms[0], "pong", 300*Microsecond)
	bounce := func(d *Domain, in, out *Port[int]) {
		var cb *Callback
		cb = NewCallback(d, "bounce", func(Time) Time {
			for v, ok := in.TryRecv(); ok; v, ok = in.TryRecv() {
				out.Send(d, v+1)
			}
			in.recvQ.Subscribe(cb, "bounce")
			return 0
		})
		in.recvQ.Subscribe(cb, "bounce")
	}
	bounce(doms[0], pong, ping)
	bounce(doms[1], ping, pong)
	ping.Send(doms[0], 0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
