package sim

import (
	"fmt"
	"strings"
	"testing"
)

// buildMesh wires nDom domains into a ring of ports (each domain sends to
// the next) plus a reply port back to domain 0, and starts a deterministic
// but irregular workload on each: every domain runs procs that sleep
// rand-derived durations, forward tokens around the ring, and append to a
// per-domain log. The merged log is the determinism witness: it must be
// byte-identical at any worker count.
func buildMesh(seed int64, nDom, workers int) (e *Engine, logs []*strings.Builder) {
	e = New(seed)
	e.SetWorkers(workers)
	doms := []*Domain{e.Dom()}
	for i := 1; i < nDom; i++ {
		doms = append(doms, e.NewDomain(fmt.Sprintf("d%d", i)))
	}
	logs = make([]*strings.Builder, nDom)
	ring := make([]*Port[int], nDom)
	for i := range doms {
		logs[i] = &strings.Builder{}
		ring[i] = NewPort[int](doms[i], doms[(i+1)%nDom], fmt.Sprintf("ring%d", i), 50*Microsecond)
	}
	for i, d := range doms {
		i, d := i, d
		lg := logs[i]
		// An irregular local load: sleeps drawn from the domain-scoped
		// rand stream, so any cross-domain leakage of randomness or
		// ordering shows up as a log diff.
		d.Go("load", func(p *Proc) {
			r := p.Rand()
			for k := 0; k < 40; k++ {
				p.Sleep(Time(r.Intn(900)+100) * Microsecond)
				fmt.Fprintf(lg, "load %d@%s\n", k, p.Now())
			}
		})
		// The ring forwarder: receive a token, stamp it, pass it on.
		out := ring[i]
		in := ring[(i+nDom-1)%nDom]
		d.Go("fwd", func(p *Proc) {
			for {
				tok := in.Recv(p)
				fmt.Fprintf(lg, "tok %d@%s\n", tok, p.Now())
				if tok >= 64 {
					if i == 0 {
						e.Stop()
					}
					continue
				}
				p.Sleep(Time(tok%5) * 10 * Microsecond)
				out.Send(p, tok+1)
			}
		})
	}
	doms[0].Go("kick", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		ring[0].Send(p, 1)
	})
	return e, logs
}

func meshRun(t *testing.T, seed int64, nDom, workers int) string {
	t.Helper()
	e, logs := buildMesh(seed, nDom, workers)
	if err := e.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var b strings.Builder
	for i, lg := range logs {
		fmt.Fprintf(&b, "== domain %d (t=%s, procs=%d, timers=%d)\n",
			i, e.Domains()[i].Now(), e.Domains()[i].ProcsCreated(), e.Domains()[i].TimersScheduled())
		b.WriteString(lg.String())
	}
	return b.String()
}

// TestMultiDomainDeterminism is the kernel-level form of the byte-identical
// obligation: an irregular multi-domain workload must produce the same
// merged log — including per-domain clocks and timer counts — at worker
// counts 1, 2, and 8.
func TestMultiDomainDeterminism(t *testing.T) {
	for _, nDom := range []int{2, 5} {
		ref := meshRun(t, 42, nDom, 1)
		for _, workers := range []int{2, 8} {
			got := meshRun(t, 42, nDom, workers)
			if got != ref {
				t.Fatalf("nDom=%d: workers=%d diverged from workers=1:\n-- ref --\n%s\n-- got --\n%s",
					nDom, workers, ref, got)
			}
		}
	}
	if meshRun(t, 42, 3, 4) == meshRun(t, 43, 3, 4) {
		t.Fatal("different seeds produced identical logs — witness is not sensitive")
	}
}

// TestPortDelivery checks the port contract: a message sent at t arrives
// exactly at t+latency, in send order, and never before the receiver's
// clock reaches that time.
func TestPortDelivery(t *testing.T) {
	e := New(7)
	d1 := e.NewDomain("rx")
	pt := NewPort[Time](e, d1, "p", Millisecond)
	var got []Time
	var sentAt []Time
	e.Go("tx", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Time(i+1) * 100 * Microsecond)
			sentAt = append(sentAt, p.Now())
			pt.Send(p, p.Now())
		}
	})
	d1.Go("rx", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v := pt.Recv(p)
			if p.Now() != v+Millisecond {
				t.Errorf("msg sent at %s delivered at %s, want exactly +%s", v, p.Now(), Millisecond)
			}
			got = append(got, v)
		}
	})
	e.SetWorkers(4)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("received %d of 5 messages", len(got))
	}
	for i := range got {
		if got[i] != sentAt[i] {
			t.Fatalf("out-of-order delivery: got %v, sent %v", got, sentAt)
		}
	}

	// A callback handler sends with its *Domain. Its messages must land
	// at the (time, order) of a proc's sends from the same slots: "tx"
	// and "cx" share the port on colliding timestamps, and cx runs once
	// as a proc and once as a callback.
	recvLog := func(cbSender bool) string {
		e := New(7)
		d1 := e.NewDomain("rx")
		pt := NewPort[string](e, d1, "p", Millisecond)
		const period = 100 * Microsecond
		e.Go("tx", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(period)
				pt.Send(p, fmt.Sprintf("tx%d", i))
			}
		})
		if cbSender {
			i := 0
			NewCallback(e, "cx", func(Time) Time {
				pt.Send(e.Dom(), fmt.Sprintf("cx%d", i))
				if i++; i == 5 {
					return 0
				}
				return period
			}).ArmDeferred(period)
		} else {
			e.Go("cx", func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Sleep(period)
					pt.Send(p, fmt.Sprintf("cx%d", i))
				}
			})
		}
		var b strings.Builder
		d1.Go("rx", func(p *Proc) {
			for i := 0; i < 10; i++ {
				fmt.Fprintf(&b, "%s@%s ", pt.Recv(p), p.Now())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if ref, cb := recvLog(false), recvLog(true); ref != cb {
		t.Errorf("callback send diverged from proc send\nproc:     %s\ncallback: %s", ref, cb)
	} else if !strings.Contains(ref, "tx0@1.1ms cx0@1.1ms") {
		t.Errorf("sends did not collide as intended: %s", ref)
	}
}

// TestLookaheadHorizon is the conservative-window safety property: the
// horizon must never admit a receiver-domain event that runs before a
// pending cross-domain message with an earlier delivery time. Observed
// from inside the simulation, that means every domain's sequence of event
// timestamps — local timers and port deliveries interleaved — is
// nondecreasing. The receiver ticks much faster than the port latency, so
// an unsafe horizon (one that let the receiver run past a pending
// delivery) would manifest as a delivery stamped earlier than the tick
// before it.
func TestLookaheadHorizon(t *testing.T) {
	e := New(9)
	d1 := e.NewDomain("rx")
	pt := NewPort[int](e, d1, "p", 300*Microsecond)
	var stamps []Time
	e.Go("tx", func(p *Proc) {
		r := p.Rand()
		for i := 0; i < 30; i++ {
			p.Sleep(Time(r.Intn(500)+1) * Microsecond)
			pt.Send(p, i)
		}
	})
	d1.Go("tick", func(p *Proc) {
		for !p.Engine().Stopping() {
			p.Sleep(20 * Microsecond)
			stamps = append(stamps, p.Now())
		}
	})
	d1.Go("rx", func(p *Proc) {
		for i := 0; i < 30; i++ {
			pt.Recv(p)
			stamps = append(stamps, p.Now())
		}
		e.Stop()
	})
	e.SetWorkers(8)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("receiver-domain time went backwards: event %d at %s after event at %s — horizon admitted an event past a pending delivery",
				i, stamps[i], stamps[i-1])
		}
	}
}

// TestHorizonBound checks the window arithmetic directly: with a minimum
// port latency L, a window starting at global next-event time T must not
// execute any event at or beyond T+L. The probe domain records the gap
// between consecutive wakes of a long-sleeping proc in another domain.
func TestHorizonBound(t *testing.T) {
	e := New(3)
	d1 := e.NewDomain("a")
	d2 := e.NewDomain("b")
	NewPort[int](d1, d2, "bound", 100*Microsecond) // unused traffic-wise; sets lookahead
	// d1 next event at t=0 (runnable), d2's first timer at 10ms: the
	// first window is [0, 100us) and must not run the 10ms timer.
	var wokeAt Time
	windowSeen := false
	d1.Go("busy", func(p *Proc) {
		p.Sleep(50 * Microsecond) // inside the first window
		windowSeen = true
	})
	d2.Go("far", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		wokeAt = p.Now()
		if !windowSeen {
			t.Error("10ms timer ran before the [0,100us) window completed")
		}
	})
	e.SetWorkers(2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 10*Millisecond {
		t.Fatalf("far timer woke at %s, want 10ms", wokeAt)
	}
}

// TestPortPanics locks in the construction-time invariants the
// conservative window relies on.
func TestPortPanics(t *testing.T) {
	e := New(1)
	d1 := e.NewDomain("x")
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero latency", func() { NewPort[int](e, d1, "z", 0) })
	expectPanic("same domain", func() { NewPort[int](d1, d1, "s", Millisecond) })
	e2 := New(2)
	expectPanic("cross engine", func() { NewPort[int](e, e2, "c", Millisecond) })
}

// TestStopLatchedAtBarrier: a Stop issued inside a window takes effect at
// a barrier, so the set of work completed after the stop is identical at
// any worker count.
func TestStopLatchedAtBarrier(t *testing.T) {
	run := func(workers int) string {
		e := New(11)
		d1 := e.NewDomain("other")
		NewPort[int](e, d1, "lat", 200*Microsecond)
		var lg strings.Builder
		e.Go("stopper", func(p *Proc) {
			p.Sleep(Millisecond)
			e.Stop()
		})
		d1.Go("worker", func(p *Proc) {
			for !p.Engine().Stopping() {
				p.Sleep(90 * Microsecond)
				fmt.Fprintf(&lg, "tick@%s\n", p.Now())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return lg.String()
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != ref {
			t.Fatalf("stop point depends on workers=%d:\n-- ref --\n%s\n-- got --\n%s", w, ref, got)
		}
	}
}

// TestMultiDomainPanicPropagates: a panic in a non-default domain must
// surface from Run as a failure, at any worker count.
func TestMultiDomainPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(5)
		d1 := e.NewDomain("boom")
		NewPort[int](e, d1, "lat", Millisecond)
		d1.Go("bad", func(p *Proc) {
			p.Sleep(Millisecond)
			panic("kaboom")
		})
		e.Go("idle", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(Millisecond)
			}
		})
		e.SetWorkers(workers)
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("workers=%d: want kaboom failure, got %v", workers, err)
		}
	}
}

// TestMultiDomainQuiesce: with no runnable work anywhere, Run returns.
func TestMultiDomainQuiesce(t *testing.T) {
	e := New(1)
	d1 := e.NewDomain("q")
	pt := NewPort[int](e, d1, "lat", Millisecond)
	done := false
	d1.Go("recv-then-exit", func(p *Proc) {
		_ = pt.Recv(p)
		done = true
	})
	e.Go("send-once", func(p *Proc) {
		p.Sleep(Millisecond)
		pt.Send(p, 1)
	})
	e.SetWorkers(2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("receiver never got the message before quiesce")
	}
}

// TestDomainRandIndependence: identical component names on different
// domains must get independent rand streams, while the default domain's
// streams stay identical to the engine-level derivation (golden
// stability).
func TestDomainRandIndependence(t *testing.T) {
	e := New(77)
	d1 := e.NewDomain("s1")
	d2 := e.NewDomain("s2")
	a := d1.DeriveRand("workload").Int63()
	b := d2.DeriveRand("workload").Int63()
	c := e.Dom().DeriveRand("workload").Int63()
	ref := e.DeriveRand("workload").Int63()
	if a == b {
		t.Fatal("distinct domains produced the same stream for one name")
	}
	if c != ref {
		t.Fatal("default-domain derivation diverged from engine derivation")
	}
}
