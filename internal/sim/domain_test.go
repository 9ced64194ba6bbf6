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
// byte-identical across runs of one seed.
func buildMesh(seed int64, nDom int) (e *Engine, logs []*strings.Builder) {
	e = New(seed)
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

func meshRun(t *testing.T, seed int64, nDom int) string {
	t.Helper()
	e, logs := buildMesh(seed, nDom)
	if err := e.Run(); err != nil {
		t.Fatal(err)
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
// merged log — including per-domain clocks and timer counts — on every
// run of one seed.
func TestMultiDomainDeterminism(t *testing.T) {
	for _, nDom := range []int{2, 5} {
		ref := meshRun(t, 42, nDom)
		if got := meshRun(t, 42, nDom); got != ref {
			t.Fatalf("nDom=%d: rerun diverged:\n-- ref --\n%s\n-- got --\n%s", nDom, ref, got)
		}
	}
	if meshRun(t, 42, 3) == meshRun(t, 43, 3) {
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

// TestLookaheadHorizon is the merge's safety property: no receiver-domain
// event may run before a pending port message with an earlier delivery
// time. Observed from inside the simulation, that means every domain's
// sequence of event timestamps — local timers and port deliveries
// interleaved — is nondecreasing. The receiver ticks much faster than the
// port latency, so a loop that let the receiver run past a pending
// delivery would show a delivery stamped earlier than the tick before it.
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
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("receiver-domain time went backwards: event %d at %s after event at %s — an event ran past a pending delivery",
				i, stamps[i], stamps[i-1])
		}
	}
}

// TestHorizonBound checks the merge across domains directly: a far timer
// in one domain must not run before a near timer in another, whichever
// domain was created first.
func TestHorizonBound(t *testing.T) {
	e := New(3)
	d1 := e.NewDomain("a")
	d2 := e.NewDomain("b")
	NewPort[int](d1, d2, "bound", 100*Microsecond)
	var wokeAt Time
	nearSeen := false
	d2.Go("far", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		wokeAt = p.Now()
		if !nearSeen {
			t.Error("10ms timer ran before the 50us timer of another domain")
		}
	})
	d1.Go("busy", func(p *Proc) {
		p.Sleep(50 * Microsecond)
		nearSeen = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 10*Millisecond {
		t.Fatalf("far timer woke at %s, want 10ms", wokeAt)
	}
}

// TestPortPanics locks in the construction-time invariants the merge
// relies on.
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

// TestStopIsImmediate: Stop called from one domain ends the run at once
// in every domain — no event of any domain runs after the stopping one
// returns, and the clock stays at the stop time.
func TestStopIsImmediate(t *testing.T) {
	e := New(11)
	d1 := e.NewDomain("other")
	NewPort[int](e, d1, "lat", 200*Microsecond)
	var ticks []Time
	e.Go("stopper", func(p *Proc) {
		p.Sleep(Millisecond)
		e.Stop()
	})
	d1.Go("worker", func(p *Proc) {
		for !p.Engine().Stopping() {
			p.Sleep(90 * Microsecond)
			ticks = append(ticks, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 11 || ticks[10] != 990*Microsecond {
		t.Fatalf("worker ticked at %v, want every 90us up to 990us and none after the 1ms stop", ticks)
	}
	if e.Now() != Millisecond {
		t.Fatalf("clock reads %s after the stop, want 1ms", e.Now())
	}
}

// TestMultiDomainPanicPropagates: a panic in a non-default domain must
// surface from Run as a failure, and the first failure stops the run.
func TestMultiDomainPanicPropagates(t *testing.T) {
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
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want kaboom failure, got %v", err)
	}
	if e.Now() != Millisecond {
		t.Fatalf("run continued to %s after the 1ms failure", e.Now())
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
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("receiver never got the message before quiesce")
	}
}

// TestCrossDomainMisusePanics: code running on one domain that spawns,
// arms or wakes work on another fails the run with an error naming both
// domains, instead of silently modelling an instantaneous cross-machine
// interaction. Every such path must go through a Port.
func TestCrossDomainMisusePanics(t *testing.T) {
	for _, tc := range []struct {
		op     string
		misuse func(e *Engine, other *Domain, cb *Callback, q *WaitQueue)
	}{
		{"Go", func(_ *Engine, other *Domain, _ *Callback, _ *WaitQueue) {
			other.Go("spawned", func(*Proc) {})
		}},
		{"Callback.Arm", func(_ *Engine, _ *Domain, cb *Callback, _ *WaitQueue) { cb.Arm(Millisecond) }},
		{"Callback.ArmDeferred", func(_ *Engine, _ *Domain, cb *Callback, _ *WaitQueue) { cb.ArmDeferred(Millisecond) }},
		{"Callback wake", func(_ *Engine, _ *Domain, cb *Callback, _ *WaitQueue) { cb.Wake() }},
		{"WaitQueue wake", func(_ *Engine, _ *Domain, _ *Callback, q *WaitQueue) { q.WakeOne() }},
	} {
		for _, from := range []string{"proc", "callback"} {
			e := New(1)
			other := e.NewDomain("other")
			cb := NewCallback(other, "victim", func(Time) Time { return 0 })
			q := NewWaitQueue(other)
			other.Go("waiter", func(p *Proc) { q.Wait(p, "never") })
			misuse := func() { tc.misuse(e, other, cb, q) }
			if from == "callback" {
				NewCallback(e, "culprit", func(Time) Time { misuse(); return 0 }).Arm(Millisecond)
			} else {
				e.Go("culprit", func(p *Proc) { p.Sleep(Millisecond); misuse() })
			}
			err := e.Run()
			want := fmt.Sprintf(`%s on domain "other" from domain "main"`, tc.op)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s from a %s: Run error = %v, want it to contain %q", tc.op, from, err, want)
			}
		}
	}
}

// TestPortDeliveryHook: OnDeliver runs once per delivery, on the
// receiving domain, after the delivered messages are in the inbox, so
// it may arm the receiver's own callbacks; a quiet stretch calls it
// never.
func TestPortDeliveryHook(t *testing.T) {
	e := New(1)
	rx := e.NewDomain("rx")
	pt := NewPort[int](e, rx, "p", Millisecond)
	var hooks, got []string
	drain := NewCallback(rx, "drain", func(now Time) Time {
		for v, ok := pt.TryRecv(); ok; v, ok = pt.TryRecv() {
			got = append(got, fmt.Sprintf("%d@%v", v, now))
		}
		return 0
	})
	pt.OnDeliver(func(now Time) {
		hooks = append(hooks, fmt.Sprintf("%d@%v", pt.Len(), now))
		drain.Arm(Microsecond)
	})
	e.Go("sender", func(p *Proc) {
		pt.Send(p, 1)
		pt.Send(p, 2) // same send time: one delivery with 1
		p.Sleep(Millisecond / 2)
		pt.Send(p, 3)
		p.Sleep(5 * Millisecond)
		pt.Send(p, 4)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "2@1ms 1@1.5ms 1@6.5ms"; strings.Join(hooks, " ") != want {
		t.Errorf("hooks (inbox length@time) %q, want %q", strings.Join(hooks, " "), want)
	}
	if want := "1@1.001ms 2@1.001ms 3@1.501ms 4@6.501ms"; strings.Join(got, " ") != want {
		t.Errorf("drained %q, want %q", strings.Join(got, " "), want)
	}
}

// TestPortDeliveryHookCrossDomainPanics: the hook runs as the receiving
// domain, so reaching into the sender's domain from it trips the
// cross-domain guard.
func TestPortDeliveryHookCrossDomainPanics(t *testing.T) {
	e := New(1)
	rx := e.NewDomain("rx")
	pt := NewPort[int](e, rx, "p", Millisecond)
	victim := NewCallback(e, "victim", func(Time) Time { return 0 })
	pt.OnDeliver(func(Time) { victim.Arm(Millisecond) })
	e.Go("sender", func(p *Proc) { pt.Send(p, 1) })
	want := `Callback.Arm on domain "main" from domain "rx"`
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("Run panicked with %v, want a panic containing %q", r, want)
		}
	}()
	err := e.Run()
	t.Errorf("Run returned %v, want the guard's panic", err)
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
