package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromDuration(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromDuration = %v, want %v", got, 3*Millisecond)
	}
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Errorf("Duration = %v, want 2s", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3.0 {
		t.Errorf("Milliseconds = %v, want 3", got)
	}
	if got := Second.Scale(0.25); got != 250*Millisecond {
		t.Errorf("Scale = %v, want 250ms", got)
	}
	if got := (90 * Second).String(); got != "1m30s" {
		t.Errorf("String = %q, want 1m30s", got)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := New(1)
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Millisecond {
		t.Errorf("woke at %v, want 5ms", at)
	}
	if e.Now() != 5*Millisecond {
		t.Errorf("engine now %v, want 5ms", e.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := New(7)
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(i+1) * Millisecond)
					log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("got %d events, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestYieldDoesNotAdvanceTime(t *testing.T) {
	e := New(1)
	e.Go("y", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Yield()
		}
		if p.Now() != 0 {
			t.Errorf("time advanced to %v across yields", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunForStopsAtDeadline(t *testing.T) {
	e := New(1)
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
			ticks++
		}
	})
	if err := e.RunFor(10*Second + Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
	if e.Now() != 10*Second+Millisecond {
		t.Errorf("now = %v, want 10.001s", e.Now())
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	e := New(1)
	e.Go("bomb", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want error from panicking proc")
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New(1)
	var childRan bool
	e.Go("parent", func(p *Proc) {
		p.Engine().Go("child", func(c *Proc) {
			c.Sleep(Millisecond)
			childRan = true
		})
		p.Sleep(2 * Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child did not run")
	}
}

func TestFuture(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	var got int
	e.Go("waiter", func(p *Proc) {
		v, err := f.Wait(p)
		if err != nil {
			t.Errorf("future err: %v", err)
		}
		got = v
		if p.Now() != 3*Millisecond {
			t.Errorf("woke at %v, want 3ms", p.Now())
		}
	})
	e.Go("completer", func(p *Proc) {
		p.Sleep(3 * Millisecond)
		f.Complete(42, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if !f.Done() {
		t.Error("future should be done")
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	e := New(1)
	f := NewFuture[string](e)
	f.Complete("ok", nil)
	e.Go("late", func(p *Proc) {
		v, _ := f.Wait(p)
		if v != "ok" {
			t.Errorf("got %q", v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanBounded(t *testing.T) {
	e := New(1)
	c := NewChan[int](e, 2, "test")
	var recvd []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			c.Send(p, i)
		}
		c.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			recvd = append(recvd, v)
			p.Sleep(Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recvd) != 5 {
		t.Fatalf("received %v, want 5 values", recvd)
	}
	for i, v := range recvd {
		if v != i {
			t.Fatalf("out of order: %v", recvd)
		}
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	e := New(1)
	c := NewChan[int](e, 0, "test")
	okSeen := true
	e.Go("consumer", func(p *Proc) {
		_, ok := c.Recv(p)
		okSeen = ok
	})
	e.Go("closer", func(p *Proc) {
		p.Sleep(Millisecond)
		c.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if okSeen {
		t.Error("Recv on closed+empty chan should report !ok")
	}
}

func TestChanTryOps(t *testing.T) {
	e := New(1)
	c := NewChan[int](e, 1, "t")
	if _, ok := c.TryRecv(); ok {
		t.Error("TryRecv on empty should fail")
	}
	sent := false
	e.Go("sender", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2) // blocks until TryRecv makes room
		sent = true
	})
	e.Go("receiver", func(p *Proc) {
		p.Sleep(Millisecond)
		if v, ok := c.TryRecv(); !ok || v != 1 {
			t.Errorf("TryRecv = %d,%v, want 1,true", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sent {
		t.Error("TryRecv did not wake the blocked sender")
	}
	if v, ok := c.TryRecv(); !ok || v != 2 {
		t.Errorf("TryRecv = %d,%v, want 2,true", v, ok)
	}
	if _, ok := c.TryRecv(); ok {
		t.Error("TryRecv on drained should fail")
	}
}

func TestWaitGroup(t *testing.T) {
	e := New(1)
	wg := NewWaitGroup(e)
	doneAt := Time(-1)
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i) * Millisecond)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*Millisecond {
		t.Errorf("waiter done at %v, want 3ms", doneAt)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := New(1)
	q := NewWaitQueue(e)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i+1) * Microsecond) // deterministic arrival order
			q.Wait(p, "test")
			order = append(order, i)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(Millisecond)
		for q.Len() > 0 {
			q.WakeOne()
			p.Yield()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestDeriveRandStable(t *testing.T) {
	a := New(99).DeriveRand("dev")
	b := New(99).DeriveRand("dev")
	c := New(99).DeriveRand("other")
	for i := 0; i < 10; i++ {
		av, bv := a.Int63(), b.Int63()
		if av != bv {
			t.Fatal("same name+seed should give same stream")
		}
		if av == c.Int63() {
			// A single collision is possible but all ten matching is not;
			// just make sure the streams are not identical.
			continue
		}
		return
	}
	t.Error("different names produced identical streams")
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	e := New(1)
	q := NewWaitQueue(e)
	e.Go("stuck", func(p *Proc) {
		q.Wait(p, "forever")
		t.Error("stuck proc should never resume normally")
	})
	e.Go("stopper", func(p *Proc) {
		p.Sleep(Millisecond)
		p.Engine().Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All procs must be done after Run returns.
	for _, p := range e.d0.procs {
		if !p.done {
			t.Errorf("proc %q still live after Run", p.name)
		}
	}
}

func TestQuiescentRunReturns(t *testing.T) {
	e := New(1)
	q := NewWaitQueue(e)
	e.Go("daemon", func(p *Proc) {
		q.Wait(p, "never woken")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.DumpWaiters() != "" {
		// After shutdown all waiters are unwound.
		t.Errorf("waiters remain: %s", e.DumpWaiters())
	}
}

func TestStopTwiceIsSafe(t *testing.T) {
	e := New(1)
	e.Go("p", func(p *Proc) {
		e.Stop()
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Stopping() {
		t.Error("engine should report stopping")
	}
}

func TestTimerHeapOrdering(t *testing.T) {
	// Push timers in a scrambled order and check they pop sorted by
	// (at, seq) — the invariant the 4-ary heap must preserve.
	var h timerHeap
	rng := New(42).DeriveRand("heap-test")
	type key struct {
		at  Time
		seq uint64
	}
	var want []key
	for i := 0; i < 2000; i++ {
		k := key{at: Time(rng.Intn(50)), seq: uint64(i)}
		want = append(want, k)
		h.push(timer{at: k.at, seq: k.seq})
		// Interleave pops so the heap shrinks and regrows.
		if rng.Intn(4) == 0 && h.Len() > 0 {
			continue
		}
	}
	var got []key
	for {
		tm, ok := h.pop()
		if !ok {
			break
		}
		got = append(got, key{tm.at, tm.seq})
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d timers, pushed %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("heap order violated at %d: %v before %v", i, a, b)
		}
	}
}

func TestProcRingFIFO(t *testing.T) {
	var r procRing
	mk := func(i int) runnable { return runnable{p: &Proc{pid: i}} }
	// Wrap the ring several times with mixed push/pop.
	next, expect := 0, 0
	rng := New(7).DeriveRand("ring-test")
	for step := 0; step < 10000; step++ {
		if rng.Intn(2) == 0 {
			r.push(mk(next))
			next++
		} else if p, ok := r.pop(); ok {
			if p.p.pid != expect {
				t.Fatalf("pop %d, want %d", p.p.pid, expect)
			}
			expect++
		}
	}
	for {
		p, ok := r.pop()
		if !ok {
			break
		}
		if p.p.pid != expect {
			t.Fatalf("drain pop %d, want %d", p.p.pid, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d procs, pushed %d", expect, next)
	}
}

func TestDumpWaitersShowsSleepers(t *testing.T) {
	e := New(1)
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
	})
	e.Go("checker", func(p *Proc) {
		p.Yield() // let the sleeper park first
		dump := e.DumpWaiters()
		if !strings.Contains(dump, `"sleeper"`) || !strings.Contains(dump, "sleep until 5ms") {
			t.Errorf("DumpWaiters = %q, want sleeper at 5ms", dump)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcRandMemoized(t *testing.T) {
	e := New(3)
	e.Go("r", func(p *Proc) {
		a := p.Rand()
		if p.Rand() != a {
			t.Error("Rand() should return the same source on repeated calls")
		}
		// The memoized stream starts where the per-call derivation did:
		// first value matches a fresh DeriveRand of the same key.
		want := e.DeriveRand(fmt.Sprintf("proc:%s#%d", p.name, p.pid)).Int63()
		if got := a.Int63(); got != want {
			t.Errorf("first Rand value = %d, want %d", got, want)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGoexitInProcDoesNotWedgeScheduler(t *testing.T) {
	// t.Fatal inside a simulated process ends its coroutine through
	// runtime.Goexit. The engine must neither wedge nor re-raise the
	// Goexit on the goroutine that called Run (here the test's own):
	// the proc counts as done, the others run on, and Run returns nil.
	e := New(1)
	e.Go("fatal-ish", func(p *Proc) {
		p.Sleep(Millisecond)
		runtime.Goexit()
	})
	survived := false
	e.Go("survivor", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		survived = true
	})
	returned := false
	t.Cleanup(func() {
		if !returned {
			t.Error("the Goexit in a proc ended the goroutine that called Run")
		}
	})
	wedged := time.AfterFunc(5*time.Second, func() { panic("engine wedged after Goexit in proc") })
	defer wedged.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	returned = true
	if !survived {
		t.Error("a proc sleeping past the Goexit did not complete")
	}
	if e.Now() != 2*Millisecond {
		t.Errorf("now = %v, want 2ms", e.Now())
	}
}

// TestProcCoroutinesDoNotLeak: Run unwinds every proc coroutine, whatever
// it is blocked on and whether or not it ever ran, so no goroutine
// outlives the run.
func TestProcCoroutinesDoNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(1)
	q := NewWaitQueue(e)
	c := NewChan[int](e, 0, "never-sent")
	f := NewFuture[int](e)
	e.Go("sleep", func(p *Proc) { p.Sleep(Hour) })
	e.Go("waitqueue", func(p *Proc) { q.Wait(p, "never woken") })
	e.Go("chan", func(p *Proc) { c.Recv(p) })
	e.Go("future", func(p *Proc) { f.Wait(p) })
	e.Go("stopper", func(p *Proc) {
		p.Sleep(Millisecond)
		p.Go("never-started", func(*Proc) { t.Error("a proc spawned before Stop ran after it") })
		p.Engine().Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the run, %d after", before, after)
	}
	for _, p := range e.d0.procs {
		if !p.done {
			t.Errorf("proc %q still live after Run", p.name)
		}
	}
}
