package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Slot parity is the whole contract of the callback executor: a
// converted component must occupy exactly the (time, seq) slots its
// goroutine form did, so the rest of the simulation cannot tell the
// difference. The tests below run the same periodic workload twice —
// once as goroutine procs, once with some participants converted to
// callbacks via the ArmDeferred spawn-parity pattern — on colliding
// timestamps, and require byte-identical logs and identical seq
// consumption.

const (
	parityParticipants = 6
	parityIters        = 25
)

// parityRun builds an engine where participant i logs parityIters
// ticks on a colliding period grid. Participants with convert[i] set
// run as callbacks; the rest as goroutine procs. It returns the shared
// log and the final seq consumption.
func parityRun(convert []bool) (string, uint64) {
	e := New(42)
	var buf bytes.Buffer
	for i := 0; i < parityParticipants; i++ {
		name := fmt.Sprintf("p%d", i)
		// Three distinct periods across six participants: every tick
		// collides with another participant's, so ordering is decided by
		// seq alone and any slot drift would reorder the log.
		period := Time(1+i%3) * 10 * Microsecond
		if convert != nil && convert[i] {
			n := 0
			cb := NewCallback(e, name, func(now Time) Time {
				fmt.Fprintf(&buf, "%s %d@%s\n", name, n, now)
				n++
				if n >= parityIters {
					return 0
				}
				return period
			})
			cb.ArmDeferred(period)
		} else {
			e.Go(name, func(p *Proc) {
				for n := 0; n < parityIters; n++ {
					p.Sleep(period)
					fmt.Fprintf(&buf, "%s %d@%s\n", name, n, p.Now())
				}
			})
		}
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return buf.String(), e.TimersScheduled()
}

// TestCallbackProcSlotParity interleaves callback timers with goroutine
// procs at equal timestamps and requires the exact event order of the
// pure-goroutine engine: ArmDeferred at creation mirrors Go's runq
// push, and the handler's re-arm return mirrors the proc's re-Sleep.
func TestCallbackProcSlotParity(t *testing.T) {
	refLog, refSeq := parityRun(nil)
	for _, convert := range [][]bool{
		{false, true, false, true, false, true}, // alternating kinds
		{true, true, true, true, true, true},    // all converted
	} {
		gotLog, gotSeq := parityRun(convert)
		if gotLog != refLog {
			t.Errorf("convert=%v: log diverged from pure-goroutine engine\nref:\n%s\ngot:\n%s",
				convert, refLog, gotLog)
		}
		if gotSeq != refSeq {
			t.Errorf("convert=%v: TimersScheduled = %d, want %d (slot drift)",
				convert, gotSeq, refSeq)
		}
	}
	if !strings.Contains(refLog, "p0 0@") {
		t.Fatalf("reference log malformed:\n%s", refLog)
	}
}

// TestCallbackWakeParity checks the WaitQueue leg of slot parity: a
// subscribed callback must be woken in the same FIFO slot as a parked
// proc, so a waiter converted to a callback leaves the wake order of
// every other waiter untouched. Its second half checks the Wake leg.
func TestCallbackWakeParity(t *testing.T) {
	run := func(convert bool) string {
		e := New(7)
		var buf bytes.Buffer
		q := NewWaitQueue(e)
		const wakes = 5
		if convert {
			i := 0
			var cb *Callback
			cb = NewCallback(e, "wa", func(now Time) Time {
				fmt.Fprintf(&buf, "wa %d@%s\n", i, now)
				i++
				if i < wakes {
					q.Subscribe(cb, "turn")
				}
				return 0
			})
			q.Subscribe(cb, "turn")
		} else {
			e.Go("wa", func(p *Proc) {
				for i := 0; i < wakes; i++ {
					q.Wait(p, "turn")
					fmt.Fprintf(&buf, "wa %d@%s\n", i, p.Now())
				}
			})
		}
		e.Go("wb", func(p *Proc) {
			for i := 0; i < wakes; i++ {
				q.Wait(p, "turn")
				fmt.Fprintf(&buf, "wb %d@%s\n", i, p.Now())
			}
		})
		e.Go("waker", func(p *Proc) {
			for i := 0; i < 2*wakes; i++ {
				p.Sleep(Millisecond)
				q.WakeOne()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref, got := run(false), run(true)
	if ref != got {
		t.Errorf("wake order diverged after converting one waiter\nref:\n%s\ngot:\n%s", ref, got)
	}

	// Wake before Run takes the run-queue slot Go gives a new proc: a
	// periodic component started with Wake and one spawned with Go at
	// the same point, between two procs on the same period, must log in
	// the same order and draw the same seqs.
	start := func(convert bool) (string, uint64) {
		e := New(11)
		var buf bytes.Buffer
		const period, ticks = Millisecond, 4
		tick := func(name string) {
			e.Go(name, func(p *Proc) {
				for i := 0; i < ticks; i++ {
					fmt.Fprintf(&buf, "%s %d@%s\n", name, i, p.Now())
					p.Sleep(period)
				}
			})
		}
		tick("before")
		if convert {
			i := 0
			NewCallback(e, "w", func(now Time) Time {
				fmt.Fprintf(&buf, "w %d@%s\n", i, now)
				if i++; i == ticks {
					return 0
				}
				return period
			}).Wake()
		} else {
			e.Go("w", func(p *Proc) {
				for i := 0; i < ticks; i++ {
					fmt.Fprintf(&buf, "w %d@%s\n", i, p.Now())
					if i < ticks-1 {
						p.Sleep(period)
					}
				}
			})
		}
		tick("after")
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return buf.String(), e.TimersScheduled()
	}
	refLog, refSeq := start(false)
	gotLog, gotSeq := start(true)
	if refLog != gotLog || refSeq != gotSeq {
		t.Errorf("Wake before Run diverged from Go (seqs %d vs %d)\nGo:\n%s\nWake:\n%s",
			refSeq, gotSeq, refLog, gotLog)
	}
	if !strings.HasPrefix(refLog, "before 0@0s\nw 0@0s\nafter 0@0s\n") {
		t.Fatalf("reference log malformed:\n%s", refLog)
	}
}

// TestCallbackDispatchAllocFree is the CI allocation gate for the
// goroutine-free hot path: popping an armed callback timer and running
// its handler (which re-arms) must not allocate. Steady-state grid
// cells spend most of their events here.
func TestCallbackDispatchAllocFree(t *testing.T) {
	e := New(1)
	d := e.Dom()
	fired := 0
	cb := NewCallback(e, "tick", func(now Time) Time {
		fired++
		return Millisecond
	})
	cb.Arm(Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		tm, ok := d.timers.pop()
		if !ok {
			t.Fatal("timer heap empty: handler failed to re-arm")
		}
		e.now = tm.at
		tm.fire.fire(d, tm.armAt)
	})
	if allocs != 0 {
		t.Errorf("callback dispatch allocates %.1f bytes-worth of objects per event, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("handler never ran")
	}
}

// TestCallbackZeroGoroutines drives a full run purely on callbacks and
// checks the executor's defining property: zero procs created and zero
// goroutines spawned per event — the scheduler invokes every handler
// inline on the caller's goroutine.
func TestCallbackZeroGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(3)
	mid := -1
	count := 0
	cb := NewCallback(e, "tick", func(now Time) Time {
		count++
		if count == 500 {
			mid = runtime.NumGoroutine()
		}
		if count >= 1000 {
			return 0
		}
		return 10 * Microsecond
	})
	cb.Arm(10 * Microsecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("handler ran %d times, want 1000", count)
	}
	if e.ProcsCreated() != 0 {
		t.Errorf("ProcsCreated = %d, want 0", e.ProcsCreated())
	}
	if e.CallbacksCreated() != 1 {
		t.Errorf("CallbacksCreated = %d, want 1", e.CallbacksCreated())
	}
	if mid > before {
		t.Errorf("goroutines grew mid-run: %d before, %d at event 500", before, mid)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestFutureValuePanicsBeforeDone pins the contract that Value is only
// legal on a completed future — callbacks must check Done rather than
// poll.
func TestFutureValuePanicsBeforeDone(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	defer func() {
		if recover() == nil {
			t.Error("Value on an incomplete future did not panic")
		}
	}()
	f.Value()
}

// TestCallbackPanicBecomesFailure mirrors the proc contract: a
// panicking handler fails the run with an error naming the callback
// instead of crashing the scheduler.
func TestCallbackPanicBecomesFailure(t *testing.T) {
	e := New(2)
	cb := NewCallback(e, "boom", func(now Time) Time {
		panic("kaput")
	})
	cb.Arm(Millisecond)
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `"boom"`) || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("Run error = %v, want callback panic naming \"boom\" and \"kaput\"", err)
	}
}

// TestArmDeferredPanics pins the misuse guards: non-positive delays and
// overlapping deferred arms are programming errors, not silent drops.
func TestArmDeferredPanics(t *testing.T) {
	e := New(4)
	cb := NewCallback(e, "cb", func(now Time) Time { return 0 })
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Arm(0)", func() { cb.Arm(0) })
	mustPanic("ArmDeferred(-1)", func() { cb.ArmDeferred(-Millisecond) })
	cb.ArmDeferred(Millisecond)
	mustPanic("double ArmDeferred", func() { cb.ArmDeferred(Millisecond) })
}
