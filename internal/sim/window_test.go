package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// runFixedLookahead is the reference the window protocol is tested
// against: the classic static-lookahead barrier loop, where every round
// grants every domain the same window nextT + minLat (capped at the
// RunFor deadline when budget > 0). It stands in for Run/RunFor on a
// multi-domain engine and exists only here, assembled from the
// barrier's own primitives — the product has one protocol. Serial, no
// Stop support (none of its callers stop early); rounds are counted in
// WindowStats().Rounds so callers can compare barrier counts.
func runFixedLookahead(e *Engine, budget Time) error {
	e.running = true
	defer func() { e.running, e.deadline = false, maxTime }()
	if budget > 0 {
		e.deadline = e.d0.now + budget
	}
	e.winStats = WindowStats{}
	for e.failure == nil {
		for _, pt := range e.ports {
			pt.flush()
		}
		nextT := maxTime
		for _, d := range e.domains {
			nextT = min(nextT, d.nextEvent())
		}
		if nextT == maxTime || nextT > e.deadline {
			e.alignClocks()
			break
		}
		h := nextT + e.minLat
		if e.deadline < maxTime {
			h = min(h, e.deadline+1)
		}
		e.winStats.Rounds++
		for _, d := range e.domains {
			d.runWindow(h)
			if e.failure == nil {
				e.failure = d.failure
			}
		}
	}
	e.shutdown()
	return e.failure
}

// runWith drives e to the end of its run (budget 0) or of budget: with
// the fixed-lookahead reference, or with the engine's own Run/RunFor.
func runWith(e *Engine, fixed bool, budget Time) error {
	switch {
	case fixed:
		return runFixedLookahead(e, budget)
	case budget > 0:
		return e.RunFor(budget)
	}
	return e.Run()
}

// randTopologyRun builds a randomized multi-domain engine — topology,
// latencies, workloads and message counts all drawn from metaSeed — and
// runs it to quiescence: under the engine's window protocol at the
// given worker count, or (fixed) under runFixedLookahead.
// It returns a witness string capturing every observable ordering fact:
// per-domain logs (message receipts interleaved with local timer work,
// in execution order), final clocks, and event counts. Construction
// randomness comes from metaSeed and in-simulation randomness from
// domain-scoped streams, so two calls with equal metaSeed build
// identical simulations regardless of driver or workers.
//
// Sleeps and latencies are multiples of 10us on purpose: equal-time
// collisions — two ports delivering at one instant, a delivery racing a
// local timer — are exactly where a window protocol could leak its
// barrier placement into the event order, so the workload manufactures
// lots of them.
func randTopologyRun(t *testing.T, metaSeed int64, fixed bool, workers int) (string, WindowStats) {
	t.Helper()
	meta := rand.New(rand.NewSource(metaSeed))
	e := New(metaSeed)
	e.SetWorkers(workers)

	nDom := 2 + meta.Intn(4)
	doms := []*Domain{e.Dom()}
	for i := 1; i < nDom; i++ {
		doms = append(doms, e.NewDomain(fmt.Sprintf("d%d", i)))
	}
	logs := make([]*strings.Builder, nDom)
	for i := range logs {
		logs[i] = &strings.Builder{}
	}

	type edge struct {
		pt     *Port[int]
		from   int
		to     int
		tokens int
	}
	var edges []edge
	for i := 0; i < nDom; i++ {
		for j := 0; j < nDom; j++ {
			if i == j || meta.Float64() > 0.4 {
				continue
			}
			lat := Time(1+meta.Intn(200)) * 10 * Microsecond
			edges = append(edges, edge{
				pt:     NewPort[int](doms[i], doms[j], fmt.Sprintf("p%d-%d", i, j), lat),
				from:   i,
				to:     j,
				tokens: 5 + meta.Intn(16),
			})
		}
	}
	if len(edges) == 0 {
		edges = append(edges, edge{
			pt:     NewPort[int](doms[0], doms[1], "p0-1", 10*Microsecond),
			from:   0,
			to:     1,
			tokens: 8,
		})
	}

	for k, ed := range edges {
		k, ed := k, ed
		doms[ed.from].Go(fmt.Sprintf("tx%d", k), func(p *Proc) {
			r := p.Rand()
			for n := 0; n < ed.tokens; n++ {
				p.Sleep(Time(1+r.Intn(300)) * 10 * Microsecond)
				ed.pt.Send(p, k*1000+n)
			}
		})
		lg := logs[ed.to]
		if meta.Intn(2) == 0 {
			doms[ed.to].Go(fmt.Sprintf("rx%d", k), func(p *Proc) {
				for n := 0; n < ed.tokens; n++ {
					v := ed.pt.Recv(p)
					fmt.Fprintf(lg, "recv %d@%s\n", v, p.Now())
				}
			})
		} else {
			// Callback receiver: no goroutine — subscribed to the port's
			// inbox wakeups, it drains every ripe message inline and
			// re-subscribes until the edge's tokens have all arrived.
			got := 0
			var rcb *Callback
			rcb = NewCallback(doms[ed.to], fmt.Sprintf("rx%d", k), func(now Time) Time {
				for {
					v, ok := ed.pt.TryRecv()
					if !ok {
						break
					}
					fmt.Fprintf(lg, "recv %d@%s\n", v, now)
					got++
				}
				if got < ed.tokens {
					ed.pt.recvQ.Subscribe(rcb, "rx-cb")
				}
				return 0
			})
			ed.pt.recvQ.Subscribe(rcb, "rx-cb")
		}
	}
	// Local load on every domain: bounded, quiesces on its own. Its log
	// lines interleave with receipts in execution order, so a protocol
	// that reordered a delivery against a local timer would show here.
	for i, d := range doms {
		lg := logs[i]
		d.Go("load", func(p *Proc) {
			r := p.Rand()
			for n := 0; n < 50; n++ {
				p.Sleep(Time(1+r.Intn(200)) * 10 * Microsecond)
				fmt.Fprintf(lg, "load %d@%s\n", n, p.Now())
			}
		})
	}
	// Callback load: a goroutine-free re-arming ticker per domain on the
	// same 10us collision grid, so callback timers collide with proc
	// timers and port deliveries. Its log lines must interleave
	// identically at any worker count and under either driver.
	for i, d := range doms {
		lg := logs[i]
		period := Time(1+meta.Intn(150)) * 10 * Microsecond
		ticks := 20 + meta.Intn(30)
		n := 0
		cb := NewCallback(d, fmt.Sprintf("tick%d", i), func(now Time) Time {
			fmt.Fprintf(lg, "tick %d@%s\n", n, now)
			n++
			if n >= ticks {
				return 0
			}
			return period
		})
		cb.Arm(period)
	}

	if err := runWith(e, fixed, 0); err != nil {
		t.Fatalf("fixed=%v workers=%d: %v", fixed, workers, err)
	}
	var b strings.Builder
	for i, lg := range logs {
		fmt.Fprintf(&b, "== domain %d (t=%s, timers=%d)\n",
			i, doms[i].Now(), doms[i].TimersScheduled())
		b.WriteString(lg.String())
	}
	return b.String(), e.WindowStats()
}

// TestFixedLookaheadEquivalence is the cross-protocol property test: on
// randomized port topologies and latencies, the engine's windows must
// deliver the exact same (time, sequence) event order as fixed-latency
// lookahead windows — the witness includes every receipt time and its
// interleaving with local timers — at any worker count. It also checks
// the protocol-shape claim: the engine's windows are supersets of the
// fixed ones, so it never takes more barrier rounds.
func TestFixedLookaheadEquivalence(t *testing.T) {
	for metaSeed := int64(1); metaSeed <= 12; metaSeed++ {
		ref, fixedStats := randTopologyRun(t, metaSeed, true, 1)
		for _, workers := range []int{1, 4} {
			got, adStats := randTopologyRun(t, metaSeed, false, workers)
			if got != ref {
				t.Fatalf("seed %d: adaptive(workers=%d) diverged from fixed:\n-- fixed --\n%s\n-- adaptive --\n%s",
					metaSeed, workers, ref, got)
			}
			if adStats.Rounds > fixedStats.Rounds {
				t.Fatalf("seed %d: adaptive took %d rounds, fixed %d — adaptive windows must be supersets",
					metaSeed, adStats.Rounds, fixedStats.Rounds)
			}
		}
	}
}

// TestAdaptiveFewerBarriers: the workload the adaptive protocol exists
// for — one busy domain grinding fine-grained local events, fed one-way
// by a mostly-asleep peer. The fixed reference must re-barrier every
// min-latency step of the busy domain's progress; the engine sees the
// sleeping sender cannot emit before its next wake + latency and
// grants the busy domain that whole stretch in one window. (The traffic
// must be one-way: a return port would let the busy domain's own next
// event bounce back as a potential instant reply, correctly shrinking
// reach to the cycle length.) Events must not change; only the round
// count may.
func TestAdaptiveFewerBarriers(t *testing.T) {
	run := func(fixed bool) (string, WindowStats) {
		e := New(5)
		d1 := e.NewDomain("busy")
		req := NewPort[int](e, d1, "req", Millisecond)
		var log strings.Builder
		e.Go("client", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(500 * Millisecond)
				req.Send(p, i)
			}
		})
		d1.Go("server", func(p *Proc) {
			for i := 0; i < 5; i++ {
				fmt.Fprintf(&log, "req %d@%s\n", req.Recv(p), p.Now())
			}
		})
		var work int
		d1.Go("grind", func(p *Proc) {
			for i := 0; i < 2600; i++ {
				p.Sleep(Millisecond)
				work++
			}
			fmt.Fprintf(&log, "grind done %d@%s\n", work, p.Now())
		})
		if err := runWith(e, fixed, 0); err != nil {
			t.Fatal(err)
		}
		return log.String(), e.WindowStats()
	}
	fixedLog, fixedStats := run(true)
	adLog, adStats := run(false)
	if adLog != fixedLog {
		t.Fatalf("logs diverged:\n-- fixed --\n%s\n-- adaptive --\n%s", fixedLog, adLog)
	}
	if adStats.FastForwards == 0 {
		t.Fatal("adaptive run recorded no idle fast-forwards")
	}
	// The grinder alone is ~2600 one-millisecond steps; fixed pays a
	// barrier per step, adaptive one per client wake plus slab refreshes.
	if adStats.Rounds*10 > fixedStats.Rounds {
		t.Fatalf("adaptive took %d rounds vs fixed %d — expected an order of magnitude fewer on an idle-sender workload",
			adStats.Rounds, fixedStats.Rounds)
	}
}

// TestRunForDeadline: RunFor's duration is a hard cap on event
// execution in a multi-domain engine — no event past the deadline runs,
// at any worker count, and the events that do run are the ones the
// fixed reference runs under the same cap. This is what makes the stop
// point a virtual-time fact rather than a window-placement fact.
func TestRunForDeadline(t *testing.T) {
	const deadline = 5 * Millisecond
	run := func(fixed bool, workers int) string {
		e := New(11)
		e.SetWorkers(workers)
		d1 := e.NewDomain("ticker")
		NewPort[int](e, d1, "lookahead", 100*Microsecond)
		var log strings.Builder
		var last Time
		d1.Go("tick", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				p.Sleep(100 * Microsecond)
				last = p.Now()
				fmt.Fprintf(&log, "tick %d@%s\n", i, p.Now())
			}
		})
		if err := runWith(e, fixed, deadline); err != nil {
			t.Fatal(err)
		}
		if last > deadline {
			t.Fatalf("fixed=%v workers=%d: event ran at %s, past the %s deadline", fixed, workers, last, deadline)
		}
		if now := d1.Now(); now != deadline {
			t.Fatalf("fixed=%v workers=%d: clock reads %s after the run, want the %s deadline", fixed, workers, now, deadline)
		}
		return log.String()
	}
	ref := run(true, 1)
	for _, workers := range []int{1, 4} {
		if got := run(false, workers); got != ref {
			t.Fatalf("workers=%d: tick log diverged from the fixed reference:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}

// fillPort stuffs n messages with the given delivery time straight into
// the sender buffer, standing in for Send on the barrier-path tests
// (which exercise flush/deliver, not the sender API).
func fillPort(pt *Port[int], n int, at Time) {
	for i := 0; i < n; i++ {
		pt.out = append(pt.out, portMsg[int]{at: at, v: i})
	}
}

// drainPort fires the port's armed delivery timer at its delivery time
// and empties the inbox, returning how many messages arrived.
func drainPort(pt *Port[int], at Time) int {
	d := pt.to
	if tm, ok := d.timers.pop(); ok {
		if tm.at > d.now {
			d.now = tm.at
		}
		tm.fire.fire(d, tm.armAt)
	}
	_ = at
	n := 0
	for {
		if _, ok := pt.TryRecv(); !ok {
			break
		}
		n++
	}
	return n
}

// TestBarrierPathAllocFree is the barrier-path twin of the sleep-path
// allocation gate: once the free lists are warm, a flush + deliver +
// drain cycle must not allocate — batches recycle, the inbox reuses its
// array, and the single armed timer reuses heap capacity.
func TestBarrierPathAllocFree(t *testing.T) {
	e := New(1)
	d1 := e.NewDomain("rx")
	pt := NewPort[int](e, d1, "p", Millisecond)
	var at Time
	cycle := func() {
		at += Millisecond
		fillPort(pt, 64, at)
		pt.flush()
		if n := drainPort(pt, at); n != 64 {
			t.Fatalf("delivered %d of 64", n)
		}
	}
	cycle() // warm the free lists and buffer capacities
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("barrier flush/deliver path allocates %.1f allocs/op, want 0", avg)
	}
}

// TestEOTScanAllocFree gates the other barrier cost: computing every
// domain's granted horizon must reuse the engine's scratch and never
// allocate.
func TestEOTScanAllocFree(t *testing.T) {
	e := New(1)
	doms := []*Domain{e.Dom()}
	for i := 1; i < 8; i++ {
		doms = append(doms, e.NewDomain(fmt.Sprintf("d%d", i)))
	}
	for i := range doms {
		NewPort[int](doms[i], doms[(i+1)%len(doms)], fmt.Sprintf("ring%d", i), Time(i+1)*Millisecond)
		d := doms[i]
		d.seq++
		d.timers.push(timer{at: Time(i) * 100 * Microsecond, seq: d.seq, p: nil})
	}
	e.prepareWindows()
	if avg := testing.AllocsPerRun(200, func() {
		e.computeWindow()
	}); avg != 0 {
		t.Fatalf("EOT scan allocates %.1f allocs/op, want 0", avg)
	}
}

// TestWindowStatsDeterminism: barrier counters are part of the
// deterministic surface — they must match across worker counts (they
// feed the metrics registry, which the CI determinism gate diffs).
func TestWindowStatsDeterminism(t *testing.T) {
	_, ref := randTopologyRun(t, 77, false, 1)
	_, got := randTopologyRun(t, 77, false, 8)
	if ref != got {
		t.Fatalf("window stats diverged across workers: %+v vs %+v", ref, got)
	}
	if ref.Rounds == 0 {
		t.Fatal("expected at least one barrier round")
	}
}
