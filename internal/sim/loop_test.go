package sim

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// randTopologyRun builds a randomized multi-domain engine — topology,
// latencies, workloads and message counts all drawn from metaSeed — and
// runs it to quiescence. It returns a witness string capturing every
// observable ordering fact: per-domain logs (message receipts
// interleaved with local timer work, in execution order), final clocks,
// and event counts. Construction randomness comes from metaSeed and
// in-simulation randomness from domain-scoped streams, so two calls with
// equal metaSeed build identical simulations.
//
// Sleeps and latencies are multiples of 10us on purpose: equal-time
// collisions — two ports delivering at one instant, a delivery racing a
// local timer — are exactly where a merge of domains could reorder
// events, so the workload manufactures lots of them.
func randTopologyRun(t *testing.T, metaSeed int64) string {
	t.Helper()
	meta := rand.New(rand.NewSource(metaSeed))
	e := New(metaSeed)

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
	// lines interleave with receipts in execution order, so a loop that
	// reordered a delivery against a local timer would show here.
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
	// timers and port deliveries.
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

	if err := e.Run(); err != nil {
		t.Fatalf("metaSeed %d: %v", metaSeed, err)
	}
	var b strings.Builder
	for i, lg := range logs {
		fmt.Fprintf(&b, "== domain %d (t=%s, timers=%d)\n",
			i, doms[i].Now(), doms[i].TimersScheduled())
		b.WriteString(lg.String())
	}
	return b.String()
}

// TestFixedLookaheadEquivalence holds the serial loop to the event order
// of the conservative barrier protocols it replaced. The witness file
// was recorded, for metaSeeds 1-12, from a static-lookahead barrier
// reference (every round grants every domain nextT + min latency), which
// the adaptive windowed engine also matched byte for byte. The loop must
// reproduce every receipt time, its interleaving with local timers, the
// final clocks and the timer counts.
func TestFixedLookaheadEquivalence(t *testing.T) {
	want, err := os.ReadFile("testdata/rand_topology_witness.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for metaSeed := int64(1); metaSeed <= 12; metaSeed++ {
		fmt.Fprintf(&got, "#### metaSeed %d\n%s", metaSeed, randTopologyRun(t, metaSeed))
	}
	if got.String() == string(want) {
		return
	}
	g, w := strings.Split(got.String(), "#### "), strings.Split(string(want), "#### ")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("diverged from the recorded witness:\n-- want --\n%s\n-- got --\n%s", w[i], g[i])
		}
	}
	t.Fatalf("witness has %d sections, recorded %d", len(g), len(w))
}

// TestRunForDeadline: in a multi-domain engine no event due after the
// RunFor deadline runs, and afterwards every domain's clock reads the
// deadline — including a domain that went idle long before it.
func TestRunForDeadline(t *testing.T) {
	const deadline = 5 * Millisecond
	e := New(11)
	d1 := e.NewDomain("ticker")
	d2 := e.NewDomain("idle")
	var last Time
	ticks := 0
	d1.Go("tick", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(100 * Microsecond)
			last = p.Now()
			ticks++
		}
	})
	d2.Go("once", func(p *Proc) { p.Sleep(Millisecond) })
	if err := e.RunFor(deadline); err != nil {
		t.Fatal(err)
	}
	if last > deadline {
		t.Fatalf("event ran at %s, past the %s deadline", last, deadline)
	}
	if ticks < 49 {
		t.Fatalf("%d ticks ran, want every tick before the %s deadline", ticks, deadline)
	}
	for _, d := range e.Domains() {
		if now := d.Now(); now != deadline {
			t.Fatalf("domain %s reads %s after the run, want the %s deadline", d.Name(), now, deadline)
		}
	}
}

// drainPort fires the port's armed delivery timer at its delivery time
// and empties the inbox, returning how many messages arrived.
func drainPort(pt *Port[int]) int {
	d := pt.to
	if tm, ok := d.timers.pop(); ok {
		d.eng.now = tm.at
		tm.fire.fire(d, tm.armAt)
	}
	n := 0
	for {
		if _, ok := pt.TryRecv(); !ok {
			break
		}
		n++
	}
	return n
}

// portCycle sends 64 messages on pt from the default domain, delivers
// them and drains the inbox.
func portCycle(tb testing.TB, e *Engine, pt *Port[int]) {
	for i := 0; i < 64; i++ {
		pt.Send(e, i)
	}
	if n := drainPort(pt); n != 64 {
		tb.Fatalf("delivered %d of 64", n)
	}
}

// TestPortPathAllocFree is the port twin of the sleep-path allocation
// gate: once warm, a cycle of 64 sends, their delivery and the inbox
// drain must not allocate — pending and the inbox reuse their arrays,
// and the single armed timer reuses heap capacity.
func TestPortPathAllocFree(t *testing.T) {
	e := New(1)
	pt := NewPort[int](e, e.NewDomain("rx"), "p", Millisecond)
	portCycle(t, e, pt) // warm the buffer capacities
	if avg := testing.AllocsPerRun(200, func() { portCycle(t, e, pt) }); avg != 0 {
		t.Fatalf("port send/deliver path allocates %.1f allocs/op, want 0", avg)
	}
}

// TestPortPendingBounded: a stream that never fully drains — the sender
// always has a message in flight — must not grow the pending array:
// delivery compacts it instead of letting consumed slots pile up.
func TestPortPendingBounded(t *testing.T) {
	const sends = 100000
	e := New(1)
	d1 := e.NewDomain("rx")
	pt := NewPort[int](e, d1, "p", Millisecond)
	n, maxCap := 0, 0
	NewCallback(e, "tx", func(Time) Time {
		if n > 0 && len(pt.pending) == 0 {
			t.Fatalf("send %d: nothing in flight, the stream drained", n)
		}
		pt.Send(e, n)
		maxCap = max(maxCap, cap(pt.pending))
		if n++; n == sends {
			return 0
		}
		return 300 * Microsecond
	}).Wake()
	got := 0
	var rx *Callback
	rx = NewCallback(d1, "rx", func(Time) Time {
		for _, ok := pt.TryRecv(); ok; _, ok = pt.TryRecv() {
			got++
		}
		pt.recvQ.Subscribe(rx, "rx")
		return 0
	})
	pt.recvQ.Subscribe(rx, "rx")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != sends {
		t.Fatalf("received %d of %d", got, sends)
	}
	if maxCap > 8 {
		t.Fatalf("pending capacity reached %d with at most 4 messages in flight", maxCap)
	}
}
