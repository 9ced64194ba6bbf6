package sim

// Window protocol for the domain-sharded engine.
//
// Multi-domain runs proceed in rounds separated by barriers. At each
// barrier the engine (serial, every domain parked) flushes ports,
// scans the domains, and grants each domain a horizon; during the round
// every granted domain independently executes its events strictly below
// its horizon.
//
// Domain d's horizon is its earliest input time reach(d) — a lower
// bound on when any message could still arrive at d. A domain s cannot
// emit before eot(s) = min(N(s), reach(s)): it executes events in
// nondecreasing time starting at its next-event time N(s), unless an
// arriving message revives it earlier, and every send is stamped
// now+latency. So reach(d) = min over ports p into d of
// eot(from(p)) + latency(p), a shortest-arrival-path fixpoint over the
// port graph (latencies are positive, so Bellman-Ford relaxation
// converges). Domains with no inbound path from a live domain are
// unbounded. When no cross-domain traffic is near, horizons race ahead
// and barriers become rare.
//
// Every horizon is at least nextT + minLat — the classic
// static-lookahead window, nextT being the global next-event time and
// minLat the smallest port latency — because any arrival path starts at
// some eot(s) >= nextT and crosses at least one port. So the domain
// owning nextT always gets a horizon above it and every round makes
// progress. When no domain has a runnable process, the barrier also
// fast-forwards lagging clocks to nextT ("idle fast-forward"): no timer
// or pending delivery exists below nextT anywhere, so skipping the gap
// cannot skip an event — it only collapses empty rounds.
//
// Determinism: horizons are computed serially from barrier-time state,
// so they are identical at any worker count; and because delivery
// timers carry canonical sequence numbers (see port.go), *where* the
// barriers fall cannot change how any two events order. window_test.go
// checks that against a static-lookahead driver on random topologies.

// windowSlab bounds every granted window: even a domain no live sender
// can reach gets a horizon of at most nextT + windowSlab (or + minLat
// if some port's latency exceeds the slab). Unbounded windows would be
// a liveness hazard — a process that never quiesces (a Stopping() poll
// loop, say) would pin its domain in one endless window, and the Stop
// request it is waiting for only latches at a barrier. One virtual
// second keeps barriers rare on idle stretches while letting stop
// requests land promptly.
const windowSlab = Second

// WindowStats counts barrier activity during a multi-domain Run. All
// fields are computed serially at barriers, so they are identical at
// any worker count (and across runs of the same seed).
type WindowStats struct {
	// Rounds is the number of barrier rounds executed.
	Rounds int64
	// FastForwards counts rounds that advanced idle domain clocks to
	// the global next-event time.
	FastForwards int64
	// OpenTime is the sum over rounds of the granted global window
	// length min(horizon)-nextT (unbounded horizons excluded), i.e.
	// how much virtual time each barrier cleared at minimum.
	OpenTime Time
	// MaxOpen is the largest single granted global window length.
	MaxOpen Time
}

// WindowStats returns barrier counters for the last (or current) Run.
// Single-domain runs never window and report zeros.
func (e *Engine) WindowStats() WindowStats { return e.winStats }

// prepareWindows sizes the per-round scratch the barrier reuses: the
// EOT scan must not allocate (see BenchmarkEOTScan and the CI gate).
func (e *Engine) prepareWindows() {
	if cap(e.nextScratch) < len(e.domains) {
		e.nextScratch = make([]Time, len(e.domains))
		e.horizonScratch = make([]Time, len(e.domains))
	}
	e.nextScratch = e.nextScratch[:len(e.domains)]
	e.horizonScratch = e.horizonScratch[:len(e.domains)]
	e.winStats = WindowStats{}
}

// computeWindow runs at the barrier and fills e.horizonScratch with
// each domain's granted horizon. It returns the global next-event time
// (maxTime when fully quiescent), the smallest granted horizon, and
// whether every domain's run queue is empty (the idle fast-forward
// precondition). Zero allocations: everything lives in engine scratch.
func (e *Engine) computeWindow() (nextT, minH Time, allIdle bool) {
	nextT, allIdle = maxTime, true
	for i, d := range e.domains {
		n := d.nextEvent()
		e.nextScratch[i] = n
		if n < nextT {
			nextT = n
		}
		if d.runq.len() > 0 {
			allIdle = false
		}
		e.horizonScratch[i] = maxTime
	}
	if nextT == maxTime {
		return nextT, maxTime, allIdle
	}
	// Shortest-arrival-path fixpoint: horizonScratch[d] converges to
	// reach(d), relaxing eot(from) + latency across every port until
	// stable. Latencies are positive, so each pass only shortens paths
	// and the loop terminates within len(domains) passes. The fixpoint
	// is a unique minimum, so the relaxation order cannot affect the
	// result.
	for changed := true; changed; {
		changed = false
		for j, from := range e.portFrom {
			lb := e.nextScratch[from]
			if r := e.horizonScratch[from]; r < lb {
				lb = r
			}
			lat := e.portLat[j]
			if lb == maxTime || lat >= maxTime-lb {
				continue
			}
			if eot := lb + lat; eot < e.horizonScratch[e.portTo[j]] {
				e.horizonScratch[e.portTo[j]] = eot
				changed = true
			}
		}
	}
	// Liveness cap: no window extends more than windowSlab (or minLat,
	// if larger) past the global next event, so a barrier — the only
	// point where Stop requests latch — is always reachable.
	slab := windowSlab
	if e.minLat > slab {
		slab = e.minLat
	}
	if slab < maxTime-nextT {
		if lim := nextT + slab; lim > nextT {
			for i, h := range e.horizonScratch {
				if h > lim {
					e.horizonScratch[i] = lim
				}
			}
		}
	}
	// RunFor cap: events past the deadline never execute, so the stop
	// point is a pure virtual-time fact — windows cannot overrun it by
	// an amount that depends on where the barriers fell.
	if e.deadline < maxTime-1 {
		if lim := e.deadline + 1; lim > nextT {
			for i, h := range e.horizonScratch {
				if h > lim {
					e.horizonScratch[i] = lim
				}
			}
		}
	}
	minH = maxTime
	for _, h := range e.horizonScratch {
		if h < minH {
			minH = h
		}
	}
	return nextT, minH, allIdle
}

// runWindows is the barrier loop for multi-domain engines. Each round:
//
//  1. (serial) flush ports: sender batches move to receiver FIFOs and
//     delivery timers are armed, in port creation order;
//  2. (serial) computeWindow grants per-domain horizons (see the
//     comment at the top of this file), fast-forwarding idle clocks
//     over event gaps;
//  3. (parallel) every granted domain independently executes its
//     events strictly below its horizon;
//  4. (serial) aggregate failures and latch stop requests.
//
// Because domains share no state and cross-domain messages order
// canonically, the result is identical at any worker count.
func (e *Engine) runWindows() {
	e.prepareWindows()
	ranToEnd := false
	active := make([]*Domain, 0, len(e.domains))
	for !e.stopping {
		if e.stopReq.Load() {
			break
		}
		for _, pt := range e.ports {
			pt.flush()
		}
		nextT, minH, allIdle := e.computeWindow()
		if nextT == maxTime {
			ranToEnd = true
			break // quiescent everywhere, nothing in flight
		}
		if e.deadline < maxTime && nextT > e.deadline {
			ranToEnd = true
			break // every remaining event lies beyond the RunFor deadline
		}
		e.winStats.Rounds++
		if allIdle {
			ff := false
			for _, d := range e.domains {
				if d.now < nextT {
					d.now = nextT
					ff = true
				}
			}
			if ff {
				e.winStats.FastForwards++
			}
		}
		if minH < maxTime {
			if open := minH - nextT; open > 0 {
				e.winStats.OpenTime += open
				if open > e.winStats.MaxOpen {
					e.winStats.MaxOpen = open
				}
			}
		}
		active = active[:0]
		for i, d := range e.domains {
			if e.nextScratch[i] < e.horizonScratch[i] {
				d.horizon = e.horizonScratch[i]
				if t := d.tracer; t != nil {
					end := d.horizon
					if end == maxTime {
						end = e.nextScratch[i]
					}
					t.Slice(0, "sim", "window", e.nextScratch[i], end)
				}
				active = append(active, d)
			}
		}
		e.runDomains(active)
		for _, d := range e.domains {
			if d.failure != nil {
				if e.failure == nil {
					e.failure = d.failure
				}
				e.stopReq.Store(true)
			}
		}
	}
	if ranToEnd {
		e.alignClocks()
	}
	e.stopping = true
}

// alignClocks leaves every clock of a run that ended on its own —
// quiescence or the RunFor deadline — at an end time that does not
// depend on barrier placement: the deadline when one was set, else the
// time of the last event executed anywhere. Without this, how far a
// barrier round happened to fast-forward an idle domain's clock past
// its final event would leak into Domain.Now. (A dynamic Stop keeps the
// clocks where its barrier latched; its cut point is inherently
// barrier-placement-dependent.)
func (e *Engine) alignClocks() {
	end := e.deadline
	if end == maxTime {
		end = 0
		for _, d := range e.domains {
			if d.now > end {
				end = d.now
			}
		}
	}
	for _, d := range e.domains {
		if d.now < end {
			d.now = end
		}
	}
}
