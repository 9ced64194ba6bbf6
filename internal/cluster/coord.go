package cluster

import (
	"duet/internal/faults"
	"duet/internal/sim"
)

// Client RPC tunables: per-attempt deadline and total attempts before
// an op is declared failed.
const (
	rpcDeadline = 250 * sim.Millisecond
	rpcAttempts = 6
	maxInflight = 4
)

// Shard service states, ordered by severity.
const (
	shardHealthy  = iota // full replication
	shardUnder           // below R but at/above write quorum
	shardReadOnly        // below quorum, at least one replica serving
	shardUnavail         // no in-service replica
)

// rpcCall is one outstanding client op.
type rpcCall struct {
	id       int64
	write    bool
	shard    int
	page     int64
	expect   uint64 // reads: highest acked seq for the page at issue
	rankIx   int    // reads: current fallback position
	deadline sim.Time
	attempt  int
	done     bool
}

// repairJob tracks one in-flight shard repair.
type repairJob struct {
	shard, dest, source int
}

// Coordinator is the control plane and the workload: it tracks
// liveness by heartbeat, computes membership (epoch, per-shard
// in-service ranks), drives deterministic client traffic, and
// schedules repairs. It runs as a callback on the engine's default
// domain (see step); every node interaction goes over the c2n/n2c
// ports.
type Coordinator struct {
	c *Cluster

	// tick runs step on the grid {k·Tick}; the first step, at 0, finds
	// no tick armed and counts as live.
	tick gridTick

	alive    []bool
	lastPong []sim.Time
	deadAt   []sim.Time
	synced   [][]bool     // [node][shard]
	joinVec  [][][]uint64 // [node][shard] applied vector from the last MsgJoin
	epoch    uint64
	ranks    [][]int

	acked   [][]uint64 // [shard][page] highest client-acknowledged seq
	pending []*rpcCall
	repairs []repairJob

	stream  *faults.Stream
	nextID  int64
	lastOp  sim.Time
	lastHB  sim.Time
	opShard int

	shardState []int
	stateSince []sim.Time

	s Stats
}

func newCoordinator(c *Cluster) *Coordinator {
	co := &Coordinator{
		c:          c,
		alive:      make([]bool, c.Cfg.Nodes),
		lastPong:   make([]sim.Time, c.Cfg.Nodes),
		deadAt:     make([]sim.Time, c.Cfg.Nodes),
		synced:     make([][]bool, c.Cfg.Nodes),
		joinVec:    make([][][]uint64, c.Cfg.Nodes),
		acked:      make([][]uint64, c.Cfg.Shards),
		stream:     faults.NewStream(c.Cfg.Plan.Seed ^ 0xc0ffee),
		shardState: make([]int, c.Cfg.Shards),
		stateSince: make([]sim.Time, c.Cfg.Shards),
		// The first pings and the first op are due at 0.
		lastHB: -c.Cfg.HBEvery,
		lastOp: -c.Cfg.OpEvery,
	}
	for i := range co.alive {
		co.alive[i] = true
		co.synced[i] = make([]bool, c.Cfg.Shards)
		co.joinVec[i] = make([][]uint64, c.Cfg.Shards)
		for s := 0; s < c.Cfg.Shards; s++ {
			co.synced[i][s] = true
		}
	}
	for s := range co.acked {
		co.acked[s] = make([]uint64, c.Cfg.ShardPages)
	}
	return co
}

// step is one tick of the control loop, run inline as the coordinator
// callback's handler. It never blocks, so it is not a proc. It runs
// only at grid ticks where it may have work: the live tick re-arms at
// the next deadline (see nextDue), delivered arms one after each
// message, and a superseded tick returns at once.
func (co *Coordinator) step(d *sim.Domain) {
	now := d.Now()
	if !co.tick.fire(now) {
		return
	}
	if co.epoch == 0 {
		co.recompute(d) // first call: epoch 1, everyone in service
	}
	if d.Engine().Stopping() {
		return
	}
	co.drain(d)
	co.detect(d)
	co.heartbeat(d)
	co.timeouts(d)
	co.issueOps(d)
	co.tick.arm(now, co.nextDue(now))
}

// nextDue returns the earliest time after now at which a step would act
// with no new message. Each rule has one deadline function, which the
// step's checks read too.
func (co *Coordinator) nextDue(now sim.Time) sim.Time {
	due := min(co.hbAt(), co.opAt(now+1))
	for i := range co.alive {
		due = min(due, co.pongAt(i))
	}
	for _, r := range co.pending {
		due = min(due, r.timeoutAt())
	}
	return due
}

// hbAt is when the next round of pings is due.
func (co *Coordinator) hbAt() sim.Time { return co.lastHB + co.c.Cfg.HBEvery }

// pongAt is when a live node i that stays silent is declared dead;
// never for a node already dead.
func (co *Coordinator) pongAt(i int) sim.Time {
	if !co.alive[i] {
		return never
	}
	return co.lastPong[i] + co.c.Cfg.HBTimeout + 1
}

// timeoutAt is when an RPC's current attempt times out; never once the
// call is done.
func (r *rpcCall) timeoutAt() sim.Time {
	if r.done {
		return never
	}
	return r.deadline
}

// opAt is the first time at or after now at which issueOps issues a
// client op: OpEvery after the last one, while fewer than maxInflight
// calls are pending and before the quiesce point; never otherwise.
func (co *Coordinator) opAt(now sim.Time) sim.Time {
	cfg := &co.c.Cfg
	at := max(co.lastOp+cfg.OpEvery, now)
	if at >= cfg.Window-cfg.QuiesceBefore {
		return never
	}
	inflight := 0
	for _, r := range co.pending {
		if !r.done {
			inflight++
		}
	}
	if inflight >= maxInflight {
		return never
	}
	return at
}

// delivered is the n2c ports' delivery hook: a message that lands at
// now is handled at the first grid tick after now (a grid tick at now
// itself already ran, before the delivery).
func (co *Coordinator) delivered(now sim.Time) { co.tick.arm(now, now+1) }

func (co *Coordinator) drain(d *sim.Domain) {
	for _, n := range co.c.Nodes {
		for {
			m, ok := n.toCoord.TryRecv()
			if !ok {
				break
			}
			co.handle(d, m)
		}
	}
}

// detect declares nodes dead when their heartbeats stop.
func (co *Coordinator) detect(d *sim.Domain) {
	now := d.Now()
	changed := false
	for i := range co.alive {
		if now < co.pongAt(i) {
			continue
		}
		co.alive[i] = false
		co.deadAt[i] = now
		co.s.KillsDetected++
		for s := 0; s < co.c.Cfg.Shards; s++ {
			co.synced[i][s] = false
		}
		// Repairs sourced at the dead node restart from the new primary
		// once the destination re-announces its vector; repairs headed
		// to it are moot until it rejoins.
		keep := co.repairs[:0]
		for _, j := range co.repairs {
			switch {
			case j.source == i && co.alive[j.dest]:
				co.c.Nodes[j.dest].fromCoord.Send(d, Msg{
					Kind: MsgVecReq, From: -1, Shard: j.shard,
				})
			case j.dest == i:
			default:
				keep = append(keep, j)
			}
		}
		co.repairs = keep
		changed = true
	}
	if changed {
		co.recompute(d)
	}
}

func (co *Coordinator) heartbeat(d *sim.Domain) {
	now := d.Now()
	if now < co.hbAt() {
		return
	}
	co.lastHB = now
	for _, n := range co.c.Nodes {
		n.fromCoord.Send(d, Msg{Kind: MsgPing, From: -1})
	}
}

func (co *Coordinator) handle(d *sim.Domain, m Msg) {
	now := d.Now()
	switch m.Kind {
	case MsgPong:
		co.lastPong[m.From] = now
	case MsgWriteReply:
		co.handleWriteReply(d, m)
	case MsgReadReply:
		co.handleReadReply(d, m)
	case MsgJoin:
		co.handleJoin(d, m)
	case MsgShardSynced:
		co.handleSynced(d, m)
	}
}

func (co *Coordinator) findRPC(id int64) *rpcCall {
	for _, r := range co.pending {
		if r.id == id && !r.done {
			return r
		}
	}
	return nil
}

func (co *Coordinator) handleWriteReply(d *sim.Domain, m Msg) {
	r := co.findRPC(m.ID)
	if r == nil {
		return
	}
	if m.OK {
		if m.Seq > co.acked[r.shard][r.page] {
			co.acked[r.shard][r.page] = m.Seq
		}
		co.s.WritesAcked++
		r.done = true
		return
	}
	co.s.WriteRejects++
	co.retryWrite(d, r)
}

func (co *Coordinator) retryWrite(d *sim.Domain, r *rpcCall) {
	r.attempt++
	if r.attempt >= rpcAttempts {
		co.s.WriteFailures++
		r.done = true
		return
	}
	rk := co.ranks[r.shard]
	if len(rk) < co.c.Cfg.Quorum() {
		// No serviceable primary right now; keep the call pending and
		// let the next deadline re-examine a hopefully healed world.
		r.deadline = d.Now() + rpcDeadline*sim.Time(r.attempt+1)
		return
	}
	co.s.RPCRetries++
	r.deadline = d.Now() + rpcDeadline*sim.Time(r.attempt+1)
	co.c.Nodes[rk[0]].fromCoord.Send(d, Msg{
		Kind: MsgWrite, From: -1, ID: r.id, Shard: r.shard, Page: r.page,
	})
}

func (co *Coordinator) handleReadReply(d *sim.Domain, m Msg) {
	r := co.findRPC(m.ID)
	if r == nil {
		return
	}
	if m.OK {
		// Stale data from the primary is a protocol violation — acks
		// require the full in-service set, so rank 0 must be current.
		// Fallback replicas answer best-effort during degradation.
		if r.rankIx == 0 && m.Seq < r.expect {
			co.s.ConsistencyViolations++
		}
		co.s.ReadsOK++
		r.done = true
		return
	}
	co.advanceRead(d, r)
}

// advanceRead moves a read to the next in-service replica.
func (co *Coordinator) advanceRead(d *sim.Domain, r *rpcCall) {
	r.rankIx++
	r.attempt++
	rk := co.ranks[r.shard]
	if r.rankIx >= len(rk) || r.attempt >= rpcAttempts {
		co.s.ReadFailures++
		r.done = true
		return
	}
	co.s.ReadFallbacks++
	co.s.RPCRetries++
	r.deadline = d.Now() + rpcDeadline
	co.c.Nodes[rk[r.rankIx]].fromCoord.Send(d, Msg{
		Kind: MsgRead, From: -1, ID: r.id, Shard: r.shard, Page: r.page,
	})
}

// handleJoin processes a recovered node's per-shard announcement. A
// MsgJoin always means "I remounted": the replica is taken out of
// service even if the outage was too short for heartbeats to notice —
// its volatile tail rolled back, so it must resync before serving. The
// membership rebroadcast happens BEFORE any repair command is issued —
// on the FIFO port to the repair source, the primary therefore learns
// about the learner before the manifest snapshot, which is what closes
// the catch-up gap.
func (co *Coordinator) handleJoin(d *sim.Domain, m Msg) {
	i := m.From
	co.joinVec[i][m.Shard] = m.Vec
	co.lastPong[i] = d.Now()
	changed := false
	if !co.alive[i] {
		co.alive[i] = true
		co.s.Joins++
		changed = true
	}
	if co.synced[i][m.Shard] {
		co.synced[i][m.Shard] = false
		changed = true
	}
	if changed {
		co.recompute(d)
	}
	co.startRepair(d, m.Shard, i)
}

func (co *Coordinator) startRepair(d *sim.Domain, shard, dest int) {
	for _, j := range co.repairs {
		if j.shard == shard && j.dest == dest {
			return
		}
	}
	rk := co.ranks[shard]
	if len(rk) == 0 {
		// Every replica was lost; the joiner's durable state is the best
		// copy in existence, so adopt it as authoritative. Acked writes
		// beyond its last checkpoint are genuinely gone — the audit
		// charges them as lost blocks, which is the honest outcome of a
		// total-loss event.
		co.synced[dest][shard] = true
		co.recompute(d)
		return
	}
	src := rk[0]
	co.repairs = append(co.repairs, repairJob{shard: shard, dest: dest, source: src})
	co.s.RepairsStarted++
	co.c.Nodes[src].fromCoord.Send(d, Msg{
		Kind: MsgRepairCmd, From: -1, Shard: shard, Dest: dest,
		Vec: co.joinVec[dest][shard],
	})
}

func (co *Coordinator) handleSynced(d *sim.Domain, m Msg) {
	i := m.From
	if co.synced[i][m.Shard] {
		return
	}
	co.synced[i][m.Shard] = true
	co.s.ShardRepairs++
	keep := co.repairs[:0]
	for _, j := range co.repairs {
		if !(j.shard == m.Shard && j.dest == i) {
			keep = append(keep, j)
		}
	}
	co.repairs = keep
	all := true
	for s := 0; s < co.c.Cfg.Shards; s++ {
		if contains(co.c.Cfg.Placement(s), i) && !co.synced[i][s] {
			all = false
			break
		}
	}
	if all {
		if co.deadAt[i] > 0 {
			co.s.RepairWindowUs += int64((d.Now() - co.deadAt[i]) / sim.Microsecond)
			co.deadAt[i] = 0
		}
		co.recompute(d)
	}
}

// timeouts sweeps overdue RPCs: writes re-aim at the current primary,
// reads fall through the rank list.
func (co *Coordinator) timeouts(d *sim.Domain) {
	now := d.Now()
	for _, r := range co.pending {
		if now < r.timeoutAt() {
			continue
		}
		co.s.RPCTimeouts++
		if r.write {
			co.retryWrite(d, r)
		} else {
			co.advanceRead(d, r)
		}
	}
	keep := co.pending[:0]
	for _, r := range co.pending {
		if !r.done {
			keep = append(keep, r)
		}
	}
	co.pending = keep
}

// issueOps drives the deterministic client workload: one op per
// OpEvery, shards round-robin, write-vs-read and page from the seeded
// stream, stopping QuiesceBefore the end of the window so in-flight
// writes settle before the audit.
func (co *Coordinator) issueOps(d *sim.Domain) {
	now := d.Now()
	cfg := &co.c.Cfg
	if co.opAt(now) != now {
		return
	}
	co.lastOp = now
	shard := co.opShard
	co.opShard = (co.opShard + 1) % cfg.Shards
	write := co.stream.Roll() < 0.5
	page := int64(co.stream.RollN(int(cfg.ShardPages)))
	rk := co.ranks[shard]
	if write && len(rk) < cfg.Quorum() || !write && len(rk) == 0 {
		co.s.UnavailOps++
		return
	}
	co.nextID++
	r := &rpcCall{
		id: co.nextID, write: write, shard: shard, page: page,
		deadline: now + rpcDeadline,
	}
	kind := MsgRead
	if write {
		co.s.WritesIssued++
		kind = MsgWrite
	} else {
		co.s.ReadsIssued++
		r.expect = co.acked[shard][page]
	}
	co.pending = append(co.pending, r)
	co.c.Nodes[rk[0]].fromCoord.Send(d, Msg{
		Kind: kind, From: -1, ID: r.id, Shard: shard, Page: page,
	})
}

// recompute advances the epoch, rebuilds the per-shard in-service rank
// lists (alive and synced replicas in placement order), folds elapsed
// time into the degraded-state accumulators, and broadcasts the new
// membership to every node with fresh slices.
func (co *Coordinator) recompute(d *sim.Domain) {
	now := d.Now()
	co.epoch++
	co.ranks = make([][]int, co.c.Cfg.Shards)
	for s := 0; s < co.c.Cfg.Shards; s++ {
		var rk []int
		for _, i := range co.c.Cfg.Placement(s) {
			if co.alive[i] && co.synced[i][s] {
				rk = append(rk, i)
			}
		}
		co.ranks[s] = rk
		st := shardHealthy
		switch {
		case len(rk) == 0:
			st = shardUnavail
		case len(rk) < co.c.Cfg.Quorum():
			st = shardReadOnly
		case len(rk) < co.c.Cfg.Replicas:
			st = shardUnder
		}
		if st != co.shardState[s] {
			co.foldState(s, now)
			co.shardState[s] = st
			co.stateSince[s] = now
		}
	}
	aliveC := make([]bool, len(co.alive))
	copy(aliveC, co.alive)
	ranksC := make([][]int, len(co.ranks))
	for s, rk := range co.ranks {
		ranksC[s] = append([]int(nil), rk...)
	}
	for _, n := range co.c.Nodes {
		n.fromCoord.Send(d, Msg{
			Kind: MsgMembership, From: -1, Epoch: co.epoch,
			Alive: aliveC, Ranks: ranksC,
		})
	}
}

// foldState accumulates the time shard s spent in its current state.
func (co *Coordinator) foldState(s int, now sim.Time) {
	us := int64((now - co.stateSince[s]) / sim.Microsecond)
	switch co.shardState[s] {
	case shardUnder:
		co.s.DegradedUs += us
	case shardReadOnly:
		co.s.DegradedUs += us
		co.s.ReadOnlyUs += us
	case shardUnavail:
		co.s.DegradedUs += us
		co.s.UnavailUs += us
	}
}

// snapshot returns the coordinator's stats with degraded time folded
// up to now. It does not mutate the accumulators, so it is idempotent.
func (co *Coordinator) snapshot(now sim.Time) Stats {
	s := co.s
	s.Epoch = co.epoch
	for sh := 0; sh < co.c.Cfg.Shards; sh++ {
		us := int64((now - co.stateSince[sh]) / sim.Microsecond)
		switch co.shardState[sh] {
		case shardUnder:
			s.DegradedUs += us
		case shardReadOnly:
			s.DegradedUs += us
			s.ReadOnlyUs += us
		case shardUnavail:
			s.DegradedUs += us
			s.UnavailUs += us
		}
	}
	return s
}
