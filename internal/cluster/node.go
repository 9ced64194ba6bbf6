package cluster

import (
	"fmt"

	"duet/internal/cowfs"
	"duet/internal/faults"
	"duet/internal/machine"
	"duet/internal/sim"
)

// Replication tunables. The primary gives the full in-service follower
// set replDeadline to ack before resending, and gives up (failing the
// client write) after replAttempts rounds.
const (
	replDeadline = 500 * sim.Millisecond
	replAttempts = 4
	// repairBatch pages ride in one MsgRepairData.
	repairBatch = 16
)

// replica is one shard replica hosted by a node: a real cowfs file plus
// the applied-sequence vector and the replication log that track which
// write each page carries.
type replica struct {
	shard   int
	ino     cowfs.Ino
	applied []uint64
	log     *Log
	next    uint64 // next sequence this node would allocate as primary
}

// pendWrite is a client write the primary has applied locally and is
// waiting to see acknowledged by every in-service follower.
type pendWrite struct {
	rid      int64 // replication correlation id (node-local)
	cid      int64 // client RPC id, echoed in the eventual reply
	shard    int
	page     int64
	seq      uint64
	need     []int // followers still owing an ack
	deadline sim.Time
	attempt  int
	done     bool
}

// nodeStats is one node's counter block. Written only by procs on the
// node's domain; read by Stats after the run.
type nodeStats struct {
	Kills, Recoveries                int64
	RecordsAppended, RecordsReplayed int64
	TornLogs, CorruptLogs            int64
	ApplyWrites, ResyncApplied       int64
	PagesShipped                     int64
	RepairDiskReads, RepairCacheHits int64
	ReplRetries                      int64
	CommitErrors                     int64
	DroppedDead, DroppedPartition    int64
}

// Node is one cluster machine: a full storage stack on its own domain,
// its hosted shard replicas, and the server loop that speaks the
// cluster protocol. All fields past the ports are touched only from the
// node's domain.
type Node struct {
	c   *Cluster
	idx int
	dom *sim.Domain
	st  *machine.Stack

	fromCoord *sim.Port[Msg]
	toCoord   *sim.Port[Msg]
	peers     []*sim.Port[Msg] // peers[j]: this node -> node j
	inbound   []*sim.Port[Msg] // fixed drain order: coord, then peers ascending

	reps   []*replica
	stream *faults.Stream
	kills  []faults.KillEvent
	killIx int

	alive bool
	fatal error // a failed remount; the node stays down and Audit reports it

	// Latest membership view.
	epoch  uint64
	aliveV []bool
	ranks  [][]int

	pend       []*pendWrite
	rid        int64
	repairSeq  int
	lastCommit sim.Time

	// The server parks on idle between busy iterations until tick wakes
	// it; the tick grid is anchored where the last iteration ended (see
	// sleep).
	tick gridTick
	idle sim.WaitQueue

	stats nodeStats
}

// Stack exposes the node's storage stack (read-only use after a run:
// robustness counters, metrics).
func (n *Node) Stack() *machine.Stack { return n.st }

// rep returns the replica of shard s hosted here, nil if none.
func (n *Node) rep(s int) *replica {
	for _, r := range n.reps {
		if r.shard == s {
			return r
		}
	}
	return nil
}

// run is the server loop: act on the kill schedule, drain inbound
// ports in fixed order, retry outstanding replication, checkpoint. It
// is a proc because FS.Write and FS.Commit block. Between busy
// iterations it parks on idle until the tick wakes it; DESIGN.md
// ("Procs and callbacks") gives why the grid ticks it skips leave the
// simulation unchanged.
func (n *Node) run(p *sim.Proc) {
	for !p.Engine().Stopping() {
		n.checkKills(p)
		n.drain(p)
		if n.alive {
			n.checkPending(p)
			n.maybeCommit(p)
		}
		n.sleep(p.Now())
		n.idle.Wait(p, "idle")
	}
}

// sleep anchors the tick grid where an iteration ended and arms the
// first grid tick at which the next one has work: the next tick if a
// message already waits, else the first at or after the earliest
// deadline.
func (n *Node) sleep(now sim.Time) {
	n.tick.base = now
	due := n.nextDue()
	for _, pt := range n.inbound {
		if pt.Len() > 0 {
			due = now + 1
			break
		}
	}
	n.tick.arm(now, due)
}

// delivered is the inbound ports' delivery hook. A message that lands
// at now on a parked server makes the first grid tick after now busy;
// a grid tick at now itself already ran, since local timers sort before
// deliveries at equal times. A busy server's iteration end looks at the
// inbox itself.
func (n *Node) delivered(now sim.Time) {
	if n.idle.Len() > 0 {
		n.tick.arm(now, now+1)
	}
}

// poll is the tick callback's handler: the live tick wakes the server.
func (n *Node) poll(now sim.Time) sim.Time {
	if n.tick.fire(now) {
		n.idle.WakeOne()
	}
	return 0
}

// nextDue returns the earliest time at which the loop body would act
// with no new message (never if there is none). Each rule has one
// deadline function, which the loop body's checks read too.
func (n *Node) nextDue() sim.Time {
	due := min(n.killAt(), n.recoverAt(), n.commitAt())
	for _, pw := range n.pend {
		due = min(due, pw.retryAt())
	}
	return due
}

// killAt is when the next scheduled power cut hits a live node; never
// on a dead one or past the schedule.
func (n *Node) killAt() sim.Time {
	if !n.alive || n.killIx >= len(n.kills) {
		return never
	}
	return n.kills[n.killIx].At
}

// recoverAt is when a dead node's scheduled restart arrives; never on a
// live node or one whose remount failed, which stays down.
func (n *Node) recoverAt() sim.Time {
	if n.alive || n.fatal != nil || n.killIx >= len(n.kills) {
		return never
	}
	return n.kills[n.killIx].RecoverAt
}

// commitAt is when a live node's next checkpoint is due; never on a
// dead one.
func (n *Node) commitAt() sim.Time {
	if !n.alive {
		return never
	}
	return n.lastCommit + n.c.Cfg.CommitEvery
}

// retryAt is when a replication round needs a retry; never once done.
func (pw *pendWrite) retryAt() sim.Time {
	if pw.done {
		return never
	}
	return pw.deadline
}

// checkKills powers the node down and back up per the fault plan.
func (n *Node) checkKills(p *sim.Proc) {
	if p.Now() >= n.killAt() {
		n.die()
	}
	if p.Now() >= n.recoverAt() {
		n.recover(p)
		n.killIx++
	}
}

// die is the power cut: all volatile stack state vanishes, the
// replication logs truncate to their durable watermark (possibly torn
// or corrupted per the plan), and every in-flight replication is
// forgotten. The durable medium is untouched.
func (n *Node) die() {
	n.alive = false
	n.stats.Kills++
	n.st.Crash()
	plan := &n.c.Cfg.Plan
	for _, r := range n.reps {
		r.log.Crash(n.stream, plan.TornLogRate, plan.CorruptLogRate)
	}
	n.pend = nil
}

// recover remounts the stack from its durable checkpoint, rebuilds
// each replica's applied vector by replaying its log, and announces
// the comeback with one MsgJoin per shard. A remount failure is fatal
// for the node (reported by Audit), never silent.
func (n *Node) recover(p *sim.Proc) {
	if err := n.st.Remount(); err != nil {
		n.fatal = err
		return
	}
	n.stats.Recoveries++
	for _, r := range n.reps {
		ino, err := n.st.FS.Lookup(fmt.Sprintf("/vol/s%d", r.shard))
		if err != nil {
			n.fatal = fmt.Errorf("shard %d lost across remount: %w", r.shard, err)
			return
		}
		r.ino = ino.Ino
		for i := range r.applied {
			r.applied[i] = 0
		}
		recs, torn, corrupt := r.log.Replay()
		if torn {
			n.stats.TornLogs++
		}
		if corrupt {
			n.stats.CorruptLogs++
		}
		r.next = 1
		for _, rec := range recs {
			n.stats.RecordsReplayed++
			if rec.Page >= 0 && rec.Page < int64(len(r.applied)) {
				r.applied[rec.Page] = rec.Seq
			}
			if rec.Seq+1 > r.next {
				r.next = rec.Seq + 1
			}
		}
		vec := make([]uint64, len(r.applied))
		copy(vec, r.applied)
		n.toCoord.Send(p, Msg{
			Kind: MsgJoin, From: n.idx, Shard: r.shard, Vec: vec,
		})
	}
	n.lastCommit = p.Now()
	n.alive = true
}

// drain empties every inbound port in the fixed order, handling each
// message as it arrives.
func (n *Node) drain(p *sim.Proc) {
	for _, pt := range n.inbound {
		for {
			m, ok := pt.TryRecv()
			if !ok {
				break
			}
			n.handle(p, m)
		}
	}
}

func (n *Node) handle(p *sim.Proc, m Msg) {
	if !n.alive {
		n.stats.DroppedDead++
		return
	}
	// Partitions cut node-to-node links only; the coordinator's control
	// plane (From == -1) stays reachable, which is what makes a
	// partition a distinct failure from a kill.
	if m.From >= 0 && n.c.Cfg.Plan.Partitioned(m.From, n.idx, p.Now()) {
		n.stats.DroppedPartition++
		return
	}
	switch m.Kind {
	case MsgPing:
		n.toCoord.Send(p, Msg{Kind: MsgPong, From: n.idx})
	case MsgMembership:
		n.epoch, n.aliveV, n.ranks = m.Epoch, m.Alive, m.Ranks
		n.pruneDeadAcks(p)
	case MsgWrite:
		n.handleWrite(p, m)
	case MsgReplicate:
		n.handleReplicate(p, m)
	case MsgReplAck:
		n.handleReplAck(p, m)
	case MsgRead:
		r := n.rep(m.Shard)
		if r == nil || m.Page < 0 || m.Page >= int64(len(r.applied)) {
			n.toCoord.Send(p, Msg{Kind: MsgReadReply, From: n.idx, ID: m.ID})
			return
		}
		n.toCoord.Send(p, Msg{
			Kind: MsgReadReply, From: n.idx, ID: m.ID, OK: true,
			Shard: m.Shard, Page: m.Page, Seq: r.applied[m.Page],
		})
	case MsgRepairCmd:
		shard, dest, vec := m.Shard, m.Dest, m.Vec
		n.repairSeq++
		p.Go(fmt.Sprintf("repair%d-s%d-d%d", n.repairSeq, shard, dest),
			func(rp *sim.Proc) { n.repairShard(rp, shard, dest, vec) })
	case MsgRepairData:
		n.handleRepairData(p, m)
	case MsgVecReq:
		if r := n.rep(m.Shard); r != nil {
			vec := make([]uint64, len(r.applied))
			copy(vec, r.applied)
			n.toCoord.Send(p, Msg{Kind: MsgJoin, From: n.idx, Shard: m.Shard, Vec: vec})
		}
	}
}

// inService reports whether node j is in the shard's in-service rank
// list per this node's membership view.
func (n *Node) inService(shard, j int) bool {
	if n.ranks == nil || shard >= len(n.ranks) {
		return false
	}
	for _, x := range n.ranks[shard] {
		if x == j {
			return true
		}
	}
	return false
}

// handleWrite is the primary path. The write is applied locally (a real
// filesystem write — the page lands dirty in the cache, which is what
// the Duet repairer later harvests), logged, and replicated to every
// in-service follower plus any alive-but-unsynced learner. The client
// is acknowledged only when the full in-service set has applied it, so
// any in-service survivor of a later failure carries all acked writes —
// quorum gates availability, not durability.
func (n *Node) handleWrite(p *sim.Proc, m Msg) {
	r := n.rep(m.Shard)
	reject := func() {
		n.toCoord.Send(p, Msg{Kind: MsgWriteReply, From: n.idx, ID: m.ID})
	}
	if r == nil || m.Page < 0 || m.Page >= int64(len(r.applied)) {
		reject()
		return
	}
	if n.ranks == nil || m.Shard >= len(n.ranks) {
		reject()
		return
	}
	rk := n.ranks[m.Shard]
	if len(rk) < n.c.Cfg.Quorum() || rk[0] != n.idx {
		reject()
		return
	}
	if err := n.st.FS.Write(p, r.ino, m.Page, 1); err != nil {
		reject()
		return
	}
	seq := r.next
	r.next++
	r.applied[m.Page] = seq
	r.log.Append(Record{Page: m.Page, Seq: seq})
	n.stats.RecordsAppended++

	n.rid++
	pw := &pendWrite{
		rid: n.rid, cid: m.ID, shard: m.Shard, page: m.Page, seq: seq,
		deadline: p.Now() + replDeadline,
	}
	for _, f := range rk {
		if f == n.idx {
			continue
		}
		pw.need = append(pw.need, f)
		n.peers[f].Send(p, Msg{
			Kind: MsgReplicate, From: n.idx, ID: pw.rid,
			Shard: m.Shard, Page: m.Page, Seq: seq, NeedAck: true,
		})
	}
	for _, f := range n.c.Cfg.Placement(m.Shard) {
		if f == n.idx || n.inService(m.Shard, f) {
			continue
		}
		if n.aliveV != nil && f < len(n.aliveV) && n.aliveV[f] {
			// Learner: a recovering replica mid-repair. Fire and forget —
			// the repair manifest covers anything it misses.
			n.peers[f].Send(p, Msg{
				Kind: MsgReplicate, From: n.idx, ID: 0,
				Shard: m.Shard, Page: m.Page, Seq: seq,
			})
		}
	}
	if len(pw.need) == 0 {
		n.toCoord.Send(p, Msg{
			Kind: MsgWriteReply, From: n.idx, ID: m.ID, OK: true,
			Shard: m.Shard, Page: m.Page, Seq: seq,
		})
		return
	}
	n.pend = append(n.pend, pw)
}

// handleReplicate applies a replicated write unconditionally, in
// arrival order — per-port FIFO plus a single writer (the primary)
// makes that correct without any comparison, and it is exactly what
// lets an authoritative resync overwrite divergent pages downward.
func (n *Node) handleReplicate(p *sim.Proc, m Msg) {
	r := n.rep(m.Shard)
	if r == nil || m.Page < 0 || m.Page >= int64(len(r.applied)) {
		return
	}
	if err := n.st.FS.Write(p, r.ino, m.Page, 1); err != nil {
		n.stats.CommitErrors++
		return // no ack: the primary retries, the client write stays unacked
	}
	r.applied[m.Page] = m.Seq
	if m.Seq+1 > r.next {
		r.next = m.Seq + 1
	}
	r.log.Append(Record{Page: m.Page, Seq: m.Seq})
	n.stats.ApplyWrites++
	if m.NeedAck && m.From >= 0 && m.From < len(n.peers) && n.peers[m.From] != nil {
		n.peers[m.From].Send(p, Msg{
			Kind: MsgReplAck, From: n.idx, ID: m.ID, Shard: m.Shard,
		})
	}
}

func (n *Node) handleReplAck(p *sim.Proc, m Msg) {
	for _, pw := range n.pend {
		if pw.done || pw.rid != m.ID {
			continue
		}
		keep := pw.need[:0]
		for _, f := range pw.need {
			if f != m.From {
				keep = append(keep, f)
			}
		}
		pw.need = keep
		if len(pw.need) == 0 {
			pw.done = true
			n.toCoord.Send(p, Msg{
				Kind: MsgWriteReply, From: n.idx, ID: pw.cid, OK: true,
				Shard: pw.shard, Page: pw.page, Seq: pw.seq,
			})
		}
		return
	}
}

// pruneDeadAcks re-evaluates outstanding replication after a membership
// change: followers that fell out of the in-service set no longer owe
// acks. A write whose remaining set drains this way is acknowledged —
// every replica still in service has applied it.
func (n *Node) pruneDeadAcks(p *sim.Proc) {
	for _, pw := range n.pend {
		if pw.done {
			continue
		}
		keep := pw.need[:0]
		for _, f := range pw.need {
			if n.inService(pw.shard, f) {
				keep = append(keep, f)
			}
		}
		pw.need = keep
		if len(pw.need) == 0 {
			pw.done = true
			n.toCoord.Send(p, Msg{
				Kind: MsgWriteReply, From: n.idx, ID: pw.cid, OK: true,
				Shard: pw.shard, Page: pw.page, Seq: pw.seq,
			})
		}
	}
	n.compactPend()
}

// handleRepairData is the destination side of a repair: apply the
// shipped pages in order (authoritative overwrite), log them, and
// report the shard synced when the final batch lands.
func (n *Node) handleRepairData(p *sim.Proc, m Msg) {
	r := n.rep(m.Shard)
	if r == nil {
		return
	}
	for _, ps := range m.Pages {
		if ps.Page < 0 || ps.Page >= int64(len(r.applied)) {
			continue
		}
		if err := n.st.FS.Write(p, r.ino, ps.Page, 1); err != nil {
			n.stats.CommitErrors++
			continue
		}
		r.applied[ps.Page] = ps.Seq
		if ps.Seq+1 > r.next {
			r.next = ps.Seq + 1
		}
		r.log.Append(Record{Page: ps.Page, Seq: ps.Seq})
		n.stats.ResyncApplied++
	}
	if m.Done {
		n.toCoord.Send(p, Msg{Kind: MsgShardSynced, From: n.idx, Shard: m.Shard})
	}
}

// checkPending retries overdue replication rounds with a linear
// backoff and fails the client write after replAttempts rounds.
func (n *Node) checkPending(p *sim.Proc) {
	now := p.Now()
	for _, pw := range n.pend {
		if now < pw.retryAt() {
			continue
		}
		pw.attempt++
		if pw.attempt >= replAttempts {
			pw.done = true
			n.toCoord.Send(p, Msg{
				Kind: MsgWriteReply, From: n.idx, ID: pw.cid,
				Shard: pw.shard, Page: pw.page,
			})
			continue
		}
		pw.deadline = now + replDeadline*sim.Time(pw.attempt+1)
		for _, f := range pw.need {
			n.stats.ReplRetries++
			n.peers[f].Send(p, Msg{
				Kind: MsgReplicate, From: n.idx, ID: pw.rid,
				Shard: pw.shard, Page: pw.page, Seq: pw.seq, NeedAck: true,
			})
		}
	}
	n.compactPend()
}

func (n *Node) compactPend() {
	keep := n.pend[:0]
	for _, pw := range n.pend {
		if !pw.done {
			keep = append(keep, pw)
		}
	}
	n.pend = keep
}

// maybeCommit checkpoints the filesystem and, on success, advances
// every replication log's durable watermark — the durable log and the
// durable content model always move together.
func (n *Node) maybeCommit(p *sim.Proc) {
	if p.Now() < n.commitAt() {
		return
	}
	n.lastCommit = p.Now()
	if err := n.st.FS.Commit(p); err != nil {
		n.stats.CommitErrors++
		return
	}
	for _, r := range n.reps {
		r.log.Commit()
	}
}
