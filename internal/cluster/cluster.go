package cluster

import (
	"fmt"
	"math"

	"duet/internal/faults"
	"duet/internal/machine"
	"duet/internal/obs"
	"duet/internal/sim"
)

// RepairMode selects the re-replication strategy.
type RepairMode uint8

const (
	// RepairNaive scans the surviving replica's disk: every allocated
	// page of the shard file is read (and verified) from the medium,
	// whether or not it needs shipping.
	RepairNaive RepairMode = iota
	// RepairDuet registers a Duet block-task session on the source and
	// ships cache-resident pages straight from memory; only pages the
	// event stream never surfaces are read from disk.
	RepairDuet
)

// String names the mode for tables and traces.
func (m RepairMode) String() string {
	if m == RepairDuet {
		return "duet"
	}
	return "naive"
}

// Config sizes a cluster. The embedded machine.Config describes each
// node's stack (DeviceBlocks, CachePages, writeback tunables are per
// node).
type Config struct {
	machine.Config

	// Nodes is the number of machines (>= 2); Replicas the replication
	// factor R (2 <= R <= Nodes); Shards the number of volume shards;
	// ShardPages the size of each shard replica file in pages.
	Nodes      int
	Replicas   int
	Shards     int
	ShardPages int64

	// PortLatency is the cross-machine message latency (default 1ms).
	// Tick is the server-loop granularity (default = PortLatency).
	PortLatency sim.Time
	Tick        sim.Time

	// CommitEvery is the per-node checkpoint cadence: the replication
	// log's durable watermark advances with each commit. Default 250ms.
	CommitEvery sim.Time

	// Window is the run length; the client stops issuing ops
	// QuiesceBefore (default 3s) ahead of it so in-flight writes settle
	// before the audit.
	Window        sim.Time
	QuiesceBefore sim.Time
	// OpEvery is the client op cadence (default 5ms, alternating
	// deterministic reads and writes).
	OpEvery sim.Time

	// HBEvery/HBTimeout tune failure detection (defaults 50ms/160ms).
	HBEvery   sim.Time
	HBTimeout sim.Time

	// Mode selects the repair strategy for this run.
	Mode RepairMode

	// Plan is the cluster fault schedule (kills, partitions, log
	// damage, per-node device faults).
	Plan faults.ClusterPlan
}

func (c *Config) validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Nodes < 2 {
		return fmt.Errorf("cluster: Nodes must be >= 2, got %d", c.Nodes)
	}
	if c.Replicas < 2 || c.Replicas > c.Nodes {
		return fmt.Errorf("cluster: Replicas must be in [2, Nodes], got %d", c.Replicas)
	}
	if c.Shards < 1 || c.ShardPages < 1 {
		return fmt.Errorf("cluster: Shards and ShardPages must be positive")
	}
	if c.Window <= 0 {
		return fmt.Errorf("cluster: Window must be positive")
	}
	if err := c.validatePlan(); err != nil {
		return err
	}
	if c.PortLatency == 0 {
		c.PortLatency = sim.Millisecond
	}
	if c.PortLatency <= 0 {
		return fmt.Errorf("cluster: PortLatency must be positive")
	}
	if c.Tick <= 0 {
		c.Tick = c.PortLatency
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 250 * sim.Millisecond
	}
	if c.QuiesceBefore <= 0 {
		c.QuiesceBefore = 3 * sim.Second
	}
	if c.OpEvery <= 0 {
		c.OpEvery = 5 * sim.Millisecond
	}
	if c.HBEvery <= 0 {
		c.HBEvery = 50 * sim.Millisecond
	}
	if c.HBTimeout <= 0 {
		c.HBTimeout = 160 * sim.Millisecond
	}
	return nil
}

// validatePlan enforces the schedule contract faults.KillEvent and
// faults.Partition document: every node named exists, an outage ends
// after it starts and does not overlap another on the same node, and a
// partition cuts a real link for a non-empty interval. A plan that
// breaks it would otherwise run as if the fault were not there.
func (c *Config) validatePlan() error {
	for _, k := range c.Plan.Kills {
		if k.Node < 0 || k.Node >= c.Nodes {
			return fmt.Errorf("cluster: kill of node %d outside [0, %d)", k.Node, c.Nodes)
		}
		if k.RecoverAt <= k.At {
			return fmt.Errorf("cluster: kill of node %d at %v recovers at %v, not after it",
				k.Node, k.At, k.RecoverAt)
		}
	}
	for i := 0; i < c.Nodes; i++ {
		ks := c.Plan.KillsFor(i)
		for j := 1; j < len(ks); j++ {
			if ks[j].At < ks[j-1].RecoverAt {
				return fmt.Errorf("cluster: kills of node %d overlap: [%v, %v) and [%v, %v)",
					i, ks[j-1].At, ks[j-1].RecoverAt, ks[j].At, ks[j].RecoverAt)
			}
		}
	}
	for _, pt := range c.Plan.Partitions {
		if pt.A < 0 || pt.A >= c.Nodes || pt.B < 0 || pt.B >= c.Nodes || pt.A == pt.B {
			return fmt.Errorf("cluster: partition %d-%d is not a link between two of %d nodes",
				pt.A, pt.B, c.Nodes)
		}
		if pt.To <= pt.From {
			return fmt.Errorf("cluster: partition %d-%d ends at %v, not after %v",
				pt.A, pt.B, pt.To, pt.From)
		}
	}
	return nil
}

// Placement returns the shard's replica set: Replicas consecutive
// nodes starting at shard mod Nodes. Index 0 is the preferred primary.
func (c *Config) Placement(shard int) []int {
	out := make([]int, c.Replicas)
	for k := range out {
		out[k] = (shard + k) % c.Nodes
	}
	return out
}

// Quorum is the write quorum: a majority of the replica set.
func (c *Config) Quorum() int { return c.Replicas/2 + 1 }

// Cluster is the assembled replicated tier.
type Cluster struct {
	Cfg   Config
	Eng   *sim.Engine
	Nodes []*Node
	Coord *Coordinator
}

// New assembles the cluster: one stack per node on its own domain, the
// full port mesh (every ordered node pair plus coordinator links — all
// ports must exist before Run), populated shard replica files with
// durability armed, and the node servers and coordinator ready to run.
// Call Eng.RunFor(cfg.Window), then Stats and Audit.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := sim.New(cfg.Seed)
	c := &Cluster{Cfg: cfg, Eng: e}

	for i := 0; i < cfg.Nodes; i++ {
		dom := e.NewDomain(fmt.Sprintf("node%d", i))
		st, err := machine.NewStack(dom, cfg.Config, fmt.Sprintf("nd%c", 'a'+i%26))
		if err != nil {
			return nil, err
		}
		n := &Node{
			c: c, idx: i, dom: dom, st: st,
			toCoord: sim.NewPort[Msg](dom, e, fmt.Sprintf("n2c%d", i), cfg.PortLatency),
			peers:   make([]*sim.Port[Msg], cfg.Nodes),
			stream: faults.NewStream(cfg.Plan.Seed ^
				(uint64(i+1) * 0x9e3779b97f4a7c15)),
			kills: cfg.Plan.KillsFor(i),
			alive: true,
		}
		n.fromCoord = sim.NewPort[Msg](e, dom, fmt.Sprintf("c2n%d", i), cfg.PortLatency)
		c.Nodes = append(c.Nodes, n)
	}
	// The node-to-node mesh: peers[i][j] carries i -> j traffic.
	for i, ni := range c.Nodes {
		for j, nj := range c.Nodes {
			if i == j {
				continue
			}
			ni.peers[j] = sim.NewPort[Msg](ni.dom, nj.dom,
				fmt.Sprintf("nn%d-%d", i, j), cfg.PortLatency)
		}
	}
	// Inbound drain order is fixed — coordinator first, then peers by
	// ascending index — so message processing order is deterministic.
	for i, n := range c.Nodes {
		n.inbound = append(n.inbound, n.fromCoord)
		for j, nj := range c.Nodes {
			if j != i {
				n.inbound = append(n.inbound, nj.peers[i])
			}
		}
	}

	// Shard replica files: node i hosts every shard whose placement
	// includes it. Content starts identical everywhere (applied vectors
	// all zero); the files are real cowfs files so page-cache residency
	// and disk traffic are real.
	for _, n := range c.Nodes {
		if _, err := n.st.FS.MkdirAll("/vol"); err != nil {
			return nil, err
		}
		rng := n.dom.DeriveRand("cluster-populate")
		for s := 0; s < cfg.Shards; s++ {
			if !contains(cfg.Placement(s), n.idx) {
				continue
			}
			ino, err := n.st.FS.PopulateFile(fmt.Sprintf("/vol/s%d", s), cfg.ShardPages, 4, rng)
			if err != nil {
				return nil, fmt.Errorf("cluster: node %d shard %d: %w", n.idx, s, err)
			}
			n.reps = append(n.reps, &replica{
				shard:   s,
				ino:     ino.Ino,
				applied: make([]uint64, cfg.ShardPages),
				log:     &Log{},
				next:    1,
			})
		}
		n.st.EnableDurability()
		if plan := cfg.Plan.NodeDiskPlan(n.idx); !plan.Zero() {
			n.st.AttachFaults(plan)
		}
		n.tick = gridTick{every: cfg.Tick,
			cb: sim.NewCallback(n.dom, fmt.Sprintf("server%d.tick", n.idx), n.poll)}
		n.dom.Go(fmt.Sprintf("server%d", n.idx), n.run)
	}

	c.Coord = newCoordinator(c)
	// The coordinator's domain carries the run-level tracer.
	if o := cfg.Obs; o != nil && o.Trace != nil {
		e.SetTracer(o.Trace)
	}
	d0 := e.Dom()
	co := c.Coord
	co.tick = gridTick{every: cfg.Tick, cb: sim.NewCallback(e, "coordinator", func(sim.Time) sim.Time {
		co.step(d0)
		return 0
	})}
	co.tick.cb.Wake()
	for _, n := range c.Nodes {
		n.toCoord.OnDeliver(co.delivered)
		for _, pt := range n.inbound {
			pt.OnDeliver(n.delivered)
		}
	}
	return c, nil
}

// never is a deadline that never comes.
const never = sim.Time(math.MaxInt64)

// gridTick runs a callback at chosen ticks of the grid
// {base + k·every : k >= 1}: node servers and the coordinator wake only
// on their grids, at the first tick where they have work, so the grid
// ticks they skip are ones at which they would have done nothing.
type gridTick struct {
	cb          *sim.Callback
	base, every sim.Time
	// at is the live tick (0: none armed). spare is a tick that an
	// earlier one superseded, still in the timer heap (0: none known):
	// arming its time again reuses it.
	at, spare sim.Time
}

// arm makes the first grid tick at or after due live, unless an
// earlier tick is live already. A due of never arms nothing; a due at
// or before now counts as now+1, since the tick at now has run.
func (g *gridTick) arm(now, due sim.Time) {
	if due == never {
		return
	}
	due = max(due, now+1)
	at := g.base + (due-g.base+g.every-1)/g.every*g.every
	if g.at != 0 && g.at <= at {
		return
	}
	if at == g.spare {
		g.spare = 0
	} else {
		g.cb.Arm(at - now)
	}
	if g.at != 0 {
		g.spare = g.at
	}
	g.at = at
}

// fire reports whether the timer firing at now is the live tick, which
// it retires; any other is superseded and its handler does nothing.
func (g *gridTick) fire(now sim.Time) bool {
	if now == g.spare {
		g.spare = 0
	}
	if now != g.at {
		return false
	}
	g.at = 0
	return true
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Stats is the cluster-wide counter roll-up: the coordinator's view
// plus every node's, summed in node order after the run.
type Stats struct {
	// Client traffic (coordinator side).
	WritesIssued, WritesAcked   int64
	WriteRejects, WriteFailures int64
	ReadsIssued, ReadsOK        int64
	ReadFallbacks, ReadFailures int64
	UnavailOps                  int64
	RPCRetries, RPCTimeouts     int64
	ConsistencyViolations       int64
	// Failure handling.
	KillsDetected, Joins         int64
	RepairsStarted, ShardRepairs int64
	DegradedUs                   int64 // shard-time spent below full replication
	ReadOnlyUs, UnavailUs        int64 // the two severe slices of DegradedUs
	RepairWindowUs               int64 // sum over kills of detect -> fully re-replicated
	Epoch                        uint64
	// Node side (summed).
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

// Stats aggregates the run's counters. Call after RunFor returns;
// degraded-time accounting is finalized against the engine clock here.
func (c *Cluster) Stats() Stats {
	s := c.Coord.snapshot(c.Eng.Now())
	for _, n := range c.Nodes {
		ns := n.stats
		s.Kills += ns.Kills
		s.Recoveries += ns.Recoveries
		s.RecordsAppended += ns.RecordsAppended
		s.RecordsReplayed += ns.RecordsReplayed
		s.TornLogs += ns.TornLogs
		s.CorruptLogs += ns.CorruptLogs
		s.ApplyWrites += ns.ApplyWrites
		s.ResyncApplied += ns.ResyncApplied
		s.PagesShipped += ns.PagesShipped
		s.RepairDiskReads += ns.RepairDiskReads
		s.RepairCacheHits += ns.RepairCacheHits
		s.ReplRetries += ns.ReplRetries
		s.CommitErrors += ns.CommitErrors
		s.DroppedDead += ns.DroppedDead
		s.DroppedPartition += ns.DroppedPartition
	}
	return s
}

// AuditReport is the post-run safety check.
type AuditReport struct {
	// LostBlocks counts (shard, page, replica) entries whose applied
	// sequence is below the highest client-acknowledged write — the
	// durability violation the tier exists to prevent. Must be zero.
	LostBlocks int64
	// DivergentPages counts pages whose applied sequence differs across
	// replicas of a shard. Unacknowledged (failed) writes may leave
	// some behind under partitions; without partitions it must be zero.
	DivergentPages int64
	// UnsyncedReplicas counts (node, shard) replicas not back in
	// service at the end of the run — full re-replication means zero.
	UnsyncedReplicas int64
	DeadNodes        int64
	// MediumErrors counts shard-file blocks that fail the filesystem's
	// checksum audit (no device read; pure medium state).
	MediumErrors int64
	// NodeErrors carries any fatal per-node failure (a failed remount).
	NodeErrors []error
}

// Audit verifies the safety properties after the run: every replica of
// every shard carries at least the highest acknowledged write per page,
// replicas agree (modulo unacked writes under partitions), every node
// recovered and re-replicated, and the media pass their checksum walk.
func (c *Cluster) Audit() AuditReport {
	var rep AuditReport
	for _, n := range c.Nodes {
		if n.fatal != nil {
			rep.NodeErrors = append(rep.NodeErrors,
				fmt.Errorf("node %d: %w", n.idx, n.fatal))
		}
		if !n.alive {
			rep.DeadNodes++
		}
	}
	for s := 0; s < c.Cfg.Shards; s++ {
		acked := c.Coord.acked[s]
		var vecs [][]uint64
		for _, ni := range c.Cfg.Placement(s) {
			n := c.Nodes[ni]
			if !c.Coord.synced[ni][s] {
				rep.UnsyncedReplicas++
			}
			r := n.rep(s)
			if r == nil {
				continue
			}
			vecs = append(vecs, r.applied)
			for pg := range r.applied {
				if r.applied[pg] < acked[pg] {
					rep.LostBlocks++
				}
			}
			for pg := int64(0); pg < c.Cfg.ShardPages; pg++ {
				blk, ok := n.st.FS.Fibmap(r.ino, pg)
				if !ok || n.st.FS.CheckBlock(blk) != nil {
					rep.MediumErrors++
				}
			}
		}
		for pg := 0; pg < int(c.Cfg.ShardPages); pg++ {
			for i := 1; i < len(vecs); i++ {
				if vecs[i][pg] != vecs[0][pg] {
					rep.DivergentPages++
					break
				}
			}
		}
	}
	return rep
}

// CollectMetrics publishes the engine, every node stack (its counters
// and its private registry, see machine.Stack.CollectMetrics), and the
// cluster-level counters into r.
func (c *Cluster) CollectMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	machine.PublishEngineMetrics(r, c.Eng)
	for _, n := range c.Nodes {
		n.st.CollectMetrics(r)
	}
	s := c.Stats()
	r.SetCounter("cluster.writes_acked", s.WritesAcked)
	r.SetCounter("cluster.write_rejects", s.WriteRejects)
	r.SetCounter("cluster.reads_ok", s.ReadsOK)
	r.SetCounter("cluster.read_fallbacks", s.ReadFallbacks)
	r.SetCounter("cluster.rpc_retries", s.RPCRetries)
	r.SetCounter("cluster.rpc_timeouts", s.RPCTimeouts)
	r.SetCounter("cluster.kills", s.Kills)
	r.SetCounter("cluster.recoveries", s.Recoveries)
	r.SetCounter("cluster.repairs", s.ShardRepairs)
	r.SetCounter("cluster.pages_shipped", s.PagesShipped)
	r.SetCounter("cluster.repair_disk_reads", s.RepairDiskReads)
	r.SetCounter("cluster.repair_cache_hits", s.RepairCacheHits)
	r.SetCounter("cluster.resync_pages", s.ResyncApplied)
	r.SetCounter("cluster.log_records", s.RecordsAppended)
	r.SetCounter("cluster.log_torn", s.TornLogs)
	r.SetCounter("cluster.log_corrupt", s.CorruptLogs)
	r.SetCounter("cluster.degraded_us", s.DegradedUs)
	r.SetCounter("cluster.consistency_violations", s.ConsistencyViolations)
}

// TraceProcesses returns the tracers in deterministic order for
// WriteTraceMulti: the run-level tracer (the coordinator's domain) as
// "<prefix> coord", then each node's own as "<prefix> node<index>".
// Empty when tracing is off.
func (c *Cluster) TraceProcesses(prefix string) []obs.TraceProcess {
	var procs []obs.TraceProcess
	if o := c.Cfg.Obs; o != nil && o.Trace != nil {
		procs = append(procs, obs.TraceProcess{Name: prefix + " coord", T: o.Trace})
	}
	for i, n := range c.Nodes {
		if o := n.st.Obs; o != nil && o.Trace != nil {
			procs = append(procs, obs.TraceProcess{Name: fmt.Sprintf("%s node%d", prefix, i), T: o.Trace})
		}
	}
	return procs
}
