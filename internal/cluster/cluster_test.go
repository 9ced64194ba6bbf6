package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"duet/internal/faults"
	"duet/internal/machine"
	"duet/internal/sim"
)

func testConfig(mode RepairMode, plan faults.ClusterPlan) Config {
	return Config{
		Config: machine.Config{
			Seed:              42,
			DeviceBlocks:      1 << 12,
			CachePages:        512,
			WritebackInterval: 50 * sim.Millisecond,
			DirtyExpire:       20 * sim.Millisecond,
		},
		Nodes:      4,
		Replicas:   3,
		Shards:     4,
		ShardPages: 64,
		Window:     20 * sim.Second,
		Mode:       mode,
		Plan:       plan,
	}
}

func runCluster(t *testing.T, cfg Config, workers int) (*Cluster, Stats, AuditReport) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 1 {
		c.Eng.SetWorkers(workers)
	}
	if err := c.Eng.RunFor(cfg.Window); err != nil {
		t.Fatal(err)
	}
	return c, c.Stats(), c.Audit()
}

func singleKill() faults.ClusterPlan {
	return faults.ClusterPlan{
		Seed: 99,
		Kills: []faults.KillEvent{
			{Node: 1, At: 6 * sim.Second, RecoverAt: 9 * sim.Second},
		},
	}
}

func TestClusterFaultFree(t *testing.T) {
	_, s, rep := runCluster(t, testConfig(RepairNaive, faults.ClusterPlan{}), 1)
	if s.WritesAcked == 0 || s.ReadsOK == 0 {
		t.Fatalf("no traffic: %+v", s)
	}
	if s.WriteFailures != 0 || s.ReadFailures != 0 || s.ConsistencyViolations != 0 {
		t.Fatalf("failures on a fault-free run: %+v", s)
	}
	if s.Kills != 0 || s.DegradedUs != 0 {
		t.Fatalf("phantom degradation: kills=%d degraded=%dus", s.Kills, s.DegradedUs)
	}
	if rep.LostBlocks != 0 || rep.DivergentPages != 0 || rep.UnsyncedReplicas != 0 ||
		rep.DeadNodes != 0 || rep.MediumErrors != 0 || len(rep.NodeErrors) != 0 {
		t.Fatalf("audit: %+v", rep)
	}
}

func TestClusterSingleKill(t *testing.T) {
	for _, mode := range []RepairMode{RepairNaive, RepairDuet} {
		t.Run(mode.String(), func(t *testing.T) {
			_, s, rep := runCluster(t, testConfig(mode, singleKill()), 1)
			if s.Kills != 1 || s.Recoveries != 1 {
				t.Fatalf("kills=%d recoveries=%d, want 1/1", s.Kills, s.Recoveries)
			}
			if s.KillsDetected != 1 || s.Joins != 1 {
				t.Fatalf("detected=%d joins=%d, want 1/1", s.KillsDetected, s.Joins)
			}
			// Node 1 hosts three shards; each must be repaired.
			if s.ShardRepairs < 3 {
				t.Fatalf("shard repairs %d, want >= 3", s.ShardRepairs)
			}
			if s.DegradedUs == 0 || s.RepairWindowUs == 0 {
				t.Fatalf("degraded window not measured: %+v", s)
			}
			if s.ConsistencyViolations != 0 {
				t.Fatalf("stale primary reads: %d", s.ConsistencyViolations)
			}
			if rep.LostBlocks != 0 {
				t.Fatalf("lost blocks: %d", rep.LostBlocks)
			}
			if rep.DivergentPages != 0 {
				t.Fatalf("divergent pages after repair: %d", rep.DivergentPages)
			}
			if rep.UnsyncedReplicas != 0 || rep.DeadNodes != 0 || len(rep.NodeErrors) != 0 {
				t.Fatalf("cluster not fully healed: %+v", rep)
			}
			if rep.MediumErrors != 0 {
				t.Fatalf("medium errors: %d", rep.MediumErrors)
			}
		})
	}
}

func TestClusterDoubleKillQuorumDegradation(t *testing.T) {
	plan := faults.ClusterPlan{
		Seed: 7,
		Kills: []faults.KillEvent{
			{Node: 1, At: 6 * sim.Second, RecoverAt: 12 * sim.Second},
			{Node: 2, At: 8 * sim.Second, RecoverAt: 14 * sim.Second},
		},
	}
	_, s, rep := runCluster(t, testConfig(RepairNaive, plan), 1)
	if s.Kills != 2 || s.Recoveries != 2 {
		t.Fatalf("kills=%d recoveries=%d", s.Kills, s.Recoveries)
	}
	// Shards hosted by both node 1 and node 2 drop below quorum while
	// the outages overlap: read-only time must be visible.
	if s.ReadOnlyUs == 0 {
		t.Fatalf("no read-only window despite overlapping kills: %+v", s)
	}
	if rep.LostBlocks != 0 || rep.UnsyncedReplicas != 0 || rep.DeadNodes != 0 {
		t.Fatalf("audit: %+v", rep)
	}
	if rep.DivergentPages != 0 {
		t.Fatalf("divergent pages: %d", rep.DivergentPages)
	}
}

func TestClusterTornLogRecovery(t *testing.T) {
	plan := singleKill()
	plan.TornLogRate = 1.0
	plan.CorruptLogRate = 0.5
	_, s, rep := runCluster(t, testConfig(RepairNaive, plan), 1)
	// A tear that lands exactly on a record boundary replays clean, and
	// a corruption hit earlier in the log masks the tail — so assert
	// that damage of either kind was detected, not the specific kind
	// (the log unit tests pin down each detector).
	if s.TornLogs+s.CorruptLogs == 0 {
		t.Fatalf("log damage rates 1.0/0.5 produced no detected damage: %+v", s)
	}
	// Damaged logs under-report state; the resync must widen, never lose.
	if rep.LostBlocks != 0 || rep.UnsyncedReplicas != 0 || rep.DivergentPages != 0 {
		t.Fatalf("audit after torn-log recovery: %+v", rep)
	}
}

func TestClusterDuetRepairReadsFewerBlocks(t *testing.T) {
	var disk [2]int64
	var hits [2]int64
	for i, mode := range []RepairMode{RepairNaive, RepairDuet} {
		_, s, rep := runCluster(t, testConfig(mode, singleKill()), 1)
		if rep.LostBlocks != 0 || rep.UnsyncedReplicas != 0 {
			t.Fatalf("%v: audit %+v", mode, rep)
		}
		disk[i], hits[i] = s.RepairDiskReads, s.RepairCacheHits
	}
	if disk[1] >= disk[0] {
		t.Fatalf("duet repair read %d disk blocks, naive %d — want strictly fewer",
			disk[1], disk[0])
	}
	if hits[1] == 0 {
		t.Fatalf("duet repair never hit the cache")
	}
}

// TestClusterDeterministicAcrossWorkers: two runs of one seed agree on
// every counter and replica vector. The second run passes a worker count,
// which the serial engine accepts and ignores; this pins that it changes
// nothing.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	plan := singleKill()
	plan.Partitions = []faults.Partition{
		{A: 2, B: 3, From: 2 * sim.Second, To: 4 * sim.Second},
	}
	var stats [2]Stats
	var vecs [2]string
	for i, workers := range []int{1, 2} {
		c, s, _ := runCluster(t, testConfig(RepairDuet, plan), workers)
		stats[i] = s
		vec := ""
		for _, n := range c.Nodes {
			for _, r := range n.reps {
				vec += fmt.Sprintf("n%d-s%d:%v;", n.idx, r.shard, r.applied)
			}
		}
		vecs[i] = vec
	}
	if stats[0] != stats[1] {
		t.Fatalf("stats differ across worker counts:\n-dj1: %+v\n-dj2: %+v",
			stats[0], stats[1])
	}
	if vecs[0] != vecs[1] {
		t.Fatalf("replica vectors differ across worker counts")
	}
}

func TestClusterPartitionNoFalseLoss(t *testing.T) {
	plan := faults.ClusterPlan{
		Seed: 5,
		Partitions: []faults.Partition{
			{A: 0, B: 1, From: 2 * sim.Second, To: 5 * sim.Second},
		},
	}
	_, s, rep := runCluster(t, testConfig(RepairNaive, plan), 1)
	// Replication across the cut fails and those writes stay unacked;
	// acknowledged data must still be everywhere.
	if rep.LostBlocks != 0 {
		t.Fatalf("acked write lost under partition: %+v", rep)
	}
	if s.DroppedPartition == 0 {
		t.Fatalf("partition dropped no messages: %+v", s)
	}
	if s.ConsistencyViolations != 0 {
		t.Fatalf("stale primary reads: %d", s.ConsistencyViolations)
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(RepairNaive, faults.ClusterPlan{})
	kill := func(ks ...faults.KillEvent) func(*Config) {
		return func(c *Config) { c.Plan.Kills = ks }
	}
	cut := func(p faults.Partition) func(*Config) {
		return func(c *Config) { c.Plan.Partitions = []faults.Partition{p} }
	}
	s := sim.Second
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 1 },
		func(c *Config) { c.Replicas = 1 },
		func(c *Config) { c.Replicas = c.Nodes + 1 },
		func(c *Config) { c.Shards = 0 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.PortLatency = -1 },
		// The faults.KillEvent and faults.Partition contract.
		kill(faults.KillEvent{Node: 7, At: s, RecoverAt: 2 * s}),
		kill(faults.KillEvent{Node: -1, At: s, RecoverAt: 2 * s}),
		kill(faults.KillEvent{Node: 1, At: s, RecoverAt: s}),
		kill(faults.KillEvent{Node: 1, At: 2 * s, RecoverAt: s}),
		kill(faults.KillEvent{Node: 1, At: 4 * s, RecoverAt: 6 * s},
			faults.KillEvent{Node: 1, At: s, RecoverAt: 5 * s}),
		cut(faults.Partition{A: 0, B: 4, From: s, To: 2 * s}),
		cut(faults.Partition{A: -1, B: 0, From: s, To: 2 * s}),
		cut(faults.Partition{A: 2, B: 2, From: s, To: 2 * s}),
		cut(faults.Partition{A: 0, B: 1, From: s, To: s}),
		cut(faults.Partition{A: 0, B: 1, From: 2 * s, To: s}),
	}
	for i, mut := range bad {
		cfg := good
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	// Back-to-back outages of one node and kills of distinct nodes that
	// overlap in time are both legal.
	for i, mut := range []func(*Config){
		kill(faults.KillEvent{Node: 1, At: s, RecoverAt: 2 * s},
			faults.KillEvent{Node: 1, At: 2 * s, RecoverAt: 3 * s}),
		kill(faults.KillEvent{Node: 1, At: s, RecoverAt: 3 * s},
			faults.KillEvent{Node: 2, At: 2 * s, RecoverAt: 4 * s}),
	} {
		cfg := good
		mut(&cfg)
		if _, err := New(cfg); err != nil {
			t.Fatalf("valid case %d rejected: %v", i, err)
		}
	}
}

// TestClusterServerProcs pins the server structure: the coordinator is
// a callback, so its domain creates no proc, and each node domain adds
// exactly one proc (its server) to what its storage stack creates —
// idle ticks run inline on a callback rather than on a goroutine of
// their own. A fault-free run spawns no repair, so the counts hold to
// the end. The coordinator's domain holds a second callback: RunFor's
// stop timer, which ends every engine's run from the default domain.
func TestClusterServerProcs(t *testing.T) {
	cfg := testConfig(RepairDuet, faults.ClusterPlan{})
	ref, err := machine.NewStack(sim.New(cfg.Seed).NewDomain("ref"), cfg.Config, "ref")
	if err != nil {
		t.Fatal(err)
	}
	stackProcs := ref.Host.Dom().ProcsCreated()
	c, _, _ := runCluster(t, cfg, 1)
	if got := c.Eng.Dom().ProcsCreated(); got != 0 {
		t.Errorf("coordinator domain created %d procs, want 0", got)
	}
	if got := c.Eng.Dom().CallbacksCreated(); got != 2 {
		t.Errorf("coordinator domain created %d callbacks, want 2 (coordinator + stop timer)", got)
	}
	for _, n := range c.Nodes {
		if got := n.dom.ProcsCreated(); got != stackProcs+1 {
			t.Errorf("node %d domain created %d procs, want %d (stack) + 1 (server)",
				n.idx, got, stackProcs)
		}
	}
}

// repairConfig is bench's cluster-repair configuration (4 nodes, R=3,
// 4 shards of 256 pages, 256-page caches, Duet repair, node 1 killed at
// w/5 and recovered a quarter window later, transient+stall disk
// faults) over a window of w.
func repairConfig(seed int64, w sim.Time) Config {
	return Config{
		Config: machine.Config{
			Seed:         seed,
			DeviceBlocks: 16384,
			CachePages:   256,
		},
		Nodes:      4,
		Replicas:   3,
		Shards:     4,
		ShardPages: 256,
		Window:     w,
		Mode:       RepairDuet,
		Plan: faults.ClusterPlan{
			Seed:  uint64(seed)*0x9e3779b97f4a7c15 + 0xb5,
			Kills: []faults.KillEvent{{Node: 1, At: w / 5, RecoverAt: w/5 + w/4}},
			Disk: faults.Plan{
				TransientReadRate:  0.01,
				TransientWriteRate: 0.01,
				StallRate:          0.005,
				StallDelay:         2 * sim.Millisecond,
			},
		},
	}
}

// onFileConfig is repairConfig on a bigger device and a 300 s window,
// at the given cache and shard geometry.
func onFileConfig(seed int64, cachePages int, shardPages int64) Config {
	cfg := repairConfig(seed, 300*sim.Second)
	cfg.DeviceBlocks = 65536
	cfg.CachePages = cachePages
	cfg.ShardPages = shardPages
	return cfg
}

// TestClusterOutcomesPinned pins what a run decides, not how many
// events it took: the Stats and Audit of bench's cluster-repair
// configuration over a 120 s window at three seeds, of one run that adds
// a partition and tears every log at the kill, and of four runs that
// kill a primary shortly before the quiesce point, so client RPCs to it
// hold every in-flight slot from before the point until their retries
// land after it. The hashes were recorded before node and coordinator
// ticks became deadline driven; a scheduling change that keeps the
// simulation event for event must keep them.
func TestClusterOutcomesPinned(t *testing.T) {
	tornPartition := repairConfig(1, 120*sim.Second)
	tornPartition.Plan.TornLogRate = 1
	tornPartition.Plan.Partitions = []faults.Partition{
		{A: 2, B: 3, From: 30 * sim.Second, To: 50 * sim.Second},
	}
	killAtQuiesce := func(before sim.Time) Config {
		cfg := testConfig(RepairDuet, faults.ClusterPlan{Seed: 7})
		q := cfg.Window - 3*sim.Second // the default QuiesceBefore
		cfg.Plan.Kills = []faults.KillEvent{
			{Node: 0, At: q - before, RecoverAt: q + sim.Second},
		}
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"seed1", repairConfig(1, 120*sim.Second), "ce942e99e095ae87"},
		{"seed2", repairConfig(2, 120*sim.Second), "eacb5a08ad4edebd"},
		{"seed3", repairConfig(3, 120*sim.Second), "02f59a2d53d5bec1"},
		{"torn-partition", tornPartition, "584145e47246b621"},
		{"kill-50ms-before-quiesce", killAtQuiesce(50 * sim.Millisecond), "49271eded39ca1be"},
		{"kill-100ms-before-quiesce", killAtQuiesce(100 * sim.Millisecond), "fb28b33211613ff3"},
		{"kill-150ms-before-quiesce", killAtQuiesce(150 * sim.Millisecond), "53196fd38244cbf9"},
		{"kill-200ms-before-quiesce", killAtQuiesce(200 * sim.Millisecond), "148f6ce08ee2be57"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, s, rep := runCluster(t, tc.cfg, 1)
			if got := outcomeHash(s, rep); got != tc.want {
				t.Errorf("outcome hash %s, want %s:\n%+v\n%+v", got, tc.want, s, rep)
			}
		})
	}
}

// outcomeHash is the first 8 bytes of the SHA-256 of a run's Stats and
// Audit, printed with field names.
func outcomeHash(s Stats, rep AuditReport) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v", s, rep)))
	return hex.EncodeToString(sum[:8])
}

// violations lists the invariants bench's cluster-repair checks that a
// run with one kill breaks.
func violations(s Stats, rep AuditReport) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	check(len(rep.NodeErrors) == 0, "node errors %v", rep.NodeErrors)
	check(rep.LostBlocks == 0, "lost %d", rep.LostBlocks)
	check(rep.DivergentPages == 0, "divergent %d", rep.DivergentPages)
	check(rep.UnsyncedReplicas == 0, "unsynced %d", rep.UnsyncedReplicas)
	check(rep.DeadNodes == 0, "dead %d", rep.DeadNodes)
	check(rep.MediumErrors == 0, "medium errors %d", rep.MediumErrors)
	check(s.ConsistencyViolations == 0, "ConsistencyViolations %d", s.ConsistencyViolations)
	check(s.KillsDetected == 1, "KillsDetected %d for one kill", s.KillsDetected)
	check(s.ShardRepairs == s.RepairsStarted, "ShardRepairs %d/%d", s.ShardRepairs, s.RepairsStarted)
	return bad
}

// runClean runs cfg and fails the test on any violation.
func runClean(t *testing.T, cfg Config) {
	t.Helper()
	_, s, rep := runCluster(t, cfg, 1)
	if bad := violations(s, rep); len(bad) != 0 {
		t.Errorf("invariants violated: %v\nstats %+v\naudit %+v", bad, s, rep)
	}
}

// TestClusterOnFileCases runs the nine cluster cases on file in ROADMAP
// item 1: three geometries whose shard files outgrow the cache (so the
// server blocks on I/O) at seeds 1, 2 and 4. Each case asserts the
// invariants bench's cluster-repair checks.
func TestClusterOnFileCases(t *testing.T) {
	if testing.Short() {
		t.Skip("nine 300 s cluster runs; skipped under -short")
	}
	for _, tc := range []struct {
		cache int
		shard int64
		seed  int64
	}{
		{1024, 1024, 1}, {1024, 1024, 2}, {1024, 1024, 4},
		{1024, 4096, 1}, {1024, 4096, 2}, {1024, 4096, 4},
		{256, 256, 1}, {256, 256, 2}, {256, 256, 4},
	} {
		t.Run(fmt.Sprintf("cache%d-shard%d-seed%d", tc.cache, tc.shard, tc.seed), func(t *testing.T) {
			t.Parallel()
			runClean(t, onFileConfig(tc.seed, tc.cache, tc.shard))
		})
	}
}

// TestClusterBenchSeeds runs bench's cluster-repair configuration (900 s)
// at two seeds that each broke an invariant through one bug:
//   - seed 11: a repair batch carried the sequences of when its pages
//     joined it, and rolled the destination back past a learner write
//     that overtook it (2 stale primary reads);
//   - seed 21: a node server blocked on its faulty disk stopped
//     answering heartbeats, and the coordinator declared it dead
//     (KillsDetected 2, 768 lost blocks).
func TestClusterBenchSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("two 900 s cluster runs; skipped under -short")
	}
	for _, seed := range []int64{11, 21} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runClean(t, repairConfig(seed, 900*sim.Second))
		})
	}
}

// TestClusterParanoidDetector runs bench's cluster-repair configuration
// (900 s) with a failure detector tighter than the default 160 ms. A
// heartbeat is answered even while the node's server blocks on I/O, so
// no live node is declared dead, and no block is lost.
func TestClusterParanoidDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("four 900 s cluster runs; skipped under -short")
	}
	for _, hb := range []sim.Time{60 * sim.Millisecond, 80 * sim.Millisecond} {
		for _, seed := range []int64{1, 4} {
			t.Run(fmt.Sprintf("hb%v-seed%d", hb, seed), func(t *testing.T) {
				t.Parallel()
				cfg := repairConfig(seed, 900*sim.Second)
				cfg.HBTimeout = hb
				runClean(t, cfg)
			})
		}
	}
}

// BenchmarkClusterIdle is the cost of one virtual millisecond of a
// cluster with nothing to do: fault-free and QuiesceBefore = Window,
// so no client op is ever issued and only heartbeats (every HBEvery)
// and commits (every CommitEvery) give the coordinator and the four
// node servers a tick to run.
func BenchmarkClusterIdle(b *testing.B) {
	cfg := testConfig(RepairNaive, faults.ClusterPlan{})
	cfg.Window = sim.Time(b.N) * sim.Millisecond
	cfg.QuiesceBefore = cfg.Window
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := c.Eng.RunFor(cfg.Window); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if s := c.Stats(); s.WritesIssued+s.ReadsIssued != 0 {
		b.Fatalf("idle cluster issued %d client ops", s.WritesIssued+s.ReadsIssued)
	}
}
